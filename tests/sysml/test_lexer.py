"""Unit tests for the SysML v2 lexer."""

import pytest

from fixtures import tokenize
from repro.sysml.errors import LexerError
from repro.sysml.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("emco") == [TokenKind.IDENT]

    def test_identifier_with_underscores_and_digits(self):
        assert values("pp_actual_X_EMCOVar2") == ["pp_actual_X_EMCOVar2"]

    def test_keywords_lex_as_identifiers(self):
        # keywords are contextual in SysML v2
        assert kinds("part def") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_punctuation(self):
        assert kinds("{ } [ ] ( ) ; , . = * ~") == [
            TokenKind.LBRACE, TokenKind.RBRACE, TokenKind.LBRACKET,
            TokenKind.RBRACKET, TokenKind.LPAREN, TokenKind.RPAREN,
            TokenKind.SEMI, TokenKind.COMMA, TokenKind.DOT,
            TokenKind.EQUALS, TokenKind.STAR, TokenKind.TILDE,
        ]

    def test_specializes_operator(self):
        assert kinds(":>") == [TokenKind.SPECIALIZES]

    def test_redefines_operator(self):
        assert kinds(":>>") == [TokenKind.REDEFINES]

    def test_double_colon(self):
        assert kinds("A::B") == [TokenKind.IDENT, TokenKind.DOUBLE_COLON,
                                 TokenKind.IDENT]

    def test_single_colon(self):
        assert kinds("x : T") == [TokenKind.IDENT, TokenKind.COLON,
                                  TokenKind.IDENT]

    def test_redefines_binds_tighter_than_specializes(self):
        # ':>>' must not lex as ':>' '>'
        assert kinds(":>> ip") == [TokenKind.REDEFINES, TokenKind.IDENT]


class TestLiterals:
    def test_double_quoted_string(self):
        tokens = tokenize('"hello world"')
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "hello world"

    def test_single_quoted_string(self):
        tokens = tokenize("'10.197.12.11'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "10.197.12.11"

    def test_string_escapes(self):
        tokens = tokenize(r"'a\'b\nc'")
        assert tokens[0].value == "a'b\nc"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_string_may_not_span_lines(self):
        with pytest.raises(LexerError):
            tokenize("'line\nbreak'")

    def test_integer(self):
        tokens = tokenize("5557")
        assert tokens[0].kind is TokenKind.INTEGER
        assert tokens[0].value == "5557"

    def test_real(self):
        tokens = tokenize("3.19")
        assert tokens[0].kind is TokenKind.REAL
        assert tokens[0].value == "3.19"

    def test_real_with_exponent(self):
        tokens = tokenize("1.5e-3")
        assert tokens[0].kind is TokenKind.REAL

    def test_integer_with_exponent_is_real(self):
        tokens = tokenize("2e6")
        assert tokens[0].kind is TokenKind.REAL

    def test_integer_followed_by_dotdot_is_not_real(self):
        # multiplicity ranges like [1..4] must not eat "1." as a real
        assert kinds("1..4") == [TokenKind.INTEGER, TokenKind.DOT,
                                 TokenKind.DOT, TokenKind.INTEGER]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\n b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_block_comment_skipped(self):
        assert kinds("a /* comment */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_multiline_block_comment(self):
        assert kinds("a /* multi\nline */ b") == [TokenKind.IDENT,
                                                  TokenKind.IDENT]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError):
            tokenize("/* never ends")

    def test_doc_comment_preserved(self):
        tokens = tokenize("doc /* the documentation */")
        assert tokens[0].value == "doc"
        assert tokens[1].kind is TokenKind.DOC_COMMENT
        assert tokens[1].value == "the documentation"

    def test_plain_block_comment_not_attached_to_non_doc(self):
        tokens = tokenize("part /* note */ x")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.IDENT,
                                                 TokenKind.IDENT]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_propagates(self):
        tokens = tokenize("x", filename="factory.sysml")
        assert tokens[0].location.filename == "factory.sysml"

    def test_error_reports_location(self):
        with pytest.raises(LexerError) as exc:
            tokenize("ok\n  @bad")
        assert exc.value.location.line == 2

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("part €")


class TestRealisticSnippets:
    def test_paper_code2_header(self):
        text = "part def EMCODriver :> MachineDriver {"
        assert values(text) == ["part", "def", "EMCODriver", ":>",
                                "MachineDriver", "{"]

    def test_paper_code5_redefinition(self):
        text = ":>> ip = '10.197.12.11';"
        tokens = tokenize(text)
        assert tokens[0].kind is TokenKind.REDEFINES
        assert tokens[2].kind is TokenKind.EQUALS
        assert tokens[3].value == "10.197.12.11"

    def test_conjugated_port(self):
        text = "port p : ~EMCOVar;"
        assert TokenKind.TILDE in kinds(text)

    def test_multiplicity_star(self):
        text = "ref part Machine [*];"
        assert kinds(text)[-4:-1] == [TokenKind.LBRACKET, TokenKind.STAR,
                                      TokenKind.RBRACKET]
