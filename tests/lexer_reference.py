"""Reference lexer: the character-at-a-time executable specification.

This is the original hand-written scanner for the SysML v2 textual
notation subset, kept as an *executable spec* after the streaming
regex lexer in :mod:`repro.sysml.lexer` replaced it on the hot path:

* the differential tests in ``tests/sysml/test_lexer_stream.py`` assert
  that the streaming lexer agrees with this one token-for-token
  (kinds, values **and** source locations) on every corpus source, and
* the A4 scaling benchmark measures the streaming lexer's tokens/sec
  speedup against this baseline, so the win stays visible per PR.

It advances one character at a time with explicit line/column
bookkeeping — easy to audit against the grammar, and deliberately
naive about performance. Behavioural changes belong in *both* lexers;
the differential tests fail loudly if they drift apart.
"""

from __future__ import annotations

from repro.sysml.errors import LexerError, SourceLocation
from repro.sysml.tokens import Token, TokenKind

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "=": TokenKind.EQUALS,
    "*": TokenKind.STAR,
    "~": TokenKind.TILDE,
    "-": TokenKind.MINUS,
}


def _is_digit(ch: str) -> bool:
    # ASCII digits only: Unicode numerics ('²', '๒', ...) are not part
    # of the lexical grammar and report as unexpected characters, in
    # both this and the streaming lexer.
    return "0" <= ch <= "9"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class ReferenceLexer:
    """Tokenizes a single source text, one character at a time."""

    def __init__(self, text: str, filename: str = "<model>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self._prev_significant: Token | None = None

    # -- low-level helpers -------------------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.column)

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk

    # -- scanning ----------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Scan the whole input and return the token list (EOF-terminated)."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            if token is None:
                continue
            result.append(token)
            if token.kind is TokenKind.EOF:
                return result

    def _next_token(self) -> Token | None:
        self._skip_whitespace()
        loc = self._loc()
        ch = self._peek()
        if not ch:
            return Token(TokenKind.EOF, "", loc)
        if ch == "/" and self._peek(1) == "/":
            self._skip_line_comment()
            return None
        if ch == "/" and self._peek(1) == "*":
            body = self._read_block_comment(loc)
            if self._prev_was_doc_keyword():
                token = Token(TokenKind.DOC_COMMENT, body, loc)
                self._prev_significant = token
                return token
            return None
        if ch == ":":
            return self._read_colon(loc)
        if ch in _PUNCT:
            self._advance()
            return self._emit(Token(_PUNCT[ch], ch, loc))
        if ch == '"':
            return self._emit(self._read_string(loc, '"'))
        if ch == "'":
            return self._emit(self._read_quoted_name(loc))
        if _is_digit(ch):
            return self._emit(self._read_number(loc))
        if _is_ident_start(ch):
            return self._emit(self._read_identifier(loc))
        raise LexerError(f"unexpected character {ch!r}", loc)

    def _emit(self, token: Token) -> Token:
        self._prev_significant = token
        return token

    def _prev_was_doc_keyword(self) -> bool:
        prev = self._prev_significant
        return prev is not None and prev.is_keyword("doc")

    def _skip_whitespace(self) -> None:
        while self._peek() and self._peek() in " \t\r\n":
            self._advance()

    def _skip_line_comment(self) -> None:
        while self._peek() and self._peek() != "\n":
            self._advance()

    def _read_block_comment(self, loc: SourceLocation) -> str:
        self._advance(2)  # consume /*
        start = self.pos
        while True:
            if not self._peek():
                raise LexerError("unterminated block comment", loc)
            if self._peek() == "*" and self._peek(1) == "/":
                body = self.text[start:self.pos]
                self._advance(2)
                return body.strip()
            self._advance()

    def _read_colon(self, loc: SourceLocation) -> Token:
        if self._peek(1) == ">" and self._peek(2) == ">":
            self._advance(3)
            return self._emit(Token(TokenKind.REDEFINES, ":>>", loc))
        if self._peek(1) == ">":
            self._advance(2)
            return self._emit(Token(TokenKind.SPECIALIZES, ":>", loc))
        if self._peek(1) == ":":
            self._advance(2)
            return self._emit(Token(TokenKind.DOUBLE_COLON, "::", loc))
        self._advance()
        return self._emit(Token(TokenKind.COLON, ":", loc))

    def _read_string(self, loc: SourceLocation, quote: str) -> Token:
        self._advance()  # opening quote
        parts: list[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise LexerError("unterminated string literal", loc)
            if ch == "\\":
                self._advance()
                escaped = self._advance()
                parts.append({"n": "\n", "t": "\t"}.get(escaped, escaped))
                continue
            if ch == quote:
                self._advance()
                return Token(TokenKind.STRING, "".join(parts), loc)
            parts.append(self._advance())

    def _read_quoted_name(self, loc: SourceLocation) -> Token:
        # SysML v2 "unrestricted names" use single quotes; they behave as
        # identifiers. Strings in attribute values also commonly use single
        # quotes in the paper's listings, so the parser decides from context;
        # we lex them as STRING and let the parser accept STRING where a
        # name is expected only if it contains no spaces? Simpler and
        # sufficient here: expose single-quoted text as STRING.
        return self._read_string(loc, "'")

    def _read_number(self, loc: SourceLocation) -> Token:
        start = self.pos
        while _is_digit(self._peek()):
            self._advance()
        if self._peek() == "." and _is_digit(self._peek(1)):
            self._advance()
            while _is_digit(self._peek()):
                self._advance()
            if self._peek() and self._peek() in "eE":
                self._read_exponent(loc)
            return Token(TokenKind.REAL, self.text[start:self.pos], loc)
        if self._peek() and self._peek() in "eE" and (_is_digit(self._peek(1)) or
                                     (self._peek(1) in "+-" and _is_digit(self._peek(2)))):
            self._read_exponent(loc)
            return Token(TokenKind.REAL, self.text[start:self.pos], loc)
        return Token(TokenKind.INTEGER, self.text[start:self.pos], loc)

    def _read_exponent(self, loc: SourceLocation) -> None:
        self._advance()  # e / E
        if self._peek() in "+-":
            self._advance()
        if not _is_digit(self._peek()):
            raise LexerError("malformed exponent in real literal", loc)
        while _is_digit(self._peek()):
            self._advance()

    def _read_identifier(self, loc: SourceLocation) -> Token:
        start = self.pos
        while _is_ident_part(self._peek()):
            self._advance()
        return Token(TokenKind.IDENT, self.text[start:self.pos], loc)


def tokenize_reference(text: str, filename: str = "<model>") -> list[Token]:
    """Lex *text* with the reference scanner and return the token list."""
    return ReferenceLexer(text, filename).tokens()
