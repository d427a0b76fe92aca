"""Differential tests: streaming lexer vs the reference scanner.

The streaming regex lexer (`repro.sysml.lexer`) must agree with the
character-at-a-time reference (`tests/lexer_reference.py`)
token-for-token — kinds, values, source locations — and raise the same
errors with the same messages and positions. These tests are the
executable contract that lets the hot path evolve without semantic
drift; the scaling bench separately asserts the speedup.
"""

import pytest

from lexer_reference import tokenize_reference
from repro.icelab.model_gen import icelab_sources
from repro.sysml.errors import LexerError
from repro.sysml.lexer import Lexer, iter_tokens, tokenize
from repro.sysml.tokens import TokenKind


def assert_agrees(text, filename="<model>"):
    """Both lexers produce identical token streams (or identical errors)."""
    try:
        expected = tokenize_reference(text, filename)
    except LexerError as error:
        with pytest.raises(LexerError) as caught:
            tokenize(text, filename)
        assert str(caught.value) == str(error)
        return None
    actual = tokenize(text, filename)
    assert [(t.kind, t.value, t.location) for t in actual] == \
        [(t.kind, t.value, t.location) for t in expected]
    return actual


class TestCorpusAgreement:
    def test_full_icelab_corpus(self):
        for index, source in enumerate(icelab_sources()):
            assert_agrees(source, f"<icelab{index}>")

    def test_streaming_equals_list_tokenization(self):
        source = "\n".join(icelab_sources())
        assert list(iter_tokens(source)) == tokenize(source)

    def test_streaming_is_lazy(self):
        """The stream yields before the input is fully scanned."""
        stream = iter_tokens("part def P;" * 100_000)
        first = next(stream)
        assert first.kind is TokenKind.IDENT and first.value == "part"


class TestLineEndings:
    def test_crlf_line_endings(self):
        tokens = assert_agrees("part def A;\r\npart def B;\r\n")
        # CRLF counts as one line break; locations match the reference
        assert tokens[4].value == "part"
        assert tokens[4].location.line == 2
        assert tokens[4].location.column == 1

    def test_mixed_line_endings(self):
        assert_agrees("part def A;\r\npart def B;\npart def C;\rpart def D;")

    def test_lone_carriage_returns_are_whitespace_not_newlines(self):
        tokens = assert_agrees("a\rb")
        assert tokens[1].location.line == 1

    def test_crlf_inside_block_comment(self):
        assert_agrees("/* a\r\n b */ part def P;")

    def test_crlf_inside_doc_comment_body(self):
        tokens = assert_agrees("doc /* first\r\nsecond */")
        doc = [t for t in tokens if t.kind is TokenKind.DOC_COMMENT]
        assert len(doc) == 1


class TestScaleInputs:
    def test_multi_megabyte_single_package(self):
        # one package source comfortably past a megabyte
        body = "".join(
            f"    part m{i} : M {{ attribute v{i} : Real = {i}.5; }}\n"
            for i in range(12_000))
        source = f"package Big {{\n{body}}}\n"
        assert len(source) > 600_000
        tokens = assert_agrees(source)
        assert tokens[-1].kind is TokenKind.EOF
        assert tokens[-1].location.line == source.count("\n") + 1

    def test_pathological_line_comment_runs(self):
        source = "// filler comment line\n" * 20_000 + "part def P;\n"
        tokens = assert_agrees(source)
        assert tokens[0].location.line == 20_001

    def test_pathological_block_comment_run(self):
        source = "/*" + ("*" * 50_000) + "*/ part def P;"
        assert_agrees(source)

    def test_alternating_doc_and_plain_comments(self):
        chunk = "doc /* documented */ /* ignored */ // eol\n"
        tokens = assert_agrees(chunk * 2_000)
        docs = [t for t in tokens if t.kind is TokenKind.DOC_COMMENT]
        assert len(docs) == 2_000

    def test_long_quoted_names_and_strings(self):
        source = ("part '" + "x " * 5_000 + "end' : T;\n"
                  + 'attribute s : String = "' + "y " * 5_000 + '";')
        assert_agrees(source)


class TestErrorAgreement:
    CASES = [
        "'open", '"open', "'line\nbreak'", '"line\nbreak"',
        "/* never closed", "part €", "1.5e", "1.5e+", "²abc", "12²3",
        "@", "part def P; 'x", "a\n€", "  \r\n  ∑",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_same_error_message_and_location(self, source):
        assert_agrees(source)

    def test_error_location_after_crlf_lines(self):
        with pytest.raises(LexerError) as caught:
            tokenize("part def A;\r\npart €")
        assert "<model>:2:6" in str(caught.value)


class TestTokenInterning:
    def test_identifier_values_are_interned(self):
        a, b = tokenize("sameName sameName")[:2]
        assert a.value is b.value

    def test_interning_across_lexer_instances(self):
        (a,) = [t for t in Lexer("shared").tokens()
                if t.kind is TokenKind.IDENT]
        (b,) = [t for t in Lexer("shared").tokens()
                if t.kind is TokenKind.IDENT]
        assert a.value is b.value


class TestParallelParseDeterminism:
    """The streaming front end must stay deterministic where its trees
    cross threads or processes: the service parses in concurrent
    request threads, and the artifact cache pickles parse trees (the
    root elements of each source)."""

    @staticmethod
    def _fingerprint(model):
        from repro.sysml import print_element
        return "".join(print_element(e) for e in model.owned_elements)

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_parallel_modes_match_serial(self, mode, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        from fixtures import front_end_signature

        from repro.cache import ArtifactCache
        from repro.fingerprint import fingerprint
        from repro.obs import METRICS
        from repro.sysml import build_model, load_model, model_to_dict, parse
        from repro.sysml.stdlib import SCALAR_VALUES_SOURCE
        sources = icelab_sources()
        if mode == "thread":
            names = [f"<model{i}>" for i in range(len(sources))]
            serial = [parse(text, name)
                      for text, name in zip(sources, names)]
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(parse, sources, names))
            assert front_end_signature(build_model(*threaded)) \
                == front_end_signature(build_model(*serial))
            return
        cache = ArtifactCache(tmp_path / "cache")
        # entries written under the salt of the AST-era parse cache
        # are never replayed as element trees
        names = ["<stdlib>"] + [f"<model{i}>" for i in range(len(sources))]
        for text, name in zip([SCALAR_VALUES_SOURCE, *sources], names):
            cache.put_object(
                fingerprint(text, name, salt="sysml-parse-tree/1"),
                "an AST-era parse tree")
        METRICS.reset()
        serial = load_model(*sources, cache=cache)
        assert METRICS.snapshot().get("cache.hits", 0) == 0
        # every tree of the second load comes back through pickle
        METRICS.reset()
        replayed = load_model(*sources, cache=cache)
        assert METRICS.snapshot()["cache.hits"] == len(sources) + 1
        assert front_end_signature(replayed) == front_end_signature(serial)
        assert model_to_dict(replayed) == model_to_dict(serial)
        assert self._fingerprint(replayed) == self._fingerprint(serial)
        assert replayed.content_fingerprint == serial.content_fingerprint
