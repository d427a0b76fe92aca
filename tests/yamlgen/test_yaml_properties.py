"""Property-based tests: YAML round-trip over random document shapes."""

from hypothesis import given, settings, strategies as st

from fixtures import emit_documents
from repro.yamlgen import emit, parse, parse_documents

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=25),
)

keys = st.text(
    st.characters(whitelist_categories=("Ll", "Lu", "Nd"),
                  whitelist_characters="_-"),
    min_size=1, max_size=12)

documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=25,
)


def normalize(value):
    """-0.0 and 0.0 compare equal but emit differently; normalize."""
    if isinstance(value, float) and value == 0.0:
        return 0.0
    if isinstance(value, list):
        return [normalize(v) for v in value]
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items()}
    return value


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, documents, min_size=1, max_size=5))
def test_mapping_roundtrip(document):
    assert normalize(parse(emit(document))) == normalize(document)


@settings(max_examples=100, deadline=None)
@given(st.lists(documents, max_size=4))
def test_sequence_roundtrip(items):
    document = {"items": items}
    assert normalize(parse(emit(document))) == normalize(document)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(keys, documents, min_size=1, max_size=3),
                min_size=1, max_size=3))
def test_multi_document_roundtrip(docs):
    text = emit_documents(docs)
    assert normalize(parse_documents(text)) == normalize(docs)


@settings(max_examples=200, deadline=None)
@given(st.text(st.characters(blacklist_categories=("Cs", "Cc")),
               max_size=40))
def test_any_string_value_survives(value):
    assert parse(emit({"v": value}))["v"] == value


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, documents, min_size=1, max_size=4))
def test_emit_is_deterministic_and_stable(document):
    once = emit(document)
    assert emit(parse(once)) == once
