"""YAML emitter/parser tests, including round-trips on K8s-like docs."""

import pytest

from fixtures import emit_documents
from repro.yamlgen import (YamlEmitError, YamlParseError, emit,
                           needs_quoting, parse, parse_documents,
                           parse_scalar)


class TestScalars:
    @pytest.mark.parametrize("value,expected", [
        ("42", 42),
        ("-17", -17),
        ("3.14", 3.14),
        ("true", True),
        ("False", False),
        ("null", None),
        ("~", None),
        ("hello", "hello"),
        ('"quoted"', "quoted"),
        ("'single'", "single"),
        ("{}", {}),
        ("[]", []),
    ])
    def test_parse_scalar(self, value, expected):
        assert parse_scalar(value) == expected

    def test_escaped_double_quotes(self):
        assert parse_scalar('"a\\"b"') == 'a"b'

    def test_escaped_newline(self):
        assert parse_scalar('"a\\nb"') == "a\nb"

    def test_single_quote_doubling(self):
        assert parse_scalar("'it''s'") == "it's"


class TestNeedsQuoting:
    @pytest.mark.parametrize("text", [
        "true", "null", "123", "1.5", "", " pad", "pad ", "-dash",
        "a: b", "has#hash", "with\nnewline", "yes",
    ])
    def test_quoting_required(self, text):
        assert needs_quoting(text)

    @pytest.mark.parametrize("text", [
        "hello", "emco-server", "opcua_client", "CamelCase", "a.b.c",
    ])
    def test_no_quoting(self, text):
        assert not needs_quoting(text)


class TestEmit:
    def test_flat_mapping(self):
        assert emit({"a": 1, "b": "x"}) == "a: 1\nb: x\n"

    def test_nested_mapping(self):
        text = emit({"metadata": {"name": "emco"}})
        assert text == "metadata:\n  name: emco\n"

    def test_sequence_of_scalars(self):
        assert emit({"items": [1, 2]}) == "items:\n  - 1\n  - 2\n"

    def test_sequence_of_mappings(self):
        text = emit({"containers": [{"name": "c", "image": "i"}]})
        assert "- name: c" in text
        assert "    image: i" in text

    def test_empty_collections(self):
        assert emit({"a": {}, "b": []}) == "a: {}\nb: []\n"

    def test_special_string_quoted(self):
        assert emit({"v": "true"}) == 'v: "true"\n'

    def test_numeric_string_quoted(self):
        assert emit({"v": "123"}) == 'v: "123"\n'

    def test_unsupported_type_rejected(self):
        with pytest.raises(YamlEmitError):
            emit({"v": object()})

    def test_non_string_keys_rejected(self):
        with pytest.raises(YamlEmitError):
            emit({1: "x"})


class TestParse:
    def test_mapping(self):
        assert parse("a: 1\nb: x\n") == {"a": 1, "b": "x"}

    def test_nested(self):
        assert parse("a:\n  b:\n    c: 3\n") == {"a": {"b": {"c": 3}}}

    def test_sequence(self):
        assert parse("- 1\n- 2\n") == [1, 2]

    def test_sequence_of_mappings(self):
        doc = parse("items:\n  - name: a\n    value: 1\n  - name: b\n")
        assert doc == {"items": [{"name": "a", "value": 1}, {"name": "b"}]}

    def test_comments_stripped(self):
        assert parse("a: 1  # trailing\n# full line\nb: 2\n") == \
            {"a": 1, "b": 2}

    def test_hash_inside_quotes_preserved(self):
        assert parse('a: "x # y"\n') == {"a": "x # y"}

    def test_empty_value_is_none(self):
        assert parse("a:\nb: 1\n") == {"a": None, "b": 1}

    def test_duplicate_key_rejected(self):
        with pytest.raises(YamlParseError):
            parse("a: 1\na: 2\n")

    def test_tab_indentation_rejected(self):
        with pytest.raises(YamlParseError):
            parse("a:\n\tb: 1\n")

    def test_multi_document(self):
        docs = parse_documents("---\na: 1\n---\nb: 2\n")
        assert docs == [{"a": 1}, {"b": 2}]

    def test_parse_rejects_multi_document(self):
        with pytest.raises(YamlParseError):
            parse("---\na: 1\n---\nb: 2\n")

    def test_empty_stream(self):
        assert parse_documents("") == []
        assert parse("") is None


K8S_DOC = {
    "apiVersion": "apps/v1",
    "kind": "Deployment",
    "metadata": {
        "name": "emco-opcua-server",
        "labels": {"app": "emco", "managed-by": "sysmlv2-factory-config"},
    },
    "spec": {
        "replicas": 1,
        "selector": {"matchLabels": {"app": "emco"}},
        "template": {
            "metadata": {"labels": {"app": "emco"}},
            "spec": {
                "containers": [{
                    "name": "opcua-server",
                    "image": "icelab/opcua-server:1.4.2",
                    "ports": [{"containerPort": 4840}],
                    "env": [
                        {"name": "CONFIG_PATH",
                         "value": "/etc/factory/config.json"},
                        {"name": "FLAG", "value": "true"},
                    ],
                }],
                "volumes": [],
            },
        },
    },
}


class TestRoundTrip:
    def test_k8s_deployment_roundtrip(self):
        assert parse(emit(K8S_DOC)) == K8S_DOC

    def test_multi_document_roundtrip(self):
        docs = [K8S_DOC, {"apiVersion": "v1", "kind": "Service",
                          "metadata": {"name": "emco"}}]
        assert parse_documents(emit_documents(docs)) == docs

    def test_double_roundtrip_stable(self):
        once = emit(parse(emit(K8S_DOC)))
        assert once == emit(K8S_DOC)

    @pytest.mark.parametrize("doc", [
        {"a": None},
        {"a": True, "b": False},
        {"a": -1.5e10},
        {"list": [[1, 2], [3]]},
        {"deep": {"er": {"est": [{"x": {"y": 1}}]}}},
        {"quoted": 'tricky: "value" # here'},
        {"newline": "line1\nline2"},
    ])
    def test_assorted_roundtrips(self, doc):
        assert parse(emit(doc)) == doc
