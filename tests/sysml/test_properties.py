"""Property-based tests (hypothesis) for the SysML front end.

Strategy: generate random small semantic models programmatically, print
them to textual notation, re-parse, and require a fixpoint. This
exercises lexer, parser, printer and interchange together across a much
wider input space than the hand-written cases.
"""

import keyword
import string

from hypothesis import given, settings, strategies as st

from fixtures import tokenize
from repro.sysml import load_model, model_to_dict
from repro.sysml.ast_nodes import Literal, Multiplicity, QualifiedName
from repro.sysml.elements import (AttributeDefinition, AttributeUsage, Model,
                                  Package, PartDefinition, PartUsage,
                                  PortDefinition, PortUsage)
from repro.sysml.tokens import TokenKind

IDENT_ALPHABET = string.ascii_letters + "_"
IDENT_CONT = string.ascii_letters + string.digits + "_"

RESERVED = {
    "package", "part", "def", "abstract", "ref", "attribute", "port",
    "action", "interface", "connection", "connect", "bind", "perform",
    "import", "in", "out", "inout", "doc", "end", "to", "specializes",
    "redefines", "true", "false", "item",
}

identifiers = st.builds(
    lambda head, tail: head + tail,
    st.sampled_from(IDENT_ALPHABET),
    st.text(IDENT_CONT, max_size=8),
).filter(lambda s: s not in RESERVED and not keyword.iskeyword(s))

string_values = st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), max_size=20)
scalar_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    string_values,
)


@st.composite
def random_models(draw):
    """A random package of part defs with attributes, ports and usages."""
    model = Model()
    package = Package(draw(identifiers))
    model.add_owned(package)
    used_names: set[str] = {package.name}

    def fresh_name():
        name = draw(identifiers.filter(lambda n: n not in used_names))
        used_names.add(name)
        return name

    port_def = PortDefinition(fresh_name())
    value_attr = AttributeUsage("value")
    value_attr.direction = "in"
    value_attr.type_name = QualifiedName(["ScalarValues", "Real"])
    port_def.add_owned(value_attr)
    package.add_owned(port_def)

    definition_names = []
    for _ in range(draw(st.integers(1, 3))):
        definition = PartDefinition(fresh_name())
        definition_names.append(definition.name)
        for _ in range(draw(st.integers(0, 3))):
            attribute = AttributeUsage(fresh_name())
            attribute.type_name = QualifiedName(["ScalarValues", draw(
                st.sampled_from(["Real", "Integer", "String", "Boolean"]))])
            definition.add_owned(attribute)
        if draw(st.booleans()):
            port = PortUsage(fresh_name())
            port.type_name = QualifiedName([package.name, port_def.name])
            port.conjugated = draw(st.booleans())
            definition.add_owned(port)
        package.add_owned(definition)

    for _ in range(draw(st.integers(0, 2))):
        usage = PartUsage(fresh_name())
        usage.type_name = QualifiedName(
            [package.name, draw(st.sampled_from(definition_names))])
        if draw(st.booleans()):
            usage.multiplicity = Multiplicity(
                lower=draw(st.integers(0, 3)),
                upper=draw(st.one_of(st.none(), st.integers(3, 9))))
        model.add_owned(usage)
    return model


def print_user_model(model):
    """Print only the non-library root elements of a model."""
    from repro.sysml import print_element
    parts = []
    for element in model.owned_elements:
        if getattr(element, "is_library", False):
            continue
        parts.append(print_element(element))
    return "".join(parts)


@settings(max_examples=60, deadline=None)
@given(random_models())
def test_print_parse_print_fixpoint(model):
    printed = print_user_model(model)
    reparsed = load_model(printed)
    assert print_user_model(reparsed) == printed


@settings(max_examples=60, deadline=None)
@given(random_models())
def test_interchange_dict_stable_after_reparse(model):
    printed = print_user_model(model)
    first = load_model(printed)
    second = load_model(print_user_model(first))
    assert model_to_dict(second) == model_to_dict(first)


@settings(max_examples=100, deadline=None)
@given(identifiers)
def test_identifiers_lex_as_single_token(name):
    tokens = tokenize(name)
    assert len(tokens) == 2  # IDENT + EOF
    assert tokens[0].kind is TokenKind.IDENT
    assert tokens[0].value == name


@settings(max_examples=100, deadline=None)
@given(st.text(st.characters(blacklist_characters="'\\\n",
                             blacklist_categories=("Cs",)), max_size=30))
def test_string_literals_roundtrip_through_lexer(value):
    tokens = tokenize(f"'{value}'")
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[0].value == value


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_integers_lex_exactly(number):
    tokens = tokenize(str(number))
    assert tokens[0].kind is TokenKind.INTEGER
    assert int(tokens[0].value) == number


@settings(max_examples=50, deadline=None)
@given(st.lists(identifiers, min_size=1, max_size=5))
def test_qualified_names_roundtrip(parts):
    from repro.sysml.parser import Parser
    text = "::".join(parts)
    parser = Parser(text)
    qname = parser._parse_qualified_name()
    assert qname.parts == parts
