"""Unit tests for the SysML v2 parser: the unresolved elements it builds."""

import pytest

from repro.sysml import elements as el
from repro.sysml.ast_nodes import Literal
from repro.sysml.errors import ParseError
from repro.sysml.parser import MAX_NESTING, parse


def only(tree):
    assert len(tree.members) == 1
    return tree.members[0]


class TestPackagesAndImports:
    def test_empty_package(self):
        node = only(parse("package P { }"))
        assert isinstance(node, el.Package)
        assert node.name == "P"
        assert node.owned_elements == []

    def test_nested_packages(self):
        node = only(parse("package A { package B { } }"))
        inner = node.owned_elements[0]
        assert isinstance(inner, el.Package)
        assert inner.owner is node
        assert inner.name == "B"

    def test_wildcard_import(self):
        node = only(parse("import ISA95::*;"))
        assert isinstance(node, el.Import)
        assert str(node.target_name) == "ISA95"
        assert node.wildcard

    def test_specific_import(self):
        node = only(parse("import ISA95::Machine;"))
        assert str(node.target_name) == "ISA95::Machine"
        assert not node.wildcard

    def test_recursive_import(self):
        node = only(parse("import ISA95::*::*;"))
        assert node.wildcard and node.recursive


class TestDefinitions:
    def test_simple_part_def(self):
        node = only(parse("part def Machine;"))
        assert isinstance(node, el.PartDefinition)
        assert node.kind == "part"
        assert node.name == "Machine"
        assert not node.is_abstract

    def test_abstract_part_def(self):
        node = only(parse("abstract part def Driver;"))
        assert node.is_abstract

    def test_specialization_shorthand(self):
        node = only(parse("part def EMCODriver :> MachineDriver;"))
        assert [str(q) for q in node.specialization_names] == ["MachineDriver"]

    def test_specialization_keyword(self):
        node = only(parse("part def A specializes B { }"))
        assert [str(q) for q in node.specialization_names] == ["B"]

    def test_multiple_specializations(self):
        node = only(parse("part def C :> A, B;"))
        assert [str(q) for q in node.specialization_names] == ["A", "B"]

    def test_qualified_specialization(self):
        node = only(parse("part def X :> ISA95::Machine;"))
        assert [str(q) for q in node.specialization_names] == ["ISA95::Machine"]

    def test_all_definition_kinds(self):
        for kind in ("part", "attribute", "port", "action", "interface",
                     "connection", "item"):
            node = only(parse(f"{kind} def D;"))
            assert isinstance(node, el.Definition)
            assert node.kind == kind

    def test_nested_definitions(self):
        node = only(parse("part def A { part def B { port def C; } }"))
        inner = node.owned_elements[0]
        assert inner.name == "B"
        assert isinstance(inner.owned_elements[0], el.PortDefinition)

    def test_doc_in_definition(self):
        node = only(parse("part def A { doc /* docs here */ }"))
        assert node.documentation == "docs here"
        assert node.owned_elements == []


class TestUsages:
    def test_typed_part_usage(self):
        node = only(parse("part emco : EMCO;"))
        assert isinstance(node, el.PartUsage)
        assert node.kind == "part"
        assert node.name == "emco"
        assert str(node.type_name) == "EMCO"

    def test_ref_part_with_multiplicity(self):
        node = only(parse("ref part machines : Machine [*];"))
        assert node.is_reference
        assert node.multiplicity.lower == 0
        assert node.multiplicity.upper is None

    def test_exact_multiplicity(self):
        node = only(parse("part wheel : Wheel [4];"))
        assert node.multiplicity.lower == 4
        assert node.multiplicity.upper == 4

    def test_range_multiplicity(self):
        node = only(parse("part axle : Axle [1..2];"))
        assert node.multiplicity.lower == 1
        assert node.multiplicity.upper == 2

    def test_open_range_multiplicity(self):
        node = only(parse("part axle : Axle [1..*];"))
        assert node.multiplicity.lower == 1
        assert node.multiplicity.upper is None

    def test_attribute_with_value(self):
        node = only(parse("attribute ip : String = '10.0.0.1';"))
        assert isinstance(node, el.AttributeUsage)
        assert isinstance(node.value, Literal)
        assert node.value.value == "10.0.0.1"

    def test_attribute_with_integer_value(self):
        node = only(parse("attribute ip_port : Integer = 5557;"))
        assert node.value.value == 5557

    def test_attribute_with_real_value(self):
        node = only(parse("attribute x : Real = 3.19;"))
        assert node.value.value == pytest.approx(3.19)

    def test_attribute_with_boolean_value(self):
        node = only(parse("attribute ok : Boolean = true;"))
        assert node.value.value is True

    def test_conjugated_port_usage(self):
        node = only(parse("port p : ~EMCOVar;"))
        assert node.conjugated

    def test_postfix_conjugation(self):
        node = only(parse("port p : EMCOVar~;"))
        assert node.conjugated

    def test_directed_attribute(self):
        node = only(parse("in attribute value : Real;"))
        assert node.direction == "in"

    def test_out_action(self):
        node = only(parse("out action operation { out ready : Boolean; }"))
        assert isinstance(node, el.ActionUsage)
        assert node.direction == "out"
        param = node.owned_elements[0]
        assert isinstance(param, el.AttributeUsage)
        assert param.direction == "out"
        assert param.name == "ready"

    def test_parameter_named_like_a_kind_keyword(self):
        # regression: 'in item : String;' must be a parameter named
        # 'item', not an anonymous item usage
        node = only(parse("in item : String;"))
        assert isinstance(node, el.AttributeUsage)
        assert node.name == "item"
        assert node.direction == "in"
        node = only(parse("out port : Integer;"))
        assert node.name == "port"

    def test_bare_parameter_declaration(self):
        node = only(parse("out ready : Boolean;"))
        assert isinstance(node, el.AttributeUsage)
        assert node.direction == "out"

    def test_usage_specializes(self):
        node = only(parse("part p :> base;"))
        assert [str(q) for q in node.specialization_names] == ["base"]

    def test_usage_redefines_keyword(self):
        node = only(parse("attribute value redefines value : Double;"))
        assert [str(q) for q in node.redefinition_names] == ["value"]
        assert str(node.type_name) == "Double"

    def test_anonymous_usage_with_type(self):
        node = only(parse("part : EMCO;"))
        assert node.name is None


class TestShorthandRedefinition:
    def test_value_redefinition(self):
        node = only(parse(":>> ip = '10.197.12.11';"))
        assert isinstance(node, el.RedefinitionUsage)
        assert [str(q) for q in node.redefinition_names] == ["ip"]
        assert node.value.value == "10.197.12.11"

    def test_redefinition_with_type(self):
        node = only(parse(":>> value : Double;"))
        assert str(node.type_name) == "Double"

    def test_redefinition_with_body(self):
        node = only(parse(":>> status { attribute detail : String; }"))
        assert len(node.owned_elements) == 1


class TestConnectorsAndBinds:
    def test_bind(self):
        node = only(parse("bind p.value = actualX;"))
        assert isinstance(node, el.BindingConnector)
        assert str(node.left_chain) == "p.value"
        assert str(node.right_chain) == "actualX"

    def test_anonymous_connect(self):
        node = only(parse("connect emco.data to driver.vars;"))
        assert isinstance(node, el.Connector)
        assert node.connector_kind == "connection"
        assert node.name is None
        assert str(node.source_chain) == "emco.data"
        assert str(node.target_chain) == "driver.vars"

    def test_named_typed_connection(self):
        node = only(parse(
            "connection c : DataChannel connect emco.data to driver.vars;"))
        assert isinstance(node, el.Connector)
        assert node.name == "c"
        assert str(node.type_name) == "DataChannel"

    def test_interface_connect(self):
        node = only(parse(
            "interface : DataInterface connect machine.p to driver.p;"))
        assert isinstance(node, el.Connector)
        assert node.connector_kind == "interface"
        assert node.name is None
        assert str(node.type_name) == "DataInterface"

    def test_interface_def_with_ends(self):
        node = only(parse("""
            interface def DataInterface {
                end machineEnd : ~EMCOVar;
                end driverEnd : EMCOVar;
            }
        """))
        assert isinstance(node, el.InterfaceDefinition)
        ends = [m for m in node.owned_elements if isinstance(m, el.EndUsage)]
        assert len(ends) == 2
        assert ends[0].conjugated

    def test_plain_interface_usage_without_connect(self):
        node = only(parse("interface iface : DataInterface;"))
        assert isinstance(node, el.InterfaceUsage)
        assert node.name == "iface"
        assert str(node.type_name) == "DataInterface"


class TestConjugatedConnectorType:
    @pytest.mark.parametrize("text", [
        "connection c : T~ connect a to b;",
        "connection c : ~T connect a to b;",
    ])
    def test_rejected_in_both_spellings(self, text):
        with pytest.raises(ParseError,
                           match="cannot be conjugated") as info:
            parse(text, "f.sysml")
        location = info.value.location
        assert (location.filename, location.line, location.column) == \
            ("f.sysml", 1, 16)


class TestPerformAndAssignments:
    def test_perform_with_assignment(self):
        node = only(parse("""
            perform pp_is_ready.operation {
                out ready = call_is_ready.ready;
            }
        """))
        assert isinstance(node, el.PerformAction)
        assert str(node.target_chain) == "pp_is_ready.operation"
        assignment = node.owned_elements[0]
        assert isinstance(assignment, el.Assignment)
        assert assignment.direction == "out"
        assert assignment.name == "ready"
        assert str(assignment.value.chain) == "call_is_ready.ready"

    def test_perform_without_body(self):
        node = only(parse("perform startup.init;"))
        assert node.owned_elements == []


class TestLocations:
    def test_assignment_sits_at_its_first_token(self):
        action = parse("action a {\n  out x = b.c;\n}", "f.sysml").members[0]
        (assignment,) = action.owned_elements
        assert isinstance(assignment, el.Assignment)
        assert (assignment.location.filename, assignment.location.line,
                assignment.location.column) == ("f.sysml", 2, 3)

    def test_enum_literal_sits_at_its_name(self):
        enum = parse("enum def E {\n  red;\n    green;\n}",
                     "f.sysml").members[0]
        assert [(literal.location.filename, literal.location.line,
                 literal.location.column)
                for literal in enum.owned_elements] == [
            ("f.sysml", 2, 3), ("f.sysml", 3, 5)]


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("part def A { attribute x : T }")

    def test_unterminated_body(self):
        with pytest.raises(ParseError):
            parse("part def A {")

    def test_junk_member(self):
        with pytest.raises(ParseError):
            parse("part def A { = ; }")

    def test_bad_import(self):
        with pytest.raises(ParseError):
            parse("import ;")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as exc:
            parse("part def A {\n  to to;\n}")
        assert exc.value.location.line == 2


class TestPaperListings:
    """The paper's Codes 1-5 must parse (modulo elided '...' bodies)."""

    def test_code1_hierarchy(self):
        tree = parse("""
            part def Topology {
                part def Enterprise {
                    part def Site {
                        part def Area {
                            part def ProductionLine {
                                attribute def ProductionLineVariables;
                                part def Workcell {
                                    ref part machines : Machine [*];
                                    part def WorkCellVariables;
                                }
                            }
                        }
                    }
                }
            }
        """)
        assert only(tree).name == "Topology"

    def test_code2_driver_specialization(self):
        tree = parse("""
            part def EMCODriver :> MachineDriver {
                part def EMCOParameters :> DriverParameters {
                    attribute ip : String;
                    attribute ip_port : Integer;
                    attribute program_file_path : String;
                }
                part def EMCOVariables :> DriverVariables {
                    port def EMCOVar { in attribute value : Real; }
                    part def AxesPositions;
                    part def SystemStatus;
                }
                part def EMCOMethods :> DriverMethods {
                    port def EMCOMethod {
                        attribute description : String;
                        out action operation { out ready : Boolean; }
                    }
                }
            }
        """)
        node = only(tree)
        assert node.name == "EMCODriver"
        assert len(node.owned_elements) == 3

    def test_code4_instantiation(self):
        tree = parse("""
            part ICETopology : Topology {
                part UniVR : Enterprise {
                    part workCell02 : Workcell {
                        part emco : EMCO {
                            ref part emcoDriver;
                            part emcoMachineData : EMCOMachineData {
                                part emcoAxesPosition : AxesPositions {
                                    attribute actualX : Double;
                                    bind actual_X_EMCOVar_conj.value = actualX;
                                }
                            }
                            part emcoServices : EMCOServices {
                                action isReady { out ready : Boolean; }
                            }
                        }
                    }
                }
            }
        """)
        assert only(tree).name == "ICETopology"

    def test_code5_driver_instantiation(self):
        tree = parse("""
            part emcoDriver : EMCODriver {
                part emcoParameters : EMCOParameters {
                    :>> ip = '10.197.12.11';
                    :>> ip_port = 5557;
                    :>> program_file_path = 'path/program/file';
                }
                part emcoVariables : EMCOVariables {
                    part emcoSystemStatus : SystemStatus;
                    part emcoAxesPositions : AxesPositions {
                        attribute actualX : Double;
                        port pp_actual_X_EMCOVar : EMCOVar;
                        bind pp_actual_X_EMCOVar.value = actualX;
                    }
                }
                part emcoMethods : EMCOMethods {
                    action call_is_ready {
                        out ready : Boolean;
                        perform pp_is_ready_EMCOMthd.operation {
                            out ready = call_is_ready.ready;
                        }
                    }
                    port pp_is_ready_EMCOMthd : EMCOMethod;
                }
            }
        """)
        assert only(tree).name == "emcoDriver"


class TestSinglePass:
    def test_elements_are_numbered_in_pre_order(self):
        tree = parse("package A { part def B { attribute c; } "
                     "enum def E { x; } } part d { :>> e = 1; }")
        order = []
        for root in tree.members:
            order.append(root)
            order.extend(root.descendants())
        ids = [element.element_id for element in order]
        assert ids == sorted(ids)

    def test_top_level_docs_are_dropped(self):
        tree = parse("doc /* about the file */ part def A; /* plain */")
        assert [element.name for element in tree.members] == ["A"]
        assert tree.members[0].documentation == ""

    def test_first_non_empty_doc_documents_the_owner(self):
        node = only(parse("package P { doc /**/ part x; "
                          "doc /* first */ doc /* second */ }"))
        assert node.documentation == "first"
        assert [child.name for child in node.owned_elements] == ["x"]

    def test_roots_are_unowned_until_built_into_a_model(self):
        from repro.sysml import build_model
        first, second = parse("part def A;"), parse("part def B;")
        assert first.members[0].owner is None
        model = build_model(first, second)
        assert [root.name for root in model.owned_elements] == ["A", "B"]
        assert all(root.owner is model for root in model.owned_elements)


def nested(depth):
    """*depth* nested part usages, the innermost one with a value."""
    opening = "".join(f"part p{level} : T {{ " for level in range(depth))
    return ("part def T { attribute v : Integer; }\n"
            + opening + ":>> v = 1; " + "}" * depth + "\n")


class TestNestingBound:
    """Bodies nest at most MAX_NESTING deep; every later pass, and the
    parse cache's pickling, is measured to work at that depth."""

    def test_sources_at_the_limit_pass_every_stage(self):
        import pickle

        from repro.sysml import ModelSession, load_model, print_model
        text = nested(MAX_NESTING)
        model = load_model(text)
        assert f"part p{MAX_NESTING - 1} : T" in print_model(model)
        live = ModelSession(text)
        update = live.update(text.replace("= 1;", "= 2;"))
        assert not update.full_rebuild and update.dirty_anchors
        tree = pickle.loads(pickle.dumps(parse(text),
                                         protocol=pickle.HIGHEST_PROTOCOL))
        assert tree.members[1].name == "p0"

    def test_one_body_past_the_limit_is_a_located_parse_error(self):
        text = nested(MAX_NESTING + 1)
        with pytest.raises(ParseError, match="deeper than 128") as caught:
            parse(text, "deep.sysml")
        offending = text.index("{", text.index(f"p{MAX_NESTING} "))
        location = caught.value.location
        assert (location.filename, location.line, location.column) \
            == ("deep.sysml", 2, offending - text.index("\n"))

    def test_far_past_the_limit_is_never_a_recursion_error(self):
        from repro.sysml import load_model
        with pytest.raises(ParseError, match="deeper than"):
            load_model(nested(400))
