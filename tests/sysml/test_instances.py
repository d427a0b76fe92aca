"""Tests for instance elaboration and binding propagation."""

import pytest

from repro.sysml import (ElaborationError, elaborate,
                         load_model, propagate_bindings)
from repro.sysml.instances import Elaborator


def model_and_root(source, root_name):
    model = load_model(source)
    usage = model.find(root_name)
    assert usage is not None, root_name
    return model, elaborate(usage)


class TestBasicElaboration:
    def test_part_with_attributes(self):
        _, tree = model_and_root("""
            part def Machine { attribute speed : Real; }
            part m : Machine;
        """, "m")
        assert tree.kind == "part"
        speed = tree.child("speed")
        assert speed is not None
        assert speed.kind == "attribute"
        assert speed.type_name == "ScalarValues::Real"

    def test_nested_parts(self):
        _, tree = model_and_root("""
            part def Cell { part def Inner { attribute x : Real; }
                            part inner : Inner; }
            part c : Cell;
        """, "c")
        assert tree.find("inner.x") is not None

    def test_definitions_not_instantiated(self):
        _, tree = model_and_root("""
            part def Cell { part def NotInstantiated; }
            part c : Cell;
        """, "c")
        assert tree.child("NotInstantiated") is None

    def test_own_members_merge_with_type_members(self):
        _, tree = model_and_root("""
            part def Machine { attribute speed : Real; }
            part m : Machine { attribute extra : String; }
        """, "m")
        assert tree.child("speed") is not None
        assert tree.child("extra") is not None

    def test_inherited_members_through_specialization(self):
        _, tree = model_and_root("""
            abstract part def Base { attribute common : String; }
            part def Derived :> Base { attribute own : Real; }
            part d : Derived;
        """, "d")
        assert tree.child("common") is not None
        assert tree.child("own") is not None

    def test_reference_parts_not_expanded(self):
        _, tree = model_and_root("""
            part def Machine { attribute a : Real; }
            part def Cell { ref part m : Machine; }
            part c : Cell;
        """, "c")
        ref_node = tree.child("m")
        assert ref_node.is_reference
        assert ref_node.children == []

    def test_literal_value_attached(self):
        _, tree = model_and_root("""
            part def P { attribute ip : String; }
            part p : P { :>> ip = '10.0.0.1'; }
        """, "p")
        assert tree.child("ip").value == "10.0.0.1"

    def test_redefinition_replaces_inherited_member(self):
        _, tree = model_and_root("""
            part def P { attribute ip : String; }
            part p : P { :>> ip = 'x'; }
        """, "p")
        ips = [c for c in tree.children if c.name == "ip"]
        assert len(ips) == 1

    def test_redefined_value_inherited_by_usage(self):
        _, tree = model_and_root("""
            part def P { attribute ip : String; }
            part template : P { :>> ip = 'fixed'; }
        """, "template")
        assert tree.child("ip").value == "fixed"


class TestPortElaboration:
    SOURCE = """
        port def Var {
            in attribute value : Real;
            attribute description : String;
        }
        part def Machine {
            port reading : Var;
            port feeding : ~Var;
        }
        part m : Machine;
    """

    def test_port_attributes_expanded(self):
        _, tree = model_and_root(self.SOURCE, "m")
        assert tree.find("reading.value") is not None
        assert tree.find("reading.description") is not None

    def test_port_direction_preserved(self):
        _, tree = model_and_root(self.SOURCE, "m")
        assert tree.find("reading.value").direction == "in"

    def test_conjugated_port_flips_direction(self):
        _, tree = model_and_root(self.SOURCE, "m")
        assert tree.find("feeding.value").direction == "out"

    def test_conjugation_flag_on_port_node(self):
        _, tree = model_and_root(self.SOURCE, "m")
        assert tree.child("feeding").conjugated
        assert not tree.child("reading").conjugated

    def test_double_conjugation_restores_direction(self):
        _, tree = model_and_root("""
            port def Var { in attribute value : Real; }
            part def Wrapper { port inner : ~Var; }
            part def Outer { part w : Wrapper; }
            part o : Outer;
        """, "o")
        # single conjugation inside a non-conjugated parent
        assert tree.find("w.inner.value").direction == "out"


class TestActionElaboration:
    def test_action_parameters(self):
        _, tree = model_and_root("""
            part def Machine {
                action isReady { out ready : Boolean; }
            }
            part m : Machine;
        """, "m")
        action = tree.child("isReady")
        assert action.kind == "action"
        ready = action.child("ready")
        assert ready.direction == "out"

    def test_action_inside_port_def(self):
        _, tree = model_and_root("""
            port def Method {
                out action operation { out ready : Boolean; }
            }
            part def M { port method : Method; }
            part m : M;
        """, "m")
        assert tree.find("method.operation.ready") is not None


class TestCyclesAndDepth:
    def test_self_recursive_structure_terminates(self):
        model = load_model("""
            part def Node { part child : Node; }
            part n : Node;
        """)
        tree = elaborate(model.find("n"))
        # expansion stops when the same definition recurs on the stack
        assert tree.child("child") is not None
        assert tree.find("child.child") is None

    def test_max_depth_guard(self):
        model = load_model("""
            part def L0 { attribute a : Real; }
            part def L1 { part x : L0; }
            part def L2 { part x : L1; }
            part def L3 { part x : L2; }
            part root : L3;
        """)
        with pytest.raises(ElaborationError):
            Elaborator(max_depth=2).elaborate(model.find("root"))


class TestBindingPropagation:
    def test_value_flows_across_bind(self):
        _, tree = model_and_root("""
            port def Var { in attribute value : Real; }
            part def M {
                attribute actualX : Real;
                port p : Var;
                bind p.value = actualX;
            }
            part m : M { :>> actualX = 42.0; }
        """, "m")
        assert propagate_bindings(tree) >= 1
        assert tree.find("p.value").value == pytest.approx(42.0)

    def test_value_flows_in_reverse_direction(self):
        _, tree = model_and_root("""
            port def Var { in attribute value : String; }
            part def M {
                attribute label : String;
                port p : Var;
                bind label = p.value;
            }
            part m : M;
        """, "m")
        tree.find("p.value").value = "hello"
        propagate_bindings(tree)
        assert tree.child("label").value == "hello"

    def test_chained_binds_reach_fixpoint(self):
        _, tree = model_and_root("""
            part def M {
                attribute a : Real;
                attribute b : Real;
                attribute c : Real;
                bind b = a;
                bind c = b;
            }
            part m : M { :>> a = 7.0; }
        """, "m")
        propagated = propagate_bindings(tree)
        assert propagated == 2
        assert tree.child("c").value == pytest.approx(7.0)

    def test_no_values_no_propagation(self):
        _, tree = model_and_root("""
            part def M {
                attribute a : Real;
                attribute b : Real;
                bind b = a;
            }
            part m : M;
        """, "m")
        assert propagate_bindings(tree) == 0


class TestInstanceNodeApi:
    def test_path(self):
        _, tree = model_and_root("""
            part def C { part def I { attribute x : Real; } part i : I; }
            part c : C;
        """, "c")
        assert tree.find("i.x").path == "c.i.x"

    def test_walk_counts(self):
        _, tree = model_and_root("""
            part def C {
                attribute a : Real;
                attribute b : Real;
                part def I { attribute x : Real; }
                part i : I;
            }
            part c : C;
        """, "c")
        assert tree.count(lambda n: n.kind == "attribute") == 3
        assert tree.count(lambda n: n.kind == "part") == 2  # c and i

    def test_find_missing_returns_none(self):
        _, tree = model_and_root("part def C; part c : C;", "c")
        assert tree.find("nope.deeper") is None
