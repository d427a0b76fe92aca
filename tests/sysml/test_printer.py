"""Pretty-printer tests, including the parse -> print -> parse round-trip."""

import pytest

from repro.sysml import (load_model, model_to_dict, print_element,
                         print_model, validate_model)

import sys
from pathlib import Path
sys.path.insert(0, str(Path(__file__).parent.parent))
from fixtures import EMCO_WORKCELL_SOURCE  # noqa: E402


def roundtrip(source: str) -> None:
    """Parse+print twice; the two printed forms must be identical and the
    re-parsed model must serialize to the same interchange dict."""
    first = load_model(source)
    printed = print_model(first)  # includes the stdlib packages
    second = load_model(printed, include_stdlib=False)
    assert print_model(second) == printed
    assert model_to_dict(second) == model_to_dict(first)


class TestRoundTrip:
    def test_definition_with_members(self):
        roundtrip("""
            part def M {
                attribute speed : ScalarValues::Real;
                port def P { in attribute value : ScalarValues::Real; }
                port p : P;
            }
        """)

    def test_abstract_and_specialization(self):
        roundtrip("""
            abstract part def Driver;
            part def EMCODriver :> Driver;
        """)

    def test_package_and_imports(self):
        roundtrip("""
            package Lib { part def Thing; }
            package App { import Lib::*; part t : Thing; }
        """)

    def test_values_and_redefinitions(self):
        roundtrip("""
            part def P { attribute ip : ScalarValues::String;
                         attribute n : ScalarValues::Integer;
                         attribute r : ScalarValues::Real;
                         attribute ok : ScalarValues::Boolean; }
            part p : P {
                :>> ip = '10.0.0.1';
                :>> n = 42;
                :>> r = 1.5;
                :>> ok = true;
            }
        """)

    def test_string_escaping(self):
        roundtrip(r"""
            part def P { attribute s : ScalarValues::String; }
            part p : P { :>> s = 'it\'s a \\ test'; }
        """)

    def test_binds_connects_performs(self):
        roundtrip("""
            port def Var { in attribute value : ScalarValues::Real; }
            port def Mthd { out action operation { out ready : ScalarValues::Boolean; } }
            part def M { port data : ~Var; port method : ~Mthd; }
            part def D { port vars : Var; port methods : Mthd; }
            part system {
                part m : M;
                part d : D;
                connect m.data to d.vars;
                interface : Mthd connect m.method to d.methods;
                part worker {
                    action run {
                        out ready : ScalarValues::Boolean;
                        perform d.methods.operation {
                            out ready = run.ready;
                        }
                    }
                }
            }
        """)

    def test_multiplicities(self):
        roundtrip("""
            abstract part def Machine;
            part def Cell {
                ref part machines : Machine [*];
                part fixed : Machine [4];
                part ranged : Machine [1..3];
                part open : Machine [2..*];
            }
        """)

    def test_directions(self):
        roundtrip("""
            port def P {
                in attribute input : ScalarValues::Real;
                out attribute output : ScalarValues::Real;
                inout attribute both : ScalarValues::Real;
            }
        """)

    def test_docs_preserved(self):
        source = """
            part def M {
                doc /* the machine */
                attribute speed : ScalarValues::Real;
            }
        """
        model = load_model(source)
        printed = print_model(model)
        assert "doc /* the machine */" in printed
        roundtrip(source)

    def test_full_emco_example_roundtrips(self):
        model = load_model(EMCO_WORKCELL_SOURCE)
        printed = print_model(model)
        # printed model includes the stdlib; re-load without injecting it again
        reparsed = load_model(printed, include_stdlib=False)
        assert print_model(reparsed) == printed
        assert validate_model(reparsed).ok


class TestPrintElement:
    def test_single_element(self, emco_model):
        emco_def = emco_model.find("EMCO::EMCODriver")
        text = print_element(emco_def)
        assert text.startswith("part def EMCODriver :> MachineDriver {")

    def test_conjugated_port_printed_with_tilde(self, emco_model):
        port = emco_model.find(
            "ICETopology::UniVR::Verona::ICELab::ICEProductionLine"
            "::workCell02::emco::emcoMachineData::emcoAxesPosition"
            "::actual_X_EMCOVar_conj")
        assert "~" in print_element(port)

    def test_ref_part_printed(self, emco_model):
        machine = emco_model.find("ISA95::Machine")
        text = print_element(machine)
        assert "ref part driver : Driver;" in text
        assert text.startswith("abstract part def Machine")
