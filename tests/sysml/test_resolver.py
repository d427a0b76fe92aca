"""Tests for name resolution (specializations, typings, chains, imports)."""

import pytest

from fixtures import graph_signature
from repro.icelab import icelab_sources
from repro.sysml import (Alias, Assignment, BindingConnector, Connector,
                         Import, Namespace, PartDefinition, PerformAction,
                         ResolutionError, Type, Usage, load_model, node_path)
from repro.sysml import resolver as resolver_module
from repro.sysml.incremental import ModelSession
from repro.sysml.resolver import Resolver
from repro.testkit.corpus import CorpusConfig, generate_scenario
from repro.testkit.scale import mega_factory_sources


class TestSpecializationResolution:
    def test_simple_specialization(self):
        model = load_model("""
            abstract part def Driver;
            part def EMCODriver :> Driver;
        """)
        emco = model.find("EMCODriver")
        driver = model.find("Driver")
        assert emco.specializations == [driver]

    def test_transitive_supertypes(self, emco_model):
        emco_driver = emco_model.find("EMCO::EMCODriver")
        names = [t.name for t in emco_driver.all_supertypes()]
        assert names == ["MachineDriver", "Driver"]

    def test_conforms_to(self, emco_model):
        emco_driver = emco_model.find("EMCO::EMCODriver")
        driver = emco_model.find("ISA95::Driver")
        assert emco_driver.conforms_to(driver)
        assert not driver.conforms_to(emco_driver)

    def test_unresolvable_specialization_raises(self):
        with pytest.raises(ResolutionError):
            load_model("part def A :> Nowhere;")

    def test_qualified_specialization_target(self):
        model = load_model("""
            package Lib { abstract part def Base; }
            part def X :> Lib::Base;
        """)
        x = model.find("X")
        assert x.specializations[0].qualified_name == "Lib::Base"


class TestTypingResolution:
    def test_usage_typed_by_definition(self, emco_model):
        emco = emco_model.find(
            "ICETopology::UniVR::Verona::ICELab::ICEProductionLine"
            "::workCell02::emco")
        assert emco.typ.qualified_name == "EMCO::EMCO"

    def test_scalar_type_from_stdlib(self, emco_model):
        ip = emco_model.find("EMCO::EMCODriver::EMCOParameters::ip")
        assert ip.typ.qualified_name == "ScalarValues::String"

    def test_conjugated_typing(self, emco_model):
        port = emco_model.find(
            "ICETopology::UniVR::Verona::ICELab::ICEProductionLine"
            "::workCell02::emco::emcoMachineData::emcoAxesPosition"
            "::actual_X_EMCOVar_conj")
        assert port.conjugated
        assert port.typ.name == "EMCOVar"

    def test_unresolvable_type_raises(self):
        with pytest.raises(ResolutionError):
            load_model("part x : Missing;")

    def test_typing_resolves_through_wildcard_import(self):
        model = load_model("""
            package Lib { part def Thing; }
            package App {
                import Lib::*;
                part thing : Thing;
            }
        """)
        thing = model.find("App::thing")
        assert thing.typ.qualified_name == "Lib::Thing"

    def test_specific_import(self):
        model = load_model("""
            package Lib { part def Thing; }
            package App {
                import Lib::Thing;
                part thing : Thing;
            }
        """)
        assert model.find("App::thing").typ.name == "Thing"

    def test_recursive_import(self):
        model = load_model("""
            package Lib { package Deep { part def Thing; } }
            package App {
                import Lib::*::*;
                part thing : Thing;
            }
        """)
        assert model.find("App::thing").typ.name == "Thing"

    def test_inherited_member_visible_through_typing(self, emco_model):
        # emcoParameters : EMCOParameters exposes the def's 'ip'
        params = emco_model.find("emcoDriver::emcoParameters")
        assert params.effective_member("ip") is not None
        assert params.effective_member("ip_port") is not None


class TestRedefinitionResolution:
    def test_shorthand_redefinition_gets_name_and_target(self, emco_model):
        params = emco_model.find("emcoDriver::emcoParameters")
        ip = params.member("ip")
        assert ip is not None
        assert ip.redefines[0].qualified_name == \
            "EMCO::EMCODriver::EMCOParameters::ip"

    def test_redefinition_value(self, emco_model):
        params = emco_model.find("emcoDriver::emcoParameters")
        assert params.member("ip").value.value == "10.197.12.11"
        assert params.member("ip_port").value.value == 5557

    def test_unresolvable_redefinition_raises(self):
        with pytest.raises(ResolutionError):
            load_model("""
                part def P { attribute a : String; }
                part p : P { :>> nonexistent = 'x'; }
            """)


class TestChainResolution:
    def test_bind_endpoints(self, emco_model):
        binds = [b for b in emco_model.all_elements()
                 if isinstance(b, BindingConnector)]
        assert len(binds) == 2
        for bind in binds:
            assert bind.left is not None
            assert bind.right is not None

    def test_bind_reaches_port_internal_attribute(self, emco_model):
        bind = next(
            b for b in emco_model.all_elements()
            if isinstance(b, BindingConnector)
            and str(b.left_chain) == "pp_actual_X_EMCOVar.value")
        assert bind.left.name == "value"
        assert bind.right.name == "actualX"

    def test_perform_target_is_action(self, emco_model):
        perform = next(e for e in emco_model.all_elements()
                       if isinstance(e, PerformAction))
        assert perform.target.name == "operation"
        assert perform.target.kind == "action"

    def test_unresolvable_chain_raises(self):
        with pytest.raises(ResolutionError):
            load_model("""
                part p {
                    attribute a : ScalarValues::String;
                    bind a = missing.chain;
                }
            """)

    def test_chain_middle_member_missing(self):
        with pytest.raises(ResolutionError) as exc:
            load_model("""
                part p {
                    attribute a : ScalarValues::String;
                    part q { attribute b : ScalarValues::String; }
                    bind a = q.nope;
                }
            """)
        assert "no member 'nope'" in str(exc.value)


class TestScoping:
    def test_inner_scope_shadows_outer(self):
        model = load_model("""
            part def Thing { attribute tag : String; }
            package Outer {
                part def Thing;
                part x : Thing;
            }
        """)
        x = model.find("Outer::x")
        assert x.typ.qualified_name == "Outer::Thing"

    def test_sibling_package_not_visible_without_import(self):
        with pytest.raises(ResolutionError):
            load_model("""
                package A { part def Secret; }
                package B { part s : Secret; }
            """)

    def test_import_does_not_leak_to_siblings(self):
        with pytest.raises(ResolutionError):
            load_model("""
                package Lib { part def Thing; }
                package A { import Lib::*; }
                package B { part t : Thing; }
            """)

    def test_model_root_members_globally_visible(self):
        model = load_model("""
            part def Global;
            package P { part g : Global; }
        """)
        assert model.find("P::g").typ.name == "Global"


class TestMultiSourceModels:
    def test_model_built_from_multiple_texts(self):
        model = load_model(
            "package Lib { part def M; }",
            "part m : Lib::M;",
        )
        assert model.find("m").typ.qualified_name == "Lib::M"

    def test_stdlib_can_be_disabled(self):
        with pytest.raises(ResolutionError):
            load_model("attribute a : String;", include_stdlib=False)

    def test_stdlib_scalar_hierarchy(self):
        model = load_model("")
        integer = model.find("ScalarValues::Integer")
        real = model.find("ScalarValues::Real")
        assert integer.conforms_to(real)


# -- the memoized lookups against plain element-tree lookups ----------------

class PlainLookupResolver(Resolver):
    """The resolver with every memo table bypassed: member lookups go
    through ``Type.effective_member`` / ``Namespace.member`` on each
    call, and every root lookup rescans the model root."""

    def _member_table(self, element):
        return _PlainMembers(element)

    def _inherited(self, typ):
        return typ.inherited_members()

    def _member_of(self, element, name, *, include_self=False):
        if include_self and element.name == name:
            return element
        found = None
        if isinstance(element, Type):
            found = element.effective_member(name)
        elif isinstance(element, Namespace):
            found = element.member(name)
        if isinstance(found, Alias):
            return found.target
        return found

    def _lookup_root(self, name):
        found, consulted = self._scan_root(name)
        for scope in consulted:
            self._consulted(scope)
        return found


class _PlainMembers:
    """``Namespace.member`` behind the ``dict.get`` the resolver calls."""

    def __init__(self, namespace):
        self.namespace = namespace

    def get(self, name):
        return self.namespace.member(name)


def resolved_pointers(model):
    """Every resolver-written field (those ``clear_resolved_state``
    resets), as ``node_path`` strings, per element in pre-order."""

    def path(target):
        return None if target is None else node_path(target)

    rows = []
    for element in model.all_elements():
        row = [node_path(element), type(element).__name__]
        if isinstance(element, Type):
            row.append(tuple(map(path, element.specializations)))
        if isinstance(element, Usage):
            row += [path(element.typ), tuple(map(path, element.redefines)),
                    element.name]
        if isinstance(element, (Import, Alias, PerformAction)):
            row.append(path(element.target))
        if isinstance(element, BindingConnector):
            row += [path(element.left), path(element.right)]
        if isinstance(element, Connector):
            row += [path(element.typ), path(element.source),
                    path(element.target)]
        if isinstance(element, Assignment):
            row.append(path(element.resolved_value))
        rows.append(tuple(row))
    return rows


def _corpus_sources(seed, hostile):
    return generate_scenario(seed, CorpusConfig(hostile=hostile)).sources


# One model per mid-resolve mutation the memo tables must observe.
NAME_CHANGE = """
part def Q;
part def P {
    attribute x : Integer;
    attribute y : Integer;
}
part p : P {
    part inner : Q;
    :>> x = 3;
    bind y = x;
}
"""
ALIAS_CHAIN = """
part def C;
alias A for B;
alias B for C;
part x : B;
"""
REDEFINITION_LATTICE = """
part def E { attribute e : Integer; }
part def E2 { attribute f : Integer; }
part def P { part x : E; }
part p : P {
    :>> x {
        part z : E2;
        bind z.f = e;
    }
}
"""

REFERENCE_INPUTS = [
    pytest.param(lambda: [NAME_CHANGE], id="name-change"),
    pytest.param(lambda: [ALIAS_CHAIN], id="alias-chain"),
    pytest.param(lambda: [REDEFINITION_LATTICE], id="redefinition-lattice"),
    pytest.param(icelab_sources, id="icelab"),
    pytest.param(lambda: mega_factory_sources(1), id="mega-x1"),
    *(pytest.param(lambda seed=seed: _corpus_sources(seed, False),
                   id=f"tame-{seed}") for seed in range(20)),
    *(pytest.param(lambda seed=seed: _corpus_sources(seed, True),
                   id=f"hostile-{seed}") for seed in range(20)),
]


@pytest.mark.parametrize("make_sources", REFERENCE_INPUTS)
def test_memoized_lookups_match_plain_lookups(make_sources, monkeypatch):
    sources = make_sources()
    memoized = load_model(*sources)
    recorded = ModelSession(*sources).graph
    monkeypatch.setattr(resolver_module, "Resolver", PlainLookupResolver)
    plain = ModelSession(*sources)
    assert resolved_pointers(memoized) == resolved_pointers(plain.model)
    # memo hits record every scope a fresh lookup would have consulted
    assert graph_signature(recorded) == graph_signature(plain.graph)
