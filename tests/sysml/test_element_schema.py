"""Each element class states its syntactic and its resolver-written
fields once (``syntax_fields`` and ``resolved_fields``), and the
session's signature, head copy, reset and semantic snapshot read that
schema.

The per-class ladders below are the reference: they spell out, class
by class, what the schema is meant to say. Over a probe model that
varies every field, the ICE lab, mega x2, corpus seeds 0–11 (tame and
hostile) and the seeded structural edits of
``test_merge_change_detection``:

* signature equality agrees with the reference on every sibling pair,
  and on every old/new pair the merge compares; after the merge's head
  copy the pair is equal under the reference too;
* ``_semantic_state`` changes across a re-resolution exactly when the
  reference's does;
* ``clear_resolved_state`` leaves an element exactly where the
  reference reset does (its constructor defaults);
* the walk down from the dirty anchors lists exactly what a walk over
  the whole model lists, on every fixpoint round.
"""

import copy
import random

from test_merge_change_detection import (MIN_ACCEPTED, SCENARIOS,
                                         structural_edit)

from repro.sysml import ModelSession, SysMLError, load_model
from repro.sysml import incremental
from repro.sysml.depgraph import (_name_of, _value_signature,
                                  elements_anchored_in, is_anchor, node_key,
                                  own_signature)
from repro.sysml.elements import (Alias, Assignment, BindingConnector,
                                  Connector, Import, Package, PerformAction,
                                  RedefinitionUsage, Type, Usage)
from repro.sysml.incremental import _semantic_state, clear_resolved_state
from repro.sysml.resolver import Resolver


# -- the reference ladders ---------------------------------------------------

def reference_signature(element):
    signature = [type(element).__name__, _name_of(element),
                 element.documentation]
    if isinstance(element, Package):
        signature.append(("library", element.is_library))
    if isinstance(element, Import):
        signature.append(("import", str(element.target_name),
                          element.wildcard, element.recursive))
    if isinstance(element, Alias):
        signature.append(("alias", str(element.target_name)))
    if isinstance(element, Type):
        signature.append(("type", element.is_abstract,
                          tuple(str(n)
                                for n in element.specialization_names)))
    if isinstance(element, Usage):
        multiplicity = element.multiplicity
        signature.append((
            "usage", element.kind, element.direction, element.is_reference,
            str(element.type_name) if element.type_name else None,
            element.conjugated,
            tuple(str(n) for n in element.redefinition_names),
            _value_signature(element.value),
            (multiplicity.lower, multiplicity.upper)
            if multiplicity is not None else None,
        ))
    if isinstance(element, BindingConnector):
        signature.append(("bind", str(element.left_chain),
                          str(element.right_chain)))
    if isinstance(element, Connector):
        signature.append(("connect", element.connector_kind,
                          str(element.type_name)
                          if element.type_name else None,
                          str(element.source_chain),
                          str(element.target_chain)))
    if isinstance(element, PerformAction):
        signature.append(("perform", str(element.target_chain)))
    if isinstance(element, Assignment):
        signature.append(("assign", element.direction,
                          _value_signature(element.value)))
    return tuple(signature)


def reference_clear(element):
    if isinstance(element, Type):
        element.specializations = []
    if isinstance(element, Usage):
        element.typ = None
        element.redefines = []
        if isinstance(element, RedefinitionUsage) \
                and element.redefinition_names:
            element.name = None
    if isinstance(element, Import):
        element.target = None
    if isinstance(element, Alias):
        element.target = None
    if isinstance(element, BindingConnector):
        element.left = None
        element.right = None
    if isinstance(element, Connector):
        element.typ = None
        element.source = None
        element.target = None
    if isinstance(element, PerformAction):
        element.target = None
    if isinstance(element, Assignment):
        element.resolved_value = None


def _ident(value):
    return id(value) if value is not None else None


def reference_semantic_state(element):
    state = []
    if isinstance(element, Type):
        state.append(tuple(id(t) for t in element.specializations))
    if isinstance(element, Usage):
        state.append((_ident(element.typ),
                      tuple(id(r) for r in element.redefines)))
    if isinstance(element, (Import, Alias, PerformAction)):
        state.append(_ident(element.target))
    if isinstance(element, BindingConnector):
        state.append((_ident(element.left), _ident(element.right)))
    if isinstance(element, Connector):
        state.append((_ident(element.typ), _ident(element.source),
                      _ident(element.target)))
    if isinstance(element, Assignment):
        state.append(_ident(element.resolved_value))
    return tuple(state)


def reference_anchored_in(model, dirty):
    """The whole-model walk: every element whose nearest anchor is
    dirty, in pre-order."""
    collected = []

    def visit(element, inside_dirty):
        if is_anchor(element):
            inside_dirty = node_key(element) in dirty
        if inside_dirty:
            collected.append(element)
        for child in element.owned_elements:
            visit(child, inside_dirty)

    for child in model.owned_elements:
        visit(child, False)
    return collected


#: Same-named siblings that differ in exactly one syntactic field each
#: (``Base`` differs from the stdlib's only in ``is_library``), and a
#: resolved value for every resolver-written field: a field dropped
#: from the schema shows here whatever the corpus happens to contain.
PROBE = """
package Base {
    doc /* Root abstractions: anything and datum. */
}
package Lib {
    part def A;
    part def B;
    port def P;
    attribute def N;
    enum def Color { red; green; }
    interface def I {
        end e1 : P;
        end e2 : P;
    }
    part def H {
        attribute x : N;
        attribute y : N;
        port p : P;
        port q : P;
        action go;
        action stop;
    }
}
package Q {
    doc /* one */
}
package Q {
    doc /* two */
}
package Pairs {
    import Lib;
    import Lib::*;
    import Lib::*::*;
    import Lib::A;
    import Lib::B;
    alias X for Lib::A;
    alias X for Lib::B;
    part def D { doc /* one */ }
    part def D { doc /* two */ }
    part def E;
    abstract part def E;
    part def F :> Lib::A;
    part def F :> Lib::B;
    part def U :> Lib::H {
        in attribute d : Lib::N;
        out attribute d : Lib::N;
        part r : Lib::A;
        ref part r : Lib::A;
        part m[2] : Lib::A;
        part m[3] : Lib::A;
        part t : Lib::A;
        part t : Lib::B;
        part w : Lib::A;
        abstract part w : Lib::A;
        attribute s :> x;
        attribute s :> y;
        port c : Lib::P;
        port c : ~Lib::P;
        attribute z :>> x;
        attribute z :>> y;
        attribute v : Lib::N = 1;
        attribute v : Lib::N = 2;
        :>> x = 3;
        bind x = y;
        bind d = y;
        bind x = d;
        connect p to q;
        connect q to q;
        connect p to c;
        connection k connect p to q;
        interface k connect p to q;
        interface k : Lib::I connect p to q;
        perform go;
        perform stop;
        action a {
            out w = x;
            out w = y;
            in w = y;
        }
    }
}
"""


# -- the checks --------------------------------------------------------------

def check_siblings(model, where):
    """Signature equality agrees with the reference on every pair of
    siblings."""
    pairs = 0
    for parent in [model, *model.all_elements()]:
        children = parent.owned_elements
        ours = [own_signature(child) for child in children]
        theirs = [reference_signature(child) for child in children]
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                assert (ours[i] == ours[j]) == (theirs[i] == theirs[j]), \
                    f"{where}: {children[i]!r} vs {children[j]!r}"
                pairs += 1
    return pairs


def check_reset(element):
    """``clear_resolved_state`` leaves *element* where the reference
    reset does, with fresh lists wherever the reference put one."""
    expected = copy.copy(element)
    reference_clear(expected)
    before = dict(vars(element))
    clear_resolved_state(element)
    after, wanted = vars(element), vars(expected)
    assert after == wanted, repr(element)
    for field, value in wanted.items():
        if value is not before[field]:
            assert after[field] is not before[field], (element, field)


class _Spies:
    """Wraps the session's merge and fixpoint with reference checks.

    A mismatch is recorded rather than raised: the session's safety
    valve would turn an exception into a cold rebuild."""

    def __init__(self, monkeypatch):
        self.mismatches = []
        self.merged_pairs = 0
        self.rounds = 0
        self.states_changed = 0
        self._states = {}
        merge_element = incremental._Merger.merge_element
        resolve_only = Resolver.resolve_only
        anchored_in = incremental.elements_anchored_in

        def spy_merge(merger, old, new):
            if (own_signature(old) == own_signature(new)) \
                    != (reference_signature(old) == reference_signature(new)):
                self.mismatches.append(f"signature of {old!r}")
            changed = merge_element(merger, old, new)
            if reference_signature(old) != reference_signature(new):
                self.mismatches.append(f"head copy of {old!r}")
            self.merged_pairs += 1
            return changed

        def spy_anchored(model, dirty):
            elements = anchored_in(model, dirty)
            if elements != reference_anchored_in(model, dirty):
                self.mismatches.append(f"elements anchored in {dirty}")
            self._states = {id(e): (_semantic_state(e),
                                    reference_semantic_state(e))
                            for e in elements}
            self.rounds += 1
            return elements

        def spy_resolve(resolver, elements):
            resolve_only(resolver, elements)
            for element in elements:
                ours, theirs = self._states[id(element)]
                moved = _semantic_state(element) != ours
                if moved != (reference_semantic_state(element) != theirs):
                    self.mismatches.append(f"semantic state of {element!r}")
                self.states_changed += moved

        monkeypatch.setattr(incremental._Merger, "merge_element", spy_merge)
        monkeypatch.setattr(incremental, "elements_anchored_in",
                            spy_anchored)
        monkeypatch.setattr(Resolver, "resolve_only", spy_resolve)


def _sweep(name, sources, attempts, spies):
    """One scenario's seeded edits through a session; returns the
    number of edits accepted (those whose sources load cold)."""
    rng = random.Random(name)
    session = ModelSession(*sources)
    accepted = 0
    for number in range(attempts):
        edited = structural_edit(rng, sources, number)
        if edited is None:
            continue
        try:
            load_model(*edited)
        except SysMLError:
            continue
        update = session.update(*edited)
        where = f"{name} edit {number}"
        assert not spies.mismatches, (where, spies.mismatches)
        assert not update.full_rebuild, f"{where} fell back"
        accepted += 1
        sources = edited
    return accepted


def _check_model(model, where):
    pairs = check_siblings(model, where)
    for element in [model, *model.all_elements()]:
        check_reset(element)
    return pairs


def test_probe_tells_every_field_apart():
    assert _check_model(load_model(PROBE), "probe")


def test_schema_agrees_with_the_reference_ladders(monkeypatch):
    spies = _Spies(monkeypatch)
    pairs = 0
    accepted = 0
    for name, make, attempts in SCENARIOS:
        sources = make()
        pairs += _check_model(load_model(*sources), name)
        accepted += _sweep(name, sources, attempts, spies)
    assert accepted >= MIN_ACCEPTED, accepted
    # the sweep exercised every comparison it checks
    assert pairs and spies.merged_pairs and spies.rounds \
        and spies.states_changed, (pairs, vars(spies))
