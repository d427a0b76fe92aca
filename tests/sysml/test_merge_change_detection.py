"""The structural merge is ``ModelSession``'s only change detector.

The reference below is a snapshot of a *whole* model — every anchor's
deep fingerprint and every namespace's scope fingerprint, by key —
diffed between cold loads of the previous and the new sources. The
merge measures only the elements it touches; over seeded structural
edits (line deletes, duplicates, swaps and literal changes) the sets
it hands the dependency graph and the anchors it reports removed must
equal that diff.

The edits are cumulative per scenario; an edit whose sources do not
load cold is skipped, and the rest are "accepted".
"""

import random
import re

import pytest

from repro.icelab.model_gen import icelab_sources
from repro.sysml import ModelSession, SysMLError, load_model
from repro.sysml import incremental
from repro.sysml.depgraph import (DepGraph, ROOT_KEY, deep_fingerprint,
                                  is_anchor, node_key, scope_fingerprint,
                                  subtree_anchor_keys)
from repro.sysml.elements import Namespace
from repro.testkit.corpus import CorpusConfig, generate_scenario
from repro.testkit.scale import mega_factory_sources

#: Accepted edits the whole sweep must reach.
MIN_ACCEPTED = 400

#: Anonymous parts that hold named anchors, and anonymous root
#: elements: their ``#ordinal`` keys move when an earlier sibling
#: comes or goes, which the factories' anonymous members (connectors,
#: ``perform`` actions) never exercise.
SHIFTING = ["""package Lib {
    part def W {
        attribute a : Integer;
    }
    part def V :> W;
}
""", """import Lib::*;
part : Lib::W {
    part inner : Lib::V;
}
package P {
    import Lib::*;
    part : W {
        part inner : W;
        attribute x = 1;
    }
    part q : W;
    part : V {
        part inner : W {
            attribute y = 2;
        }
    }
    part : W;
}
import Lib::W;
""", """import Lib::*;
part r : Lib::W {
    part : Lib::V {
        part deep : Lib::W;
    }
    part : Lib::W;
}
"""]

#: ``(name, sources, edits attempted)``: the costly factories get few
#: edits, the small ones many.
SCENARIOS = [("icelab", icelab_sources, 16),
             ("mega-x2", lambda: mega_factory_sources(2), 6),
             ("shifting", lambda: SHIFTING, 120)] + [
    (f"corpus-{seed}{'-hostile' if hostile else ''}",
     lambda seed=seed, hostile=hostile: generate_scenario(
         seed, CorpusConfig(hostile=hostile)).sources, 44)
    for hostile in (False, True) for seed in range(12)]

_LITERAL = re.compile(r"\b\d+\b|'[^'\n]*'")


def snapshot(model):
    """``(anchor key -> deep fp, namespace key -> scope fp)`` of every
    element of *model*."""
    deep = {}
    scope = {ROOT_KEY: scope_fingerprint(model)}

    def visit(element):
        if is_anchor(element):
            deep[node_key(element)] = deep_fingerprint(element)
        if isinstance(element, Namespace):
            scope[node_key(element)] = scope_fingerprint(element)
        for child in element.owned_elements:
            visit(child)

    for child in model.owned_elements:
        visit(child)
    return deep, scope


def _differing(before, after):
    return {key for key in before.keys() | after.keys()
            if before.get(key) != after.get(key)}


def reference_changes(previous, current):
    """``(deep_changed, scope_changed, removed)`` between two
    snapshots."""
    return (_differing(previous[0], current[0]),
            _differing(previous[1], current[1]),
            frozenset(previous[0].keys() - current[0].keys()))


def structural_edit(rng, sources, number):
    """One seeded edit of one source: delete, duplicate or swap a line,
    or change a literal. None when the edit changes nothing."""
    index = rng.randrange(len(sources))
    text = sources[index]
    kind = rng.choice(("delete", "duplicate", "swap", "literal"))
    lines = text.split("\n")
    position = rng.randrange(len(lines))
    if kind == "delete":
        del lines[position]
    elif kind == "duplicate":
        lines.insert(position, lines[position])
    elif kind == "swap":
        other = rng.randrange(len(lines))
        lines[position], lines[other] = lines[other], lines[position]
    else:
        literals = list(_LITERAL.finditer(text))
        if not literals:
            return None
        literal = rng.choice(literals)
        value = str(rng.randrange(1000)) if literal.group().isdigit() \
            else f"'edit{number}'"
        lines = (text[:literal.start()] + value
                 + text[literal.end():]).split("\n")
    edited = "\n".join(lines)
    if edited == text:
        return None
    return sources[:index] + [edited] + sources[index + 1:]


@pytest.fixture
def spies(monkeypatch):
    """The arguments of every ``consumers_affected`` call, and every
    merger whose changes were read."""
    calls, mergers = [], []
    consumers_affected = DepGraph.consumers_affected
    changes = incremental._Merger.changes

    def spy_consumers(graph, deep_changed, scope_changed):
        calls.append((set(deep_changed), set(scope_changed)))
        return consumers_affected(graph, deep_changed, scope_changed)

    def spy_changes(merger):
        mergers.append(merger)
        return changes(merger)

    monkeypatch.setattr(DepGraph, "consumers_affected", spy_consumers)
    monkeypatch.setattr(incremental._Merger, "changes", spy_changes)
    return calls, mergers


def _sweep(name, sources, attempts, spies):
    """Run one scenario's edits; returns the number accepted."""
    calls, mergers = spies
    rng = random.Random(name)
    session = ModelSession(*sources)
    previous = snapshot(load_model(*sources))
    accepted = 0
    for number in range(attempts):
        edited = structural_edit(rng, sources, number)
        if edited is None:
            continue
        try:
            current = snapshot(load_model(*edited))
        except SysMLError:
            continue
        calls.clear()
        mergers.clear()
        update = session.update(*edited)
        where = f"{name} edit {number}"
        assert not update.full_rebuild, f"{where} fell back"
        deep, scope, removed = reference_changes(previous, current)
        # wholesale-taken anchors are dirty even where their hash held
        taken = set()
        for merger in mergers:
            for element in merger.taken:
                taken |= subtree_anchor_keys(element)
        assert calls, f"{where} reached no dependency lookup"
        assert calls[0] == (deep | taken, scope), where
        assert update.removed_anchors == removed, where
        accepted += 1
        sources, previous = edited, current
    return accepted


def test_merge_reports_what_a_whole_model_diff_reports(spies):
    accepted = {name: _sweep(name, make(), attempts, spies)
                for name, make, attempts in SCENARIOS}
    assert sum(accepted.values()) >= MIN_ACCEPTED, sum(accepted.values())
