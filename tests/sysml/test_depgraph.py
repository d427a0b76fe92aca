"""Dependency-graph and fingerprint unit properties.

The incremental engine's correctness rests on a few invariants of
:mod:`repro.sysml.depgraph`, observed through
:meth:`~repro.sysml.ModelSession.update`:

* deep fingerprints are syntactic — comments and whitespace never
  change them, any token of substance does;
* the dependency graph reaches through a usage's definition to its
  supertypes, so editing ``Lib::Gadget`` dirties ``Plant::w1``;
* an anchor is changed exactly when its own subtree changed, and
  dirty exactly when it or something it resolved through changed.
"""

import pytest

from repro.icelab.model_gen import icelab_sources
from repro.sysml import ModelSession, load_model
from repro.sysml.depgraph import (NodeKey, anchor_key, deep_fingerprint,
                                  find_by_path, is_anchor, node_path,
                                  subtree_anchor_keys)
from repro.testkit.corpus import CorpusConfig, generate_scenario
from repro.testkit.scale import mega_factory_sources

LIBRARY = """
package Lib {
    abstract part def Gadget {
        attribute serial : String;
    }
    part def Widget :> Gadget {
        attribute size : Integer;
    }
}
"""

PLANT = """
package Plant {
    import Lib::*;
    part w1 : Widget {
        attribute size : Integer = 3;
    }
    part w2 : Widget {
        attribute size : Integer = 5;
    }
}
"""


#: LIBRARY with one more attribute on ``Gadget``, which ``Plant::w1``
#: reaches only through ``Widget``'s specialization.
DEEPER_LIBRARY = LIBRARY.replace("attribute serial : String;",
                                 "attribute serial : String;\n"
                                 "        attribute batch : String;")


def _update(*edited):
    """The session's report on moving from (LIBRARY, PLANT) to *edited*."""
    session = ModelSession(LIBRARY, PLANT)
    return session.update(*edited)


def _paths(keys):
    return {key.path for key in keys}


class TestNodeKey:
    def test_is_under_matches_prefix_segments(self):
        key = NodeKey("PartUsage", "Plant::w1::size")
        assert key.is_under("Plant::w1")
        assert key.is_under("Plant::w1::size")
        assert not key.is_under("Plant::w2")
        # segment boundary, not a raw string prefix
        assert not key.is_under("Plant::w")

    def test_node_path_roundtrips_through_find_by_path(self):
        model = load_model(LIBRARY, PLANT)
        w1 = find_by_path(model, "Plant::w1")
        assert w1 is not None
        assert node_path(w1) == "Plant::w1"
        assert find_by_path(model, node_path(w1)) is w1
        # a name holding "::" is quoted, so it still splits back out
        model = load_model(LIBRARY, PLANT.replace("w2", "'Zelle::X'"))
        cell = model.owned_elements[-1].owned_elements[-1]
        assert node_path(cell) == "Plant::'Zelle::X'"
        assert find_by_path(model, node_path(cell)) is cell
        size = cell.owned_elements[0]
        assert find_by_path(model, node_path(size)) is size

    @pytest.mark.parametrize("name, segment", [
        ("ends:", "'ends:'"),
        ("#0", "'#0'"),
        ("'", "'\\''"),
        ("it's", "it's"),
        ("name with spaces", "name with spaces"),
    ])
    def test_names_that_would_not_split_back_are_quoted(self, name, segment):
        quoted = name.replace("\\", "\\\\").replace("'", "\\'")
        model = load_model(f"""
            package 'P::Q' {{
                part def W;
                part '{quoted}' : W {{
                    part inner : W;
                    part : W;
                }}
            }}
            """)
        part = model.owned_elements[-1].owned_elements[1]
        assert part.name == name
        assert node_path(part) == f"'P::Q'::{segment}"
        for element in [part, *part.owned_elements]:
            assert find_by_path(model, node_path(element)) is element
        assert node_path(part.owned_elements[1]) \
            == f"'P::Q'::{segment}::#1"

    def test_every_anchor_roundtrips(self):
        # ICE lab, mega x2 and corpus seeds 0-39, tame and hostile (the
        # hostile pools draw names such as 'Zelle::X')
        models = [icelab_sources(), mega_factory_sources(2)] + [
            generate_scenario(seed, CorpusConfig(hostile=hostile)).sources
            for hostile in (False, True) for seed in range(40)]
        anchors = 0
        for sources in models:
            model = load_model(*sources)
            for element in model.all_elements():
                if is_anchor(element):
                    anchors += 1
                    assert find_by_path(model, node_path(element)) \
                        is element, node_path(element)
        assert anchors > 10000

    def test_malformed_paths_find_nothing(self):
        model = load_model(LIBRARY, PLANT)
        for path in ("'Plant", "'Plant'w1", "Plant::#x", "Plant::#9"):
            assert find_by_path(model, path) is None


class TestDeepFingerprint:
    def test_comment_and_whitespace_insensitive(self):
        base = load_model(LIBRARY, PLANT)
        commented = PLANT.replace(
            "part w1 : Widget {",
            "// a comment\n    part w1 : Widget {")
        other = load_model(LIBRARY, commented)
        assert (deep_fingerprint(find_by_path(base, "Plant::w1"))
                == deep_fingerprint(find_by_path(other, "Plant::w1")))

    def test_value_change_moves_the_hash(self):
        base = load_model(LIBRARY, PLANT)
        edited = load_model(LIBRARY, PLANT.replace("= 3", "= 4"))
        assert (deep_fingerprint(find_by_path(base, "Plant::w1"))
                != deep_fingerprint(find_by_path(edited, "Plant::w1")))

    def test_sibling_edit_does_not_leak(self):
        base = load_model(LIBRARY, PLANT)
        edited = load_model(LIBRARY, PLANT.replace("= 5", "= 6"))
        assert (deep_fingerprint(find_by_path(base, "Plant::w1"))
                == deep_fingerprint(find_by_path(edited, "Plant::w1")))


class TestProducerClosure:
    def test_usage_reaches_definition_supertype(self):
        # w1 never names Gadget: it is reached through Widget's
        # specialization edge
        update = _update(DEEPER_LIBRARY, PLANT)
        assert "Lib::Gadget" in _paths(update.changed_anchors)
        assert "Plant::w1" in _paths(update.dirty_anchors)

    def test_closure_excludes_unreferenced_siblings(self):
        update = _update(LIBRARY, PLANT.replace("= 5", "= 6"))
        assert "Plant::w2" in _paths(update.dirty_anchors)
        assert "Plant::w1" not in _paths(update.dirty_anchors)


class TestNodeDependencyFingerprints:
    def test_stable_for_identical_sources(self):
        assert _update(LIBRARY, PLANT).clean

    def test_own_edit_moves_node_fp_only(self):
        update = _update(LIBRARY, PLANT.replace("= 3", "= 4"))
        assert "Plant::w1" in _paths(update.changed_anchors)
        assert not any(key.is_under("Lib")
                       for key in update.dirty_anchors)

    def test_dependency_edit_moves_deps_fp(self):
        update = _update(DEEPER_LIBRARY, PLANT)
        # w1's own content is untouched; what it resolved through moved
        assert "Plant::w1" not in _paths(update.changed_anchors)
        assert "Plant::w1" in _paths(update.dirty_anchors)

    def test_sibling_edit_moves_neither(self):
        update = _update(LIBRARY, PLANT.replace("= 5", "= 6"))
        assert "Plant::w1" not in _paths(update.changed_anchors)
        assert "Plant::w1" not in _paths(update.dirty_anchors)

    def test_vanished_path_returns_none(self):
        update = _update(LIBRARY, PLANT.replace("part w1 :", "part w9 :"))
        assert "Plant::w1" in _paths(update.removed_anchors)


class TestSubtreeAnchorKeys:
    def test_contains_root_and_named_descendants(self):
        model = load_model(LIBRARY, PLANT)
        w1 = find_by_path(model, "Plant::w1")
        keys = subtree_anchor_keys(w1)
        assert anchor_key(w1) in keys
        assert all(key.path.startswith("Plant::w1") for key in keys)
