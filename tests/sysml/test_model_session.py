"""ModelSession update semantics.

The session is the resolver-side half of the incremental engine: it
absorbs source edits in place and reports, through
:class:`ModelUpdate`, exactly which anchors the downstream pipeline
must invalidate. These tests pin the precision of that report —
comment edits are clean, a value edit dirties one usage, a library
edit propagates semantically but stays attributed to the library.
"""

import pytest

from fixtures import graph_signature
from repro.icelab import icelab_sources
from repro.obs import METRICS
from repro.sysml import (ParseError, load_model, model_to_json, node_path,
                         print_model)
from repro.sysml.depgraph import find_by_path
from repro.sysml.incremental import ModelSession, _Merger

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

NAMES = ["lib.sysml", "plant.sysml"]


def session():
    return ModelSession(LIBRARY, PLANT, filenames=NAMES)


def paths(keys):
    return sorted(key.path for key in keys)


def fallbacks():
    return {name: value
            for name, value in METRICS.counter_values().items()
            if name.startswith("incremental.session_fallbacks.")}


class TestCleanUpdates:
    def test_identical_sources_are_clean(self):
        update = session().update(LIBRARY, PLANT, filenames=NAMES)
        assert update.clean
        assert not update.full_rebuild
        assert update.changed_sources == ()

    def test_no_op_update_keeps_the_fingerprint_unhashed(self,
                                                         monkeypatch):
        live = session()
        before = live.model.content_fingerprint
        calls = []
        monkeypatch.setattr("repro.sysml.incremental.model_fingerprint",
                            lambda *args, **kwargs: calls.append(args))
        update = live.update(LIBRARY, PLANT, filenames=NAMES)
        assert update.clean and not update.full_rebuild
        assert calls == []
        assert live.model.content_fingerprint == before

    def test_renamed_sources_rehash(self):
        live = session()
        renamed = ["lib2.sysml", "plant2.sysml"]
        update = live.update(LIBRARY, PLANT, filenames=renamed)
        assert update.clean
        assert live.model.content_fingerprint == load_model(
            LIBRARY, PLANT, filenames=renamed).content_fingerprint
        # and back: the fingerprint follows the names, not the history
        live.update(LIBRARY, PLANT, filenames=NAMES)
        assert live.model.content_fingerprint == load_model(
            LIBRARY, PLANT, filenames=NAMES).content_fingerprint

    def test_comment_only_edit_is_clean(self):
        update = session().update(
            LIBRARY, PLANT + "\n// reviewed\n", filenames=NAMES)
        assert update.clean
        # the file did change — only its meaning did not
        assert update.changed_sources == ("plant.sysml",)


class TestLocalEdit:
    def test_value_edit_dirties_exactly_one_usage(self):
        update = session().update(
            LIBRARY, PLANT.replace("= 3", "= 4"), filenames=NAMES)
        assert not update.clean
        assert update.changed_sources == ("plant.sysml",)
        assert paths(update.changed_anchors) == ["Plant::w1"]
        assert not update.full_rebuild

    def test_model_object_is_stable_and_reflects_the_edit(self):
        live = session()
        before = live.model
        live.update(LIBRARY, PLANT.replace("= 3", "= 7"), filenames=NAMES)
        assert live.model is before
        assert find_by_path(live.model, "Plant::w1") is not None


class TestLibraryEdit:
    def test_propagates_semantically_but_blames_the_library(self):
        deeper = LIBRARY.replace(
            "attribute serial : String;",
            "attribute serial : String;\n"
            "        attribute batch : String;")
        update = session().update(deeper, PLANT, filenames=NAMES)
        assert update.changed_sources == ("lib.sysml",)
        # local edits name the library anchor only...
        assert paths(update.edited_anchors) == ["Lib::Gadget"]
        # ...while the dirty set reaches every dependent usage
        dirty = paths(update.dirty_anchors)
        assert "Plant::w1" in dirty and "Plant::w2" in dirty
        assert update.rounds >= 1


class TestStructuralChange:
    def test_removed_source_reports_removed_anchors(self):
        live = session()
        update = live.update(LIBRARY, filenames=["lib.sysml"])
        assert not update.clean
        assert "Plant::w1" in paths(update.removed_anchors)
        assert find_by_path(live.model, "Plant::w1") is None

    def test_broken_revision_raises_like_a_cold_load(self):
        live = session()
        with pytest.raises(Exception, match="Nowhere9"):
            live.update(LIBRARY, PLANT.replace("Widget", "Nowhere9"),
                        filenames=NAMES)

    def test_rejected_revision_does_not_linger_in_the_model(self):
        live = session()
        broken = PLANT.replace("= 3", "= 9").replace(
            "part w2 : Widget", "part w2 : Nowhere9")
        with pytest.raises(Exception, match="Nowhere9"):
            live.update(LIBRARY, broken, filenames=NAMES)
        # the original text again: the failed merge must not survive
        update = live.update(LIBRARY, PLANT, filenames=NAMES)
        assert update.full_rebuild
        size = find_by_path(live.model, "Plant::w1::size")
        assert size.value.value == 3
        assert find_by_path(live.model, "Plant::w2").typ is \
            find_by_path(live.model, "Lib::Widget")


class TestSafetyValve:
    """A session that falls back to a cold rebuild says why."""

    COUNTER = "incremental.session_fallbacks.RuntimeError"

    def test_failed_merge_bumps_the_fallback_counter(self, monkeypatch):
        live = session()

        def broken_merge(*args):
            raise RuntimeError("merge bug")

        monkeypatch.setattr(_Merger, "merge_lists", broken_merge)
        before = METRICS.counter(self.COUNTER).value
        update = live.update(LIBRARY, PLANT.replace("= 3", "= 4"),
                             filenames=NAMES)
        assert update.full_rebuild
        assert METRICS.counter(self.COUNTER).value == before + 1

    def test_ordinary_edit_takes_no_fallback(self):
        live = session()
        before = fallbacks()
        update = live.update(LIBRARY, PLANT.replace("= 3", "= 4"),
                             filenames=NAMES)
        assert not update.full_rebuild
        assert fallbacks() == before

    def test_malformed_revision_raises_before_the_valve(self):
        """A source that does not parse is the author's error, not the
        session's: it raises with the session still on its previous
        revision, and the next good revision applies incrementally."""
        live = session()
        before = fallbacks()
        unclosed = PLANT.rstrip().removesuffix("}")
        with pytest.raises(ParseError, match="missing '}'"):
            live.update(LIBRARY, unclosed, filenames=NAMES)
        assert fallbacks() == before
        edited = PLANT.replace("= 3", "= 4")
        update = live.update(LIBRARY, edited, filenames=NAMES)
        assert not update.full_rebuild
        assert update.changed_sources == ("plant.sysml",)
        assert fallbacks() == before
        cold = load_model(LIBRARY, edited, filenames=NAMES)
        assert print_model(live.model) == print_model(cold)
        assert model_to_json(live.model) == model_to_json(cold)


class TestMovedPackage:
    """A package that moves to another source slice is rebuilt from
    scratch; its deep hash is unchanged, but its objects are new."""

    def test_moved_package_is_resolved_again(self):
        live = session()
        update = live.update(PLANT, LIBRARY,
                             filenames=["plant.sysml", "lib.sysml"])
        assert not update.full_rebuild
        assert {"Lib::Widget", "Lib::Gadget"} <= set(
            paths(update.edited_anchors))
        widget = find_by_path(live.model, "Lib::Widget")
        gadget = find_by_path(live.model, "Lib::Gadget")
        assert widget.specializations == [gadget]
        # consumers follow the package to its new objects
        assert find_by_path(live.model, "Plant::w1").typ is widget
        assert find_by_path(live.model, "Plant::w2").typ is widget


class TestRootScopeDependencies:
    """Every name that falls through to the root scope depends on it,
    whether the resolver scanned the root for that name or answered a
    repeat lookup from its memo."""

    USERS = ["package A {\n    attribute a : Real;\n}\n",
             "package B {\n    attribute b : Real;\n}\n"]
    SHADOW = "attribute def Real;\n"

    def test_new_root_definition_retypes_every_fallback_usage(self):
        live = ModelSession(*self.USERS, filenames=["a.sysml", "b.sysml"])
        for path in ("A::a", "B::b"):
            assert node_path(find_by_path(live.model, path).typ) == \
                "ScalarValues::Real"
        names = ["a.sysml", "b.sysml", "real.sysml"]
        update = live.update(*self.USERS, self.SHADOW, filenames=names)
        assert not update.full_rebuild
        assert {"A", "B"} <= set(paths(update.dirty_anchors))
        cold = load_model(*self.USERS, self.SHADOW, filenames=names)
        for path in ("A::a", "B::b"):
            assert node_path(find_by_path(cold, path).typ) == "Real"
            assert node_path(find_by_path(live.model, path).typ) == "Real"


def test_icelab_dependency_graph_is_pinned():
    """The ICE lab (the x1 mega factory) records exactly this graph."""
    assert graph_signature(ModelSession(*icelab_sources()).graph) == (
        "18be9a6b22db9049e3ab5757b249c855e42f8fed3e04e08dc2dbe18c71e71a6c",
        893, 6575)
