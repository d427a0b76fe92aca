"""Change detection between two model revisions.

:meth:`ModelSession.update` is the model diff: its
:class:`ModelUpdate` names the anchors (top-level definitions and
usages, packages, machine subtrees) whose content changed, which is
what every downstream consumer invalidates on.
"""

from repro.sysml import ModelSession

BASE = """
package Lib {
    part def Machine {
        attribute speed : Real;
        attribute mode : String;
    }
}
part m : Lib::Machine {
    :>> speed = 10.0;
}
"""


def update(old, new):
    return ModelSession(old).update(new)


def paths(keys):
    return sorted(key.path for key in keys)


class TestNoChanges:
    def test_identical_models_empty_diff(self):
        change = update(BASE, BASE)
        assert change.clean
        assert not change.changed_anchors
        assert not change.full_rebuild

    def test_stdlib_excluded_by_default(self):
        change = update(BASE, BASE.replace("10.0", "99.5"))
        assert not any(key.is_under("ScalarValues")
                       for key in change.dirty_anchors)


class TestAdditions:
    def test_added_attribute(self):
        change = update(BASE, BASE.replace(
            "attribute mode : String;",
            "attribute mode : String;\n        attribute temp : Real;"))
        assert paths(change.edited_anchors) == ["Lib::Machine"]
        assert not change.removed_anchors
        # the usage typed by the edited definition is re-resolved
        assert "m" in paths(change.dirty_anchors)

    def test_added_machine_part(self):
        change = update(BASE, BASE + "\npart m2 : Lib::Machine;")
        assert "m2" in paths(change.edited_anchors)
        assert not change.removed_anchors

    def test_touching_filter(self):
        change = update(BASE, BASE + "\npart m2 : Lib::Machine;")
        assert any(key.is_under("m2") for key in change.changed_anchors)
        assert not any(key.is_under("Lib")
                       for key in change.changed_anchors)


class TestRemovals:
    def test_removed_attribute(self):
        change = update(BASE, BASE.replace(
            "        attribute mode : String;\n", ""))
        assert paths(change.edited_anchors) == ["Lib::Machine"]
        assert "m" in paths(change.dirty_anchors)


class TestModifications:
    def test_changed_value(self):
        change = update(BASE, BASE.replace("10.0", "99.5"))
        assert paths(change.changed_anchors) == ["m"]

    def test_changed_type(self):
        change = update(BASE, BASE.replace("attribute speed : Real;",
                                           "attribute speed : Integer;"))
        assert "Lib::Machine" in paths(change.changed_anchors)

    def test_changed_direction(self):
        base = """
        port def P { in attribute value : Real; }
        """
        change = update(base, base.replace("in attribute",
                                           "out attribute"))
        assert paths(change.changed_anchors) == ["P"]

    def test_abstract_toggle(self):
        change = update("part def D;", "abstract part def D;")
        assert paths(change.changed_anchors) == ["D"]


class TestAnonymousConnectors:
    SOURCE = """
    port def P { in attribute value : Real; }
    part def M {
        attribute x : Real;
        port p : P;
        %s
    }
    """

    def test_added_bind_detected(self):
        change = update(self.SOURCE % "", self.SOURCE % "bind p.value = x;")
        assert paths(change.edited_anchors) == ["M"]

    def test_removed_bind_detected(self):
        change = update(self.SOURCE % "bind p.value = x;", self.SOURCE % "")
        assert paths(change.edited_anchors) == ["M"]

    def test_same_binds_no_diff(self):
        assert update(self.SOURCE % "bind p.value = x;",
                      self.SOURCE % "bind p.value = x;").clean


class TestIceLabDiff:
    def test_icelab_self_diff_empty(self):
        from repro.icelab.model_gen import icelab_sources
        session = ModelSession(*icelab_sources())
        assert session.update(*icelab_sources()).clean

    def test_icelab_machine_edit_localized(self):
        import copy

        from repro.icelab.model_gen import icelab_sources
        from repro.machines.specs import ICE_LAB_SPECS
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
        emco = next(s for s in specs if s.name == "emco")
        emco.driver.parameters["ip"] = "10.197.99.99"
        session = ModelSession(*icelab_sources())
        change = session.update(*icelab_sources(specs))
        assert 0 < len(change.changed_anchors) <= 3
        assert all("emco" in key.path for key in change.changed_anchors)
