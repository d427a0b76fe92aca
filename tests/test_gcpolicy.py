"""The collector window of the hot calls (:mod:`repro.gcpolicy`) and the
slotted records that pay for it."""

import gc
import sys
import threading

import pytest

from repro.gcpolicy import THRESHOLDS, gc_window
from repro.icelab import icelab_sources
from repro.sysml import ModelSession, load_model, model_to_json, print_model
from repro.sysml.ast_nodes import (FeatureChain, FeatureRefExpr, Literal,
                                   Multiplicity, QualifiedName)
from repro.sysml.elements import Element
from repro.sysml.errors import SourceLocation

#: Thresholds a caller might run with: anything but the window's.
CALLER = (1234, 7, 8)


@pytest.fixture()
def caller_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@pytest.mark.usefixtures("caller_thresholds")
class TestWindow:
    def test_raises_then_restores_on_return(self):
        with gc_window():
            assert gc.get_threshold() == THRESHOLDS
        assert gc.get_threshold() == CALLER

    def test_restores_when_the_body_raises(self):
        with pytest.raises(ZeroDivisionError):
            with gc_window():
                1 / 0
        assert gc.get_threshold() == CALLER

    def test_nested_window_is_a_no_op(self):
        with gc_window():
            # neither entering nor leaving the inner window touches this
            gc.set_threshold(5000, 3, 3)
            with gc_window():
                assert gc.get_threshold() == (5000, 3, 3)
            assert gc.get_threshold() == (5000, 3, 3)
        assert gc.get_threshold() == CALLER

    def test_overlapping_threads_restore_after_the_last_exit(self):
        first_in, second_in = threading.Event(), threading.Event()
        first_out = threading.Event()
        seen = {}

        def first():
            with gc_window():
                first_in.set()
                assert second_in.wait(5)
            first_out.set()

        def second():
            assert first_in.wait(5)
            with gc_window():
                second_in.set()
                assert first_out.wait(5)
                seen["after first exit"] = gc.get_threshold()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen["after first exit"] == THRESHOLDS
        assert gc.get_threshold() == CALLER

    def test_many_threads_never_lose_a_window(self):
        """More threads than cores, switching often: inside any window
        the thresholds are raised, and afterwards they are the caller's."""
        outside = []

        def churn():
            for _ in range(300):
                with gc_window():
                    if gc.get_threshold() != THRESHOLDS:
                        outside.append(gc.get_threshold())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert outside == []
        assert gc.get_threshold() == CALLER


@pytest.mark.parametrize("record", [
    SourceLocation("a.sysml", 2, 3),
    QualifiedName(["A", "B"]),
    FeatureChain(["a", "b"]),
    Multiplicity(0, 1),
    Literal(1),
    FeatureRefExpr(FeatureChain(["a"])),
], ids=lambda record: type(record).__name__)
def test_records_are_slotted(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


@pytest.mark.usefixtures("caller_thresholds")
def test_session_edit_equals_a_cold_load():
    sources = icelab_sources()
    session = ModelSession(*sources)
    edited = [text.replace("10.197.12.11", "10.197.12.99")
              for text in sources]
    assert edited != sources
    update = session.update(*edited)
    assert not update.full_rebuild
    cold = load_model(*edited)
    assert print_model(session.model) == print_model(cold)
    assert model_to_json(session.model) == model_to_json(cold)
    assert session.model.content_fingerprint == cold.content_fingerprint
    assert gc.get_threshold() == CALLER


def test_update_leaves_no_element_to_the_collector():
    """The parsed elements a merge does not take are unlinked, so
    reference counting frees them; in their ``owner`` cycles only a
    full collection would, and the window makes those rare."""
    sources = icelab_sources()
    session = ModelSession(*sources)
    edited = [text.replace("10.197.12.11", "10.197.12.99")
              for text in sources]
    gc.collect()
    gc.disable()
    try:
        session.update(*edited)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, Element)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []
