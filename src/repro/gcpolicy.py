"""The collector policy of the hot calls: the one place ``gc`` is tuned.

A compile allocates hundreds of thousands of container objects that
live until the call returns (elements, tokens, name records, planner
states). Under the default thresholds, ``(700, 10, 10)``, the
generational collector runs thousands of times per x10 compile and
rescans every surviving object on each older-generation pass, and a
warm engine makes each pass rescan its whole heap. :func:`gc_window`
raises the youngest generation's threshold to :data:`THRESHOLDS` for
the duration of one public hot call — :func:`repro.sysml.load_model`,
:class:`repro.sysml.ModelSession` builds and updates,
:meth:`repro.codegen.GenerationPipeline.run_on_model`,
:func:`repro.sim.simulate_suite` and
:func:`repro.planning.plan_operations` — and then restores the
caller's thresholds, also when the call raises.

The thresholds are process-wide while ``repro serve`` runs one call per
request thread, so windows are counted under a lock: the first caller
to enter saves the thresholds, the last to leave restores them, and a
nested window changes nothing. The policy is a constant, not a knob
(DESIGN.md, "GC policy", has the measurements behind it).
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

#: Collector thresholds inside a window. The older generations keep
#: their default ratios: ``(100_000, 50, 100)`` collected too rarely
#: and raised the edit loop's peak RSS by 13%.
THRESHOLDS = (100_000, 10, 10)

# Process-wide, like the thresholds themselves.
_lock = threading.Lock()
_open = 0
_saved: tuple[int, int, int] | None = None


@contextmanager
def gc_window() -> Iterator[None]:
    """Run the body under :data:`THRESHOLDS`; restore on exit."""
    global _open, _saved
    with _lock:
        if _open == 0:
            _saved = gc.get_threshold()
            gc.set_threshold(*THRESHOLDS)
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                gc.set_threshold(*_saved)
                _saved = None


__all__ = ["THRESHOLDS", "gc_window"]
