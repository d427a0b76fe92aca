"""Seed-deterministic fault injection at named sites.

A :class:`FaultPlan` is a pure description of *which* faults to inject
*where*: a seed plus a tuple of :class:`FaultSpec` entries, each naming
a fault site (``cache.get``, ``parallel.worker``, ``service.request``,
``router.dispatch``, ``k8s.apply``, ...), a fault kind and a
probability. Instrumented code
declares its sites by calling :func:`fault_point` (raising kinds:
IO errors, worker crashes, service unavailability, latency) or
:func:`corrupt_at` (payload corruption) — both are no-ops unless a plan
is active, so the hot-path cost without chaos is one attribute read.

**Determinism contract.** Whether the *n*-th opportunity at a spec
fires is a pure function of ``(seed, site, kind, n)`` — a SHA-256 hash,
no :mod:`random` state, no wall clock. The same seed and the same plan
therefore produce the same per-spec fault schedule; combined with
graceful degradation at every site (retry, regenerate, fall back), the
same seed must also produce the same *outcome*: byte-identical
artifacts, or a typed error whose ``retriable`` attribute is ``True``.
Under concurrency the *assignment* of occurrence indices to threads can
vary with scheduling, so the contract is about outcomes, not about
which individual operation faults — the chaos oracle
(:mod:`repro.testkit.oracles`) checks exactly that.

Plans activate two ways:

* :meth:`FaultPlan.activated` — a context manager binding the plan to
  the current thread/context (a :class:`~contextvars.ContextVar`);
  :func:`repro.parallel.map_ordered` forwards the active plan into its
  worker threads/processes so nested sites keep injecting.
* :func:`install_plan` / :func:`uninstall_plan` — a process-global
  fallback for threads the context cannot reach (a running HTTP
  server's request handlers). No product path installs a plan this
  way; it is the seam through which the resilience tests put faults
  into a live server.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from ..obs import METRICS
from .schedule import occurrence_fraction

_INJECTED = METRICS.counter("faults.injected")

KIND_IO = "io-error"
KIND_CORRUPT = "corrupt"
KIND_LATENCY = "latency"
KIND_CRASH = "crash"
KIND_UNAVAILABLE = "unavailable"
KINDS = (KIND_IO, KIND_CORRUPT, KIND_LATENCY, KIND_CRASH,
         KIND_UNAVAILABLE)

#: Kinds :func:`fault_point` acts on (``corrupt`` needs a payload, so
#: only :func:`corrupt_at` consumes it).
_POINT_KINDS = (KIND_IO, KIND_LATENCY, KIND_CRASH, KIND_UNAVAILABLE)

#: Prefix stamped onto corrupted payloads: invalid UTF-8, invalid JSON
#: and an invalid pickle opcode, so every cache codec detects it.
CORRUPT_PREFIX = b"\xff\x00repro-fault\xff"


class FaultInjected(Exception):
    """Marker base of every injected failure."""

    #: Stable machine-readable identifier (mirrors the service-error
    #: convention in :mod:`repro.service`).
    code = "injected-fault"
    retriable = True

    def __init__(self, site: str, message: str = ""):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")


class InjectedIOError(FaultInjected, OSError):
    """An injected I/O failure (disk read/write, apply step)."""

    code = "injected-io-error"

    def __init__(self, site: str):
        FaultInjected.__init__(self, site,
                               f"injected I/O error at {site!r}")


class InjectedCrash(FaultInjected, RuntimeError):
    """An injected worker crash (the unit never ran)."""

    code = "injected-crash"

    def __init__(self, site: str):
        FaultInjected.__init__(self, site,
                               f"injected worker crash at {site!r}")


class InjectedUnavailable(FaultInjected):
    """Injected transient unavailability (HTTP 503 + ``Retry-After``)."""

    code = "injected-unavailable"

    def __init__(self, site: str, retry_after: float = 0.05):
        self.retry_after = retry_after
        FaultInjected.__init__(
            self, site, f"injected unavailability at {site!r} "
                        f"(retry after {retry_after:g}s)")


def corrupt_bytes(data: bytes) -> bytes:
    """Deterministically corrupt *data* (junk prefix + truncation)."""
    return CORRUPT_PREFIX + data[len(data) // 2:]


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: where, what, how often."""

    site: str
    kind: str
    probability: float = 1.0
    #: Stop injecting after this many hits (``None`` = unbounded).
    max_injections: int | None = None
    #: Sleep length for ``latency`` faults.
    latency: float = 0.001
    #: ``Retry-After`` hint carried by ``unavailable`` faults.
    retry_after: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {', '.join(KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")


class FaultPlan:
    """A seeded schedule of faults over named sites.

    Each spec keeps its own occurrence counter; occurrence *n* fires
    iff ``hash(seed, site, kind, n)`` lands under the spec's
    probability — see the module docstring for the exact contract.
    """

    def __init__(self, seed: int = 0,
                 specs: tuple[FaultSpec, ...] | list[FaultSpec] = ()):
        self.seed = seed
        self.specs = tuple(specs)
        self._by_site: dict[str, list[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._lock = threading.Lock()
        self._occurrences: dict[FaultSpec, int] = {}
        self._injections: dict[FaultSpec, int] = {}

    # -- (de)serialization: worker processes receive plans by pickle ----

    def __getstate__(self) -> dict[str, object]:
        # counters are process-local working state, the schedule is not
        return {"seed": self.seed, "specs": self.specs}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(state["seed"], state["specs"])  # type: ignore[arg-type]

    # -- the decision procedure -----------------------------------------

    def _fires(self, spec: FaultSpec, occurrence: int) -> bool:
        fraction = occurrence_fraction(self.seed, spec.site, spec.kind,
                                       occurrence)
        return fraction < spec.probability

    def decide(self, site: str,
               kinds: tuple[str, ...] | None = None) -> FaultSpec | None:
        """The spec firing at this occurrence of *site*, if any.

        Only specs whose kind is in *kinds* (default: all) take part;
        each participating spec's occurrence counter advances whether
        or not it fires, so skipped opportunities stay deterministic.
        """
        specs = self._by_site.get(site)
        if not specs:
            return None
        chosen: FaultSpec | None = None
        with self._lock:
            for spec in specs:
                if kinds is not None and spec.kind not in kinds:
                    continue
                occurrence = self._occurrences.get(spec, 0)
                self._occurrences[spec] = occurrence + 1
                if spec.max_injections is not None and \
                        self._injections.get(spec, 0) >= spec.max_injections:
                    continue
                if chosen is None and self._fires(spec, occurrence):
                    chosen = spec
                    self._injections[spec] = \
                        self._injections.get(spec, 0) + 1
        if chosen is not None:
            _INJECTED.inc()
            METRICS.counter(f"faults.injected.{chosen.kind}").inc()
        return chosen

    # -- activation ------------------------------------------------------

    @contextmanager
    def activated(self):
        """Bind this plan to the current thread/context."""
        token = _LOCAL.set(self)
        try:
            yield self
        finally:
            _LOCAL.reset(token)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"


# -- ambient plan lookup --------------------------------------------------

_GLOBAL_LOCK = threading.Lock()
_GLOBAL: FaultPlan | None = None
_LOCAL: ContextVar[FaultPlan | None] = ContextVar("repro_fault_plan",
                                                  default=None)


def active_plan() -> FaultPlan | None:
    """The context-local plan, else the process-global one, else None."""
    plan = _LOCAL.get()
    return plan if plan is not None else _GLOBAL


def install_plan(plan: FaultPlan) -> None:
    """Install *plan* process-wide (server threads see it too)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = plan


def uninstall_plan() -> None:
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None


# -- the two site primitives ----------------------------------------------

def fault_point(site: str) -> None:
    """Declare a raising fault site; no-op without an active plan.

    Raises :class:`InjectedIOError` / :class:`InjectedCrash` /
    :class:`InjectedUnavailable` or sleeps (``latency``) when the
    active plan schedules a fault for this occurrence.
    """
    plan = active_plan()
    if plan is None:
        return
    spec = plan.decide(site, kinds=_POINT_KINDS)
    if spec is None:
        return
    if spec.kind == KIND_LATENCY:
        time.sleep(spec.latency)
    elif spec.kind == KIND_IO:
        raise InjectedIOError(site)
    elif spec.kind == KIND_CRASH:
        raise InjectedCrash(site)
    elif spec.kind == KIND_UNAVAILABLE:
        raise InjectedUnavailable(site, spec.retry_after)


def corrupt_at(site: str, data: bytes) -> bytes:
    """Declare a corruption site: returns *data*, possibly corrupted."""
    plan = active_plan()
    if plan is None:
        return data
    spec = plan.decide(site, kinds=(KIND_CORRUPT,))
    if spec is None:
        return data
    return corrupt_bytes(data)
