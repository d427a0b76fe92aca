"""Statistics, span recording and outcome bookkeeping for the e2e benchmark.

Everything here is measurement machinery owned by the benchmark: the
program under test is timed from outside, by calling its public
functions inside :class:`SpanRecorder` spans. ``repro.obs`` tracing is
never switched on.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from probe import PROBE_INTERVAL_S, REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Percentiles the tail rule may pick from, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


# -- statistics --------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def nearest_rank(ordered: list[float], percent: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, -(-len(ordered) * percent // 100))  # ceil
    return ordered[int(rank) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percent, value)``, or ``None`` when even the median has
    fewer than ten samples above it.
    """
    ordered = sorted(values)
    for percent in reversed(TAIL_LADDER):
        value = nearest_rank(ordered, percent)
        if sum(1 for v in ordered if v > value) >= TAIL_MIN_BEYOND:
            return percent, value
    return None


def summarize(values: list[float], unit: str) -> dict[str, object]:
    """Median, quartiles, sample count and supported tail of *values*,
    with the samples themselves in measurement order."""
    q1, median, q3 = quartiles(values)
    summary: dict[str, object] = {"value": median, "unit": unit,
                                  "median": median, "q1": q1, "q3": q3,
                                  "n": len(values), "samples": list(values)}
    tail = tail_percentile(values)
    if tail is not None:
        summary["tail_p"], summary["tail"] = tail
    return summary


def mix_latency(by_class: dict[str, list[float]],
                mix: dict[str, float]) -> dict[str, object]:
    """``latency_s``: the time of one operation under the workload's
    nominal *mix* (class -> share): each class's median weighted by its
    share, and its quartiles weighted the same way.

    The shares are the workload's, not the ones a run happened to draw,
    so the value does not hop between classes with the seed as an
    overall median of a mixed workload does; the per-class medians
    keep one slow outlier from moving it.
    """
    if abs(sum(mix.values()) - 1.0) > 1e-9:
        raise ValueError(f"mix shares do not add up to 1: {mix}")
    parts = {kind: quartiles(by_class[kind]) for kind in mix}
    q1, median, q3 = (sum(share * parts[kind][i]
                          for kind, share in mix.items()) for i in range(3))
    return {"value": median, "unit": "s", "median": median, "q1": q1,
            "q3": q3, "n": sum(len(by_class[kind]) for kind in mix),
            "mix": dict(mix)}


def single(value: float, unit: str, n: int = 1) -> dict[str, object]:
    """A metric measured once per run (a count, a throughput)."""
    return {"value": value, "unit": unit, "median": value, "q1": value,
            "q3": value, "n": n}


def output_digest(result) -> str:
    """SHA-256 of the canonical JSON of a GenerationResult's manifests
    and intermediate JSON."""
    text = json.dumps({
        "manifests": result.manifests,
        "machine_configs": result.machine_configs,
        "server_configs": result.server_configs,
        "client_configs": result.client_configs,
        "storage_configs": result.storage_configs,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``) in MB."""
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host speed ------------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Pin this process, and so every process and thread it starts, to
    one CPU, the one the speedometer measures; returns its number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """The speed of the CPU the run is pinned to, over time.

    On a shared host the same code runs at two speeds, as much as 1.7x
    apart, switching within seconds as a neighbour starts and stops on
    the physical core: a run's raw times drift by a quarter and more,
    and neither more samples nor a lower quantile removes it. So the
    benchmark pins the run to one CPU, samples that CPU's speed every
    few milliseconds with fixed work in a process of its own
    (``probe.py``), and reports every time at the reference speed:
    the wall time of ``[start, end]`` times the mean speed of the
    probes taken in it, where a probe's speed is
    ``REFERENCE_PROBE_S`` over its CPU time. The program does not
    touch the probe's work, so a change to the program moves the
    reported times and not the speed.

    *samples* (``[start, end, cpu_s]``) replaces the process in tests.
    """

    def __init__(self, samples=None) -> None:
        self.samples: list[list[float]] = sorted(samples or [])
        self._process: subprocess.Popen | None = None
        self._fetched_at = float("-inf")

    def start(self) -> None:
        """Start the speedometer, on the CPU this process is pinned to."""
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def fetch(self) -> None:
        """Take in the samples the speedometer took since the last call."""
        if self._process is None:
            return
        self._fetched_at = time.perf_counter()
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"the speedometer exited "
                               f"{self._process.wait()}")
        self.samples.extend(json.loads(line))

    def close(self) -> None:
        """End the speedometer, if it was started, and wait for it."""
        if self._process is None:
            return
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()
        self._process = None

    def speed(self, start: float, end: float) -> float:
        """Mean speed (1 = the reference) over ``[start, end]``, widened
        by one probe interval each side so a short operation has a
        probe too; with none even then, the probes either side of it."""
        if end > self._fetched_at:
            self.fetch()
        if not self.samples:
            raise ValueError("the speedometer took no sample")
        lo = bisect.bisect_left(self.samples, [start - PROBE_INTERVAL_S])
        hi = bisect.bisect_right(self.samples, [end + PROBE_INTERVAL_S])
        window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return statistics.fmean(REFERENCE_PROBE_S / cpu
                                for _, _, cpu in window)

    def at_reference(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would have taken at the reference
        speed."""
        return (end - start) * self.speed(start, end)

    def durations(self, intervals) -> list[float]:
        """:meth:`at_reference` of every ``(start, end)``."""
        return [self.at_reference(start, end) for start, end in intervals]

    def report(self) -> dict[str, object]:
        """The speedometer's record, for the result file."""
        self.fetch()
        speeds = [REFERENCE_PROBE_S / cpu for _, _, cpu in self.samples]
        return {"reference_probe_s": REFERENCE_PROBE_S,
                "probe_interval_s": PROBE_INTERVAL_S,
                "probes": len(speeds),
                "mean_speed": statistics.fmean(speeds) if speeds else None,
                "speed_quartiles": (statistics.quantiles(speeds, n=4)
                                    if len(speeds) > 1 else None)}


# -- goldens -------------------------------------------------------------------

def load_golden() -> dict[str, str]:
    return json.loads((HERE / "golden.json").read_text())


# -- outcome bookkeeping -------------------------------------------------------

class Outcome:
    """Operations attempted and failed, plus the failure messages.

    Every timed operation and every verification check is one attempt;
    a check that does not hold is one failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def expect_equal(self, actual, expected, what: str) -> bool:
        return self.record(actual == expected,
                           f"{what}: got {actual!r}, expected {expected!r}")

    def to_dict(self) -> dict[str, object]:
        return {"attempted": self.attempted, "failed": self.failed,
                "error_rate": (self.failed / self.attempted
                               if self.attempted else 0.0),
                "correct": self.failed == 0 and self.attempted > 0,
                "failures": self.failures[:20]}


@dataclass
class Context:
    """What one workload run is given, and what it fills in."""

    seed: int
    seconds: float
    traced: bool
    workdir: Path
    golden: dict
    outcome: Outcome = field(default_factory=Outcome)
    recorder: "SpanRecorder" = field(default_factory=lambda: SpanRecorder())
    host: HostSpeed = field(default_factory=HostSpeed)
    #: end-to-end metric name -> summary (see :func:`summarize`) of
    #: times at the reference speed (``host.durations``)
    metrics: dict = field(default_factory=dict)
    #: per-class and per-phase breakdowns, for the result file
    detail: dict = field(default_factory=dict)
    #: per-layer counters the workload reads itself
    counts: dict = field(default_factory=dict)
    #: anything else worth keeping (load-generator report, counts)
    extra: dict = field(default_factory=dict)

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        """A recorder span in the traced run; a throwaway record (no
        clock reads, nothing kept) in the untraced one."""
        if not self.traced:
            yield {"attrs": {}}
            return
        with self.recorder.span(name, rid=rid, **attrs) as record:
            yield record


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def timed_setups(ctx: Context, build):
    """Run ``build()`` ``SETUP_REPEATS`` times, record the median as
    ``setup_s`` and return the last build's result.

    Each earlier result is dropped and collected before the next build,
    so set-up measures one build at a time, as a user pays it.
    """
    intervals: list[tuple[float, float]] = []
    result = None
    for number in range(SETUP_REPEATS):
        result = None
        gc.collect()
        started = time.perf_counter()
        with ctx.span("setup", rid=f"setup{number}"):
            result = build()
        intervals.append((started, time.perf_counter()))
    ctx.metrics["setup_s"] = summarize(ctx.host.durations(intervals), "s")
    return result


# -- span recording --------------------------------------------------------------

class SpanRecorder:
    """In-memory spans around calls into the program's layers.

    Each span records name, start, end, parent and a request or
    iteration id (``rid``, inherited from the enclosing span). With
    :meth:`gc_attribution` active, garbage-collector pauses are added
    to the span open when they happen (``gc_s`` / ``gc_n``).

    A span marked ``shadow`` measures work the untraced workload does
    not do separately (a standalone lexer drain, a twin session fed the
    same revisions); with ``within=LAYER`` its duration is moved out of
    that layer's self time, so self times still add up to the traced
    wall time.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[dict[str, object]] = []
        self._stack: list[dict[str, object]] = []
        self._gc_started: float | None = None
        self.gc_unattributed_s = 0.0

    def _new(self, name: str, start: float, end: float | None,
             parent: dict | None, rid, attrs: dict) -> dict[str, object]:
        record = {"id": len(self.spans), "name": name, "start": start,
                  "end": end,
                  "parent": parent["id"] if parent is not None else None,
                  "rid": rid if rid is not None
                  else (parent["rid"] if parent is not None else None),
                  "attrs": dict(attrs)}
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = self._new(name, self.clock(), None, parent, rid, attrs)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent=None,
            rid=None, **attrs) -> dict[str, object]:
        """Record a span measured elsewhere (e.g. from response headers)."""
        return self._new(name, start, end, parent, rid, attrs)

    def extend(self, spans: list[dict[str, object]], rid) -> None:
        """Append spans recorded by another process, renumbering ids."""
        offset = len(self.spans)
        for record in spans:
            copy = dict(record)
            copy["id"] = record["id"] + offset
            if record["parent"] is not None:
                copy["parent"] = record["parent"] + offset
            copy["rid"] = rid if record["rid"] is None else \
                f"{rid}/{record['rid']}"
            self.spans.append(copy)

    # -- garbage-collector attribution ----------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
            return
        if self._gc_started is None:
            return
        paused = self.clock() - self._gc_started
        self._gc_started = None
        if self._stack:
            attrs = self._stack[-1]["attrs"]
            attrs["gc_s"] = attrs.get("gc_s", 0.0) + paused
            attrs["gc_n"] = attrs.get("gc_n", 0) + 1
        else:
            self.gc_unattributed_s += paused

    @contextmanager
    def gc_attribution(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)

    def write(self, path: Path, **meta) -> None:
        path.write_text(json.dumps({"meta": meta, "spans": self.spans},
                                   indent=1) + "\n")


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: list[dict[str, object]]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"]))
    return {record["id"]: (record["end"] - record["start"])
            - _covered(record["start"], record["end"],
                       children.get(record["id"], []))
            for record in spans}


def _is_shadow(record: dict | None, by_id: dict[int, dict]) -> bool:
    while record is not None:
        if record["attrs"].get("shadow"):
            return True
        parent = record["parent"]
        record = by_id[parent] if parent is not None else None
    return False


def layer_totals(spans: list[dict[str, object]]) -> dict[str, object]:
    """Per-layer self time, count and GC time, plus the traced wall.

    The wall is the summed duration of root spans, less the shadow work
    inside them; ``root_s`` sums every root span, shadow ones included.
    Shadow spans with ``within`` move their duration from that layer's
    self time to their own.
    """
    by_id = {record["id"]: record for record in spans}
    own = self_times(spans)
    layers: dict[str, dict[str, float]] = {}
    wall = roots = 0.0
    for record in spans:
        entry = layers.setdefault(record["name"], {
            "self_s": 0.0, "total_s": 0.0, "count": 0, "gc_s": 0.0,
            "gc_n": 0})
        duration = record["end"] - record["start"]
        entry["self_s"] += own[record["id"]]
        entry["total_s"] += duration
        entry["count"] += 1
        entry["gc_s"] += record["attrs"].get("gc_s", 0.0)
        entry["gc_n"] += record["attrs"].get("gc_n", 0)
        parent = by_id.get(record["parent"])
        if parent is None:
            roots += duration
            if not _is_shadow(record, by_id):
                wall += duration
        elif record["attrs"].get("shadow") and \
                not _is_shadow(parent, by_id):
            wall -= duration
    for record in spans:
        within = record["attrs"].get("within")
        if within and within in layers:
            layers[within]["self_s"] -= record["end"] - record["start"]
    for entry in layers.values():
        entry["self_s"] = max(0.0, entry["self_s"])
    return {"wall_s": wall, "root_s": roots, "layers": layers}


# -- environment and provenance --------------------------------------------------

def git_commit(root: Path = ROOT) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "seed": seed}
