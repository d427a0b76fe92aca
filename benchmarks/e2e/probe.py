"""The speedometer: how fast the CPU the run is pinned to runs fixed
work, sampled every few milliseconds.

Usage: ``python probe.py``, started by the benchmark on the CPU it
pinned itself to. Every ``PROBE_INTERVAL_S`` it runs the fixed work
twice, the second time timed; each line on standard input is answered
with one JSON line, the ``[start, end, cpu_s]`` samples taken since the
last answer (``start``/``end`` on ``time.perf_counter``, the system-wide
monotonic clock, and ``cpu_s`` the CPU time of the timed run). End of
input ends it.

The work imports nothing of the program and keeps no state, so its
speed depends on the host alone. On a shared host that speed swings by
more than half within seconds, as neighbours contend for the core, and
the same swing slows the program pinned to the same CPU; see
:class:`measure.HostSpeed`.
"""

from __future__ import annotations

import gc
import json
import os
import select
import sys
import time

#: Seconds between two probes.
PROBE_INTERVAL_S = 0.025
#: Size of the fixed work.
PROBE_ITEMS = 500
#: CPU seconds the timed run of the work takes at the reference speed:
#: about what it takes on an uncontended core of a 2-vCPU KVM guest on
#: a Xeon (Sapphire Rapids) host, CPython 3.
REFERENCE_PROBE_S = 0.00045


class _Record:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_record) -> None:
        self.key = key
        self.value = value
        self.next = next_record


def probe_work(items: int = PROBE_ITEMS) -> int:
    """Work in the program's style: string keys, dict updates, small
    linked objects, a sort. Everything it makes is freed by reference
    counting, so it runs the same with the collector off."""
    table: dict[str, int] = {}
    head = None
    for i in range(items):
        key = f"part{i * 7919 % 1543}.attr{i % 17}"
        table[key] = table.get(key, 0) + i
        head = _Record(key.split(".")[0], i, head)
    total = 0
    while head is not None:
        total += head.value + len(head.key)
        head = head.next
    return total + len(sorted(table.items(), key=lambda kv: kv[1]))


def sample() -> list[float]:
    """One probe: an untimed run refills the caches the measured work
    evicted, then the timed one. CPU time leaves out the moments the
    measured work, sharing the CPU, holds it."""
    probe_work()
    started = time.perf_counter()
    cpu = time.thread_time()
    probe_work()
    cpu = time.thread_time() - cpu
    return [started, time.perf_counter(), cpu]


def main() -> int:
    gc.disable()
    stdin = sys.stdin.fileno()
    samples: list[list[float]] = []
    while True:
        ready, _, _ = select.select([stdin], [], [], PROBE_INTERVAL_S)
        if not ready:
            samples.append(sample())
            continue
        data = os.read(stdin, 4096)
        if not data:
            return 0
        for _ in range(data.count(b"\n")):
            print(json.dumps(samples), flush=True)
            samples = []


if __name__ == "__main__":
    sys.exit(main())
