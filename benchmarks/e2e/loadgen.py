"""Single-process load generation with due-time accounting.

The open loop sends each request at its due time whatever happened to
the previous ones (independent users), from at most ``workers`` sender
threads, each with its own connection. A request is timed from when it
was *due*, so a stall shows up in the latency of every request queued
behind it; how late the generator itself sent each request is reported
separately (``late_s``). With every offset 0 the same loop is a closed
loop: each worker sends its next request as soon as its reply arrives.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field


def poisson_schedule(rate: float, count: int, seed: int) -> list[float]:
    """Seeded arrival offsets (seconds) of the first *count* arrivals of
    a Poisson process at *rate* per second: independent exponential
    gaps, so arrivals come in bursts as independent users' do."""
    if rate <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    rng = random.Random(seed)
    offsets: list[float] = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


@dataclass
class Sent:
    """One request's timeline, all on the generator's clock."""

    index: int
    due: float
    sent: float
    done: float
    worker: int
    result: object = None

    @property
    def latency_s(self) -> float:
        """From due time to reply."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


@dataclass
class LoopReport:
    records: list[Sent] = field(default_factory=list)
    #: when the loop started, on its clock
    started: float = 0.0
    elapsed_s: float = 0.0
    errors: list[str] = field(default_factory=list)


def run_open_loop(offsets: list[float], send, *, workers: int = 2,
                  clock=time.perf_counter, sleep=time.sleep) -> LoopReport:
    """Send request *i* at ``start + offsets[i]`` via ``send(i, worker)``.

    ``send`` returns whatever the caller wants kept per request; an
    exception it raises is recorded as an error for that request and
    the loop goes on. Requests are taken in due order; a request whose
    due time passes while every worker is busy is sent as soon as one
    frees up, and is timed from its due time all the same.
    """
    report = LoopReport()
    lock = threading.Lock()
    pending = iter(range(len(offsets)))
    start = report.started = clock()

    def worker(number: int) -> None:
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            due = start + offsets[index]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            try:
                result = send(index, number)
            except Exception as exc:  # noqa: BLE001 - recorded, loop goes on
                result = exc
            done = clock()
            with lock:
                report.records.append(Sent(index, due, sent, done, number,
                                           result))
                if isinstance(result, Exception):
                    report.errors.append(f"request {index}: "
                                         f"{type(result).__name__}: {result}")

    if workers == 1:
        worker(0)
    else:
        threads = [threading.Thread(target=worker, args=(number,),
                                    name=f"loadgen-{number}")
                   for number in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    report.records.sort(key=lambda record: record.index)
    report.elapsed_s = clock() - start
    return report
