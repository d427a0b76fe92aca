"""serve-icelab: a ``repro serve`` child process answering configuration
requests.

The server runs with default flags (single node, incremental engine
on). The traffic mixes ``repeat`` requests (hot revisions primed during
set-up, served from the result memo), ``edit`` requests (an unseen
driver-parameter revision of the ICE lab, through the warm engine) and
``fresh`` requests (a new generated factory for a new tenant, under
its own namespace). Three loops send it:

* an open loop with seeded Poisson arrivals, each request timed from
  its due time (the per-class ``serve.*.p50_s`` and the queueing);
* a sequential loop, one request at a time on one connection
  (``latency_s``: what a request costs a server that is otherwise idle);
* a closed loop over two connections (``ops_per_s``).

All load comes from this process, from at most two threads with one
connection each.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from loadgen import poisson_schedule, run_open_loop
from measure import SRC, Context, mix_latency, nearest_rank, single, \
    summarize
from workload_edit import Edit, apply_edit

#: Offered load of the open loop (requests per second).
OPEN_RATE = 2.0
#: Whole blocks the sequential and the closed loop send, so their mix
#: is exact too. Three sequential blocks put 24 edits behind the edit
#: class's median, which carries most of ``latency_s``.
SEQUENTIAL_BLOCKS = 3
CLOSED_BLOCKS = 2
CONNECTIONS = 2
#: Share of each kind of request in the traffic.
MIX = {"repeat": 0.45, "edit": 0.40, "fresh": 0.15}
#: Requests come in shuffled blocks of 20 in the shares of ``MIX``, so
#: every whole block sends the mix exactly.
BLOCK = ("repeat",) * 9 + ("edit",) * 8 + ("fresh",) * 3
HOT_REVISIONS = 8
LATENCY_LIMIT_S = 1.0
#: Server starts per run; ``setup_s`` is their median. A start costs
#: a third of a second, so more of them than the other workloads' set-ups
#: keep the median steady.
SPAWNS = 5
#: Responses compared byte for byte with an in-process generation.
BYTE_CHECKS = 5
#: Edit requests replayed in-process in the traced run.
REPLAY_EDITS = 10
#: Request numbers of the sequential, closed and replayed requests
#: start here, after the open loop's.
SEQUENTIAL_BASE = 100_000
CLOSED_BASE = 200_000
REPLAY_BASE = 300_000


@dataclass(frozen=True)
class Request:
    number: int
    kind: str
    sources: tuple[str, ...]
    options: dict | None = None
    hot: int = -1

    def body(self) -> bytes:
        document: dict[str, object] = {"sources": list(self.sources)}
        if self.options:
            document["options"] = self.options
        return json.dumps(document).encode("utf-8")


class RequestMaker:
    """Seeded requests, each a pure function of ``(seed, number)``."""

    def __init__(self, seed: int) -> None:
        from repro.icelab import icelab_sources
        from repro.machines.specs import ICE_LAB_SPECS
        self.seed = seed
        self.specs = list(ICE_LAB_SPECS)
        self.base = icelab_sources(self.specs)
        self.hot = [self._revision(j % len(self.specs), 10_000 + j,
                                   random.Random(f"{seed}:hot:{j}"))
                    for j in range(HOT_REVISIONS)]

    def _revision(self, machine: int, value: int, rng) -> tuple[str, ...]:
        parameters = sorted(
            name for name, current in
            self.specs[machine].driver.parameters.items()
            if isinstance(current, int) and not isinstance(current, bool))
        edit = Edit(0, "local", machine, rng.choice(parameters), value)
        return tuple(apply_edit(self.base, self.specs, edit))

    def kind(self, number: int) -> str:
        block, position = divmod(number, len(BLOCK))
        kinds = list(BLOCK)
        random.Random(f"{self.seed}:block:{block}").shuffle(kinds)
        return kinds[position]

    def make(self, number: int, kind: str | None = None) -> Request:
        from repro.testkit.corpus import generate_scenario
        kind = kind or self.kind(number)
        rng = random.Random(f"{self.seed}:request:{number}")
        if kind == "repeat":
            hot = rng.randrange(HOT_REVISIONS)
            return Request(number, kind, self.hot[hot], hot=hot)
        if kind == "edit":
            # values above every hot and original value: each edit is a
            # revision the server has not seen
            return Request(number, kind, self._revision(
                rng.randrange(len(self.specs)), 30_000 + number % 30_000,
                rng))
        # every tenant has its own namespace, and so its own engine in
        # the server: a warm engine fed one unrelated factory after
        # another can fail validation (see the README)
        scenario = generate_scenario(rng.randrange(1 << 30))
        return Request(number, kind, tuple(scenario.sources),
                       {"namespace": f"tenant-{number + 1}"})


# -- the server process ------------------------------------------------------

def _client(port: int):
    from repro.service.client import ServiceClient
    return ServiceClient(port, timeout=60.0)


def spawn_server(ctx: Context, number: int) -> tuple[subprocess.Popen, int,
                                                      tuple[float, float]]:
    """Start ``repro serve`` and wait for ``/healthz`` to answer 200.

    Returns the process, its port and when it was spawned and healthy.
    """
    port_file = ctx.workdir / f"serve{number}.port"
    log = open(ctx.workdir / f"serve{number}.log", "w")
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ctx.workdir,
        stdout=log, stderr=subprocess.STDOUT)
    log.close()
    deadline = started + 60.0
    try:
        while True:
            if process.poll() is not None:
                raise RuntimeError(f"repro serve exited {process.returncode}"
                                   f" before it was healthy")
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve not healthy within 60 s")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                client = _client(int(text))
                try:
                    status, _, _ = client.request("GET", "/healthz")
                finally:
                    client.close()
                if status == 200:
                    return process, int(text), (started, time.perf_counter())
            time.sleep(0.002)
    except BaseException:
        stop_server(process)
        raise


def stop_server(process: subprocess.Popen) -> int:
    """SIGTERM (a graceful drain), then wait; kill if it hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait()


def peak_rss_of(pid: int) -> float:
    """A live process's peak resident set size (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


# -- the workload ----------------------------------------------------------------

def _post(client, request: Request):
    return client.request("POST", "/v1/generate", body=request.body(),
                          headers={"Content-Type": "application/json"})


def run(ctx: Context) -> None:
    maker = RequestMaker(ctx.seed)
    # whole blocks whose expected arrival time is closest to --seconds
    blocks = max(1, round(ctx.seconds * OPEN_RATE / len(BLOCK)))
    offsets = poisson_schedule(OPEN_RATE, blocks * len(BLOCK), ctx.seed)
    requests = {
        "open": [maker.make(number) for number in range(len(offsets))],
        "sequential": [maker.make(SEQUENTIAL_BASE + number) for number
                       in range(SEQUENTIAL_BLOCKS * len(BLOCK))],
        "closed": [maker.make(CLOSED_BASE + number)
                   for number in range(CLOSED_BLOCKS * len(BLOCK))]}
    bodies = {loop: [request.body() for request in sent]
              for loop, sent in requests.items()}

    setups: list[tuple[float, float]] = []
    process = None
    clients = []
    try:
        for number in range(SPAWNS):
            if process is not None:
                stop_server(process)
            process, port, interval = spawn_server(ctx, number)
            setups.append(interval)
        clients = [_client(port) for _ in range(CONNECTIONS)]
        primed = []
        for hot, sources in enumerate(maker.hot):
            status, _, payload = _post(clients[0],
                                       Request(-1, "repeat", sources))
            ctx.outcome.expect_equal(status, 200, f"priming hot {hot}")
            primed.append(payload)
        # one tenant first, so the server's one-off lazy set-up is not
        # charged to the first measured one
        status, _, _ = _post(clients[0], maker.make(-1, "fresh"))
        ctx.outcome.expect_equal(status, 200, "priming fresh")

        def sender(loop: str):
            return lambda index, worker: clients[worker].request(
                "POST", "/v1/generate", body=bodies[loop][index],
                headers={"Content-Type": "application/json"})

        before = clients[0].metrics()
        reports = {"open": run_open_loop(offsets, sender("open"),
                                         workers=CONNECTIONS)}
        after = clients[0].metrics()
        # every offset 0: each connection sends again when answered
        for loop, workers in (("sequential", 1), ("closed", CONNECTIONS)):
            reports[loop] = run_open_loop([0.0] * len(requests[loop]),
                                          sender(loop), workers=workers)
        ctx.metrics["peak_rss_mb"] = single(peak_rss_of(process.pid), "MB")
    finally:
        for client in clients:
            client.close()
        if process is not None:
            code = stop_server(process)
            ctx.outcome.expect_equal(code, 0, "repro serve drain exit code")
    ctx.metrics["setup_s"] = summarize(ctx.host.durations(setups), "s")

    _verify(ctx, maker, primed,
            [(requests[loop][record.index], record)
             for loop, report in reports.items()
             for record in report.records])
    _report(ctx, requests, reports, before, after)
    if ctx.traced:
        _trace_requests(ctx, requests, reports)
        _replay(ctx, maker)


def _ok(record) -> bool:
    return not isinstance(record.result, Exception) and \
        record.result[0] == 200


def _verify(ctx: Context, maker: RequestMaker, primed: list[bytes],
            pairs: list) -> None:
    """Every response's known answer.

    The bundle's fingerprint must equal ``content_fingerprint_of_sources``
    of the request, a repeat must be byte-identical to its primed
    response, and a seeded sample of the other responses must equal an
    in-process ``bundle_bytes`` of the same request byte for byte.
    """
    from repro.codegen import PipelineOptions, generate_configuration
    from repro.service.server import bundle_bytes
    from repro.sysml import content_fingerprint_of_sources, load_model

    candidates = []
    for request, record in pairs:
        what = f"{request.kind} request {request.number}"
        ctx.outcome.attempted += 1
        if isinstance(record.result, Exception):
            ctx.outcome.record(False, f"{what}: {record.result!r}")
            continue
        status, _, payload = record.result
        if not ctx.outcome.expect_equal(status, 200, f"{what} status"):
            continue
        ctx.outcome.expect_equal(
            json.loads(payload)["fingerprint"],
            content_fingerprint_of_sources(list(request.sources)),
            f"{what} fingerprint")
        if request.kind == "repeat":
            ctx.outcome.record(payload == primed[request.hot],
                               f"{what} differs from its primed response")
        else:
            candidates.append((request, payload))
    rng = random.Random(f"{ctx.seed}:bytes")
    for request, payload in rng.sample(candidates,
                                       min(BYTE_CHECKS, len(candidates))):
        options = PipelineOptions(**(request.options or {}))
        model = load_model(*request.sources)
        expected = bundle_bytes(generate_configuration(model, options),
                                model.content_fingerprint, options)
        ctx.outcome.record(payload == expected,
                           f"{request.kind} request {request.number} "
                           f"differs from an in-process generation")


def _by_kind(ctx: Context, requests, report, start) -> dict[str, list]:
    """Each kind's latencies at the reference speed, timed from
    ``start(record)``."""
    by_kind: dict[str, list[float]] = {kind: [] for kind in MIX}
    for record in report.records:
        by_kind[requests[record.index].kind].append(
            ctx.host.at_reference(start(record), record.done))
    return by_kind


def _report(ctx: Context, requests, reports, before, after) -> None:
    from repro.obs import snapshot_delta

    opened, closed = reports["open"], reports["closed"]
    sequential = _by_kind(ctx, requests["sequential"],
                          reports["sequential"], lambda r: r.sent)
    ctx.metrics["latency_s"] = mix_latency(sequential, MIX)
    answered = sum(1 for record in closed.records if _ok(record))
    ctx.metrics["ops_per_s"] = single(
        answered / ctx.host.at_reference(
            closed.started, closed.started + closed.elapsed_s),
        "1/s", len(closed.records))
    for kind, values in sequential.items():
        ctx.detail[f"serve.sequential.{kind}.p50_s"] = summarize(values, "s")

    from_due = _by_kind(ctx, requests["open"], opened, lambda r: r.due)
    ctx.detail["serve.p50_s"] = summarize(
        [value for values in from_due.values() for value in values], "s")
    for kind, values in from_due.items():
        ctx.detail[f"serve.{kind}.p50_s"] = summarize(values, "s")
    # the limit holds for the latency the clients saw, at the host's
    # speed of the moment
    within = sum(1 for record in opened.records
                 if _ok(record) and record.latency_s <= LATENCY_LIMIT_S)
    ctx.detail["serve.within_limit_ratio"] = single(
        within / len(opened.records), "ratio", len(opened.records))
    server_s: dict[str, list[tuple[float, float]]] = {}
    reused = regenerated = 0
    for record in opened.records:
        if not _ok(record):
            continue
        headers = record.result[1]
        server_s.setdefault(headers["x-repro-singleflight"], []).append(
            (record.sent, record.sent + float(headers["x-repro-seconds"])))
        reused += int(headers.get("x-repro-reused", 0))
        regenerated += int(headers.get("x-repro-regenerated", 0))
    for role, intervals in sorted(server_s.items()):
        ctx.detail[f"service.server_s.{role}"] = summarize(
            ctx.host.durations(intervals), "s")

    lateness = sorted(record.late_s for record in opened.records)
    ctx.extra["loadgen"] = {
        "open_loop": {"rate_per_s": OPEN_RATE,
                      "arrivals_s": opened.records[-1].due - opened.started,
                      "connections": CONNECTIONS,
                      "requests": len(opened.records),
                      "elapsed_s": opened.elapsed_s,
                      "late_p90_s": nearest_rank(lateness, 90),
                      "late_max_s": lateness[-1],
                      "latency_limit_s": LATENCY_LIMIT_S},
        **{f"{loop}_loop": {"connections": workers,
                            "requests": len(reports[loop].records),
                            "elapsed_s": reports[loop].elapsed_s}
           for loop, workers in (("sequential", 1),
                                 ("closed", CONNECTIONS))}}
    delta = snapshot_delta(before, after)
    served = delta.get("service.requests", 0)
    ctx.counts.update({
        "service.memo_hit_ratio":
            delta.get("service.memo_hits", 0) / served if served else 0,
        "service.pipeline_executions":
            delta.get("service.pipeline_executions", 0),
        "codegen.incremental.partial_runs":
            delta.get("incremental.partial_runs", 0),
        "codegen.incremental.full_runs":
            delta.get("incremental.full_runs", 0),
        "codegen.incremental.reuse_ratio":
            reused / (reused + regenerated) if reused + regenerated else 0.0,
    })
    ctx.extra["counters"] = {
        name: value for name, value in delta.items()
        if name.startswith(("service.", "incremental."))
        and not isinstance(value, dict)}


def _trace_requests(ctx: Context, requests, reports) -> None:
    """Spans for every request, from the generator's timestamps and the
    server's own ``X-Repro-Seconds``: queued (due -> sent, open loop
    only), in the server, and the rest of the client latency
    (transport)."""
    recorder = ctx.recorder
    for loop, report in reports.items():
        for record in report.records:
            request = requests[loop][record.index]
            begin = record.due if loop == "open" else record.sent
            root = recorder.add("service.request", begin, record.done,
                                rid=f"{loop}{record.index}",
                                kind=request.kind)
            if record.sent > begin:
                recorder.add("service.queue", record.due, record.sent,
                             parent=root)
            if _ok(record):
                headers = record.result[1]
                role = headers["x-repro-singleflight"]
                root["attrs"]["role"] = role
                recorder.add("service.server", record.sent,
                             record.sent + float(headers["x-repro-seconds"]),
                             parent=root, role=role)


def _replay(ctx: Context, maker: RequestMaker) -> None:
    """Edit requests replayed in-process, as ``ConfigurationService``
    serves them: ``load_model`` (here layer by layer) then the warm
    engine. Shadow work: it splits server time, it is not served."""
    from repro.codegen import IncrementalEngine, PipelineOptions

    from glue import traced_load_model

    engine = IncrementalEngine(PipelineOptions())
    engine.generate(*maker.base)
    front = total = 0.0
    for number in range(REPLAY_EDITS):
        request = maker.make(REPLAY_BASE + number, "edit")
        with ctx.span("service.replay", rid=f"replay{number}",
                      shadow=True) as replay:
            with ctx.span("service.frontend") as loaded:
                traced_load_model(ctx.recorder, list(request.sources))
            with ctx.span("codegen.incremental"):
                engine.generate(*request.sources)
        front += loaded["end"] - loaded["start"]
        total += replay["end"] - replay["start"]
    ctx.counts["service.frontend_pct"] = 100.0 * front / total
