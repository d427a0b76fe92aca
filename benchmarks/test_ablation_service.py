"""Serving ablation (ours): closed-loop load against ``repro serve``.

Eight concurrent clients each issue 25 requests against a real
:class:`ServiceHTTPServer` on the loopback interface. The request mix
cycles through five option variants, so the 200-request run carries
heavy repetition — exactly the regime the single-flight coalescer and
the result memo exist for.

Hard claims asserted here:

* the service executes the pipeline a handful of times, not 200
  (``service.pipeline_executions`` ≪ ``service.requests``);
* every response for a given variant is byte-identical — coalesced
  followers, memo hits and fresh executions serialize the same bundle;
* nothing is rejected at the default admission settings (the memo
  absorbs repeats without consuming pipeline slots).

The benchmarked quantity is a warm request (memo hit), and the bench
JSON ``extra_info`` carries the load-phase latency distribution (p50 /
p95) plus the execution-collapse ratio.

``test_sharded_worker_sweep`` is the A2d companion: the same closed
loop pointed at the sharded tier (real ``repro serve`` child processes
behind a :class:`RouterService`) at 1 / 2 / 4 workers, with a request
pool of *distinct* models so every request is real pipeline work. It
publishes the throughput trajectory to ``BENCH_sharded.json`` — the
>= 2.5x @ 4 workers gate only applies on multi-core runners (the
trajectory is recorded, honestly flat, on single-core boxes). The same
test then probes the warm-path p95 at 1x and 10x request volume; that
gate is a *ratio* bound (plus an absolute floor), so it binds on every
runner regardless of hardware speed.
"""

import json
import os
import threading
import time
from pathlib import Path

from conftest import print_comparison
from repro.codegen import PipelineOptions
from repro.icelab.model_gen import icelab_sources
from repro.obs import METRICS, snapshot_delta
from repro.service import (ConfigurationService, RouterService,
                           ServiceClient, ServiceHTTPServer, WorkerProcess)

CLIENTS = 8
REQUESTS_PER_CLIENT = 25
VARIANTS = [{"namespace": f"line-{i}"} for i in range(5)]


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def test_closed_loop_load_collapses_executions(benchmark):
    sources = icelab_sources()
    service = ConfigurationService(PipelineOptions(), policy="block")
    server = ServiceHTTPServer(("127.0.0.1", 0), service)
    serve_thread = threading.Thread(target=server.serve_forever,
                                    kwargs={"poll_interval": 0.05},
                                    daemon=True)
    serve_thread.start()
    before = METRICS.snapshot()
    latencies = []
    bodies_by_variant = {}
    failures = []
    lock = threading.Lock()

    def client_loop(worker):
        with ServiceClient(port=server.port,
                           client_id=f"client-{worker}") as client:
            for i in range(REQUESTS_PER_CLIENT):
                variant = (worker + i) % len(VARIANTS)
                started = time.perf_counter()
                status, _, body = client.generate_raw(
                    sources, options=VARIANTS[variant])
                elapsed = time.perf_counter() - started
                with lock:
                    latencies.append(elapsed)
                    if status != 200:
                        failures.append((worker, i, status))
                    bodies_by_variant.setdefault(variant, set()).add(body)

    threads = [threading.Thread(target=client_loop, args=(w,))
               for w in range(CLIENTS)]
    load_started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    load_seconds = time.perf_counter() - load_started
    delta = snapshot_delta(before, METRICS.snapshot())

    # the benchmarked quantity: one warm request (served from the memo)
    with ServiceClient(port=server.port, client_id="bench") as bench:
        benchmark.pedantic(
            lambda: bench.generate_raw(sources, options=VARIANTS[0]),
            rounds=10, iterations=1)

    report = server.drain_and_shutdown(deadline=10.0)
    server.server_close()
    serve_thread.join(5)

    total = CLIENTS * REQUESTS_PER_CLIENT
    executions = delta.get("service.pipeline_executions", 0)
    assert failures == []
    assert delta["service.requests"] == total
    assert delta["service.responses"] == total

    # -- single-flight + memo collapse ---------------------------------
    # 200 requests over 5 variants must execute the pipeline only a
    # handful of times: once per variant, plus at most the odd repeat
    # that races a memo store. "≪" operationalized as <= 10% of load.
    assert executions >= len(VARIANTS)
    assert executions <= total // 10, (
        f"{executions} pipeline executions for {total} requests — "
        f"single-flight/memo collapse is not working")

    # -- determinism across roles --------------------------------------
    for variant, bodies in bodies_by_variant.items():
        assert len(bodies) == 1, (
            f"variant {variant} produced {len(bodies)} distinct payloads")

    assert report.completed  # clean drain after the load

    p50 = percentile(latencies, 0.50)
    p95 = percentile(latencies, 0.95)
    benchmark.extra_info["service_load"] = {
        "clients": CLIENTS,
        "requests": total,
        "variants": len(VARIANTS),
        "pipeline_executions": executions,
        "collapse_ratio": round(total / executions, 1),
        "memo_hits": delta.get("service.memo_hits", 0),
        "singleflight_followers": delta.get(
            "service.singleflight.followers", 0),
        "load_seconds": round(load_seconds, 4),
        "throughput_rps": round(total / load_seconds, 1),
        "p50_s": round(p50, 6),
        "p95_s": round(p95, 6),
    }
    print(f"\n=== service load: {total} requests, {CLIENTS} clients ===")
    print(f"pipeline executions : {executions} "
          f"({total / executions:.0f}x collapse)")
    print(f"memo hits           : {delta.get('service.memo_hits', 0)}")
    print(f"p50 / p95 latency   : {p50 * 1e3:.1f}ms / {p95 * 1e3:.1f}ms")
    print(f"throughput          : {total / load_seconds:.0f} req/s")


# -- A2d: sharded-tier throughput sweep ------------------------------------

WORKER_TIERS = [1, 2, 4]
SWEEP_REQUESTS = 16  # distinct models: every request executes the pipeline
SWEEP_CLIENTS = 4
SHARDED_SPEEDUP_TARGET = 2.5  # @ 4 workers, multi-core runners only


def _sweep_variant(i: int) -> list[str]:
    """Distinct sources per request -> distinct routing keys, no memo."""
    sources = list(icelab_sources())
    sources[0] = sources[0] + f"\n// sweep variant {i}\n"
    return sources


def _measure_sharded_tier(count: int, workdir: Path) -> dict:
    """Closed-loop wall time for SWEEP_REQUESTS against *count* shards."""
    cache_dir = workdir / f"cache-{count}"
    serve_args = ["--namespace", "bench", "--cache-dir", str(cache_dir)]
    workers = [WorkerProcess(f"bench{count}w{i}", serve_args=serve_args,
                             workdir=str(workdir))
               for i in range(count)]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.wait_ready(60.0)
        router = RouterService(workers, PipelineOptions(namespace="bench"))
        try:
            payloads = {}
            failures = []
            lock = threading.Lock()
            pending = list(range(SWEEP_REQUESTS))

            def client_loop():
                while True:
                    with lock:
                        if not pending:
                            return
                        variant = pending.pop()
                    status, _, body, _ = router.dispatch(
                        _sweep_variant(variant))
                    with lock:
                        if status != 200:
                            failures.append((variant, status))
                        payloads[variant] = body

            threads = [threading.Thread(target=client_loop)
                       for _ in range(SWEEP_CLIENTS)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            wall = time.perf_counter() - started
            assert failures == [], failures
            assert len(payloads) == SWEEP_REQUESTS
            return {
                "workers": count,
                "wall_seconds": round(wall, 4),
                "throughput_rps": round(SWEEP_REQUESTS / wall, 2),
                "payloads": payloads,
            }
        finally:
            router.close()
    finally:
        for worker in workers:
            worker.close()


P95_VOLUME_WORKERS = 2
P95_BASE_REQUESTS = 50     # 1x volume
P95_VOLUME_FACTOR = 10     # the 10x probe
P95_RATIO_BOUND = 3.0      # hardware-robust: ratio of p95s, not absolutes
P95_FLOOR_SECONDS = 0.025  # ignore ratio noise below 25ms p95


def _measure_p95_volume(workdir: Path) -> dict:
    """Warm-path p95 at 1x and 10x request volume on a 2-worker tier.

    All requests share one model, so after the first execution every
    dispatch is a memo hit — the probe isolates the *serving* path
    (router, HTTP, queueing) from pipeline compute. A healthy tier's
    p95 must not balloon with volume; the gate is a ratio (plus an
    absolute floor), so it binds identically on fast and slow runners.
    """
    cache_dir = workdir / "cache-p95"
    serve_args = ["--namespace", "bench", "--cache-dir", str(cache_dir)]
    workers = [WorkerProcess(f"p95w{i}", serve_args=serve_args,
                             workdir=str(workdir))
               for i in range(P95_VOLUME_WORKERS)]
    sources = _sweep_variant(0)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.wait_ready(60.0)
        router = RouterService(workers, PipelineOptions(namespace="bench"))
        try:
            router.dispatch(sources)  # prime the memo

            def measure(total: int) -> float:
                latencies = []
                failures = []
                lock = threading.Lock()
                remaining = [total]

                def client_loop():
                    while True:
                        with lock:
                            if remaining[0] <= 0:
                                return
                            remaining[0] -= 1
                        started = time.perf_counter()
                        status, _, _, _ = router.dispatch(sources)
                        elapsed = time.perf_counter() - started
                        with lock:
                            latencies.append(elapsed)
                            if status != 200:
                                failures.append(status)

                threads = [threading.Thread(target=client_loop)
                           for _ in range(SWEEP_CLIENTS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(300)
                assert failures == [], failures
                assert len(latencies) == total
                return percentile(latencies, 0.95)

            p95_1x = measure(P95_BASE_REQUESTS)
            p95_10x = measure(P95_BASE_REQUESTS * P95_VOLUME_FACTOR)
        finally:
            router.close()
    finally:
        for worker in workers:
            worker.close()
    return {
        "workers": P95_VOLUME_WORKERS,
        "requests_1x": P95_BASE_REQUESTS,
        "requests_10x": P95_BASE_REQUESTS * P95_VOLUME_FACTOR,
        "p95_1x_s": round(p95_1x, 6),
        "p95_10x_s": round(p95_10x, 6),
        "ratio": round(p95_10x / p95_1x, 2) if p95_1x > 0 else None,
        "ratio_bound": P95_RATIO_BOUND,
        "floor_s": P95_FLOOR_SECONDS,
    }


def test_sharded_worker_sweep(tmp_path):
    """Sweep 1/2/4 workers, publish BENCH_sharded.json, gate on >=4 cores."""
    tiers = [_measure_sharded_tier(count, tmp_path)
             for count in WORKER_TIERS]
    base = tiers[0]

    # differential check first: every sharded tier must return
    # byte-identical payloads to the single-worker tier, per variant
    for tier in tiers[1:]:
        for variant, body in tier["payloads"].items():
            assert body == base["payloads"][variant], (
                f"{tier['workers']}-worker payload for variant {variant} "
                f"diverges from the 1-worker reference")
    for tier in tiers:
        del tier["payloads"]  # not for the JSON
        tier["speedup_vs_1"] = round(
            base["wall_seconds"] / tier["wall_seconds"], 2)

    # volume robustness: warm-path p95 must not balloon 1x -> 10x
    p95_volume = _measure_p95_volume(tmp_path)

    cpu_count = os.cpu_count() or 1
    gate_applies = cpu_count >= 4
    Path("BENCH_sharded.json").write_text(json.dumps({
        "benchmark": "sharded-serving-throughput",
        "corpus": "icelab + per-request variant comment",
        "requests": SWEEP_REQUESTS,
        "clients": SWEEP_CLIENTS,
        "cpu_count": cpu_count,
        "speedup_target_at_4": SHARDED_SPEEDUP_TARGET,
        "gate_applied": gate_applies,
        "tiers": tiers,
        "p95_volume": p95_volume,
    }, indent=2) + "\n")

    rows = [(f"{t['workers']} worker(s)",
             "baseline" if t is base else
             (f">= {SHARDED_SPEEDUP_TARGET}x" if t["workers"] == 4
              and gate_applies else "recorded"),
             f"{t['wall_seconds'] * 1e3:.0f} ms",
             f"{t['speedup_vs_1']:.2f}x, {t['throughput_rps']:.1f} req/s")
            for t in tiers]
    rows.append((f"p95 @{P95_BASE_REQUESTS} req",
                 "baseline", f"{p95_volume['p95_1x_s'] * 1e3:.1f} ms",
                 f"{P95_VOLUME_WORKERS} workers, warm path"))
    rows.append((
        f"p95 @{P95_BASE_REQUESTS * P95_VOLUME_FACTOR} req",
        f"<= {P95_RATIO_BOUND}x",
        f"{p95_volume['p95_10x_s'] * 1e3:.1f} ms",
        f"ratio {p95_volume['ratio']}x"))
    print_comparison(
        f"A2d — sharded serving sweep ({cpu_count} cpu)", rows)

    # the p95 volume gate is ratio-based (with an absolute floor), so
    # it binds on every runner: a tier that queues unboundedly or leaks
    # per-request state shows up as p95 growth long before a timeout
    allowed = max(P95_RATIO_BOUND * p95_volume["p95_1x_s"],
                  P95_FLOOR_SECONDS)
    assert p95_volume["p95_10x_s"] <= allowed, (
        f"warm-path p95 grew from {p95_volume['p95_1x_s'] * 1e3:.1f}ms "
        f"at {P95_BASE_REQUESTS} requests to "
        f"{p95_volume['p95_10x_s'] * 1e3:.1f}ms at "
        f"{P95_BASE_REQUESTS * P95_VOLUME_FACTOR} — beyond the "
        f"{P95_RATIO_BOUND}x ratio bound "
        f"(floor {P95_FLOOR_SECONDS * 1e3:.0f}ms)")

    # scaling is a property of the hardware: worker processes can only
    # run concurrently when there are cores to run them on, so the
    # throughput gate binds on >= 4-core runners and the trajectory is
    # recorded (honestly flat) everywhere else
    if gate_applies:
        top = next(t for t in tiers if t["workers"] == 4)
        assert top["speedup_vs_1"] >= SHARDED_SPEEDUP_TARGET, (
            f"4-worker speedup {top['speedup_vs_1']}x below "
            f"{SHARDED_SPEEDUP_TARGET}x on a {cpu_count}-core runner")
