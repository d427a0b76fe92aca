"""The sharded serving tier: routing, failover, probes, aggregation.

Uses in-process :class:`LocalWorker` shards for everything except the
exact-sum metric aggregation tests — local workers share one process
registry, so cross-shard sums are only provably exact with real
``repro serve`` child processes (:class:`WorkerProcess`).
"""

import json
import socket
import threading

import pytest

from fixtures import (BAD_OPTION_IDS, BAD_OPTIONS, EMCO_WORKCELL_SOURCE,
                      MALFORMED_CONTENT_LENGTHS, OVERSIZED_CONTENT_LENGTHS,
                      post_with_content_length)

from repro.codegen import PipelineOptions
from repro.faults import FaultPlan, FaultSpec
from repro.fingerprint import SERVICE_GENERATE_SALT, fingerprint
from repro.obs import METRICS, aggregate_snapshots, snapshot_delta
from repro.service import (LocalWorker, RetriableServiceError,
                           RouterHTTPServer, RouterService, ServiceClient,
                           WorkerEndpoint, WorkerProcess,
                           semantic_options)
from repro.sysml import load_model
from repro.testkit import wait_until

SOURCES = [EMCO_WORKCELL_SOURCE]


def source_variant(i: int) -> list[str]:
    """Distinct sources (distinct routing keys), same semantics."""
    return [EMCO_WORKCELL_SOURCE + f"\n// variant {i}\n"]


@pytest.fixture
def shards():
    """Factory: N LocalWorkers behind a RouterService."""
    started = []

    def _start(count=3, options=None, **router_kwargs):
        options = options if options is not None else PipelineOptions()
        workers = [LocalWorker(f"shard{i}", options).start()
                   for i in range(count)]
        router = RouterService(workers, options, **router_kwargs)
        started.append((router, workers))
        return router, workers

    yield _start
    for router, workers in started:
        router.close()
        for worker in workers:
            worker.close()


def dead_endpoint(name: str) -> WorkerEndpoint:
    """An endpoint nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return WorkerEndpoint(name, "127.0.0.1", port)


class TestRoutingKey:
    def test_router_key_equals_worker_singleflight_key(self, shards):
        """The affinity contract: the router's parse-free key must be
        byte-for-byte the key the worker derives after parsing."""
        router, workers = shards(count=2)
        service = workers[0].service
        model = load_model(*SOURCES)
        worker_key = fingerprint(model.content_fingerprint,
                                 semantic_options(service.options),
                                 salt=SERVICE_GENERATE_SALT)
        assert router.routing_key(SOURCES) == worker_key

    def test_memo_singleflight_and_routing_share_one_key(
            self, shards, monkeypatch):
        router, workers = shards(count=2)
        service = workers[0].service
        keys = []

        def recording(method):
            def record(key, *args):
                keys.append(key)
                return method(key, *args)
            return record

        for owner, name in ((service, "_memo_get"), (service, "_memo_put"),
                            (service._generate_flight, "do")):
            monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
        service.generate(SOURCES)
        assert keys == [router.routing_key(SOURCES)] * 3

    def test_semantic_overrides_change_the_key(self, shards):
        router, _ = shards(count=2)
        assert router.routing_key(SOURCES) \
            != router.routing_key(SOURCES, {"namespace": "other"})

    def test_unknown_override_raises_bad_request(self, shards):
        from repro.service import BadRequest
        router, _ = shards(count=2)
        with pytest.raises(BadRequest):
            router.routing_key(SOURCES, {"jobs": 4})


class TestDispatch:
    def test_routed_bytes_equal_direct_bytes(self, shards):
        router, workers = shards(count=3)
        direct, _ = workers[0].service.generate(SOURCES)
        status, headers, payload, worker = router.dispatch(SOURCES)
        assert status == 200
        assert payload == direct
        assert worker in router.worker_names

    def test_repeats_stick_to_one_shard_and_hit_its_memo(self, shards):
        router, _ = shards(count=3)
        _, _, first, worker_a = router.dispatch(SOURCES)
        _, headers, second, worker_b = router.dispatch(SOURCES)
        assert worker_a == worker_b
        assert second == first
        assert headers.get("x-repro-singleflight") == "memo"

    def test_one_worker_and_three_workers_serve_identical_bytes(
            self, shards):
        router_one, _ = shards(count=1)
        router_three, _ = shards(count=3)
        _, _, one, _ = router_one.dispatch(SOURCES)
        _, _, three, _ = router_three.dispatch(SOURCES)
        assert one == three

    def test_distinct_requests_spread_over_shards(self, shards):
        router, _ = shards(count=3)
        owners = {router.assign(source_variant(i)) for i in range(40)}
        assert len(owners) > 1


class TestFailover:
    def test_dead_owner_fails_over_byte_identically(self, shards):
        router, workers = shards(count=3)
        _, _, reference, owner = router.dispatch(SOURCES)
        next(w for w in workers if w.name == owner).stop()
        status, _, payload, survivor = router.dispatch(SOURCES)
        assert status == 200
        assert payload == reference
        assert survivor != owner
        assert owner not in router.healthy_workers()

    def test_all_workers_down_is_a_typed_retriable_error(self, shards):
        router, workers = shards(count=2)
        for worker in workers:
            worker.stop()
        with pytest.raises(RetriableServiceError) as excinfo:
            router.dispatch(SOURCES)
        assert excinfo.value.code == "no-workers"
        assert excinfo.value.retriable

    def test_injected_crash_at_dispatch_fails_over(self, shards):
        """Regression for the ``router.dispatch`` chaos site: a crash
        injected on the first forward must be absorbed by failover,
        and the payload must match the fault-free bytes."""
        router, workers = shards(count=2)
        _, _, reference, _ = router.dispatch(SOURCES)
        for name in router.worker_names:
            router.mark_up(name)
        before = METRICS.snapshot()
        plan = FaultPlan(seed=0, specs=(
            FaultSpec("router.dispatch", "crash", probability=1.0,
                      max_injections=1),))
        with plan.activated():
            status, _, payload, _ = router.dispatch(SOURCES)
        assert status == 200
        assert payload == reference
        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta.get("router.failovers") == 1

    def test_failover_deadline_with_scripted_clock(self):
        """Regression: the failover loop is bounded by
        ``dispatch_deadline`` on the injected clock — a router facing
        only dead workers gives up with a typed error instead of
        cycling forever."""
        ticks = iter([0.0, 100.0, 100.0, 100.0])
        router = RouterService(
            [dead_endpoint("dead-a"), dead_endpoint("dead-b"),
             dead_endpoint("dead-c")],
            dispatch_deadline=5.0, clock=lambda: next(ticks))
        with pytest.raises(RetriableServiceError) as excinfo:
            router.dispatch(SOURCES)
        assert excinfo.value.code == "dispatch-deadline"
        assert excinfo.value.retriable


class TestProbes:
    def test_death_needs_consecutive_probe_failures(self, shards):
        router, workers = shards(count=2, failure_threshold=3)
        workers[0].stop()
        router.probe_once()
        router.probe_once()
        assert workers[0].name in router.healthy_workers()
        router.probe_once()
        assert workers[0].name not in router.healthy_workers()
        assert workers[1].name in router.healthy_workers()

    def test_rejoin_on_first_successful_probe(self, shards):
        router, workers = shards(count=2)
        router.mark_down(workers[0].name)
        assert workers[0].name not in router.healthy_workers()
        router.probe_once()  # the worker never actually died
        assert workers[0].name in router.healthy_workers()

    def test_rebalancing_is_deterministic(self, shards):
        """Every router observing the same healthy set must compute
        the same assignment — mark_down/mark_up round-trips exactly."""
        router, workers = shards(count=3)
        keys = [router.routing_key(source_variant(i)) for i in range(60)]
        with router._lock:
            before = [router._healthy_ring.assign(k) for k in keys]
        router.mark_down(workers[1].name)
        router.mark_up(workers[1].name)
        with router._lock:
            after = [router._healthy_ring.assign(k) for k in keys]
        assert after == before

    def test_probe_thread_detects_death(self, shards):
        router, workers = shards(count=2, probe_interval=0.05,
                                 failure_threshold=2)
        router.start_probes()
        try:
            workers[1].stop()
            wait_until(
                lambda: workers[1].name not in router.healthy_workers(),
                timeout=5.0,
                message="prober never marked the dead worker down")
        finally:
            router.stop_probes()


class TestDrain:
    def test_topology_drain_reports_every_worker(self, shards):
        router, workers = shards(count=3)
        router.dispatch(SOURCES)
        report = router.drain(5.0)
        assert set(report.workers) == {w.name for w in workers}
        assert all(worker_report is not None and worker_report.completed
                   for worker_report in report.workers.values())
        assert report.router.completed
        assert report.completed

    def test_crashed_worker_fails_the_topology_drain(self, shards):
        router, workers = shards(count=2)
        router.dispatch(SOURCES)
        workers[0].stop()  # crash: no drain report will exist
        report = router.drain(5.0)
        assert report.workers[workers[0].name] is None
        assert not report.completed
        summary = report.summary()
        assert summary["workers"][workers[0].name] is None
        assert summary["completed"] is False


class TestHTTPFrontEnd:
    @pytest.fixture
    def front(self, shards):
        router, workers = shards(count=3)
        server = RouterHTTPServer(("127.0.0.1", 0), router)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        yield server, router, workers
        server.shutdown()
        server.server_close()
        thread.join(2)

    def test_response_names_the_serving_shard(self, front):
        server, router, workers = front
        with ServiceClient(server.port) as client:
            status, headers, body = client.generate_raw(SOURCES)
        assert status == 200
        assert headers.get("x-repro-worker") in router.worker_names
        direct, _ = workers[0].service.generate(SOURCES)
        assert body == direct

    @pytest.mark.parametrize("length", MALFORMED_CONTENT_LENGTHS)
    def test_malformed_content_length_is_a_typed_400(self, front, length):
        server, _, _ = front
        status, document = post_with_content_length(server.port, length)
        assert status == 400
        assert document["error"]["code"] == "bad-request"
        with ServiceClient(server.port) as client:
            assert client.generate_raw(SOURCES)[0] == 200

    @pytest.mark.parametrize("overrides", BAD_OPTIONS, ids=BAD_OPTION_IDS)
    def test_bad_option_is_a_typed_400(self, front, overrides):
        server, _, _ = front
        with ServiceClient(server.port) as client:
            status, headers, body = client.generate_raw(SOURCES,
                                                        options=overrides)
            assert status == 400, body
            assert json.loads(body)["error"]["code"] == "bad-option"
            # refused at the router: no worker saw the request
            assert "x-repro-worker" not in headers
            assert client.generate_raw(SOURCES)[0] == 200

    @pytest.mark.parametrize("length", OVERSIZED_CONTENT_LENGTHS,
                             ids=("cap+1", "5000-digits"))
    def test_oversized_body_is_a_typed_413(self, front, length):
        server, _, _ = front
        status, document = post_with_content_length(server.port, length)
        assert status == 413
        assert document["error"]["code"] == "payload-too-large"
        assert document["error"]["retriable"] is False
        with ServiceClient(server.port) as client:
            assert client.generate_raw(SOURCES)[0] == 200

    def test_workers_endpoint_reports_health(self, front):
        server, router, workers = front
        with ServiceClient(server.port) as client:
            _, _, body = client.request("GET", "/workers")
            import json
            listed = json.loads(body)["workers"]
        assert listed == {w.name: True for w in workers}

    def test_healthz_degrades_with_no_healthy_workers(self, front):
        server, router, workers = front
        with ServiceClient(server.port) as client:
            assert client.request("GET", "/healthz")[0] == 200
            for worker in workers:
                router.mark_down(worker.name)
            assert client.request("GET", "/healthz")[0] == 503

    def test_bad_request_does_not_touch_workers(self, front):
        server, router, _ = front
        before = METRICS.snapshot()
        with ServiceClient(server.port) as client:
            status, _, _ = client.request(
                "POST", "/v1/generate", body=b"",
                headers={"Content-Type": "text/plain"})
        assert status == 400
        delta = snapshot_delta(before, METRICS.snapshot())
        assert "router.forwarded" not in delta


class TestAggregation:
    """Cross-shard ``/metrics`` and ``/cache/stats`` semantics.

    Synthetic-snapshot tests pin the arithmetic exactly; the
    subprocess test in :class:`TestProcessWorkers` proves the sums
    over real per-process registries.
    """

    def test_counters_and_gauges_sum_exactly(self):
        merged = aggregate_snapshots([
            {"service.requests": 3, "service.active": 1.5},
            {"service.requests": 4, "service.active": 0.5},
            {"service.requests": 5},
        ])
        assert merged["service.requests"] == 12
        assert merged["service.active"] == 2.0

    def test_histograms_merge_count_weighted(self):
        merged = aggregate_snapshots([
            {"lat": {"count": 1, "mean": 1.0, "p50": 1.0, "p95": 1.0,
                     "max": 1.0}},
            {"lat": {"count": 3, "mean": 2.0, "p50": 2.0, "p95": 3.0,
                     "max": 4.0}},
        ])
        lat = merged["lat"]
        assert lat["count"] == 4
        assert lat["mean"] == pytest.approx((1.0 + 3 * 2.0) / 4)
        assert lat["p50"] == pytest.approx((1.0 + 3 * 2.0) / 4)
        assert lat["p95"] == pytest.approx((1.0 + 3 * 3.0) / 4)
        assert lat["max"] == 4.0

    def test_empty_histograms_do_not_dilute(self):
        merged = aggregate_snapshots([
            {"lat": {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                     "max": 0.0}},
            {"lat": {"count": 2, "mean": 5.0, "p50": 5.0, "p95": 6.0,
                     "max": 6.0}},
        ])
        assert merged["lat"]["mean"] == pytest.approx(5.0)
        assert merged["lat"]["p95"] == pytest.approx(6.0)

    def test_missing_names_contribute_where_present(self):
        merged = aggregate_snapshots([{"a": 1}, {"b": 2}])
        assert merged == {"a": 1, "b": 2}

    def test_snapshot_delta_counts_each_request_once_across_shards(
            self, shards):
        """Concurrent requests to *different* shards must appear in a
        registry delta exactly once each — the shared in-process
        registry is still additive, never double-counting."""
        router, _ = shards(count=3)
        variants = []
        seen_owners = set()
        for i in range(60):
            sources = source_variant(i)
            owner = router.assign(sources)
            if owner not in seen_owners:
                seen_owners.add(owner)
                variants.append(sources)
            if len(variants) == 2:
                break
        assert len(variants) == 2, "could not find two distinct shards"
        before = METRICS.snapshot()
        threads = [threading.Thread(target=router.dispatch, args=(v,))
                   for v in variants]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta.get("service.requests") == 2
        assert delta.get("service.responses") == 2
        assert delta.get("router.forwarded") == 2


class TestProcessWorkers:
    """Exact cross-process aggregation, against real ``repro serve``
    children (each owns its registry, so sums are provable)."""

    @pytest.fixture(scope="class")
    def process_tier(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shards")
        serve_args = ["--namespace", "proc",
                      "--cache-dir", str(tmp / "cache")]
        workers = [WorkerProcess(f"proc{i}", serve_args=serve_args,
                                 workdir=str(tmp))
                   for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.wait_ready(60.0)
        router = RouterService(
            workers, PipelineOptions(namespace="proc"))
        yield router, workers
        router.close()
        for worker in workers:
            worker.close()

    def test_fleet_metrics_sum_exactly_and_keep_percentiles(
            self, process_tier):
        router, workers = process_tier
        sent = 0
        owners = set()
        for i in range(8):
            status, _, _, owner = router.dispatch(source_variant(i))
            assert status == 200
            sent += 1
            owners.add(owner)
        assert owners == set(router.worker_names)  # both shards worked
        merged = router.metrics_snapshot()
        assert merged["service.requests"] == sent
        assert merged["service.responses"] == sent
        latency = merged["service.request_seconds"]
        assert latency["count"] == sent
        assert latency["p50"] > 0
        assert latency["p95"] >= latency["p50"]
        assert latency["max"] >= latency["p95"]

    def test_cache_stats_share_the_store_and_sum_counters(
            self, process_tier):
        router, workers = process_tier
        stats = router.cache_stats()
        combined = stats["combined"]
        per_worker = [s for s in stats["workers"].values()
                      if isinstance(s, dict) and "hits" in s]
        assert len(per_worker) == len(workers)
        directories = {s["directory"] for s in per_worker}
        assert len(directories) == 1  # one shared store
        assert combined["directory"] in directories
        assert combined["hits"] == sum(s["hits"] for s in per_worker)
        assert combined["misses"] == sum(s["misses"]
                                         for s in per_worker)

    def test_worker_drain_report_round_trips_to_the_supervisor(
            self, process_tier):
        router, workers = process_tier
        report = workers[0].drain(10.0)
        assert report is not None
        assert report.completed
        assert report.remaining == 0
