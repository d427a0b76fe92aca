"""The configuration service end to end over real HTTP.

Covers the ISSUE acceptance criteria: single-flight collapse of
concurrent identical requests (proven via ``repro.obs`` counters with
a gated pipeline execution, so overlap is deterministic), backpressure
per policy, and graceful drain refusing new work while completing
admitted work.
"""

import json
import threading
import time

import pytest

from fixtures import (BAD_OPTION_IDS, BAD_OPTIONS, EMCO_WORKCELL_SOURCE,
                      MALFORMED_CONTENT_LENGTHS, OVERSIZED_CONTENT_LENGTHS,
                      post_with_content_length, rejected_revision)

from repro.cache import ArtifactCache
from repro.codegen import GenerationPipeline, PipelineOptions
from repro.obs import METRICS, MetricsRegistry, snapshot_delta
from repro.service import (BadOption, ConfigurationService, ServiceClient,
                           ServiceError, ServiceHTTPServer, bundle_bytes)
from repro.service.server import MAX_ENGINES
from repro.icelab.model_gen import icelab_sources
from repro.sysml import content_fingerprint_of_sources, load_model
from repro.testkit import wait_until

SOURCES = [EMCO_WORKCELL_SOURCE]


class GatedExecute:
    """Replaces ``service._execute`` so tests control pipeline timing."""

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        self._original = service._execute
        service._execute = self

    def __call__(self, options, sources, model_fingerprint):
        self.entered.set()
        assert self.release.wait(10), "gate never released"
        return self._original(options, sources, model_fingerprint)


@pytest.fixture
def serve():
    """Factory starting a real ThreadingHTTPServer on an ephemeral port."""
    running = []

    def _start(options=None, **service_kwargs):
        service = ConfigurationService(
            options if options is not None else PipelineOptions(),
            **service_kwargs)
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        running.append((server, thread))
        return server, service

    yield _start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(2)


class TestGenerateEndpoint:
    def test_bundle_matches_direct_pipeline_run(self, serve):
        server, service = serve()
        with ServiceClient(port=server.port) as client:
            status, headers, body = client.generate_raw(SOURCES)
        assert status == 200
        assert headers["x-repro-singleflight"] == "leader"
        model = load_model(*SOURCES)
        direct = GenerationPipeline(service.options).run_on_model(model)
        assert body == bundle_bytes(direct, model.content_fingerprint,
                                    service.options)
        bundle = json.loads(body)
        assert bundle["manifests"]
        assert bundle["summary"]["opcua_servers"] == 1

    def test_plain_text_body_is_one_source(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request(
                "POST", "/v1/generate",
                body=EMCO_WORKCELL_SOURCE.encode(),
                headers={"Content-Type": "text/plain"})
        assert status == 200
        assert json.loads(body)["manifests"]

    def test_options_override_shapes_output(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            default = client.generate(SOURCES)
            other = client.generate(SOURCES,
                                    options={"namespace": "plant-b"})
        assert default["options"]["namespace"] == "factory"
        assert other["options"]["namespace"] == "plant-b"
        assert default["manifests"] != other["manifests"]
        assert "plant-b" in next(iter(other["manifests"].values()))

    def test_repeat_request_hits_memo_without_execution(self, serve):
        server, _ = serve()
        before = METRICS.snapshot()
        with ServiceClient(port=server.port) as client:
            _, first_headers, first_body = client.generate_raw(SOURCES)
            _, second_headers, second_body = client.generate_raw(SOURCES)
        delta = snapshot_delta(before, METRICS.snapshot())
        assert first_headers["x-repro-singleflight"] == "leader"
        assert second_headers["x-repro-singleflight"] == "memo"
        assert second_body == first_body
        assert delta["service.pipeline_executions"] == 1
        assert delta["service.requests"] == 2
        assert delta["service.memo_hits"] == 1

    def test_invalid_model_maps_to_400(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as info:
                client.generate(["part broken : Nowhere;"])
        assert info.value.status == 400
        assert info.value.code == "invalid-model"
        assert not info.value.retriable

    def test_over_deep_model_maps_to_400(self, serve):
        deep = "package P { " * 400 + "}" * 400
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ServiceError) as info:
                client.generate([deep])
        assert info.value.status == 400
        assert info.value.code == "invalid-model"
        assert "nest deeper than" in str(info.value)

    def test_malformed_body_maps_to_400(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request(
                "POST", "/v1/generate", body=b"{not json",
                headers={"Content-Type": "application/json"})
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad-request"
            with pytest.raises(ServiceError) as info:
                client.generate(SOURCES, options={"jobs": 4})
        assert info.value.status == 400  # execution knobs stay server-side
        assert info.value.code == "bad-request"

    def test_unknown_route_is_404(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, _ = client.request("GET", "/v2/nope")
        assert status == 404


class TestMalformedContentLength:
    @pytest.mark.parametrize("length", MALFORMED_CONTENT_LENGTHS)
    def test_typed_400_then_the_server_keeps_serving(self, serve, length):
        server, _ = serve()
        status, document = post_with_content_length(server.port, length)
        assert status == 400
        assert document["error"]["code"] == "bad-request"
        assert length in document["error"]["message"]
        with ServiceClient(server.port) as client:
            assert client.generate_raw(SOURCES)[0] == 200


class TestBadOptions:
    @pytest.mark.parametrize("overrides", BAD_OPTIONS, ids=BAD_OPTION_IDS)
    def test_typed_400_then_the_server_keeps_serving(self, serve,
                                                     overrides):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.generate_raw(SOURCES,
                                                  options=overrides)
            assert status == 400, body
            assert json.loads(body)["error"]["code"] == "bad-option"
            assert client.generate_raw(SOURCES)[0] == 200

    def test_in_process_request_raises_bad_option(self):
        service = ConfigurationService(PipelineOptions())
        with pytest.raises(BadOption, match="capacity"):
            service.generate(SOURCES, {"capacity": 0})


class TestRequestTelemetry:
    def test_a_request_takes_no_registry_snapshot(self, monkeypatch):
        # a snapshot copies and sorts every histogram's observations,
        # so a per-request one costs more with every request served
        calls = []
        snapshot = MetricsRegistry.snapshot
        monkeypatch.setattr(
            MetricsRegistry, "snapshot",
            lambda registry: calls.append(1) or snapshot(registry))
        service = ConfigurationService(PipelineOptions())
        payload, info = service.generate(SOURCES)
        assert payload and info["singleflight"] == "leader"
        assert calls == []


class TestOversizedBody:
    @pytest.mark.parametrize("length", OVERSIZED_CONTENT_LENGTHS,
                             ids=("cap+1", "5000-digits"))
    def test_typed_413_then_the_server_keeps_serving(self, serve, length):
        server, _ = serve()
        status, document = post_with_content_length(server.port, length)
        assert status == 413
        assert document["error"]["code"] == "payload-too-large"
        assert document["error"]["retriable"] is False
        with ServiceClient(server.port) as client:
            assert client.generate_raw(SOURCES)[0] == 200


class TestSingleFlightOverHTTP:
    def test_concurrent_identical_requests_execute_once(self, serve):
        """ISSUE acceptance: N identical in-flight POSTs, one execution."""
        count = 6
        server, service = serve(max_inflight=count, policy="block")
        gate = GatedExecute(service)
        before = METRICS.snapshot()
        responses = {}

        def post(i):
            with ServiceClient(port=server.port) as client:
                responses[i] = client.generate_raw(SOURCES)

        threads = [threading.Thread(target=post, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        # the leader is inside the gate; wait for every other request
        # to park on the same generation flight, then release
        assert gate.entered.wait(10)
        assert wait_until(lambda: snapshot_delta(before, METRICS.snapshot())
                          .get("service.singleflight.followers") == count - 1)
        gate.release.set()
        for thread in threads:
            thread.join(10)

        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta["service.requests"] == count
        assert delta["service.pipeline_executions"] == 1
        statuses = [status for status, _, _ in responses.values()]
        assert statuses == [200] * count
        bodies = {body for _, _, body in responses.values()}
        assert len(bodies) == 1  # byte-identical payload for everyone
        roles = sorted(headers["x-repro-singleflight"]
                       for _, headers, _ in responses.values())
        assert roles == ["follower"] * (count - 1) + ["leader"]
        # and the shared payload matches a direct pipeline run
        model = load_model(*SOURCES)
        direct = GenerationPipeline(service.options).run_on_model(model)
        assert bodies == {bundle_bytes(direct, model.content_fingerprint,
                                       service.options)}


class TestIncrementalServing:
    def test_reuse_counters_in_headers(self, serve):
        server, _ = serve()
        edited = [EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                               "10.197.12.99")]
        with ServiceClient(port=server.port) as client:
            _, first_headers, _ = client.generate_raw(SOURCES)
            _, second_headers, second_body = client.generate_raw(edited)
        assert first_headers["x-repro-reused"] == "0"
        assert int(first_headers["x-repro-regenerated"]) > 0
        # one driver-IP edit: the warm engine reuses everything except
        # the touched machine, its workcell server and that manifest
        assert int(second_headers["x-repro-reused"]) > 0
        assert second_headers["x-repro-regenerated"] == "3"
        # and the incrementally served bytes match a cold pipeline run
        model = load_model(*edited)
        direct = GenerationPipeline(PipelineOptions()).run_on_model(model)
        assert second_body == bundle_bytes(direct, model.content_fingerprint,
                                           PipelineOptions())

    def test_memo_hit_has_no_reuse_headers(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            client.generate_raw(SOURCES)
            _, headers, _ = client.generate_raw(SOURCES)
        assert headers["x-repro-singleflight"] == "memo"
        assert "x-repro-reused" not in headers

    def test_incremental_path_never_loads_a_model(self, serve,
                                                  monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("load_model on the incremental path")

        # the service no longer imports load_model at all; refuse the
        # library entry point itself
        monkeypatch.setattr("repro.sysml.load_model", refuse)
        monkeypatch.setattr("repro.sysml.resolver.load_model", refuse)
        server, _ = serve()
        edited = [EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                               "10.197.12.99")]
        with ServiceClient(port=server.port) as client:
            for sources in (SOURCES, edited):
                status, _, _ = client.generate_raw(sources)
                assert status == 200
            # the engine's own model session rejects invalid sources
            with pytest.raises(ServiceError) as info:
                client.generate(["part broken : Nowhere;"])
        assert info.value.status == 400
        assert info.value.code == "invalid-model"

    def test_bundle_fingerprint_is_the_source_hash(self, serve):
        server, _ = serve()
        edited = [EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                               "10.197.12.99")]
        requests = [(SOURCES, None), (edited, None), (SOURCES, None),
                    (edited, {"namespace": "plant-b"})]
        with ServiceClient(port=server.port) as client:
            for sources, options in requests:
                bundle = client.generate(sources, options=options)
                assert bundle["fingerprint"] \
                    == content_fingerprint_of_sources(sources)

    def test_rejected_revision_then_fix_matches_cold(self, serve):
        server, service = serve()
        accepted = icelab_sources()
        rejected, restored = rejected_revision(accepted)
        with ServiceClient(port=server.port) as client:
            assert client.generate_raw(accepted)[0] == 200
            with pytest.raises(ServiceError) as info:
                client.generate(rejected)
            status, _, body = client.generate_raw(restored)
        assert info.value.status == 400
        assert info.value.code == "invalid-model"
        assert "unresolved-driver" in str(info.value)
        assert status == 200
        model = load_model(*restored)
        cold = GenerationPipeline(service.options).run_on_model(model)
        assert body == bundle_bytes(cold, model.content_fingerprint,
                                    service.options)

    def test_one_off_namespaces_keep_the_warm_engine(self):
        service = ConfigurationService(PipelineOptions())
        service.generate(SOURCES)
        service.generate([EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                                       "10.197.12.99")])
        # more one-off option sets than the pool holds
        for number in range(MAX_ENGINES + 1):
            service.generate(SOURCES, {"namespace": f"tenant-{number}"})
        before = METRICS.snapshot()
        service.generate([EMCO_WORKCELL_SOURCE.replace("10.197.12.11",
                                                       "10.197.12.98")])
        delta = snapshot_delta(before, METRICS.snapshot())
        assert delta.get("incremental.full_runs", 0) == 0
        assert delta.get("incremental.partial_runs", 0) == 1
        assert len(service._engines) == MAX_ENGINES

    def test_cached_service_serves_cold_bytes(self, serve, tmp_path):
        # a fresh service over an empty cache, then another one over
        # the cache the first left warm
        model = load_model(*SOURCES)
        cold = bundle_bytes(
            GenerationPipeline(PipelineOptions()).run_on_model(model),
            model.content_fingerprint, PipelineOptions())
        for _ in range(2):
            server, _ = serve(cache=ArtifactCache(tmp_path / "cache"))
            with ServiceClient(port=server.port) as client:
                status, headers, body = client.generate_raw(SOURCES)
            assert status == 200
            assert body == cold
            assert "x-repro-reused" in headers

    def test_every_engine_holds_the_service_cache(self, tmp_path):
        service = ConfigurationService(
            cache=ArtifactCache(tmp_path / "cache"))
        for number in range(MAX_ENGINES + 2):
            service.generate(SOURCES, {"namespace": f"tenant-{number}"})
        engines = [engine for engine, _lock in service._engines.values()]
        assert len(engines) == MAX_ENGINES
        for engine in engines:
            assert engine.pipeline.cache is service.cache
            assert engine.session.cache is service.cache


class TestBackpressureOverHTTP:
    def test_reject_policy_returns_retriable_503_immediately(self, serve):
        server, service = serve(max_inflight=1, policy="reject",
                                memo_entries=0)
        gate = GatedExecute(service)
        holder = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        holder.start()
        assert gate.entered.wait(10)
        with ServiceClient(port=server.port) as client:
            started = time.perf_counter()
            status, headers, body = client.generate_raw(SOURCES)
            elapsed = time.perf_counter() - started
        assert status == 503
        assert elapsed < 1.0
        error = json.loads(body)["error"]
        assert error["code"] == "rejected"
        assert error["retriable"] is True
        assert headers["retry-after"] == "1"
        gate.release.set()
        holder.join(10)

    def test_block_policy_admits_when_slot_frees(self, serve):
        server, service = serve(max_inflight=1, policy="block",
                                block_deadline=10.0, memo_entries=0)
        gate = GatedExecute(service)
        results = {}

        def post(i):
            with ServiceClient(port=server.port) as client:
                results[i] = client.generate_raw(SOURCES)

        holder = threading.Thread(target=post, args=(0,))
        holder.start()
        assert gate.entered.wait(10)
        # distinct options -> distinct flight, so it genuinely queues
        with ServiceClient(port=server.port) as client:
            queued = threading.Thread(
                target=lambda: results.setdefault(
                    1, client.generate_raw(
                        SOURCES, options={"namespace": "queued"})))
            queued.start()
            assert wait_until(lambda: service.admission.queued == 1)
            gate.release.set()
            queued.join(10)
        holder.join(10)
        assert results[0][0] == 200
        assert results[1][0] == 200

    def test_block_policy_honors_deadline(self, serve):
        server, service = serve(max_inflight=1, policy="block",
                                block_deadline=0.2, memo_entries=0)
        gate = GatedExecute(service)
        holder = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        holder.start()
        assert gate.entered.wait(10)
        with ServiceClient(port=server.port) as client:
            started = time.perf_counter()
            status, _, body = client.generate_raw(
                SOURCES, options={"namespace": "late"})
            elapsed = time.perf_counter() - started
        assert status == 503
        assert json.loads(body)["error"]["code"] == "deadline-exceeded"
        assert 0.15 <= elapsed < 5.0
        gate.release.set()
        holder.join(10)

    def test_rate_limit_returns_429(self, serve):
        server, _ = serve(rate=0.001, burst=1.0)
        with ServiceClient(port=server.port,
                           client_id="chatty") as client:
            first, _, _ = client.generate_raw(SOURCES)
            second, headers, body = client.generate_raw(SOURCES)
        assert first == 200
        assert second == 429
        error = json.loads(body)["error"]
        assert error["code"] == "rate-limited"
        assert error["retriable"] is True
        assert headers["retry-after"] == "1"


class TestIntrospectionEndpoints:
    def test_healthz_while_serving(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            status, _, body = client.request("GET", "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "serving"
        assert health["max_inflight"] == 8

    def test_metrics_exports_registry(self, serve):
        server, _ = serve()
        with ServiceClient(port=server.port) as client:
            client.generate(SOURCES)
            metrics = client.metrics()
        assert metrics["service.requests"] >= 1
        assert "cache.hits" in metrics
        assert metrics["service.request_seconds"]["count"] >= 1

    def test_cache_stats_with_and_without_cache(self, serve, tmp_path):
        plain_server, _ = serve()
        with ServiceClient(port=plain_server.port) as client:
            assert client.cache_stats() == {"cache": None}
        cached_server, _ = serve(cache=ArtifactCache(tmp_path / "cache"))
        with ServiceClient(port=cached_server.port) as client:
            client.generate(SOURCES)
            stats = client.cache_stats()
        assert stats["entries"] > 0
        assert str(tmp_path / "cache") in stats["directory"]


class TestGracefulDrain:
    def test_drain_completes_inflight_and_refuses_new(self, serve):
        server, service = serve(max_inflight=4, policy="block",
                                memo_entries=0)
        gate = GatedExecute(service)
        inflight_result = {}

        def post():
            with ServiceClient(port=server.port) as client:
                inflight_result["response"] = client.generate_raw(SOURCES)

        worker = threading.Thread(target=post)
        worker.start()
        assert gate.entered.wait(10)

        drain_box = {}
        drainer = threading.Thread(
            target=lambda: drain_box.setdefault(
                "report", service.drain(deadline=10.0)))
        drainer.start()
        assert wait_until(lambda: not service.lifecycle.serving)

        with ServiceClient(port=server.port) as client:
            status, _, body = client.generate_raw(SOURCES)
            assert status == 503
            assert json.loads(body)["error"]["code"] == "draining"
            health_status, _, health_body = client.request(
                "GET", "/healthz")
        assert health_status == 503
        assert json.loads(health_body)["status"] == "draining"

        gate.release.set()
        worker.join(10)
        drainer.join(10)
        report = drain_box["report"]
        assert report.completed
        assert report.remaining == 0
        assert inflight_result["response"][0] == 200  # admitted work done
        assert service.final_metrics is not None  # flush hook ran

    def test_drain_deadline_reports_unfinished_work(self, serve):
        server, service = serve(memo_entries=0)
        gate = GatedExecute(service)
        worker = threading.Thread(
            target=lambda: ServiceClient(
                port=server.port).generate_raw(SOURCES))
        worker.start()
        assert gate.entered.wait(10)
        report = service.drain(deadline=0.1)
        assert not report.completed
        assert report.remaining == 1
        gate.release.set()
        worker.join(10)
