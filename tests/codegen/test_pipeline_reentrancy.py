"""GenerationPipeline reentrancy: one instance, concurrent runs.

The serving subsystem hands a single pipeline instance to many request
threads, so ``run_on_model`` must hold no per-run mutable state — see
the Reentrancy note in :mod:`repro.codegen.pipeline`.
"""

import threading

from fixtures import EMCO_WORKCELL_SOURCE

from repro.cache import ArtifactCache
from repro.codegen import GenerationPipeline, PipelineOptions
from repro.sysml import load_model


def run_concurrently(count, fn):
    barrier = threading.Barrier(count)
    outcomes = {}

    def call(i):
        barrier.wait(timeout=10)  # maximize overlap
        try:
            outcomes[i] = ("ok", fn(i))
        except Exception as exc:  # noqa: BLE001 - the assertion
            outcomes[i] = ("error", exc)

    threads = [threading.Thread(target=call, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert {kind for kind, _ in outcomes.values()} == {"ok"}, outcomes
    return [outcomes[i][1] for i in range(count)]


def serialized(result):
    """Order-insensitive, content-sensitive view of a result."""
    return (sorted(result.manifests.items()),
            sorted(result.server_configs),
            sorted(result.client_configs),
            result.opcua_server_count,
            result.opcua_client_count)


class TestPipelineReentrancy:
    def test_concurrent_runs_on_shared_pipeline_match_serial_run(self):
        model = load_model(EMCO_WORKCELL_SOURCE)
        pipeline = GenerationPipeline(PipelineOptions())
        expected = serialized(pipeline.run_on_model(model))
        results = run_concurrently(
            8, lambda i: pipeline.run_on_model(model))
        for result in results:
            assert serialized(result) == expected

    def test_concurrent_runs_with_shared_cache(self, tmp_path):
        model = load_model(EMCO_WORKCELL_SOURCE)
        pipeline = GenerationPipeline(
            cache=ArtifactCache(tmp_path / "cache"))
        expected = serialized(pipeline.run_on_model(model))  # warm it
        results = run_concurrently(
            6, lambda i: pipeline.run_on_model(model))
        for result in results:
            assert serialized(result) == expected

    def test_concurrent_runs_with_distinct_options(self):
        model = load_model(EMCO_WORKCELL_SOURCE)
        pipelines = [GenerationPipeline(PipelineOptions(
            namespace=f"ns-{i % 2}")) for i in range(4)]
        results = run_concurrently(
            4, lambda i: pipelines[i].run_on_model(model))
        for i, result in enumerate(results):
            assert f"ns-{i % 2}" in next(iter(result.manifests.values()))
