"""Determinism and replay guarantees of the jobs/cache accelerators.

The contract under test (see DESIGN.md, "Artifact cache"): turning on
the worker pool or the artifact cache changes wall-clock time only —
every produced byte stays identical to the plain serial run.
"""

import pytest

from repro.cache import ArtifactCache
from repro.codegen import (GenerationPipeline, IncrementalEngine,
                           PipelineOptions)
from repro.codegen.pipeline import GenerationResult
from repro.icelab import icelab_model, icelab_topology
from repro.icelab.model_gen import icelab_sources
from repro.obs import METRICS
from repro.sysml import load_model


@pytest.fixture(scope="module")
def model():
    return icelab_model()


@pytest.fixture(scope="module")
def serial_result(model):
    return GenerationPipeline(PipelineOptions(namespace="icelab",
                                              jobs=1)).run_on_model(model)


def _same_bytes(a, b):
    assert a.manifests == b.manifests
    assert a.machine_configs == b.machine_configs
    assert a.server_configs == b.server_configs
    assert a.client_configs == b.client_configs
    assert a.storage_configs == b.storage_configs
    assert a.config_size_bytes == b.config_size_bytes


class TestParallelDeterminism:
    def test_jobs4_byte_identical_to_serial(self, model, serial_result):
        parallel = GenerationPipeline(
            PipelineOptions(namespace="icelab", jobs=4)
        ).run_on_model(model)
        _same_bytes(serial_result, parallel)

    def test_manifest_insertion_order_preserved(self, model,
                                                serial_result):
        parallel = GenerationPipeline(
            PipelineOptions(namespace="icelab", jobs=4)
        ).run_on_model(model)
        assert (list(parallel.manifests)
                == list(serial_result.manifests))


class TestCacheReplay:
    def test_warm_run_replays_identical_bytes(self, model, serial_result,
                                              tmp_path):
        options = PipelineOptions(namespace="icelab",
                                  cache_dir=str(tmp_path / "cache"))
        cold = GenerationPipeline(options).run_on_model(model)
        _same_bytes(serial_result, cold)

        METRICS.reset()
        warm = GenerationPipeline(options).run_on_model(model)
        _same_bytes(serial_result, warm)
        snap = METRICS.snapshot()
        assert snap["cache.hits"] > 0
        assert snap["cache.misses"] == 0
        # replay means zero template renders
        assert snap["templates.renders"] == 0

    def test_option_change_invalidates_replay(self, model, tmp_path):
        cache_dir = str(tmp_path / "cache")
        GenerationPipeline(PipelineOptions(
            namespace="icelab", cache_dir=cache_dir)).run_on_model(model)
        METRICS.reset()
        other = GenerationPipeline(PipelineOptions(
            namespace="otherns", cache_dir=cache_dir)).run_on_model(model)
        assert METRICS.snapshot()["cache.misses"] > 0
        assert all("namespace: otherns" in text
                   for text in other.manifests.values())

    def test_cache_and_jobs_compose(self, model, serial_result, tmp_path):
        options = PipelineOptions(namespace="icelab", jobs=4,
                                  cache_dir=str(tmp_path / "cache"))
        GenerationPipeline(options).run_on_model(model)
        warm = GenerationPipeline(options).run_on_model(model)
        _same_bytes(serial_result, warm)

    def test_topology_without_fingerprint_still_generates(self, model,
                                                          tmp_path):
        # run_on_topology has no source fingerprint: per-unit caching
        # still applies, the whole-result layer is skipped
        topology = icelab_topology(model)
        options = PipelineOptions(namespace="icelab",
                                  cache_dir=str(tmp_path / "cache"))
        first = GenerationPipeline(options).run_on_topology(topology)
        second = GenerationPipeline(options).run_on_topology(topology)
        _same_bytes(first, second)


@pytest.fixture()
def machine_config_puts(monkeypatch):
    """Keys of every machine-config cache write (step 1 is the only
    ``put_json`` caller)."""
    keys = []
    real = ArtifactCache.put_json

    def spy(self, key, value):
        keys.append(key)
        real(self, key, value)

    monkeypatch.setattr(ArtifactCache, "put_json", spy)
    return keys


def _all_machines_reused(result):
    return all(result.provenance[f"machine:{name}"] == "reused"
               for name in result.machine_configs)


class TestMachineConfigKey:
    """A machine config is cached under exactly one key: its node key
    when the model carries a dependency graph, else its spec key."""

    def test_session_run_writes_one_entry_per_machine(
            self, tmp_path, machine_config_puts):
        options = PipelineOptions(namespace="icelab",
                                  cache_dir=str(tmp_path / "cache"))
        cold = IncrementalEngine(options).generate(*icelab_sources())
        assert len(cold.machine_configs) == 10
        assert len(machine_config_puts) == len(set(machine_config_puts)) \
            == len(cold.machine_configs)
        # the namespace shapes manifests, not machine JSON: a fresh
        # engine in another namespace misses the whole-result layer
        # and replays every machine config
        machine_config_puts.clear()
        warm = IncrementalEngine(options.replace(namespace="other")) \
            .generate(*icelab_sources())
        assert machine_config_puts == []
        assert _all_machines_reused(warm)

    def test_spec_key_without_dep_graph(self, tmp_path,
                                        machine_config_puts):
        options = PipelineOptions(namespace="icelab", incremental=False,
                                  cache_dir=str(tmp_path / "cache"))
        model = load_model(*icelab_sources())
        cold = GenerationPipeline(options).run_on_model(model)
        assert len(machine_config_puts) == len(cold.machine_configs)
        machine_config_puts.clear()
        warm = GenerationPipeline(options.replace(namespace="other")) \
            .run_on_model(model)
        assert machine_config_puts == []
        assert _all_machines_reused(warm)


class TestWriteToSanitization:
    def test_machine_filenames_are_sanitized(self, tmp_path):
        result = GenerationResult(topology=None)
        result.machine_configs["Emco Mill/3"] = {"machine": "Emco Mill/3"}
        result.machine_configs["ok-name"] = {"machine": "ok-name"}
        written = result.write_to(tmp_path)
        names = sorted(p.name for p in written)
        assert "machine-emco-mill-3.json" in names
        assert "machine-ok-name.json" in names

    def test_written_tree_layout(self, model, serial_result, tmp_path):
        written = serial_result.write_to(tmp_path)
        assert all(p.exists() for p in written)
        assert (tmp_path / "intermediate" / "machine-emco.json").exists()
        assert (tmp_path / "manifests").is_dir()
