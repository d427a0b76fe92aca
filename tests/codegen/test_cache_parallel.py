"""Determinism and replay guarantees of the artifact cache.

The contract under test (see DESIGN.md, "Artifact cache"): turning on
the artifact cache changes wall-clock time only — every produced byte
stays identical to the plain uncached run. Generation runs in the
caller's thread; there is no worker-pool option to select.
"""

import pytest

from repro.cache import ArtifactCache
from repro.codegen import (GenerationPipeline, IncrementalEngine,
                           PipelineOptions, generate_configuration)
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
    return GenerationPipeline(
        PipelineOptions(namespace="icelab")).run_on_model(model)


def _same_bytes(a, b):
    assert a.manifests == b.manifests
    assert a.machine_configs == b.machine_configs
    assert a.server_configs == b.server_configs
    assert a.client_configs == b.client_configs
    assert a.storage_configs == b.storage_configs
    assert a.config_size_bytes == b.config_size_bytes


class TestParallelDeterminism:
    def test_jobs_option_is_gone(self):
        with pytest.raises(TypeError):
            PipelineOptions(jobs=4)
        with pytest.raises(TypeError, match="jobs"):
            PipelineOptions.from_dict({"jobs": 4})

    def test_manifest_insertion_order_preserved(self, serial_result):
        servers = [f"{config['server']}.yaml"
                   for config in serial_result.server_configs.values()]
        clients = [f"{config['client']}.yaml"
                   for config in serial_result.client_configs]
        historians = [f"{config['historian']}.yaml"
                      for config in serial_result.storage_configs]
        assert servers and clients and historians
        assert list(serial_result.manifests) == \
            servers + clients + historians


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

    def test_topology_without_fingerprint_still_generates(self, model,
                                                          tmp_path):
        # run_on_topology has no source fingerprint to key the topology
        # or whole-result layer on: both runs generate from scratch
        topology = icelab_topology(model)
        cache_dir = str(tmp_path / "cache")
        options = PipelineOptions(namespace="icelab", cache_dir=cache_dir)
        first = GenerationPipeline(options).run_on_topology(topology)
        second = GenerationPipeline(options).run_on_topology(topology)
        _same_bytes(first, second)
        assert _entries(cache_dir) == 0


def _entries(cache_dir):
    return ArtifactCache(cache_dir).stats()["entries"]


#: What a cold ICE-lab run leaves in the cache: one parse tree per
#: source (the stdlib included), the topology and the whole result.
ICELAB_PARSE_TREES = len(icelab_sources()) + 1
ICELAB_COLD_ENTRIES = ICELAB_PARSE_TREES + 2


class TestMachineConfigKey:
    """A machine config has no cache key of its own, and neither has a
    manifest: each is cheaper to regenerate than to read back. The
    cache holds parse trees, the topology and the whole result."""

    def test_session_run_writes_no_per_machine_entry(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = PipelineOptions(namespace="icelab", cache_dir=cache_dir)
        cold = IncrementalEngine(options).generate(*icelab_sources())
        assert len(cold.machine_configs) == 10
        assert _entries(cache_dir) == ICELAB_COLD_ENTRIES
        # another namespace shares the parse trees and the topology and
        # adds exactly one whole-result entry
        IncrementalEngine(options.replace(namespace="other")) \
            .generate(*icelab_sources())
        assert _entries(cache_dir) == ICELAB_COLD_ENTRIES + 1

    def test_cold_run_writes_three_layers(self, tmp_path, serial_result):
        cache_dir = str(tmp_path / "cache")
        options = PipelineOptions(namespace="icelab", cache_dir=cache_dir)
        cache = ArtifactCache(cache_dir)
        cold = generate_configuration(
            load_model(*icelab_sources(), cache=cache), options)
        assert ICELAB_PARSE_TREES == 22
        assert _entries(cache_dir) == ICELAB_COLD_ENTRIES == 24
        _same_bytes(serial_result, cold)

        METRICS.reset()
        warm = generate_configuration(
            load_model(*icelab_sources(), cache=cache), options)
        snap = METRICS.snapshot()
        assert snap["cache.misses"] == 0
        assert snap["templates.renders"] == 0
        assert _entries(cache_dir) == ICELAB_COLD_ENTRIES
        _same_bytes(serial_result, warm)


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
