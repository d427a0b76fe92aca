"""A2 follow-up (ablation, ours): artifact-cache effectiveness.

Measures the generation pipeline on the scaled factory model
(``extra_cells=16``, the A2 scaling point) in three configurations —
cold serial, cold cached and warm cached — and records the timings
plus cache hit rates in the bench JSON ``extra_info`` so perf PRs carry
attributable numbers.

Hard claims asserted here:

* every configuration produces byte-identical manifests and the same
  ``config_size_bytes``;
* a warm cache makes ``generate_configuration`` at least 3x faster
  than the cold serial run (artifact replay skips extraction and both
  generation steps).
"""

import time

import pytest

from conftest import print_comparison
from test_ablation_scaling import replicated_specs

from repro.cache import ArtifactCache
from repro.codegen import GenerationPipeline, PipelineOptions
from repro.icelab.model_gen import icelab_sources
from repro.obs import METRICS
from repro.sysml import load_model

EXTRA_CELLS = 16


@pytest.fixture(scope="module")
def scaled_model():
    sources = icelab_sources(replicated_specs(EXTRA_CELLS))
    return load_model(*sources)


def _timed_generate(model, options, rounds=1):
    # min-of-N: a single shot is at the mercy of a gen-2 GC pass, whose
    # cost scales with everything else the test session has loaded
    result, best = None, None
    for _ in range(rounds):
        started = time.perf_counter()
        result = GenerationPipeline(options).run_on_model(model)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_cache_ablation(scaled_model, tmp_path, benchmark):
    cache_dir = str(tmp_path / "cache")

    cold_serial, cold_serial_s = _timed_generate(
        scaled_model, PipelineOptions(), rounds=3)

    METRICS.reset()
    cold_cached, cold_cached_s = _timed_generate(
        scaled_model, PipelineOptions(cache_dir=cache_dir))
    cold_snap = METRICS.snapshot()

    METRICS.reset()
    warm_options = PipelineOptions(cache_dir=cache_dir)
    warm, warm_s = _timed_generate(scaled_model, warm_options, rounds=3)
    warm_snap = METRICS.snapshot()

    # the benchmarked quantity: a warm-cache generation run
    benchmark.pedantic(
        lambda: GenerationPipeline(warm_options).run_on_model(
            scaled_model),
        rounds=3, iterations=1)

    # -- determinism: acceleration must never change a byte ------------
    for other in (cold_cached, warm):
        assert other.manifests == cold_serial.manifests
        assert other.machine_configs == cold_serial.machine_configs
        assert other.config_size_bytes == cold_serial.config_size_bytes

    # -- replay effectiveness ------------------------------------------
    warm_speedup = cold_serial_s / warm_s if warm_s else float("inf")
    assert warm_snap["cache.hits"] > 0
    assert warm_snap["templates.renders"] == 0
    assert warm_speedup >= 3.0, (
        f"warm cache {warm_s:.4f}s vs cold serial {cold_serial_s:.4f}s "
        f"= {warm_speedup:.2f}x (< 3x)")

    hits = warm_snap["cache.hits"]
    misses = warm_snap["cache.misses"]
    benchmark.extra_info["ablation"] = {
        "extra_cells": EXTRA_CELLS,
        "cold_serial_s": round(cold_serial_s, 6),
        "cold_cached_s": round(cold_cached_s, 6),
        "warm_cached_s": round(warm_s, 6),
        "warm_speedup": round(warm_speedup, 2),
        "cold_cache_misses": cold_snap["cache.misses"],
        "warm_cache_hits": hits,
        "warm_cache_misses": misses,
        "warm_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "cache_entries": ArtifactCache(cache_dir).stats()["entries"],
    }
    print_comparison("A2 — cache ablation", [
        ("cold serial", "baseline", f"{cold_serial_s * 1e3:.1f}ms"),
        ("cold cached", "~serial + put cost",
         f"{cold_cached_s * 1e3:.1f}ms"),
        ("warm cached", ">= 3x faster", f"{warm_s * 1e3:.1f}ms",
         f"{warm_speedup:.1f}x"),
    ])


def test_parse_cache_ablation(tmp_path, benchmark):
    """Front-end replay: cached parse trees skip re-parsing sources."""
    sources = icelab_sources(replicated_specs(EXTRA_CELLS))
    cache = ArtifactCache(tmp_path / "cache")

    started = time.perf_counter()
    cold = load_model(*sources, cache=cache)
    cold_s = time.perf_counter() - started

    METRICS.reset()
    warm_model = benchmark.pedantic(
        lambda: load_model(*sources, cache=cache), rounds=2, iterations=1)
    snap = METRICS.snapshot()

    assert warm_model.content_fingerprint == cold.content_fingerprint
    assert snap["cache.hits"] > 0
    benchmark.extra_info["parse_cache"] = {
        "cold_s": round(cold_s, 6),
        "sources": len(sources) + 1,  # + stdlib
        "warm_hits_per_round": snap["cache.hits"] // 2,
    }
