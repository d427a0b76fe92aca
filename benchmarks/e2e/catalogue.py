"""The benchmark's metric catalogue: names, units, directions.

``BENCHMARK.json`` at the repository root lists the same metrics (the
harness tests hold the two in step). End-to-end metrics are measured
with tracing off and reported by every workload; per-layer metrics come
from the separate traced run, computed here from the benchmark's own
spans (:func:`measure.layer_totals`) and from counters the workloads
read from ``repro.obs.METRICS``.

Per-layer values of a layer are shares, rates, ratios and counts
rather than seconds, so a layer a workload does not exercise reads 0
without posing as a measured time. The per-class timings of the
operations (``edit.local.p50_s`` ...) are per-layer metrics too, and
read 0 on the workloads that do not run that class.
"""

from __future__ import annotations

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("latency_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
)

#: Layers whose self time is reported as a share of the traced wall.
SELF_PCT_LAYERS = (
    "sysml.lexer", "sysml.parser", "sysml.builder", "sysml.resolver",
    "isa95.topology", "isa95.validation", "codegen.grouping",
    "codegen.pipeline", "sysml.incremental", "codegen.incremental", "sim",
    "planning",
)

#: Work per second of a layer's span time: name -> (unit, span layer,
#: work attribute summed over its spans, or None to count calls).
_RATES = {
    "sysml.lexer.tokens_per_s": ("1/s", "sysml.lexer", "tokens"),
    "sysml.parser.bytes_per_s": ("B/s", "sysml.parser", "bytes"),
    "sysml.builder.elements_per_s": ("1/s", "sysml.builder", "elements"),
    "sysml.resolver.elements_per_s": ("1/s", "sysml.resolver", "elements"),
    "isa95.topology.points_per_s": ("1/s", "isa95.topology", "points"),
    "isa95.validation.machines_per_s": ("1/s", "isa95.validation",
                                        "machines"),
    "codegen.grouping.machines_per_s": ("1/s", "codegen.grouping",
                                        "machines"),
    "codegen.pipeline.bytes_per_s": ("B/s", "codegen.pipeline",
                                     "config_bytes"),
    "sysml.incremental.updates_per_s": ("1/s", "sysml.incremental", None),
    "sim.events_per_s": ("1/s", "sim", "events"),
    "planning.expanded_per_s": ("1/s", "planning", "expanded"),
}

#: Metrics a workload reports itself from ``METRICS`` counters and its
#: own bookkeeping, with unit and direction; absent ones read 0.
COUNTED = {
    "codegen.incremental.partial_runs": ("count", "higher"),
    "codegen.incremental.full_runs": ("count", "lower"),
    "codegen.incremental.reuse_ratio": ("ratio", "higher"),
    "service.memo_hit_ratio": ("ratio", "higher"),
    "service.pipeline_executions": ("count", "lower"),
    "service.frontend_pct": ("%", "lower"),
}

#: Per-class operation metrics a workload reports in its ``detail``,
#: plus the run's ``error_rate``; absent ones read 0.
OPERATIONS = {
    "error_rate": ("ratio", "lower"),
    "edit.local.p50_s": ("s", "lower"),
    "edit.topology.p50_s": ("s", "lower"),
    "serve.repeat.p50_s": ("s", "lower"),
    "serve.edit.p50_s": ("s", "lower"),
    "serve.fresh.p50_s": ("s", "lower"),
    "serve.within_limit_ratio": ("ratio", "higher"),
    "whatif.sim.p50_s": ("s", "lower"),
    "whatif.plan.p50_s": ("s", "lower"),
}


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [(f"{layer}.self_pct", "%", "lower")
            for layer in SELF_PCT_LAYERS]
    rows += [(name, unit, "higher") for name, (unit, _, _) in _RATES.items()]
    rows += [("sysml.parser.gc_pct", "%", "lower"),
             ("sysml.resolver.gc_pct", "%", "lower"),
             ("gc.pct", "%", "lower"),
             ("gc.collections", "count", "lower"),
             ("service.queue_pct", "%", "lower"),
             ("service.transport_pct", "%", "lower"),
             ("service.server_pct", "%", "lower"),
             ("sysml.builder.elements", "count", "lower"),
             ("planning.expanded", "count", "lower")]
    rows += [(name, unit, better) for name, (unit, better) in COUNTED.items()]
    rows += [(name, unit, better)
             for name, (unit, better) in OPERATIONS.items()]
    return rows


def _ratio(part: float, whole: float, scale: float = 1.0) -> float:
    return scale * part / whole if whole > 0 else 0.0


def layer_metrics(spans: list[dict], totals: dict, counts: dict[str, float],
                  speed: float = 1.0) -> dict[str, dict]:
    """Every per-layer metric from spans, their totals and the counters.

    Rates are per second at the reference speed: the spans' wall time
    times the run's mean *speed* (see :class:`measure.HostSpeed`).
    """
    layers = totals["layers"]
    empty = {"self_s": 0.0, "total_s": 0.0, "count": 0, "gc_s": 0.0,
             "gc_n": 0}

    def layer(name: str) -> dict:
        return layers.get(name, empty)

    def work(name: str, attr: str) -> float:
        return sum(s["attrs"].get(attr, 0) for s in spans
                   if s["name"] == name)

    values: dict[str, float] = {}
    for name in SELF_PCT_LAYERS:
        values[f"{name}.self_pct"] = _ratio(layer(name)["self_s"],
                                            totals["wall_s"], 100.0)
    for metric, (_, name, attr) in _RATES.items():
        done = layer(name)["count"] if attr is None else work(name, attr)
        values[metric] = _ratio(done, layer(name)["total_s"] * speed)
    for name in ("sysml.parser", "sysml.resolver"):
        values[f"{name}.gc_pct"] = _ratio(layer(name)["gc_s"],
                                          layer(name)["total_s"], 100.0)
    values["gc.pct"] = _ratio(sum(e["gc_s"] for e in layers.values()),
                              totals["root_s"], 100.0)
    values["gc.collections"] = sum(e["gc_n"] for e in layers.values())
    request_s = layer("service.request")["total_s"]
    values["service.queue_pct"] = _ratio(layer("service.queue")["total_s"],
                                         request_s, 100.0)
    values["service.transport_pct"] = _ratio(
        layer("service.request")["self_s"], request_s, 100.0)
    values["service.server_pct"] = _ratio(
        layer("service.server")["total_s"], request_s, 100.0)
    values["sysml.builder.elements"] = max(
        (s["attrs"].get("elements", 0) for s in spans
         if s["name"] == "sysml.builder"), default=0)
    # per planning call, so the value does not depend on how many
    # iterations fitted into the run
    values["planning.expanded"] = _ratio(work("planning", "expanded"),
                                         layer("planning")["count"])
    for name in (*COUNTED, *OPERATIONS):
        values[name] = counts.get(name, 0)
    units = {name: unit for name, unit, _ in per_layer_catalogue()}
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}
