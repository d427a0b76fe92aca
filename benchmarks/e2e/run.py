"""End-to-end benchmark of the SysML v2 -> factory configuration system.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                 [--trace 0|1] [--out FILE]
    python benchmarks/e2e/run.py compare A B

Without ``--workload`` every workload runs, each in its own fresh
interpreter; ``--trace`` adds a separate traced run per workload, writes
``bench-trace-<workload>.json`` and reports the tracing overhead. With
``--workload`` one workload runs in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics untraced, the per-layer
metrics traced. Every output is checked; the exit code is non-zero if
any check fails. ``compare`` checks two result sets (files or
directories of them) against the bounds in ``BENCHMARK.json``.

The program under test is imported from ``src/`` next to this
directory; the benchmark builds nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

from measure import HERE, ROOT, SRC, Context, environment, layer_totals, \
    load_golden, pin_to_one_cpu

OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"
SCHEMA = "repro-e2e-bench/1"
DEFAULT_SEED = 7

WORKLOADS = {
    "cold-x10": "workload_cold",
    "edit-x10": "workload_edit",
    "serve-icelab": "workload_serve",
    "whatif-x10": "workload_whatif",
}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process and assemble its result."""
    from catalogue import layer_metrics

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(seed=seed, seconds=seconds, traced=traced,
                  workdir=workdir, golden=load_golden())
    module = importlib.import_module(WORKLOADS[name])
    cpu = pin_to_one_cpu()
    try:
        ctx.host.start()
        with ctx.recorder.gc_attribution() if traced else nullcontext():
            module.run(ctx)
        host = {"cpu": cpu, **ctx.host.report()}
    finally:
        ctx.host.close()
        shutil.rmtree(workdir, ignore_errors=True)
    checks = ctx.outcome.to_dict()
    result = {"schema": SCHEMA, "workload": name, "traced": traced,
              "seconds": seconds, "environment": environment(seed),
              "checks": checks, "metrics": ctx.metrics,
              "detail": ctx.detail, "host": host, **ctx.extra}
    if traced:
        spans = ctx.recorder.spans
        totals = layer_totals(spans)
        totals["gc_unattributed_s"] = ctx.recorder.gc_unattributed_s
        counts = {**ctx.counts, "error_rate": checks["error_rate"],
                  **{metric: summary["value"]
                     for metric, summary in ctx.detail.items()}}
        result["layers"] = layer_metrics(spans, totals, counts,
                                         speed=host["mean_speed"])
        result["layer_seconds"] = totals
        trace = OUT / f"bench-trace-{name}.json"
        ctx.recorder.write(trace, workload=name, seed=seed, seconds=seconds)
        result["trace_file"] = str(trace.relative_to(ROOT))
    return result


def result_line(result: dict) -> dict:
    """The one-line summary printed last: the end-to-end metrics of an
    untraced run, the per-layer metrics of a traced one."""
    metrics = result["layers"] if result["traced"] else result["metrics"]
    checks = result["checks"]
    return {"correct": checks["correct"], "attempted": checks["attempted"],
            "failed": checks["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()}}


def describe(result: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit, median,
    quartiles and sample count."""
    name = result["workload"]
    lines = []
    groups = [("", result["metrics"]), ("  ", result["detail"])]
    for indent, metrics in groups:
        for metric, m in metrics.items():
            tail = (f"  p{m['tail_p']:g}={m['tail']:.4g}"
                    if "tail_p" in m else "")
            lines.append(f"{name:<13} {indent}{metric:<28} {m['unit']:<5} "
                         f"median {m['median']:<10.4g} "
                         f"[{m['q1']:.4g}, {m['q3']:.4g}] n={m['n']}{tail}")
    for metric, m in result.get("layers", {}).items():
        lines.append(f"{name:<13}   {metric:<34} {m['unit']:<5} "
                     f"{m['value']:.4g}")
    checks = result["checks"]
    lines.append(f"{name:<13} checks: {checks['attempted']} attempted, "
                 f"{checks['failed']} failed")
    lines.extend(f"{name:<13} FAILED: {failure}"
                 for failure in checks["failures"])
    return lines


def _write(path: str | None, document: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(document, indent=2) + "\n")


def single_workload(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print("\n".join(describe(result)))
    _write(args.out, result)
    print(json.dumps(result_line(result)))
    return 0 if result["checks"]["correct"] else 1


def _child(name: str, args, traced: bool) -> dict | None:
    """One workload in a fresh interpreter; its result file, or None."""
    out = OUT / f"result-{name}{'-traced' if traced else ''}.json"
    out.unlink(missing_ok=True)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(int(traced)), "--out", str(out)],
        stdout=subprocess.DEVNULL, timeout=900)
    if not out.exists():
        print(f"{name}: run exited {child.returncode} without a result",
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def full_pass(args) -> int:
    document = {"schema": SCHEMA, "seconds": args.seconds,
                "environment": environment(args.seed), "workloads": {}}
    ok = True
    for name in WORKLOADS:
        result = _child(name, args, traced=False)
        if result is None:
            ok = False
            continue
        document["workloads"][name] = result
        print("\n".join(describe(result)), flush=True)
        ok = ok and result["checks"]["correct"]
    if args.trace:
        document["traced"] = {}
        document["tracing_overhead"] = {}
        for name in WORKLOADS:
            traced = _child(name, args, traced=True)
            if traced is None:
                ok = False
                continue
            document["traced"][name] = traced
            print("\n".join(describe(traced)), flush=True)
            ok = ok and traced["checks"]["correct"]
            untraced = document["workloads"].get(name)
            if untraced is not None:
                document["tracing_overhead"][name] = overhead(untraced,
                                                              traced)
    _write(args.out, document)
    print(f"overall: {'correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced end-to-end values, absolute and relative."""
    rows = {}
    for metric, m in untraced["metrics"].items():
        if metric in traced["metrics"]:
            value = traced["metrics"][metric]["value"]
            rows[metric] = {"untraced": m["value"], "traced": value,
                            "delta": value - m["value"],
                            "relative": (value - m["value"]) / m["value"]
                            if m["value"] else None}
    return rows


def compare_command(argv: list[str]) -> int:
    from compare import REGRESSION, compare, render
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path, help="baseline result file or dir")
    parser.add_argument("b", type=Path, help="candidate result file or dir")
    args = parser.parse_args(argv)
    rows = compare(args.a, args.b, json.loads(BENCHMARK.read_text()))
    print(render(rows))
    return 1 if any(row["verdict"] in (REGRESSION, "missing")
                    for row in rows) else 0


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["compare"]:
        return compare_command(argv[1:])
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: every metric by name, checked.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads(BENCHMARK.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", metavar="FILE",
                        help="write the result JSON here")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.workload:
        return single_workload(args)
    return full_pass(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
