"""``run.py compare A B``: check two result sets against the bounds.

Each side is a result file or a directory of them (one file per run,
either a full pass or one workload). Per (metric, workload) pair each
side's median and quartiles are taken over its runs, and the verdict
follows the no-regression rule: where the baseline's own run-to-run
spread is wider than the bound the pair is *unresolved*, unless every
run of B reads better than every run of A; otherwise B's median may be
worse than A's by at most the bound. Traced runs are left out: their
end-to-end values carry the tracing overhead.
"""

from __future__ import annotations

import json
from pathlib import Path

from measure import quartiles

REGRESSION = "regression"
UNRESOLVED = "unresolved"
WITHIN = "within-bound"


def load_side(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one untraced end-to-end value per run."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = {}
    for file in files:
        document = json.loads(file.read_text())
        if "workloads" in document:
            runs = document["workloads"]
        elif "workload" in document and not document["traced"]:
            runs = {document["workload"]: document}
        else:
            continue
        for workload, result in runs.items():
            for metric, summary in result.get("metrics", {}).items():
                values.setdefault((workload, metric), []).append(
                    summary["value"])
    return values


def _worse_by(new: float, old: float, better: str) -> float:
    """How much worse *new* is than *old*, as a share of *old*."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], bound: float,
            better: str) -> tuple[str, dict[str, float]]:
    """The verdict for one (metric, workload) pair and its statistics."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    spread = (a_q3 - a_q1) / abs(a_median) if a_median else 0.0
    stats = {"a_median": a_median, "a_q1": a_q1, "a_q3": a_q3,
             "b_median": b_median, "b_q1": b_q1, "b_q3": b_q3,
             "a_spread": spread, "a_runs": len(a), "b_runs": len(b),
             "worse_by": _worse_by(b_median, a_median, better)}
    if spread > bound:
        every_b_better = all(_worse_by(y, x, better) < 0
                             for x in a for y in b)
        return (WITHIN if every_b_better else UNRESOLVED), stats
    if stats["worse_by"] > bound:
        return REGRESSION, stats
    return WITHIN, stats


def compare(a_path: Path, b_path: Path, benchmark: dict) -> list[dict]:
    a_side, b_side = load_side(a_path), load_side(b_path)
    rows = []
    for spec in benchmark["end_to_end"]:
        for workload in (w["name"] for w in benchmark["workloads"]):
            key = (workload, spec["name"])
            if key not in a_side or key not in b_side:
                rows.append({"workload": workload, "metric": spec["name"],
                             "verdict": "missing"})
                continue
            result, stats = verdict(a_side[key], b_side[key], spec["bound"],
                                    spec["better"])
            rows.append({"workload": workload, "metric": spec["name"],
                         "unit": spec["unit"], "bound": spec["bound"],
                         "verdict": result, **stats})
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<12} {'A median [q1, q3]':>34} "
             f"{'B median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict"]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<14} {row['metric']:<12} "
                         f"{'':>34} {'':>34} {'':>8} {'':>6}  missing")
            continue
        a = (f"{row['a_median']:.4g} [{row['a_q1']:.4g}, {row['a_q3']:.4g}]"
             f" n={row['a_runs']}")
        b = (f"{row['b_median']:.4g} [{row['b_q1']:.4g}, {row['b_q3']:.4g}]"
             f" n={row['b_runs']}")
        lines.append(f"{row['workload']:<14} {row['metric']:<12} {a:>34} "
                     f"{b:>34} {row['worse_by']:>+8.1%} {row['bound']:>6.0%}"
                     f"  {row['verdict']}")
    return "\n".join(lines)
