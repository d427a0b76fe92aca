"""The conformance trial runner behind ``repro conformance``.

``run_conformance`` draws N seeds, generates each scenario, runs the
requested oracles and folds the results into a JSON-serializable
:class:`ConformanceReport`. Trials fan out through
:func:`repro.parallel.map_ordered` (serially, or on a process pool
with ``jobs > 1``). Trial counts, failures and per-oracle wall time
are counted into the :mod:`repro.obs` metrics registry from the
returned results, in the caller's process, and failures are
(optionally) shrunk to minimal reproducers in the crash corpus.

The report carries a content digest over everything *semantic* —
seeds, oracle verdicts, failure messages, corpus configuration — and
nothing timing-dependent, so the same seeds produce the same digest
regardless of ``--jobs`` or machine load. That makes a conformance run
replayable evidence, not just a green light.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..fingerprint import fingerprint
from ..obs import METRICS
from ..parallel import map_ordered
from .corpus import CorpusConfig, generate_scenario
from .oracles import OracleFailure, ORACLES, TrialContext, oracle_names
from .shrink import Reproducer, shrink_failure, write_reproducer

_TRIALS = METRICS.counter("conformance.trials")
_FAILURES = METRICS.counter("conformance.failures")

_REPORT_SALT = "conformance-report/1"


@dataclass
class OracleOutcome:
    """One oracle's verdict on one trial."""

    name: str
    ok: bool
    error: str | None = None
    seconds: float = 0.0

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {"name": self.name, "ok": self.ok,
                                   "seconds": round(self.seconds, 6)}
        if self.error:
            data["error"] = self.error
        return data

    def semantic(self) -> dict[str, object]:
        """The digest-relevant part (no timings)."""
        return {"name": self.name, "ok": self.ok, "error": self.error}


@dataclass
class TrialResult:
    """All oracle verdicts for one seed."""

    seed: int
    outcomes: list[OracleOutcome] = field(default_factory=list)
    describe: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> list[OracleOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def to_dict(self) -> dict[str, object]:
        return {"seed": self.seed, "ok": self.ok,
                "scenario": self.describe,
                "oracles": [outcome.to_dict() for outcome in self.outcomes]}


@dataclass
class ConformanceReport:
    """The harvest of one conformance run."""

    base_seed: int
    oracles: list[str]
    config: CorpusConfig
    trials: list[TrialResult] = field(default_factory=list)
    reproducers: list[Reproducer] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(trial.ok for trial in self.trials)

    @property
    def failure_count(self) -> int:
        return sum(len(trial.failures) for trial in self.trials)

    @property
    def digest(self) -> str:
        """Content address of the semantic outcome (timing-free)."""
        return fingerprint(
            self.base_seed, self.oracles, self.config.to_dict(),
            [{"seed": trial.seed,
              "oracles": [outcome.semantic()
                          for outcome in trial.outcomes]}
             for trial in self.trials],
            salt=_REPORT_SALT)

    def oracle_stats(self) -> dict[str, dict[str, object]]:
        stats: dict[str, dict[str, object]] = {}
        for name in self.oracles:
            runs = [outcome for trial in self.trials
                    for outcome in trial.outcomes if outcome.name == name]
            seconds = [outcome.seconds for outcome in runs]
            stats[name] = {
                "runs": len(runs),
                "failures": sum(1 for outcome in runs if not outcome.ok),
                "total_seconds": round(sum(seconds), 6),
                "max_seconds": round(max(seconds), 6) if seconds else 0.0,
            }
        return stats

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": "repro/conformance-report/1",
            "ok": self.ok,
            "digest": self.digest,
            "base_seed": self.base_seed,
            "seeds": len(self.trials),
            "oracles": self.oracles,
            "config": self.config.to_dict(),
            "failures": self.failure_count,
            "oracle_stats": self.oracle_stats(),
            "wall_seconds": round(self.wall_seconds, 3),
            "trials": [trial.to_dict() for trial in self.trials],
            "reproducers": [{
                "oracle": reproducer.oracle,
                "seed": reproducer.seed,
                "lines": reproducer.line_count,
                "error": reproducer.error,
                "path": str(reproducer.path) if reproducer.path else None,
            } for reproducer in self.reproducers],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def run_trial(seed: int, *, config: CorpusConfig | None = None,
              oracles: list[str] | None = None) -> TrialResult:
    """Generate the scenario for *seed* and run every oracle on it."""
    names = list(oracles) if oracles else oracle_names()
    unknown = [name for name in names if name not in ORACLES]
    if unknown:
        raise KeyError(f"unknown oracle(s) {', '.join(unknown)}; "
                       f"known: {', '.join(ORACLES)}")
    scenario = generate_scenario(seed, config)
    ctx = TrialContext(scenario=scenario)
    result = TrialResult(seed=seed, describe=scenario.describe())
    for name in names:
        started = time.perf_counter()
        try:
            ORACLES[name].run(ctx)
            outcome = OracleOutcome(name=name, ok=True)
        except OracleFailure as error:
            outcome = OracleOutcome(name=name, ok=False, error=str(error))
        except Exception as error:
            # an oracle crash (not a disagreement) still fails the
            # trial — with the exception type in the message
            outcome = OracleOutcome(
                name=name, ok=False,
                error=f"{type(error).__name__}: {error}")
        outcome.seconds = time.perf_counter() - started
        result.outcomes.append(outcome)
    return result


def _count(trials: list[TrialResult]) -> None:
    """Fold trial results into the metrics registry (in this process:
    a pool worker's registry never reaches the caller)."""
    _TRIALS.inc(len(trials))
    for trial in trials:
        _FAILURES.inc(len(trial.failures))
        for outcome in trial.outcomes:
            METRICS.histogram(
                f"conformance.oracle.{outcome.name}.seconds").observe(
                    outcome.seconds)


def run_conformance(seeds: int = 50, *, base_seed: int = 0,
                    oracles: list[str] | None = None,
                    config: CorpusConfig | None = None,
                    jobs: int = 1,
                    shrink: bool = True,
                    crash_dir: str | Path | None = None,
                    chaos: bool = False) -> ConformanceReport:
    """Run *seeds* conformance trials (``base_seed ..
    base_seed+seeds-1``) and return the report.

    Trials are independent, so with ``jobs > 1`` they fan out on a
    ``jobs``-wide process pool; shrinking runs serially afterwards
    (failures are rare and the reduction reuses the single-threaded
    oracle path). *chaos* adds the opt-in ``chaos`` oracle: every trial
    re-runs the pipeline and the serving path under a per-seed fault
    plan (each trial builds its own plan, so parallel trials never
    share fault state and the report digest stays identical across
    ``jobs``).
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    names = list(oracles) if oracles else oracle_names()
    if chaos and "chaos" not in names:
        names.append("chaos")
    config = config or CorpusConfig()
    started = time.perf_counter()
    trials = map_ordered(
        functools.partial(run_trial, config=config, oracles=names),
        range(base_seed, base_seed + seeds),
        jobs=jobs, pool_span="conformance",
        span_label=lambda seed, _i: f"trial:{seed}")
    _count(trials)
    report = ConformanceReport(base_seed=base_seed, oracles=names,
                               config=config, trials=trials)
    if shrink:
        for trial in trials:
            for outcome in trial.failures:
                scenario = generate_scenario(trial.seed, config)
                try:
                    reproducer = shrink_failure(
                        scenario, outcome.name,
                        error=outcome.error or "")
                except ValueError:
                    # flaked during shrinking: keep the unshrunk model
                    reproducer = Reproducer(
                        oracle=outcome.name, seed=trial.seed,
                        error=outcome.error or "",
                        source="\n".join(scenario.user_sources))
                if crash_dir is not None:
                    reproducer = write_reproducer(reproducer, crash_dir)
                report.reproducers.append(reproducer)
    report.wall_seconds = time.perf_counter() - started
    return report
