"""whatif-x10: an operations planner asking what-if questions of the
x10 factory.

Set-up loads the x10 model and extracts its topology; each iteration
then runs the scenario suite (``simulate_suite``) and the ISA-95 ->
PDDL planner (``plan_operations``) under a seeded workload. The front
end does no work after set-up.
"""

from __future__ import annotations

import random
import time

from measure import Context, peak_rss_mb, single, summarize, timed_setups

SCALE = 10
BASE_JOBS = 1000
PROBLEMS = 4
ORDERS = 8
#: The iteration seed whose briefing and plan digests are golden.
GOLDEN_SEED = 7


def iteration_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def run(ctx: Context) -> None:
    from repro.isa95 import extract_topology
    from repro.isa95.validation import validate_topology
    from repro.planning import PlanningOptions, plan_operations
    from repro.sim import CANONICAL_SCENARIOS, simulate_suite
    from repro.sysml import load_model
    from repro.testkit.scale import mega_factory_sources

    from glue import traced_load_model, traced_topology

    sources = mega_factory_sources(SCALE)
    recorder = ctx.recorder

    def build():
        if ctx.traced:
            model = traced_load_model(recorder, sources)
            return traced_topology(recorder, model)
        topology = extract_topology(load_model(*sources))
        return topology, validate_topology(topology)

    topology, report = timed_setups(ctx, build)
    ctx.outcome.record(report.ok, "x10 topology validation failed")
    # the first iteration of a process pays one-off lazy set-up; the
    # golden iteration takes it here, before anything is timed
    briefing = simulate_suite(topology, seed=GOLDEN_SEED, base_jobs=BASE_JOBS)
    plan = plan_operations(topology, PlanningOptions(
        seed=GOLDEN_SEED, problems=PROBLEMS, orders=ORDERS))
    ctx.outcome.expect_equal(briefing.digest, ctx.golden["whatif.briefing"],
                             "seed-7 briefing digest")
    ctx.outcome.expect_equal(plan.digest, ctx.golden["whatif.plan"],
                             "seed-7 plan digest")

    timed = {"sim": [], "plan": [], "iteration": []}
    started = time.perf_counter()
    for number, seed in enumerate(iteration_seeds(ctx.seed, 10_000)):
        if number and time.perf_counter() - started >= ctx.seconds:
            break
        options = PlanningOptions(seed=seed, problems=PROBLEMS,
                                  orders=ORDERS)
        began = time.perf_counter()
        with ctx.span("iteration", rid=f"it{number}", seed=seed):
            with ctx.span("sim") as simulated:
                briefing = simulate_suite(topology, seed=seed,
                                          base_jobs=BASE_JOBS)
            simulated_at = time.perf_counter()
            with ctx.span("planning") as planned:
                plan = plan_operations(topology, options)
        ended = time.perf_counter()
        timed["sim"].append((began, simulated_at))
        timed["plan"].append((simulated_at, ended))
        timed["iteration"].append((began, ended))
        simulated["attrs"]["events"] = sum(r.events for r in briefing.reports)
        planned["attrs"]["expanded"] = sum(p.expanded for p in plan.problems)
        ctx.outcome.attempted += 1
        ctx.outcome.record(plan.all_valid,
                           f"iteration {number}: a plan failed validation")
        ctx.outcome.expect_equal(len(briefing.reports),
                                 len(CANONICAL_SCENARIOS),
                                 f"iteration {number} scenario count")
    elapsed = ctx.host.at_reference(started, time.perf_counter())
    ctx.metrics["peak_rss_mb"] = single(peak_rss_mb(), "MB")

    seconds = {name: ctx.host.durations(intervals)
               for name, intervals in timed.items()}
    iterations = seconds["iteration"]
    ctx.metrics["latency_s"] = summarize(iterations, "s")
    ctx.metrics["ops_per_s"] = single(len(iterations) / elapsed, "1/s",
                                      len(iterations))
    for name in ("sim", "plan"):
        ctx.detail[f"whatif.{name}.p50_s"] = summarize(seconds[name], "s")
