"""Equivalence oracles: independent paths through the system that must
agree on every valid model.

Each oracle states one differential property:

* ``roundtrip``    — parse -> print -> parse yields an identical AST
  (and printing is a fixpoint);
* ``interchange``  — the JSON interchange format round-trips the model;
* ``cache``        — cache-off, cache-cold and cache-warm pipeline runs
  emit byte-identical bundles;
* ``serve``        — the configuration service returns exactly the bytes
  a direct pipeline run produces;
* ``incremental``  — the incremental engine's output is byte-identical
  to a cold pipeline run, no-op / comment-only edits reuse every
  artifact, and neither they nor an edit of one driver parameter of
  each machine in turn take any engine or session fallback;
* ``grouping``     — client grouping is a partition (every machine
  assigned exactly once), respects capacity, and is deterministic.
* ``sim``          — scenario-engine briefings for one seed are
  byte-identical across repeat runs, and reports do not depend on job
  input order.
* ``plan``         — the PDDL operations-planning backend is held to the
  :mod:`repro.sim` determinism contract: domain/problem/plan emission
  for one seed is byte-identical across repeat runs and ``jobs=1`` vs
  ``jobs=N``, every plan replays cleanly on the behavioural machine
  simulators, changing the *planner* seed never changes the emitted
  PDDL text nor the (optimal) plan cost — only the tie-break path;
* ``sharded``      — the sharded serving tier is transparent: a
  request routed through the consistent-hash router (1 worker or N
  workers) returns exactly the direct-pipeline bytes, the router's
  parse-free routing key equals the worker-side single-flight key,
  and repeats stick to the same shard (memo-visible affinity);
* ``chaos``        — opt-in (``repro conformance --chaos``): under a
  seeded fault plan injecting cache corruption, cache I/O errors
  and router-dispatch crashes, the pipeline still
  emits bundles byte-identical to the fault-free reference, and the
  serving paths (single-node and sharded) return either those same
  bytes or a *typed retriable* error — never a corrupt or partial
  bundle, never an untyped crash, never a hang.

Oracles never return a value; agreement is silence, disagreement raises
:class:`OracleFailure` with a deterministic message (the harness digest
covers failure messages, so nondeterministic text would break replay).
"""

from __future__ import annotations

import copy
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from ..codegen import (PipelineOptions, generate_configuration,
                       group_machines, lower_bound_clients)
from ..isa95.topology import extract_topology
from ..sysml import load_model, print_element
from ..sysml.ast_nodes import Literal
from ..sysml.elements import Model, PartUsage, Usage
from ..sysml.interchange import element_to_dict, model_from_json, model_to_json

from .corpus import FactoryScenario


class OracleFailure(AssertionError):
    """Two supposedly equivalent paths disagreed."""


@dataclass(frozen=True)
class Oracle:
    """One registered equivalence check."""

    name: str
    description: str
    run: Callable[["TrialContext"], None]
    #: Source-level oracles depend only on the textual sources (not the
    #: machine specs), so the shrinker can reduce them line-by-line.
    source_level: bool = False
    #: Opt-in oracles stay out of the default run (``oracle_names()``)
    #: and are enabled explicitly (``--chaos`` / ``--oracles chaos``).
    opt_in: bool = False


class TrialContext:
    """Shared per-trial state: the scenario (or raw sources) plus
    lazily computed artifacts every oracle can reuse — the model is
    parsed once and the reference pipeline run executes once no matter
    how many oracles consume them."""

    def __init__(self, scenario: FactoryScenario | None = None,
                 sources: list[str] | None = None):
        if scenario is None and sources is None:
            raise ValueError("need a scenario or explicit sources")
        self.scenario = scenario
        self._sources = sources
        self._model: Model | None = None
        self._direct: bytes | None = None

    @property
    def sources(self) -> list[str]:
        if self._sources is None:
            self._sources = self.scenario.sources
        return self._sources

    @property
    def model(self) -> Model:
        if self._model is None:
            self._model = load_model(*self.sources)
        return self._model

    @property
    def options(self) -> PipelineOptions:
        capacity = self.scenario.capacity if self.scenario else 120
        return PipelineOptions(capacity=capacity)

    @property
    def direct_payload(self) -> bytes:
        """Reference bytes: one serial, cache-less pipeline run."""
        if self._direct is None:
            self._direct = self._payload(self.options)
        return self._direct

    def _payload(self, options: PipelineOptions) -> bytes:
        from ..service.server import bundle_bytes
        result = generate_configuration(self.model, options=options)
        return bundle_bytes(result, self.model.content_fingerprint, options)


def _user_elements(model: Model):
    return [element for element in model.owned_elements
            if not getattr(element, "is_library", False)]


def _print_user(model: Model) -> str:
    return "".join(print_element(element)
                   for element in _user_elements(model))


def _user_dicts(model: Model) -> list[dict]:
    return [element_to_dict(element) for element in _user_elements(model)]


# -- front-end oracles -------------------------------------------------------

def _check_roundtrip(ctx: TrialContext) -> None:
    first = ctx.model
    printed = _print_user(first)
    try:
        second = load_model(printed)
    except Exception as error:
        raise OracleFailure(
            f"printed model does not re-parse: {error}") from error
    if _user_dicts(first) != _user_dicts(second):
        raise OracleFailure("AST differs after print -> parse round-trip")
    reprinted = _print_user(second)
    if reprinted != printed:
        raise OracleFailure("printing is not a fixpoint "
                            "(print(parse(print(m))) != print(m))")


def _check_interchange(ctx: TrialContext) -> None:
    first = ctx.model
    text = model_to_json(first)
    try:
        second = model_from_json(text)
    except Exception as error:
        raise OracleFailure(
            f"interchange JSON does not load back: {error}") from error
    if _user_dicts(first) != _user_dicts(second):
        raise OracleFailure("AST differs after interchange round-trip")
    if _print_user(second) != _print_user(first):
        raise OracleFailure("interchange round-trip changes printed form")


# -- pipeline byte-identity oracles ------------------------------------------

def _check_cache(ctx: TrialContext) -> None:
    reference = ctx.direct_payload
    with tempfile.TemporaryDirectory(prefix="repro-conformance-") as tmp:
        options = ctx.options.replace(cache_dir=tmp)
        cold = ctx._payload(options)
        warm = ctx._payload(options)
    if cold != reference:
        raise OracleFailure("cache-cold bundle differs from cache-off")
    if warm != reference:
        raise OracleFailure("cache-warm bundle differs from cache-off")


def _check_serve(ctx: TrialContext) -> None:
    from ..service.server import ConfigurationService
    reference = ctx.direct_payload
    service = ConfigurationService(ctx.options)
    served, _info = service.generate(ctx.sources)
    again, info = service.generate(ctx.sources)
    if served != reference:
        raise OracleFailure("served bundle differs from direct pipeline run")
    if again != served:
        raise OracleFailure("repeat request served different bytes")
    if info["singleflight"] != "memo":
        raise OracleFailure("repeat request missed the result memo")


def _comparable_bundle(result, options: PipelineOptions) -> bytes:
    """Bundle bytes with the model fingerprint pinned.

    Incremental-vs-cold compares runs over *different* source text
    (comment-only edits), whose content fingerprints legitimately
    differ; everything else in the bundle must still be identical.
    """
    import json as _json

    from ..service.server import bundle_from_result
    return _json.dumps(bundle_from_result(result, "-", options),
                       indent=2).encode("utf-8")


def _fallback_count() -> int:
    """Fallbacks the engines and model sessions of this process took."""
    from ..obs import METRICS
    return sum(value for name, value in METRICS.counter_values().items()
               if name.startswith(("incremental.fallbacks.",
                                   "incremental.session_fallbacks.")))


def _check_incremental(ctx: TrialContext) -> None:
    from ..codegen import GenerationPipeline, IncrementalEngine
    options = ctx.options

    def cold(model: Model) -> bytes:
        return _comparable_bundle(
            GenerationPipeline(options).run_on_model(model), options)

    engine = IncrementalEngine(options)
    reference = cold(ctx.model)
    if _comparable_bundle(engine.generate(*ctx.sources), options) \
            != reference:
        raise OracleFailure(
            "incremental engine cold run differs from direct pipeline run")
    fallbacks = _fallback_count()

    def regenerate(what: str, sources: list[str], expected: bytes,
                   reuses_all: bool = False) -> None:
        """The engine's next revision takes no fallback and emits the
        *expected* bytes of a cold run."""
        result = engine.generate(*sources)
        if _fallback_count() != fallbacks:
            raise OracleFailure(f"{what} took a fallback")
        if _comparable_bundle(result, options) != expected:
            raise OracleFailure(
                f"{what} differs from a cold run over the same sources")
        stale = sorted(artifact for artifact, state
                       in result.provenance.items() if state != "reused")
        if reuses_all and stale:
            raise OracleFailure(f"{what} regenerated artifacts: {stale}")

    regenerate("identical re-generate", ctx.sources, reference,
               reuses_all=True)
    # a comment-only edit changes the text but no anchor fingerprint,
    # so the engine must reuse everything
    sources = [ctx.sources[0] + "\n// conformance touch\n"] \
        + list(ctx.sources[1:])
    model = load_model(*sources)
    regenerate("comment-only edit", sources, cold(model), reuses_all=True)
    # machine-local edits, one driver parameter of each machine in turn
    for machine in engine.previous.topology.machines:
        edited = _driver_edit(model, sources, machine)
        if edited is not None:
            sources, model = edited, load_model(*edited)
            regenerate(f"driver edit of machine {machine.name!r}",
                       sources, cold(model))


def _driver_edit(model: Model, sources: list[str],
                 machine) -> list[str] | None:
    """*sources* (loaded as *model*) with the first one-line literal
    value under *machine*'s driver instance changed; None when there is
    none or the driver's name is not unique."""
    drivers = [element for element in model.all_elements()
               if isinstance(element, PartUsage) and machine.driver
               and element.name == machine.driver.name]
    if len(drivers) != 1:
        return None
    for element in drivers[0].descendants():
        literal = element.value if isinstance(element, Usage) else None
        if not isinstance(literal, Literal):
            continue
        location = element.location
        index = int(location.filename[len("<model"):-1])
        lines = sources[index].split("\n")
        line = lines[location.line - 1]
        if not line.rstrip().endswith(";"):
            continue
        value = literal.value
        edited = copy.copy(element)
        edited.value = Literal(
            not value if isinstance(value, bool)
            else value + ("+" if isinstance(value, str) else 1))
        lines[location.line - 1] = (line[:location.column - 1]
                                    + print_element(edited).strip())
        return sources[:index] + ["\n".join(lines)] + sources[index + 1:]
    return None


def _check_sharded(ctx: TrialContext) -> None:
    """The sharded tier must be observationally identical to a direct
    pipeline run — for any worker count."""
    from ..service import LocalWorker, RouterService, request_key
    reference = ctx.direct_payload
    options = ctx.options

    # 1 worker: the degenerate ring must already be transparent
    with LocalWorker("solo", options) as solo:
        router_one = RouterService([solo], options)
        status, _headers, one_payload, _name = router_one.dispatch(
            ctx.sources)
        if status != 200:
            raise OracleFailure(
                f"1-worker router returned HTTP {status}")
        if one_payload != reference:
            raise OracleFailure(
                "1-worker routed bundle differs from direct pipeline run")

    # N workers: same bytes, stable shard affinity, memo-hit repeats
    workers = [LocalWorker(f"shard{i}", options).start()
               for i in range(3)]
    try:
        router = RouterService(workers, options)
        # the router's parse-free routing key must equal the key the
        # owning worker derives after actually parsing the sources —
        # that identity is what keeps per-shard single-flight/memo
        # collapsing effective
        worker_key = request_key(ctx.model.content_fingerprint, options)
        if router.routing_key(ctx.sources) != worker_key:
            raise OracleFailure(
                "router routing key differs from the worker-side "
                "generation single-flight key")
        status, first_headers, n_payload, first_worker = \
            router.dispatch(ctx.sources)
        if status != 200:
            raise OracleFailure(f"3-worker router returned HTTP {status}")
        if n_payload != one_payload:
            raise OracleFailure(
                "3-worker routed bundle differs from the 1-worker bundle")
        status, repeat_headers, repeat_payload, repeat_worker = \
            router.dispatch(ctx.sources)
        if repeat_worker != first_worker:
            raise OracleFailure(
                f"repeat request changed shard "
                f"({first_worker} -> {repeat_worker})")
        if repeat_payload != n_payload:
            raise OracleFailure("repeat routed request served "
                                "different bytes")
        if repeat_headers.get("x-repro-singleflight") != "memo":
            raise OracleFailure(
                "repeat routed request missed the shard's result memo")
    finally:
        for worker in workers:
            worker.close()


# -- chaos: resilience under a seeded fault plan -----------------------------

def chaos_plan(seed: int) -> "FaultPlan":
    """The fault plan the chaos oracle injects for one trial seed.

    Everything here must be *gracefully absorbable*: corruption and
    I/O errors in the cache degrade to regeneration, a crash at
    router dispatch fails over to a surviving shard, and the service
    site raises a typed retriable error — so the oracle can demand
    byte-identity (or a retriable error) as the only acceptable
    outcomes.
    """
    from ..faults import FaultPlan, FaultSpec
    return FaultPlan(seed=seed, specs=(
        FaultSpec("cache.get", "corrupt", probability=0.25),
        FaultSpec("cache.get", "io-error", probability=0.05),
        FaultSpec("cache.put", "io-error", probability=0.10),
        FaultSpec("cache.put", "corrupt", probability=0.10),
        FaultSpec("service.generate", "unavailable", probability=0.5,
                  max_injections=2, retry_after=0.01),
        FaultSpec("router.dispatch", "crash", probability=0.25,
                  max_injections=2),
    ))


def _check_chaos(ctx: TrialContext) -> None:
    from ..service.server import ConfigurationService
    reference = ctx.direct_payload
    seed = ctx.scenario.seed if ctx.scenario is not None else 0
    plan = chaos_plan(seed)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        options = ctx.options.replace(cache_dir=tmp)
        with plan.activated():
            try:
                cold = ctx._payload(options)
                warm = ctx._payload(options)
            except Exception as error:
                if getattr(error, "retriable", False):
                    raise OracleFailure(
                        "pipeline surfaced a retriable error instead of "
                        "absorbing cache faults") from error
                raise OracleFailure(
                    f"pipeline failed under faults with non-retriable "
                    f"{type(error).__name__}") from error
    if cold != reference:
        raise OracleFailure(
            "chaos cold run differs from the fault-free reference")
    if warm != reference:
        raise OracleFailure(
            "chaos warm run differs from the fault-free reference")
    # the serving path may *reject* (typed + retriable) but must never
    # serve bytes that differ from the fault-free reference
    service = ConfigurationService(ctx.options)
    with plan.activated():
        for _ in range(3):
            try:
                served, _info = service.generate(ctx.sources)
            except Exception as error:
                if not getattr(error, "retriable", False):
                    raise OracleFailure(
                        f"service raised non-retriable "
                        f"{type(error).__name__} under faults") from error
            else:
                if served != reference:
                    raise OracleFailure(
                        "served bundle under faults differs from the "
                        "fault-free reference")
    # the sharded path: an injected crash at router.dispatch simulates
    # the owning worker dying mid-request — the router must fail over
    # to a surviving shard and return the byte-identical payload, or
    # surface a typed retriable error; never a hang, never mixed bytes.
    # dispatch() runs in this thread, so the context-local plan is
    # visible at the fault site (the HTTP handler threads would not be).
    from ..service import LocalWorker, RouterService
    shards = [LocalWorker(f"chaos-shard{i}", ctx.options).start()
              for i in range(2)]
    try:
        router = RouterService(shards, ctx.options)
        with plan.activated():
            for _ in range(3):
                try:
                    status, _headers, payload, _worker = router.dispatch(
                        ctx.sources)
                except Exception as error:
                    if not getattr(error, "retriable", False):
                        raise OracleFailure(
                            f"router raised non-retriable "
                            f"{type(error).__name__} under faults"
                        ) from error
                else:
                    if status == 200 and payload != reference:
                        raise OracleFailure(
                            "routed bundle under faults differs from "
                            "the fault-free reference")
                # injected crashes mark shards down, but the workers
                # never actually died — re-admit them so each attempt
                # exercises failover from a full ring
                for name in router.worker_names:
                    router.mark_up(name)
    finally:
        for shard in shards:
            shard.close()


# -- semantic invariants -----------------------------------------------------

def _check_one_grouping(machines, capacity: int, algorithm: str) -> list:
    """Partition/capacity/oversized/index/determinism invariants for one
    packing algorithm; returns the groups for cross-algorithm checks."""
    groups = group_machines(machines, capacity, algorithm=algorithm)
    assigned: list[str] = [name for group in groups
                           for name in group.machine_names]
    expected = sorted(machine.name for machine in machines)
    if sorted(assigned) != expected:
        missing = sorted(set(expected) - set(assigned))
        extra = sorted(name for name in assigned
                       if assigned.count(name) > 1)
        raise OracleFailure(
            f"{algorithm} grouping is not a partition (missing={missing}, "
            f"duplicated={sorted(set(extra))})")
    for group in groups:
        if group.oversized:
            if len(group.machines) != 1:
                raise OracleFailure(
                    f"{algorithm}: oversized client {group.name} holds "
                    f"{len(group.machines)} machines")
            if group.points <= capacity:
                raise OracleFailure(
                    f"{algorithm}: client {group.name} marked oversized at "
                    f"{group.points}/{capacity} points")
        elif group.points > capacity:
            raise OracleFailure(
                f"{algorithm}: client {group.name} over capacity: "
                f"{group.points}/{capacity} points")
    if [group.index for group in groups] != list(range(1, len(groups) + 1)):
        raise OracleFailure(f"{algorithm}: client indices are not sequential")
    rerun = group_machines(machines, capacity, algorithm=algorithm)
    if [g.machine_names for g in rerun] != [g.machine_names for g in groups]:
        raise OracleFailure(
            f"{algorithm} grouping is not deterministic across runs")
    return groups


def _check_grouping(ctx: TrialContext) -> None:
    topology = extract_topology(ctx.model)
    capacity = ctx.options.capacity
    first_fit = _check_one_grouping(topology.machines, capacity, "first-fit")
    best_fit = _check_one_grouping(topology.machines, capacity, "best-fit")
    # the opt-in solver must be equivalent or better, never worse
    if len(best_fit) > len(first_fit):
        raise OracleFailure(
            f"best-fit used more clients than first-fit "
            f"({len(best_fit)} > {len(first_fit)})")
    bound = lower_bound_clients(topology.machines, capacity)
    if len(best_fit) < bound:
        raise OracleFailure(
            f"best-fit beat the information-theoretic lower bound "
            f"({len(best_fit)} < {bound}) — the packing is unsound")


def _check_sim(ctx: TrialContext) -> None:
    """The scenario engine's determinism contract, by digest.

    One seed + one topology must produce byte-identical briefings
    across repeated runs, and a report must not depend on the input
    order of the job list it simulates.
    """
    from ..sim import (CANONICAL_SCENARIOS, Workload, build_scenario,
                       run_scenario, simulate_suite)
    topology = extract_topology(ctx.model)
    if not topology.machines:
        return  # nothing to simulate — trivially deterministic
    seed = ctx.scenario.seed if ctx.scenario is not None else 0
    serial = simulate_suite(topology, seed=seed)
    again = simulate_suite(topology, seed=seed)
    if again.digest != serial.digest:
        raise OracleFailure("repeated simulation changed digest")
    if again.to_json() != serial.to_json():
        raise OracleFailure("repeated simulation changed briefing JSON")
    if list(CANONICAL_SCENARIOS) != [report.scenario
                                     for report in serial.reports]:
        raise OracleFailure("briefing scenario order differs from the "
                            "requested scenario list")
    # input-order independence: the same job *set*, handed over in
    # reverse, must simulate to the same report
    spec = build_scenario("baseline", topology, seed=seed)
    reversed_spec = type(spec)(
        name=spec.name, description=spec.description, seed=spec.seed,
        policy=spec.policy,
        workload=Workload(list(reversed(spec.workload.jobs)),
                          machines=spec.workload.machines),
        slowdowns=spec.slowdowns, outages=spec.outages,
        perturbations=spec.perturbations)
    if run_scenario(reversed_spec).digest != run_scenario(spec).digest:
        raise OracleFailure(
            "report digest depends on job input order")


def _check_plan(ctx: TrialContext) -> None:
    """The planning backend's determinism contract, by digest.

    Emission (domain + problems) and the chosen plans must be
    byte-identical across repeat runs and ``jobs=1`` vs a ``jobs=2``
    process pool; every plan must replay cleanly on the machine
    simulators; and the planner seed may only steer tie-breaks — the PDDL text is
    byte-stable across planner seeds and the plan *cost* matches the
    cost-optimal ``uniform`` strategy's.
    """
    from ..planning import PlanningOptions, plan_operations
    topology = extract_topology(ctx.model)
    inventory = topology.service_inventory()
    if not inventory:
        return  # no services to plan over — trivially deterministic
    seed = ctx.scenario.seed if ctx.scenario is not None else 0
    options = PlanningOptions(seed=seed, problems=2, orders=2)
    serial = plan_operations(topology, options)
    if not serial.all_valid:
        failures = [problem for result_problem in serial.problems
                    if result_problem.validation is not None
                    for problem in result_problem.validation.problems]
        raise OracleFailure(
            f"plan failed simulator replay: {failures[:3]}")
    again = plan_operations(topology, options)
    if again.digest != serial.digest or again.files() != serial.files():
        raise OracleFailure("repeated planning run changed emitted bytes")
    forked = plan_operations(topology, options.replace(jobs=2))
    if forked.digest != serial.digest or forked.files() != serial.files():
        raise OracleFailure(
            "process-pool planning emission differs from serial")
    # a different planner seed reroutes tie-breaks only: the emitted
    # PDDL text is untouched and the greedy plan cost still equals the
    # optimum (the heuristic descends by exactly 1 per action)
    reseeded = plan_operations(
        topology, options.replace(planner_seed=seed + 1000))
    serial_emission = {name: text for name, text in serial.files().items()
                      if not name.endswith(".plan")}
    reseeded_emission = {name: text
                        for name, text in reseeded.files().items()
                        if not name.endswith(".plan")}
    if reseeded_emission != serial_emission:
        raise OracleFailure(
            "planner seed leaked into the emitted PDDL text")
    if not reseeded.all_valid:
        raise OracleFailure("reseeded plan failed simulator replay")
    optimal = plan_operations(
        topology, options.replace(strategy="uniform"))
    costs = [problem.cost for problem in serial.problems]
    reseeded_costs = [problem.cost for problem in reseeded.problems]
    optimal_costs = [problem.cost for problem in optimal.problems]
    if costs != optimal_costs:
        raise OracleFailure(
            f"greedy plan costs {costs} differ from the cost-optimal "
            f"uniform strategy's {optimal_costs}")
    if reseeded_costs != optimal_costs:
        raise OracleFailure(
            f"reseeded plan costs {reseeded_costs} differ from the "
            f"cost-optimal {optimal_costs}")


#: The registry, in canonical execution order (front end first, then
#: pipeline equivalences, then semantic invariants).
ORACLES: dict[str, Oracle] = {
    oracle.name: oracle for oracle in (
        Oracle("roundtrip",
               "parse -> print -> parse AST identity and print fixpoint",
               _check_roundtrip, source_level=True),
        Oracle("interchange",
               "JSON interchange round-trip preserves AST and printed form",
               _check_interchange, source_level=True),
        Oracle("cache",
               "cache-off / cache-cold / cache-warm bundles byte-identical",
               _check_cache),
        Oracle("serve",
               "configuration service returns the direct pipeline bytes",
               _check_serve),
        Oracle("incremental",
               "incremental engine output byte-identical to cold runs; "
               "no-op and comment-only edits reuse every artifact and "
               "take no engine or session fallback",
               _check_incremental),
        Oracle("grouping",
               "client grouping partitions machines within capacity, "
               "deterministically",
               _check_grouping),
        Oracle("sim",
               "scenario-engine briefings byte-identical across repeat "
               "runs; reports independent of job input order",
               _check_sim),
        Oracle("plan",
               "PDDL emission byte-identical across repeat runs and "
               "jobs=1/N; plans replay cleanly on simulators; planner "
               "seed changes only tie-breaks, never emitted text or "
               "plan cost",
               _check_plan),
        Oracle("sharded",
               "consistent-hash routed bundles (1 and N workers) "
               "byte-identical to direct runs, with stable shard "
               "affinity and a parse-free routing key equal to the "
               "worker single-flight key",
               _check_sharded),
        Oracle("chaos",
               "under a seeded fault plan (cache corruption/IO errors, "
               "router-dispatch crashes, injected 503s) "
               "bundles stay byte-identical or fail with typed "
               "retriable errors",
               _check_chaos, opt_in=True),
    )
}


def oracle_names(include_opt_in: bool = False) -> list[str]:
    """Registered oracle names; opt-in oracles only when asked."""
    return [name for name, oracle in ORACLES.items()
            if include_opt_in or not oracle.opt_in]


def run_oracle(name: str, ctx: TrialContext) -> None:
    """Run one oracle by name (raises KeyError for unknown names)."""
    try:
        oracle = ORACLES[name]
    except KeyError:
        raise KeyError(f"unknown oracle {name!r}; "
                       f"known: {', '.join(ORACLES)}") from None
    oracle.run(ctx)
