"""edit-x10: an engineer editing the x10 factory and waiting for the
configuration to regenerate.

One closed-loop editor sends seeded, cumulative edits to a warm
``IncrementalEngine``. ``local`` edits change one integer driver
parameter in a driver-instance source; ``topology`` edits add one data
point to a machine in the 2.6 MB topology source, which changes the
machine's point count and so forces a regroup, and makes the front end
reparse the whole file.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass

from measure import Context, mix_latency, output_digest, peak_rss_mb, \
    single, summarize, timed_setups

SCALE = 10
#: Share of each kind of edit in the session.
MIX = {"local": 0.7, "topology": 0.3}
#: Edits come in shuffled blocks of ten in the shares of ``MIX``, so
#: every whole block runs the mix exactly.
BLOCK = (("local",) * 7) + (("topology",) * 3)


@dataclass(frozen=True)
class Edit:
    number: int
    kind: str            # "local" or "topology"
    machine: int         # index into the spec list
    parameter: str = ""  # local edits: the driver parameter
    value: int = 0       # local edits: its new value


def edit_script(seed: int, specs, blocks: int) -> list[Edit]:
    """The seeded edit sequence: *blocks* shuffled copies of ``BLOCK``."""
    rng = random.Random(seed)
    edits: list[Edit] = []
    for _ in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            machine = rng.randrange(len(specs))
            number = len(edits)
            if kind == "local":
                parameters = sorted(
                    name for name, value in
                    specs[machine].driver.parameters.items()
                    if isinstance(value, int) and not isinstance(value, bool))
                edits.append(Edit(number, kind, machine,
                                  rng.choice(parameters), 20000 + number))
            else:
                edits.append(Edit(number, kind, machine))
    return edits


def driver_source_index(specs, machine: int) -> int:
    """Position of a machine's driver instance in ``icelab_sources``:
    the ISA-95 library, one library per machine type, then drivers."""
    types = len(dict.fromkeys(spec.type_name for spec in specs))
    return 1 + types + machine


def apply_edit(sources: list[str], specs, edit: Edit) -> list[str]:
    """The next revision of *sources* with *edit* applied."""
    revised = list(sources)
    if edit.kind == "local":
        index = driver_source_index(specs, edit.machine)
        text, replaced = re.subn(
            rf"(:>> {re.escape(edit.parameter)} = )[^;]*;",
            rf"\g<1>{edit.value};", revised[index], count=1)
    else:
        name = re.escape(specs[edit.machine].name)
        # the machine's part, its driver reference, its data part, then
        # the first category part: insert the new point there
        match = re.search(rf"\n\s*part {name} : [^{{\n]*\{{\n[^\n]*\n"
                          rf"\s*part {name}Data : [^{{\n]*\{{\n"
                          rf"(\s*)part [^{{\n]*\{{\n", revised[-1])
        replaced = int(match is not None)
        text = revised[-1]
        if match is not None:
            line = f"{match.group(1)}    attribute benchEdit{edit.number}" \
                   f" : Real;\n"
            text = text[:match.end()] + line + text[match.end():]
        index = len(revised) - 1
    if replaced != 1:
        raise ValueError(f"edit {edit} did not apply")
    revised[index] = text
    return revised


def _points(result, name: str) -> int:
    return next(machine.point_count for machine in result.topology.machines
                if machine.name == name)


def check_edit(ctx: Context, edit: Edit, spec, previous, result) -> None:
    """The edit's known answer."""
    what = f"edit {edit.number} ({edit.kind} {spec.name})"
    if edit.kind == "topology":
        ctx.outcome.expect_equal(_points(result, spec.name),
                                 _points(previous, spec.name) + 1,
                                 f"{what} point count")
        return
    config = result.machine_configs[spec.name]
    ctx.outcome.expect_equal(
        config["driver"]["parameters"].get(edit.parameter), edit.value,
        f"{what} {edit.parameter}")
    server = result.server_configs[spec.workcell]["server"]
    allowed = {f"machine:{spec.name}", f"server:{spec.workcell}",
               f"manifest:{server}.yaml"}
    regenerated = {artifact for artifact, state in result.provenance.items()
                   if state == "regenerated"}
    ctx.outcome.record(
        f"machine:{spec.name}" in regenerated and regenerated <= allowed,
        f"{what} regenerated {sorted(regenerated)}, allowed "
        f"{sorted(allowed)}")


def run(ctx: Context) -> None:
    from repro.codegen import (IncrementalEngine, PipelineOptions,
                               generate_configuration)
    from repro.obs import METRICS, snapshot_delta
    from repro.sysml import ModelSession, load_model
    from repro.testkit.scale import mega_factory_sources, mega_factory_specs

    specs = mega_factory_specs(SCALE)
    sources = mega_factory_sources(SCALE)
    options = PipelineOptions()

    def build():
        engine = IncrementalEngine(options)
        return engine, engine.generate(*sources)

    engine, previous = timed_setups(ctx, build)
    # a full engine build must equal the cold compile of the same sources
    ctx.outcome.expect_equal(output_digest(previous), ctx.golden["cold-x10"],
                             "engine build output digest")
    twin = None
    if ctx.traced:
        # the twin session sees the same revisions as the engine's own,
        # so its update time is the front-end share of each edit
        with ctx.span("sysml.incremental.build", shadow=True):
            twin = ModelSession(*sources)

    def update_twin(session, revision, rid):
        with ctx.span("sysml.incremental", rid=rid, shadow=True,
                      within="codegen.incremental"):
            session.update(*revision)

    script = edit_script(ctx.seed, specs, blocks=20)
    timed: dict[str, list[tuple[float, float]]] = {"local": [],
                                                   "topology": []}
    reused = artifacts = 0
    before = METRICS.snapshot()
    started = time.perf_counter()
    block_s = 0.0
    for block in range(0, len(script), len(BLOCK)):
        # whole blocks only, and another one only if it fits the time
        # left, so the mix stays exact and the run stays near --seconds
        block_started = time.perf_counter()
        if block and block_started - started + block_s > ctx.seconds:
            break
        for edit in script[block:block + len(BLOCK)]:
            sources = apply_edit(sources, specs, edit)
            rid = f"edit{edit.number}"
            # whichever parses a revision first warms caches for the
            # other, so the twin goes first on every other edit
            twin_first = edit.number % 2 == 0
            if twin is not None and twin_first:
                update_twin(twin, sources, rid)
            began = time.perf_counter()
            with ctx.span("codegen.incremental", rid=rid, kind=edit.kind):
                result = engine.generate(*sources)
            timed[edit.kind].append((began, time.perf_counter()))
            if twin is not None and not twin_first:
                update_twin(twin, sources, rid)
            ctx.outcome.attempted += 1
            check_edit(ctx, edit, specs[edit.machine], previous, result)
            states = list(result.provenance.values())
            reused += states.count("reused")
            artifacts += len(states)
            previous = result
        block_s = time.perf_counter() - block_started
    elapsed = ctx.host.at_reference(started, time.perf_counter())
    delta = snapshot_delta(before, METRICS.snapshot())
    ctx.metrics["peak_rss_mb"] = single(peak_rss_mb(), "MB")

    cold = generate_configuration(load_model(*sources), options)
    ctx.outcome.expect_equal(output_digest(previous), output_digest(cold),
                             "final revision vs cold run")

    seconds = {kind: ctx.host.durations(intervals)
               for kind, intervals in timed.items()}
    edits = sum(len(values) for values in seconds.values())
    ctx.metrics["latency_s"] = mix_latency(seconds, MIX)
    ctx.metrics["ops_per_s"] = single(edits / elapsed, "1/s", edits)
    for kind, values in seconds.items():
        ctx.detail[f"edit.{kind}.p50_s"] = summarize(values, "s")
    ctx.counts.update({
        "codegen.incremental.partial_runs":
            delta.get("incremental.partial_runs", 0),
        "codegen.incremental.full_runs":
            delta.get("incremental.full_runs", 0),
        "codegen.incremental.reuse_ratio":
            reused / artifacts if artifacts else 0.0,
    })
    ctx.extra["counters"] = {name: value for name, value in delta.items()
                             if name.startswith("incremental.")}
