"""cold-x10: the batch ``repro generate`` user compiling the x10 factory.

Each sample is a fresh interpreter (``cold_child.py``) that reads the
x10 mega-factory sources written once per run and calls ``load_model``
+ ``generate_configuration``. Parser, resolver and topology do almost
all of the work here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from measure import HERE, SRC, Context, single, summarize

#: A run takes at least this many samples, however long they take.
MIN_SAMPLES = 3
SCALE = 10


def expected_counts(specs) -> dict[str, int]:
    """Known answers from the mega-factory specs, not from the compiler."""
    return {"machines": len(specs),
            "points": sum(sum(len(v) for v in spec.categories.values())
                          + len(spec.services) for spec in specs),
            "servers": len({spec.workcell for spec in specs})}


def check_sample(ctx: Context, sample: dict, expected: dict[str, int],
                 number: int) -> None:
    """A sample's output digest against the golden, and its counts
    against the known answers."""
    ctx.outcome.expect_equal(sample["digest"], ctx.golden["cold-x10"],
                             f"cold sample {number} output digest")
    for key, value in expected.items():
        ctx.outcome.expect_equal(sample[key], value,
                                 f"cold sample {number} {key}")


def write_sources(ctx: Context):
    from repro.testkit.scale import mega_factory_sources, mega_factory_specs
    directory = ctx.workdir / f"x{SCALE}"
    directory.mkdir(parents=True, exist_ok=True)
    for number, text in enumerate(mega_factory_sources(SCALE)):
        (directory / f"{number:04d}.sysml").write_text(text)
    return directory, mega_factory_specs(SCALE)


def run(ctx: Context) -> None:
    directory, specs = write_sources(ctx)
    expected = expected_counts(specs)
    command = [sys.executable, str(HERE / "cold_child.py"), str(directory)]
    if ctx.traced:
        command.append("--trace")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples: list[dict] = []
    started = time.perf_counter()
    while len(samples) < MIN_SAMPLES or \
            time.perf_counter() - started < ctx.seconds:
        child = subprocess.run(command, capture_output=True, text=True,
                               env=env, timeout=150)
        if not ctx.outcome.record(
                child.returncode == 0,
                f"cold sample {len(samples)} exited {child.returncode}: "
                f"{child.stderr.strip()[-400:]}"):
            break
        sample = json.loads(child.stdout.strip().splitlines()[-1])
        samples.append(sample)
        check_sample(ctx, sample, expected, len(samples))
        if ctx.traced:
            ctx.recorder.extend(sample["spans"], rid=f"sample{len(samples)}")
            ctx.recorder.gc_unattributed_s += sample["gc_unattributed_s"]
    elapsed = ctx.host.at_reference(started, time.perf_counter())
    if not samples:
        return
    compile_s = [sum(ctx.host.durations(sample["compiled"]))
                 for sample in samples]
    ctx.metrics["setup_s"] = summarize(
        ctx.host.durations(sample["imported"] for sample in samples), "s")
    ctx.metrics["peak_rss_mb"] = summarize([s["rss_mb"] for s in samples],
                                           "MB")
    ctx.metrics["latency_s"] = summarize(compile_s, "s")
    ctx.metrics["ops_per_s"] = single(len(samples) / elapsed, "1/s",
                                      len(samples))
    ctx.extra["counts"] = {key: samples[-1][key] for key in
                           ("machines", "points", "servers", "clients")}
