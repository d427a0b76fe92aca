"""Tests of the e2e benchmark harness itself; no workload runs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_harness.py``.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from measure import Context, SpanRecorder, layer_totals  # noqa: E402

sys.path.insert(0, str(measure.SRC))


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- statistics ----------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    q1, median, q3 = measure.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, median, q3) == (expected[0], statistics.median(values),
                                expected[2])
    assert measure.quartiles([2.5]) == (2.5, 2.5, 2.5)


@pytest.mark.parametrize("count, expected", [
    (19, None),          # even the median has only 9 samples beyond it
    (20, (50.0, 10.0)),
    (40, (75.0, 30.0)),
    (99, (75.0, 75.0)),  # p90 would leave 9 beyond
    (100, (90.0, 90.0)),
    (1000, (99.0, 990.0)),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    values = [float(v) for v in range(1, count + 1)]
    assert measure.tail_percentile(values) == expected


def test_tail_needs_ten_distinct_samples_beyond():
    assert measure.tail_percentile([1.0] * 50) is None
    summary = measure.summarize([float(v) for v in range(40)], "s")
    assert summary["n"] == 40 and summary["tail_p"] == 75.0


def test_mix_latency_weights_class_medians_by_the_nominal_mix():
    by_class = {"fast": [0.01, 0.02, 0.03], "slow": [1.0, 2.0, 9.0, 3.0]}
    summary = measure.mix_latency(by_class, {"fast": 0.7, "slow": 0.3})
    assert summary["value"] == pytest.approx(0.7 * 0.02 + 0.3 * 2.5)
    assert summary["q1"] <= summary["value"] <= summary["q3"]
    assert summary["n"] == 7 and summary["unit"] == "s"
    # how many of each class a run drew does not move it
    drawn = {"fast": [0.02] * 9, "slow": [2.5]}
    assert measure.mix_latency(drawn, {"fast": 0.7, "slow": 0.3})[
        "value"] == pytest.approx(summary["value"])
    with pytest.raises(ValueError):
        measure.mix_latency(by_class, {"fast": 0.7, "slow": 0.2})
    with pytest.raises(KeyError):
        measure.mix_latency({"fast": [0.01]}, {"fast": 0.5, "slow": 0.5})


def test_times_are_put_at_the_reference_speed_of_their_moment():
    ref = measure.REFERENCE_PROBE_S
    interval = measure.PROBE_INTERVAL_S
    # full speed for the first second, half speed for the next
    samples = [[t, t + 0.001, ref if t < 1.0 else 2 * ref]
               for t in (0.1 * k for k in range(20))]
    host = measure.HostSpeed(samples=list(reversed(samples)))
    assert host.speed(0.2, 0.8) == pytest.approx(1.0)
    assert host.speed(1.2, 1.8) == pytest.approx(0.5)
    # a second at half speed is half a second at the reference speed
    assert host.at_reference(1.2, 2.2) == pytest.approx(0.5)
    assert host.durations([(0.2, 0.8), (1.2, 1.8)]) == \
        pytest.approx([0.6, 0.3])
    # an interval with no probe near it takes the probes either side
    assert host.speed(0.55, 0.55 + interval / 10) == pytest.approx(1.0)
    assert host.speed(0.93, 0.97) == pytest.approx(0.75)
    assert host.speed(5.0, 6.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        measure.HostSpeed().speed(0.0, 1.0)


def test_speedometer_samples_until_its_input_ends():
    from probe import probe_work
    assert probe_work(200) == probe_work(200)
    host = measure.HostSpeed()
    host.start()
    try:
        started = time.perf_counter()
        time.sleep(20 * measure.PROBE_INTERVAL_S)
        ended = time.perf_counter()
        speed = host.speed(started, ended)
        assert len(host.samples) >= 5 and speed > 0
        assert all(started - 1.0 < s[0] < s[1] <= ended + 1.0
                   for s in host.samples)
        report = host.report()
        assert report["probes"] == len(host.samples)
    finally:
        process = host._process
        host.close()
    assert process.poll() == 0 and host._process is None


# -- load generation -------------------------------------------------------------

def test_open_loop_times_from_due_and_reports_lateness():
    clock = FakeClock()

    def send(index, worker):
        clock.now += 0.25  # every request takes 0.25 s
        return index

    report = loadgen.run_open_loop([0.0, 0.1, 0.2, 1.0], send, workers=1,
                                   clock=clock, sleep=clock.sleep)
    timeline = [(r.due, r.sent, r.done) for r in report.records]
    assert timeline == pytest.approx([(0.0, 0.0, 0.25), (0.1, 0.25, 0.5),
                                      (0.2, 0.5, 0.75), (1.0, 1.0, 1.25)])
    # a stall queues later requests: they are timed from their due time
    assert [r.latency_s for r in report.records] == \
        pytest.approx([0.25, 0.4, 0.55, 0.25])
    assert [r.late_s for r in report.records] == \
        pytest.approx([0.0, 0.15, 0.3, 0.0])
    assert report.elapsed_s == pytest.approx(1.25)


def test_open_loop_records_failures_and_goes_on():
    clock = FakeClock()

    def send(index, worker):
        if index == 1:
            raise ConnectionError("refused")
        return index

    report = loadgen.run_open_loop([0.0, 0.5, 1.0], send, workers=1,
                                   clock=clock, sleep=clock.sleep)
    assert [r.index for r in report.records] == [0, 1, 2]
    assert len(report.errors) == 1 and "refused" in report.errors[0]


def test_open_loop_with_two_workers_sends_everything_once():
    seen = []
    report = loadgen.run_open_loop([0.0] * 20, lambda i, w: seen.append(i),
                                   workers=2)
    assert sorted(seen) == list(range(20))
    assert [r.index for r in report.records] == list(range(20))


def test_poisson_schedule_is_seeded_with_exponential_gaps():
    first = loadgen.poisson_schedule(2.0, 2000, seed=7)
    assert first == loadgen.poisson_schedule(2.0, 2000, seed=7)
    assert first != loadgen.poisson_schedule(2.0, 2000, seed=8)
    gaps = [b - a for a, b in zip([0.0] + first, first)]
    assert len(first) == 2000 and min(gaps) > 0
    # mean gap 1 / rate; exponential gaps have a standard deviation as
    # large as their mean, and bursts well under a tenth of it
    assert statistics.mean(gaps) == pytest.approx(0.5, rel=0.1)
    assert statistics.stdev(gaps) == pytest.approx(0.5, rel=0.15)
    assert sum(1 for gap in gaps if gap < 0.05) > 100


# -- spans -----------------------------------------------------------------------

def _recorder():
    clock = FakeClock()
    return SpanRecorder(clock=clock), clock


def test_self_time_subtracts_the_union_of_children():
    recorder = SpanRecorder()
    root = recorder.add("root", 0.0, 10.0)
    recorder.add("a", 1.0, 4.0, parent=root)
    recorder.add("b", 3.0, 6.0, parent=root)  # overlaps a
    recorder.add("c", 8.0, 12.0, parent=root)  # runs past the root
    own = measure.self_times(recorder.spans)
    assert own[root["id"]] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0)


def test_nested_spans_inherit_rid_and_attribute_gc():
    recorder, clock = _recorder()
    with recorder.span("outer", rid="req1"):
        clock.now += 1.0
        with recorder.span("inner") as inner:
            recorder._on_gc("start", {})
            clock.now += 0.5
            recorder._on_gc("stop", {})
        clock.now += 1.0
    outer = recorder.spans[0]
    assert inner["rid"] == "req1" and inner["parent"] == outer["id"]
    assert inner["attrs"] == {"gc_s": 0.5, "gc_n": 1}
    assert measure.self_times(recorder.spans)[outer["id"]] == \
        pytest.approx(2.0)


def test_shadow_spans_move_time_out_of_their_layer_and_the_wall():
    recorder, clock = _recorder()
    with recorder.span("sample"):
        with recorder.span("sysml.lexer", shadow=True,
                           within="sysml.parser"):
            clock.now += 1.0
        with recorder.span("sysml.parser", bytes=100):
            clock.now += 3.0
    totals = layer_totals(recorder.spans)
    assert totals["wall_s"] == pytest.approx(3.0)
    assert totals["root_s"] == pytest.approx(4.0)
    layers = totals["layers"]
    assert layers["sysml.parser"]["self_s"] == pytest.approx(2.0)
    assert layers["sysml.lexer"]["self_s"] == pytest.approx(1.0)
    metrics = catalogue.layer_metrics(recorder.spans, totals, {})
    assert metrics["sysml.parser.bytes_per_s"]["value"] == \
        pytest.approx(100 / 3.0)
    assert metrics["sysml.lexer.self_pct"]["value"] + \
        metrics["sysml.parser.self_pct"]["value"] == pytest.approx(100.0)


# -- seeded inputs ------------------------------------------------------------------

@pytest.fixture(scope="module")
def factory():
    from repro.testkit.scale import mega_factory_sources, mega_factory_specs
    from workload_edit import SCALE
    return mega_factory_specs(SCALE), mega_factory_sources(SCALE)


def test_edit_script_is_seeded_with_a_fixed_mix(factory):
    from workload_edit import BLOCK, MIX, edit_script
    specs, _ = factory
    assert {kind: BLOCK.count(kind) / len(BLOCK) for kind in MIX} == MIX
    script = edit_script(7, specs, blocks=5)
    assert script == edit_script(7, specs, blocks=5)
    assert script != edit_script(8, specs, blocks=5)
    for start in range(0, len(script), len(BLOCK)):
        kinds = [edit.kind for edit in script[start:start + len(BLOCK)]]
        assert sorted(kinds) == sorted(BLOCK)
    for edit in script:
        if edit.kind == "local":
            current = specs[edit.machine].driver.parameters[edit.parameter]
            assert isinstance(current, int) and current != edit.value


def test_edits_apply_to_exactly_one_source(factory):
    from workload_edit import apply_edit, edit_script
    specs, sources = factory
    for edit in edit_script(3, specs, blocks=1):
        revised = apply_edit(sources, specs, edit)
        changed = [i for i, (a, b) in enumerate(zip(sources, revised))
                   if a != b]
        assert len(changed) == 1
        if edit.kind == "topology":
            assert changed == [len(sources) - 1]
            assert revised[-1].count("\n") == sources[-1].count("\n") + 1
        else:
            assert f":>> {edit.parameter} = {edit.value};" in \
                revised[changed[0]]


def test_serve_requests_are_seeded_with_a_fixed_mix():
    from workload_serve import BLOCK, MIX, RequestMaker
    assert {kind: BLOCK.count(kind) / len(BLOCK) for kind in MIX} == MIX
    first, again = RequestMaker(7), RequestMaker(7)
    kinds = [first.kind(n) for n in range(2 * len(BLOCK))]
    assert kinds == [again.kind(n) for n in range(2 * len(BLOCK))]
    assert sorted(kinds[:len(BLOCK)]) == sorted(BLOCK)
    for number in (0, 5, 23):
        assert first.make(number) == again.make(number)
    edits = {first.make(n, "edit").sources for n in range(10)}
    assert len(edits) == 10 and not edits & set(first.hot)


# -- compare ----------------------------------------------------------------------

@pytest.mark.parametrize("a, b, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.04, 1.06, 1.05], "lower",
     compare.WITHIN),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "lower",
     compare.REGRESSION),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher",
     compare.REGRESSION),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher",
     compare.WITHIN),
    # the baseline's own spread is wider than the bound
    ([1.0, 1.5, 0.7, 1.2], [1.0, 1.1, 0.9, 1.3], "lower",
     compare.UNRESOLVED),
    # ... unless every candidate run beats every baseline run
    ([1.0, 1.5, 0.7, 1.2], [0.5, 0.55, 0.6, 0.52], "lower", compare.WITHIN),
])
def test_compare_verdicts(a, b, better, expected):
    verdict, stats = compare.verdict(a, b, 0.1, better)
    assert verdict == expected
    assert stats["a_runs"] == len(a) and stats["b_runs"] == len(b)


def test_compare_reads_result_files_and_directories(tmp_path):
    benchmark = json.loads(run.BENCHMARK.read_text())

    def result(value):
        return {"workload": "cold-x10", "traced": False, "metrics": {
            m["name"]: {"value": value, "unit": m["unit"]}
            for m in benchmark["end_to_end"]}}

    (tmp_path / "a").mkdir()
    for number, value in enumerate([1.0, 1.02, 0.98]):
        (tmp_path / "a" / f"{number}.json").write_text(
            json.dumps(result(value)))
    (tmp_path / "b.json").write_text(json.dumps(
        {"workloads": {"cold-x10": result(1.01)}}))
    rows = compare.compare(tmp_path / "a", tmp_path / "b.json", benchmark)
    cold = [row for row in rows if row["workload"] == "cold-x10"]
    assert {row["verdict"] for row in cold} == {compare.WITHIN}
    others = [row for row in rows if row["workload"] != "cold-x10"]
    assert {row["verdict"] for row in others} == {"missing"}


# -- correctness gate ------------------------------------------------------------

def test_a_corrupted_golden_fails_the_run():
    from workload_cold import check_sample
    sample = {"digest": "abc", "machines": 100, "points": 5640,
              "servers": 15}
    expected = {"machines": 100, "points": 5640, "servers": 15}
    good = Context(seed=7, seconds=1, traced=False, workdir=HERE,
                   golden={"cold-x10": "abc"})
    check_sample(good, sample, expected, 1)
    assert good.outcome.failed == 0
    corrupted = Context(seed=7, seconds=1, traced=False, workdir=HERE,
                        golden={"cold-x10": "abd"})
    check_sample(corrupted, sample, expected, 1)
    assert corrupted.outcome.failed == 1
    line = run.result_line({"traced": False, "metrics": {},
                            "checks": corrupted.outcome.to_dict()})
    assert line == {"correct": False, "attempted": 4, "failed": 1,
                    "metrics": {}}


def test_the_committed_golden_has_every_checked_key():
    golden = measure.load_golden()
    keys = ("cold-x10", "whatif.briefing", "whatif.plan")
    assert all(re.fullmatch(r"[0-9a-f]{64}", golden[key]) for key in keys)


def test_missing_program_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "cold-x10"]) == 2
    assert capsys.readouterr().out == ""


# -- catalogue vs BENCHMARK.json ----------------------------------------------------

def test_catalogue_matches_benchmark_json():
    benchmark = json.loads(run.BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["end_to_end"]] == list(catalogue.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in benchmark["per_layer"]] == \
        catalogue.per_layer_catalogue()
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in benchmark["end_to_end"]
             + benchmark["per_layer"]]
    assert len(names) == len(set(names)) and len(names) <= 16 + 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])


def test_layer_metrics_cover_the_catalogue_without_spans():
    totals = layer_totals([])
    metrics = catalogue.layer_metrics([], totals, {})
    assert [(name, m["unit"]) for name, m in metrics.items()] == \
        [(name, unit) for name, unit, _ in catalogue.per_layer_catalogue()]
    assert all(m["value"] == 0 for m in metrics.values())
