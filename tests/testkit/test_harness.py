"""Conformance harness: parallel trials, deterministic digest, crash
corpus integration."""

import json

import pytest

import repro.sysml.printer as printer_module
from repro.obs import METRICS
from repro.testkit import CorpusConfig, run_conformance, run_trial

SMALL = CorpusConfig(max_machines=2, max_variables=4, max_services=2)


class TestRunTrial:
    def test_all_oracles_recorded(self):
        result = run_trial(0, config=SMALL)
        assert result.ok
        assert [outcome.name for outcome in result.outcomes] == [
            "roundtrip", "interchange", "cache", "serve",
            "incremental", "grouping", "sim", "plan", "sharded"]

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            run_trial(0, oracles=["bogus"])

    def test_oracle_subset(self):
        result = run_trial(1, config=SMALL, oracles=["roundtrip"])
        assert [outcome.name for outcome in result.outcomes] == [
            "roundtrip"]


class TestReport:
    def test_digest_deterministic_across_jobs(self):
        one = run_conformance(4, config=SMALL, jobs=1, shrink=False)
        four = run_conformance(4, config=SMALL, jobs=4, shrink=False)
        assert one.ok and four.ok
        assert one.digest == four.digest

    def test_digest_covers_base_seed(self):
        a = run_conformance(2, base_seed=0, config=SMALL, shrink=False)
        b = run_conformance(2, base_seed=100, config=SMALL, shrink=False)
        assert a.digest != b.digest

    def test_report_shape(self):
        report = run_conformance(2, config=SMALL, oracles=["grouping"],
                                 shrink=False)
        data = report.to_dict()
        assert data["schema"] == "repro/conformance-report/1"
        assert data["ok"] is True
        assert data["seeds"] == 2
        assert data["oracles"] == ["grouping"]
        assert data["oracle_stats"]["grouping"]["runs"] == 2
        assert len(data["trials"]) == 2
        json.dumps(data)  # JSON-serializable end to end

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_metrics_folded_in(self, jobs):
        before = METRICS.counter("conformance.trials").value
        seconds = METRICS.histogram("conformance.oracle.grouping.seconds")
        observed = len(seconds.values)
        run_conformance(2, config=SMALL, oracles=["grouping"],
                        jobs=jobs, shrink=False)
        assert METRICS.counter("conformance.trials").value == before + 2
        assert len(seconds.values) == observed + 2

    def test_failures_counted_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(printer_module, "format_name",
                            lambda name: name)
        before = METRICS.counter("conformance.failures").value
        report = run_conformance(
            2, config=CorpusConfig(hostile=True), oracles=["roundtrip"],
            jobs=2, shrink=False)
        assert report.failure_count >= 1
        assert (METRICS.counter("conformance.failures").value
                == before + report.failure_count)

    @pytest.mark.parametrize("jobs", [0, -1, True])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            run_conformance(1, config=SMALL, jobs=jobs)


class TestFailurePath:
    def test_failures_shrink_into_crash_dir(self, monkeypatch, tmp_path):
        monkeypatch.setattr(printer_module, "format_name",
                            lambda name: name)
        crash = tmp_path / "crash"
        report = run_conformance(
            1, config=CorpusConfig(hostile=True),
            oracles=["roundtrip"], crash_dir=crash)
        assert not report.ok
        assert report.failure_count == 1
        assert report.reproducers
        reproducer = report.reproducers[0]
        assert reproducer.path is not None and reproducer.path.exists()
        assert reproducer.line_count <= 15
        assert report.to_dict()["reproducers"][0]["lines"] <= 15
