"""Oracle registry: every oracle passes on valid scenarios and trips
on injected bugs."""

import pytest

import repro.sysml.printer as printer_module
from repro.testkit import (ORACLES, CorpusConfig, OracleFailure,
                           TrialContext, generate_scenario, oracle_names,
                           run_oracle)

EXPECTED = ["roundtrip", "interchange", "cache", "serve",
            "incremental", "grouping", "sim", "plan", "sharded"]


class TestRegistry:
    def test_all_expected_oracles_registered(self):
        assert oracle_names() == EXPECTED

    def test_unknown_oracle_raises(self):
        ctx = TrialContext(scenario=generate_scenario(0))
        with pytest.raises(KeyError, match="unknown oracle"):
            run_oracle("nope", ctx)

    def test_front_end_oracles_are_source_level(self):
        assert ORACLES["roundtrip"].source_level
        assert ORACLES["interchange"].source_level
        assert not ORACLES["cache"].source_level


class TestOraclesPass:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_all_oracles_pass_tame(self, seed):
        ctx = TrialContext(scenario=generate_scenario(seed))
        for name in oracle_names():
            run_oracle(name, ctx)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_all_oracles_pass_hostile(self, seed):
        ctx = TrialContext(
            scenario=generate_scenario(seed, CorpusConfig(hostile=True)))
        for name in oracle_names():
            run_oracle(name, ctx)


class TestOraclesTrip:
    def test_roundtrip_catches_broken_quoting(self, monkeypatch):
        monkeypatch.setattr(printer_module, "format_name",
                            lambda name: name)
        ctx = TrialContext(
            scenario=generate_scenario(0, CorpusConfig(hostile=True)))
        with pytest.raises(OracleFailure):
            run_oracle("roundtrip", ctx)

    def test_incremental_catches_a_session_fallback(self, monkeypatch):
        from repro.sysml.incremental import _Merger

        def broken_merge(*args):
            raise RuntimeError("merge bug")

        # the cold rebuild hides the bug from the bytes, not the counter
        monkeypatch.setattr(_Merger, "merge_lists", broken_merge)
        ctx = TrialContext(scenario=generate_scenario(0))
        with pytest.raises(OracleFailure, match="fallback"):
            run_oracle("incremental", ctx)

    def test_incremental_catches_a_fallback_on_a_driver_edit(
            self, monkeypatch):
        from repro.codegen.incremental import (IncrementalEngine,
                                               _EngineFallback)
        reextract = IncrementalEngine._reextract

        def lost_machine(engine, dirty):
            # only a machine-local edit has dirty machines
            if dirty:
                raise _EngineFallback("machine path vanished")
            return reextract(engine, dirty)

        monkeypatch.setattr(IncrementalEngine, "_reextract", lost_machine)
        ctx = TrialContext(scenario=generate_scenario(0))
        with pytest.raises(OracleFailure,
                           match="driver edit of machine .* fallback"):
            run_oracle("incremental", ctx)

    def test_incremental_edits_a_machine_named_with_colons(self):
        # hostile seed 10 has a machine named 'Zelle::X'
        ctx = TrialContext(
            scenario=generate_scenario(10, CorpusConfig(hostile=True)))
        run_oracle("incremental", ctx)

    def test_context_requires_input(self):
        with pytest.raises(ValueError):
            TrialContext()

    def test_context_accepts_bare_sources(self):
        ctx = TrialContext(sources=["part def X;"])
        run_oracle("roundtrip", ctx)
        run_oracle("interchange", ctx)
