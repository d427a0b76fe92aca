"""IncrementalEngine behaviour across the edit taxonomy.

Every test holds the same contract: whatever path the engine takes
(clean, partial, or full fallback), its output must be byte-identical
to a cold pipeline run over the same sources — incrementality buys
time, never different bytes. The per-edit tests additionally pin which
path runs and what the provenance reports.
"""

import copy

import pytest

from fixtures import rejected_revision

from repro.codegen import (GenerationPipeline, IncrementalEngine,
                           PipelineOptions)
from repro.icelab.model_gen import icelab_sources
from repro.isa95.levels import VariableSpec
from repro.machines.specs import ICE_LAB_SPECS
from repro.obs import METRICS, Tracer
from repro.service import bundle_bytes
from repro.sysml import load_model
from repro.sysml.errors import ValidationError
from repro.testkit.corpus import generate_scenario

OPTIONS = PipelineOptions(namespace="icelab")

#: The ICE-lab source holding the EMCO driver instance (ip 10.197.12.11).
EMCO_IP = "10.197.12.11"


def cold_manifests(sources):
    result = GenerationPipeline(OPTIONS).run_on_model(load_model(*sources))
    return result


def edited_specs(edit):
    specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
    edit({s.name: s for s in specs})
    return specs


def regenerated_ids(result):
    return sorted(artifact for artifact, state in result.provenance.items()
                  if state == "regenerated")


@pytest.fixture()
def engine():
    engine = IncrementalEngine(OPTIONS)
    engine.generate(*icelab_sources())
    return engine


def counters():
    snap = METRICS.snapshot()
    return {name: snap.get(f"incremental.{name}", 0)
            for name in ("partial_runs", "full_runs", "clean_runs")}


class TestColdRun:
    def test_matches_plain_pipeline_byte_for_byte(self):
        engine = IncrementalEngine(OPTIONS)
        result = engine.generate(*icelab_sources())
        cold = cold_manifests(icelab_sources())
        assert result.manifests == cold.manifests
        assert result.machine_configs == cold.machine_configs
        assert result.server_configs == cold.server_configs
        assert result.client_configs == cold.client_configs
        assert result.storage_configs == cold.storage_configs

    def test_cold_provenance_is_all_regenerated(self):
        engine = IncrementalEngine(OPTIONS)
        result = engine.generate(*icelab_sources())
        assert set(result.provenance.values()) == {"regenerated"}
        assert result.summary()["artifacts_regenerated"] == 38


class TestNoopAndCommentEdits:
    def test_identical_sources_reuse_everything(self, engine):
        before = counters()
        result = engine.generate(*icelab_sources())
        assert engine.last_update.clean
        assert set(result.provenance.values()) == {"reused"}
        assert counters()["clean_runs"] == before["clean_runs"] + 1

    def test_comment_only_edit_reuses_everything(self, engine):
        sources = list(icelab_sources())
        sources[0] += "\n// reviewed 2026-08-08\n"
        result = engine.generate(*sources)
        assert engine.last_update.clean
        assert set(result.provenance.values()) == {"reused"}
        assert result.manifests == engine.previous.manifests


class TestDriverParameterEdit:
    """The paper's canonical scenario: one machine's driver IP moves."""

    def edited(self):
        return [s.replace(EMCO_IP, "10.197.12.99") if EMCO_IP in s else s
                for s in icelab_sources()]

    def test_partial_path_regenerates_exactly_the_machine(self, engine):
        before = counters()
        result = engine.generate(*self.edited())
        assert counters()["partial_runs"] == before["partial_runs"] + 1
        assert regenerated_ids(result) == [
            "machine:emco",
            "manifest:workcell02-opcua-server.yaml",
            "server:workCell02",
        ]
        assert result.summary()["artifacts_reused"] == 35

    def test_byte_identical_to_cold_run(self, engine):
        result = engine.generate(*self.edited())
        cold = cold_manifests(self.edited())
        assert result.manifests == cold.manifests
        assert result.machine_configs == cold.machine_configs
        assert result.server_configs == cold.server_configs

    def test_untouched_manifests_are_the_same_objects(self, engine):
        previous = engine.previous
        result = engine.generate(*self.edited())
        assert result.manifests["workcell05-opcua-server.yaml"] \
            is previous.manifests["workcell05-opcua-server.yaml"]
        assert result.machine_configs["ur5"] \
            is previous.machine_configs["ur5"]

    def test_revert_over_a_cache_reports_the_machine_regenerated(
            self, tmp_path):
        # going back to a revision the cache has seen still changes
        # emco relative to the previous result
        engine = IncrementalEngine(
            OPTIONS.replace(cache_dir=str(tmp_path / "cache")))
        engine.generate(*icelab_sources())
        engine.generate(*self.edited())
        before = counters()
        result = engine.generate(*icelab_sources())
        assert counters()["partial_runs"] == before["partial_runs"] + 1
        assert regenerated_ids(result) == [
            "machine:emco",
            "manifest:workcell02-opcua-server.yaml",
            "server:workCell02",
        ]

    def test_grouping_not_resolved_again(self, engine):
        # an IP change cannot move a machine between clients, so the
        # retained membership is rebuilt, not re-packed
        previous_groups = [g.machine_names for g in engine.previous.groups]
        result = engine.generate(*self.edited())
        assert [g.machine_names for g in result.groups] == previous_groups
        assert all(state == "reused"
                   for artifact, state in result.provenance.items()
                   if artifact.startswith("client:"))


class TestRenameEdit:
    def test_falls_back_to_full_run_and_matches_cold(self, engine):
        before = counters()
        renamed = [s.replace("speaDriverInstance", "speaDriverInstanceB")
                   for s in icelab_sources()]
        result = engine.generate(*renamed)
        assert counters()["full_runs"] == before["full_runs"] + 1
        assert result.manifests == cold_manifests(renamed).manifests

    def test_records_why_it_fell_back(self, engine):
        name = "incremental.fallbacks._EngineFallback"
        before = METRICS.snapshot().get(name, 0)
        renamed = [s.replace("speaDriverInstance", "speaDriverInstanceB")
                   for s in icelab_sources()]
        tracer = Tracer()
        with tracer.activate():
            engine.generate(*renamed)
        assert METRICS.snapshot()[name] == before + 1
        span = tracer.trace().find("engine-incremental")
        assert span.attributes["fallback"] == "_EngineFallback"


class TestPointCountEdit:
    def test_group_membership_resolves_like_cold(self, engine):
        # +80 points on fiam reshuffles first-fit-decreasing packing;
        # a definition-level edit, so the engine takes the full path —
        # and must land exactly where a cold run lands
        specs = edited_specs(
            lambda by: by["fiam"].categories["Tightening"].extend(
                VariableSpec(f"extra_{i}", "Real") for i in range(80)))
        sources = icelab_sources(specs)
        result = engine.generate(*sources)
        cold = cold_manifests(sources)
        assert [g.machine_names for g in result.groups] \
            == [g.machine_names for g in cold.groups]
        assert result.manifests == cold.manifests


class TestMachineAddRemove:
    def test_removal_drops_the_workcell(self, engine):
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS
                 if s.name != "spea"]
        sources = icelab_sources(specs)
        before = counters()
        result = engine.generate(*sources)
        # the session absorbs the shifted source slices in place; the
        # engine cannot localize a removal and runs in full
        assert not engine.last_update.full_rebuild
        assert engine.last_update.removed_anchors
        assert counters()["full_runs"] == before["full_runs"] + 1
        assert "workcell01-opcua-server.yaml" not in result.manifests
        assert result.manifests == cold_manifests(sources).manifests

    def test_addition_appears_like_cold(self, engine):
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
        extra = copy.deepcopy(
            next(s for s in specs if s.name == "conveyor"))
        extra.name = "conveyor2"
        sources = icelab_sources(specs + [extra])
        result = engine.generate(*sources)
        cold = cold_manifests(sources)
        assert "conveyor2" in result.machine_configs
        assert result.manifests == cold.manifests


class TestRejectedRevision:
    def test_next_revision_is_not_diffed_against_the_rejected_one(
            self, engine):
        rejected, restored = rejected_revision(icelab_sources())
        with pytest.raises(ValidationError, match="unresolved-driver"):
            engine.generate(*rejected)
        before = counters()
        result = engine.generate(*restored)
        assert counters()["full_runs"] == before["full_runs"] + 1
        cold = cold_manifests(restored)
        assert result.machine_configs == cold.machine_configs
        assert result.manifests == cold.manifests
        assert any("77777" in text for text in result.manifests.values())


class TestUnrelatedFactories:
    def test_package_moved_between_sources_matches_cold(self):
        # KiloOvenLib sits in another source slice in the second
        # factory, so the session rebuilds it from scratch
        options = PipelineOptions(namespace="tenant")
        first = generate_scenario(221769903).sources
        second = generate_scenario(436425901).sources
        engine = IncrementalEngine(options)
        engine.generate(*first)
        result = engine.generate(*second)
        model = load_model(*second)
        cold = GenerationPipeline(options).run_on_model(model)
        assert bundle_bytes(result, model.content_fingerprint, options) \
            == bundle_bytes(cold, model.content_fingerprint, options)


class TestQuotedMachinePath:
    """A machine whose name contains ``::`` is found again by path."""

    def test_driver_edit_takes_the_partial_path(self):
        from repro.testkit.corpus import CorpusConfig
        scenario = generate_scenario(10, CorpusConfig(hostile=True))
        options = PipelineOptions(capacity=scenario.capacity)
        sources = list(scenario.sources)
        driver = next(index for index, text in enumerate(sources)
                      if text.startswith("part 'Zelle::XDriverInstance'"))
        engine = IncrementalEngine(options)
        engine.generate(*sources)
        sources[driver] = sources[driver].replace(
            ":>> param0 = 35005;", ":>> param0 = 35006;", 1)
        name = "incremental.fallbacks._EngineFallback"
        fallbacks = METRICS.snapshot().get(name, 0)
        before = counters()
        result = engine.generate(*sources)
        assert METRICS.snapshot().get(name, 0) == fallbacks
        assert counters()["partial_runs"] == before["partial_runs"] + 1
        assert "machine:Zelle::X" in regenerated_ids(result)
        model = load_model(*sources)
        cold = GenerationPipeline(options).run_on_model(model)
        assert bundle_bytes(result, model.content_fingerprint, options) \
            == bundle_bytes(cold, model.content_fingerprint, options)


class TestEngineOptions:
    def test_incremental_option_is_gone(self):
        # reuse across edits is the engine's job, not an option
        with pytest.raises(TypeError, match="unexpected keyword"):
            PipelineOptions(**{"incremental": False})
        with pytest.raises(TypeError, match="unknown pipeline option"):
            PipelineOptions.from_dict({"incremental": True})

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            IncrementalEngine(namespace="icelab")
