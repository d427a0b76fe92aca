"""Incremental regeneration tests: what an edit regenerates.

Each case primes an :class:`IncrementalEngine` on the ICE lab, feeds it
one edited revision and reads the per-artifact ``provenance`` of the
result.
"""

import copy

from repro.codegen import IncrementalEngine, PipelineOptions
from repro.icelab.model_gen import icelab_sources
from repro.machines.specs import ICE_LAB_SPECS


def edited_specs(edit):
    specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
    edit({s.name: s for s in specs})
    return specs


def run_incremental(specs):
    engine = IncrementalEngine(PipelineOptions(namespace="icelab"))
    engine.generate(*icelab_sources())
    return engine.generate(*icelab_sources(specs))


def regenerated(result, kind):
    """Names of the *kind* artifacts (``machine``, ``manifest``, ...)
    the result reports regenerated."""
    prefix = f"{kind}:"
    return sorted(artifact[len(prefix):]
                  for artifact, state in result.provenance.items()
                  if artifact.startswith(prefix) and state == "regenerated")


class TestNoChange:
    def test_everything_reused(self):
        result = run_incremental(list(ICE_LAB_SPECS))
        assert set(result.provenance.values()) == {"reused"}
        assert len(result.manifests) == 14


class TestDriverParameterChange:
    def test_only_affected_workcell_regenerated(self):
        specs = edited_specs(
            lambda by: by["emco"].driver.parameters.update(
                {"ip": "10.197.88.88"}))
        result = run_incremental(specs)
        assert regenerated(result, "machine") == ["emco"]
        manifests = regenerated(result, "manifest")
        # emco sits on workcell02's server, which embeds the driver
        # connection parameters
        assert "workcell02-opcua-server.yaml" in manifests
        # client configs carry topics/endpoints, not driver parameters,
        # so the bridges do not redeploy for an IP change
        assert not any(name.startswith("opcua-client")
                       for name in manifests)
        # untouched workcells keep their manifests byte-identical
        assert result.provenance[
            "manifest:workcell05-opcua-server.yaml"] == "reused"

    def test_summary(self):
        specs = edited_specs(
            lambda by: by["emco"].driver.parameters.update(
                {"ip": "10.197.88.88"}))
        summary = run_incremental(specs).summary()
        assert summary["manifest_files"] == 14
        assert summary["artifacts_regenerated"] == 3
        assert summary["artifacts_regenerated"] \
            + summary["artifacts_reused"] == 38


class TestVariableAddition:
    def test_new_variable_regenerates_server_and_client(self):
        from repro.isa95.levels import VariableSpec
        specs = edited_specs(
            lambda by: by["warehouse"].categories["Storage"].append(
                VariableSpec("humidity", "Real")))
        result = run_incremental(specs)
        assert regenerated(result, "machine") == ["warehouse"]
        manifests = regenerated(result, "manifest")
        assert "workcell05-opcua-server.yaml" in manifests
        assert any(name.startswith("opcua-client") for name in manifests)
        # the result reflects the new inventory
        config = result.machine_configs["warehouse"]
        assert any(v["name"] == "humidity" for v in config["variables"])


class TestGroupMembershipChange:
    def test_grown_machine_can_move_groups(self):
        from repro.isa95.levels import VariableSpec
        # grow fiam from 15 to 95 points: FFD packing changes
        specs = edited_specs(
            lambda by: by["fiam"].categories["Tightening"].extend(
                VariableSpec(f"extra_{i}", "Real") for i in range(80)))
        result = run_incremental(specs)
        assert "fiam" in regenerated(result, "machine")
        regenerated_clients = [name for name in
                               regenerated(result, "manifest")
                               if name.startswith("opcua-client")]
        assert regenerated_clients  # at least the affected groups


class TestMachineRemoval:
    def test_removed_machine_detected(self):
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS
                 if s.name != "spea"]
        result = run_incremental(specs)
        assert "machine:spea" not in result.provenance
        assert "spea" not in result.machine_configs
        assert "workcell01-opcua-server.yaml" not in result.manifests
