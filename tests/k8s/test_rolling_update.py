"""Rolling updates and live incremental redeployment.

The strongest scenario: a running ICE lab gets a *model* change (a new
warehouse variable); the incremental pipeline regenerates the affected
manifests; applying them rolls only the touched components; and the new
variable then flows end to end into the database.
"""

import copy
import json

import pytest

from repro.codegen import IncrementalEngine, PipelineOptions
from repro.icelab import run_icelab
from repro.icelab.model_gen import icelab_sources
from repro.isa95.levels import VariableSpec
from repro.k8s import Cluster, apply_incremental
from repro.machines.specs import ICE_LAB_SPECS

from test_resources import deployment_manifest


def configmap_manifest(name="web-config", payload=None):
    return {
        "kind": "ConfigMap",
        "metadata": {"name": name, "namespace": "test"},
        "data": {"config.json": json.dumps(payload or {"v": 1})},
    }


class TestRollingUpdateMechanics:
    def test_configmap_change_rolls_pods(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest(payload={"v": 1}))
        cluster.apply_manifest(deployment_manifest(replicas=2))
        old_names = {p.metadata.name for p in cluster.running_pods()}
        cluster.apply_manifest(configmap_manifest(payload={"v": 2}))
        new_pods = cluster.running_pods()
        assert len(new_pods) == 2
        assert {p.metadata.name for p in new_pods}.isdisjoint(old_names)
        assert all(p.config == {"v": 2} for p in new_pods)

    def test_unchanged_configmap_does_not_roll(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest(payload={"v": 1}))
        cluster.apply_manifest(deployment_manifest(replicas=2))
        old_names = {p.metadata.name for p in cluster.running_pods()}
        cluster.apply_manifest(configmap_manifest(payload={"v": 1}))
        assert {p.metadata.name
                for p in cluster.running_pods()} == old_names

    def test_deployment_image_change_rolls_pods(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=1))
        old = cluster.running_pods()[0].metadata.name
        changed = deployment_manifest(replicas=1)
        template_spec = changed["spec"]["template"]["spec"]
        template_spec["containers"][0]["image"] = "img:2"
        cluster.apply_manifest(changed)
        pods = cluster.running_pods()
        assert len(pods) == 1
        assert pods[0].metadata.name != old
        assert pods[0].containers[0].image == "img:2"

    def test_replica_change_alone_does_not_restart(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=1))
        survivor = cluster.running_pods()[0].metadata.name
        cluster.apply_manifest(deployment_manifest(replicas=3))
        names = {p.metadata.name for p in cluster.running_pods()}
        assert survivor in names
        assert len(names) == 3


class TestLiveModelChange:
    @pytest.fixture(scope="class")
    def deployed(self):
        result = run_icelab(smoke_steps=3, seed=31)
        yield result
        result.shutdown()

    def test_new_variable_flows_after_incremental_redeploy(self, deployed):
        # 1. edit the model: warehouse gains a humidity sensor
        specs = [copy.deepcopy(s) for s in ICE_LAB_SPECS]
        warehouse_spec = next(s for s in specs if s.name == "warehouse")
        warehouse_spec.categories["Storage"].append(
            VariableSpec("humidity", "Real", unit="%"))
        engine = IncrementalEngine(PipelineOptions(namespace="icelab"))
        engine.generate(*icelab_sources())
        result = engine.generate(*icelab_sources(specs))
        assert sorted(artifact for artifact, state
                      in result.provenance.items()
                      if artifact.startswith("machine:")
                      and state == "regenerated") == ["machine:warehouse"]

        # 2. the plant itself gains the sensor (new machine firmware)
        from repro.machines import MachineSimulator
        deployed.world.simulators["warehouse"] = MachineSimulator(
            warehouse_spec, seed=77)

        # 3. apply only the regenerated manifests
        outcome = apply_incremental(deployed.cluster, result)
        assert outcome["manifests"] == sorted(
            artifact.split(":", 1)[1]
            for artifact, state in result.provenance.items()
            if artifact.startswith("manifest:") and state == "regenerated")
        assert outcome["running"] == 14
        assert outcome["restarted_downstream"] >= 8  # server rolled

        # 4. the new variable reaches the database
        deployed.world.step()
        series = deployed.world.store.series(
            "machine_data",
            tags={"machine": "warehouse", "variable": "humidity"})
        assert series, "humidity never reached the store"

    def test_untouched_machines_kept_flowing(self, deployed):
        before = deployed.world.store.stats()["points"]
        deployed.world.step()
        after = deployed.world.store.stats()["points"]
        assert after > before
