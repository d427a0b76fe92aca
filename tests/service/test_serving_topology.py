"""The serving tier's dogfood loop: SysML model -> manifests -> cluster.

The sharded tier describes itself the way the paper describes factory
cells — a SysML v2 package — and derives its own Kubernetes manifests
from the same parameters. These tests hold that loop to the repo's own
front end (the model must parse and validate), to the simulated cluster
(the manifests must actually schedule), and to determinism (two
renderings are byte-identical).
"""

import pytest

from fixtures import emit_documents

from repro.fingerprint import ROUTER_RING_SALT
from repro.k8s import Cluster
from repro.service import (DEFAULT_VNODES, HashRing,
                           deploy_serving_topology,
                           serving_topology_manifests,
                           serving_topology_sysml)
from repro.service.topology import ROUTER_PORT, WORKER_BASE_PORT
from repro.sysml import load_model, validate_model
from repro.yamlgen import parse_documents


class TestSysmlModel:
    def test_model_parses_and_validates_with_our_own_front_end(self):
        model = load_model(serving_topology_sysml(4))
        assert validate_model(model).ok

    def test_model_names_router_and_every_worker(self):
        source = serving_topology_sysml(["alpha", "beta", "gamma"])
        model = load_model(source)
        names = {element.name for element in model.all_elements()
                 if element.name}
        assert {"ServingTier", "ShardRouter", "ConfigWorker",
                "router", "alpha", "beta", "gamma"} <= names

    def test_model_carries_the_ring_parameters(self):
        source = serving_topology_sysml(2, vnodes=64)
        assert "vnodes : Integer = 64" in source
        assert ROUTER_RING_SALT in source
        assert str(ROUTER_PORT) in source

    def test_workers_get_sequential_shards_and_ports(self):
        source = serving_topology_sysml(3)
        for index in range(3):
            assert f":>> shard = {index};" in source
            assert f":>> port = {WORKER_BASE_PORT + index};" in source

    def test_router_connects_to_every_worker(self):
        source = serving_topology_sysml(["a", "b"])
        assert "connect router to a;" in source
        assert "connect router to b;" in source


class TestManifests:
    def test_configmap_comes_first_and_carries_the_ring(self):
        manifests = serving_topology_manifests(3, vnodes=64)
        head = manifests[0]
        assert head["kind"] == "ConfigMap"
        assert head["data"]["ring.salt"] == ROUTER_RING_SALT
        assert head["data"]["ring.vnodes"] == "64"
        assert head["data"]["ring.members"] == \
            ",".join(HashRing(["worker0", "worker1", "worker2"]).members)

    def test_each_worker_is_a_single_replica_deployment(self):
        # stable identities: the ring hashes worker *names*, so the
        # tier is N one-replica Deployments, never one N-replica one
        manifests = serving_topology_manifests(4)
        deployments = [m for m in manifests if m["kind"] == "Deployment"]
        assert len(deployments) == 5  # 4 workers + router
        assert all(m["spec"]["replicas"] == 1 for m in deployments)
        worker_names = {m["metadata"]["name"] for m in deployments
                       if m["metadata"]["labels"].get("role") == "worker"}
        assert worker_names == {f"worker{i}" for i in range(4)}

    def test_every_deployment_gets_a_matching_service(self):
        manifests = serving_topology_manifests(2)
        by_kind = {}
        for manifest in manifests:
            by_kind.setdefault(manifest["kind"], set()).add(
                manifest["metadata"]["name"])
        assert by_kind["Deployment"] == by_kind["Service"]

    def test_rendering_is_deterministic(self):
        assert serving_topology_manifests(4) \
            == serving_topology_manifests(4)
        assert serving_topology_sysml(4) == serving_topology_sysml(4)

    def test_yaml_round_trips_through_our_parser(self):
        manifests = serving_topology_manifests(3)
        assert parse_documents(emit_documents(manifests)) == manifests

    def test_invalid_worker_specs_are_rejected(self):
        with pytest.raises(ValueError):
            serving_topology_manifests(0)
        with pytest.raises(ValueError):
            serving_topology_manifests([])
        with pytest.raises(ValueError):
            serving_topology_manifests(["dup", "dup"])
        with pytest.raises(ValueError):
            serving_topology_sysml(0)


class TestClusterDeploy:
    def test_topology_schedules_on_the_simulated_cluster(self):
        cluster = Cluster()
        applied = deploy_serving_topology(cluster, 4)
        assert len(applied) == 1 + 2 * 4 + 2  # configmap + per-worker + router
        for name in [f"worker{i}" for i in range(4)] + ["router"]:
            pods = cluster.pods_for(name, "repro-serving")
            assert len(pods) == 1, name

    def test_worker_pods_carry_their_shard_identity(self):
        cluster = Cluster()
        deploy_serving_topology(cluster, 2)
        pods = cluster.pods_for("worker1", "repro-serving")
        assert pods[0].labels["shard"] == "worker1"
