"""Failure injection: node failures, pod deletion, self-healing.

The strongest check is on the full ICE-lab deployment: kill a node,
heal, and require the factory to be fully functional again (every
variable flowing, every service invocable).
"""

import json

import pytest

from repro.icelab import run_icelab
from repro.k8s import Cluster, ClusterError, heal
from repro.pipeline import smoke_test

from test_resources import deployment_manifest


def configmap_manifest(name="web-config"):
    return {
        "kind": "ConfigMap",
        "metadata": {"name": name, "namespace": "test"},
        "data": {"config.json": json.dumps({})},
    }


class TestNodeFailureBasics:
    def make_cluster(self):
        cluster = Cluster(nodes=2)
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=2))
        return cluster

    def test_fail_node_evicts_pods(self):
        cluster = self.make_cluster()
        victim = cluster.running_pods()[0].node
        evicted = cluster.fail_node(victim)
        assert evicted
        assert all(p.node != victim for p in cluster.running_pods())

    def test_reconcile_reschedules_on_surviving_nodes(self):
        cluster = self.make_cluster()
        victim = cluster.running_pods()[0].node
        cluster.fail_node(victim)
        cluster.reconcile_all()
        assert len(cluster.pods_for("web", "test")) == 2
        assert all(p.node != victim for p in cluster.running_pods())

    def test_unknown_node_rejected(self):
        cluster = self.make_cluster()
        with pytest.raises(ClusterError):
            cluster.fail_node("node-99")

    def test_delete_pod_and_reconcile(self):
        cluster = self.make_cluster()
        pod = cluster.running_pods()[0]
        cluster.delete_pod(pod)
        assert len(cluster.pods_for("web", "test")) == 1
        cluster.reconcile_all()
        assert len(cluster.pods_for("web", "test")) == 2

    def test_all_nodes_down_leaves_pods_pending(self):
        cluster = self.make_cluster()
        for node in cluster.nodes:
            cluster.fail_node(node.name)
        cluster.reconcile_all()
        assert cluster.stats()["pods_running"] == 0
        assert cluster.stats()["pods_pending"] == 2


class TestFactorySelfHealing:
    @pytest.fixture
    def deployed(self):
        result = run_icelab(smoke_steps=3, seed=3)
        yield result
        result.shutdown()

    def test_node_failure_then_heal_restores_function(self, deployed):
        cluster = deployed.cluster
        victim = cluster.running_pods()[0].node
        cluster.fail_node(victim)
        assert cluster.stats()["pods_running"] < 14
        outcome = heal(cluster)
        assert cluster.stats()["pods_running"] == 14
        assert cluster.stats()["pods_failed"] == 0
        assert outcome["running"] == 14
        # the factory is functional again, end to end
        smoke = smoke_test(deployed, steps=3)
        assert smoke.all_ok, smoke

    def test_server_pod_loss_cascades_to_bridges(self, deployed):
        cluster = deployed.cluster
        server_pod = next(p for p in cluster.running_pods()
                          if p.labels.get("component") == "opcua-server")
        cluster.delete_pod(server_pod)
        outcome = heal(cluster)
        assert outcome["restarted_downstream"] >= 8  # 4 clients + 4 hist
        smoke = smoke_test(deployed, steps=3)
        assert smoke.all_ok, smoke

    def test_historian_pod_loss_heals_without_cascade(self, deployed):
        cluster = deployed.cluster
        historian_pod = next(p for p in cluster.running_pods()
                             if p.labels.get("component") == "historian")
        cluster.delete_pod(historian_pod)
        outcome = heal(cluster)
        assert outcome["restarted_downstream"] == 0
        assert cluster.stats()["pods_running"] == 14
        smoke = smoke_test(deployed, steps=3)
        assert smoke.all_ok, smoke
