"""Cluster simulator tests: controller, scheduler, services, components."""

import json

import pytest

from repro.k8s import Cluster, ClusterError, deploy_manifests

from fixtures import emit_documents
from test_resources import deployment_manifest  # same directory


def configmap_manifest(name="web-config", config=None):
    return {
        "kind": "ConfigMap",
        "metadata": {"name": name, "namespace": "test"},
        "data": {"config.json": json.dumps(config or {"hello": 1})},
    }


class TestDeploymentController:
    def test_pods_created_per_replicas(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=3))
        assert len(cluster.pods_for("web", "test")) == 3

    def test_pods_receive_mounted_config(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest(config={"x": 42}))
        cluster.apply_manifest(deployment_manifest())
        pod = cluster.pods_for("web", "test")[0]
        assert pod.config == {"x": 42}

    def test_missing_configmap_fails(self):
        cluster = Cluster()
        with pytest.raises(ClusterError, match="missing ConfigMap"):
            cluster.apply_manifest(deployment_manifest())

    def test_invalid_configmap_json_fails(self):
        cluster = Cluster()
        manifest = configmap_manifest()
        manifest["data"]["config.json"] = "{broken"
        cluster.apply_manifest(manifest)
        with pytest.raises(ClusterError, match="invalid"):
            cluster.apply_manifest(deployment_manifest())

    def test_scale_down_deletes_pods(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=3))
        cluster.apply_manifest(deployment_manifest(replicas=1))
        assert len(cluster.pods_for("web", "test")) == 1


class TestScheduler:
    def test_pods_spread_by_load(self):
        cluster = Cluster(nodes=2, cpu_per_node_m=1000)
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=2))
        nodes = {p.node for p in cluster.running_pods()}
        assert len(nodes) == 2  # least-loaded spreads them

    def test_unschedulable_pod_stays_pending(self):
        cluster = Cluster(nodes=1, cpu_per_node_m=150)
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=3))
        stats = cluster.stats()
        assert stats["pods_running"] == 1
        assert stats["pods_pending"] == 2

    def test_memory_capacity_respected(self):
        cluster = Cluster(nodes=1, memory_per_node_mi=200)
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=3))
        assert cluster.stats()["pods_running"] == 1


class TestServices:
    def test_endpoints_resolve_by_selector(self):
        cluster = Cluster()
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=2))
        cluster.apply_manifest({
            "kind": "Service",
            "metadata": {"name": "web", "namespace": "test"},
            "spec": {"selector": {"app": "web"},
                     "ports": [{"port": 4840}]},
        })
        assert len(cluster.endpoints("web", "test")) == 2

    def test_unknown_service(self):
        cluster = Cluster()
        with pytest.raises(ClusterError):
            cluster.endpoints("ghost")


class TestComponentFactory:
    def test_components_started_and_stopped(self):
        events = []

        class Recorder:
            def __init__(self, pod_name):
                self.pod_name = pod_name

            def start(self):
                events.append(("start", self.pod_name))

            def stop(self):
                events.append(("stop", self.pod_name))

        cluster = Cluster(component_factory=lambda pod, kind, config:
                          Recorder(pod.metadata.name))
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=1))
        assert [e[0] for e in events] == ["start"]
        cluster.shutdown()
        assert [e[0] for e in events] == ["start", "stop"]

    def test_component_crash_marks_pod_failed(self):
        def exploding_factory(pod, kind, config):
            raise RuntimeError("boom")

        cluster = Cluster(component_factory=exploding_factory)
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest(replicas=1))
        assert cluster.stats()["pods_failed"] == 1
        assert any("boom" in e for e in cluster.events)

    def test_component_kind_from_labels(self):
        seen = []
        cluster = Cluster(component_factory=lambda pod, kind, config:
                          seen.append(kind))
        cluster.apply_manifest(configmap_manifest())
        cluster.apply_manifest(deployment_manifest())
        assert seen == ["opcua-server", "opcua-server"]


class TestApplyYaml:
    def test_yaml_text_applied(self):
        cluster = Cluster()
        text = emit_documents([configmap_manifest(),
                               deployment_manifest(replicas=1)])
        applied = deploy_manifests(cluster, {"app.yaml": text})
        assert len(applied) == 2
        assert cluster.stats()["pods_running"] == 1
