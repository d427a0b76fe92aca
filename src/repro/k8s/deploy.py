"""Deploying generated manifests onto the simulated cluster.

:func:`make_component_factory` wires pods to the actual simulated
software (:mod:`repro.som.components`); :func:`deploy_manifests` applies
ConfigMaps first (deployments mount them), then everything else — the
order ``kubectl apply -f dir/`` would need too.
"""

from __future__ import annotations

from ..faults import fault_point
from ..obs import METRICS, span as _span
from ..resilience import RetryPolicy, retry_call
from ..som.components import (FactoryWorld, HistorianComponent,
                              UaBrokerBridgeComponent,
                              WorkcellServerComponent)
from ..templates.engine import k8s_name
from ..yamlgen import parse_documents
from .cluster import Cluster, ClusterError
from .resources import Deployment, Pod

_DOCUMENTS_APPLIED = METRICS.counter("k8s.documents_applied")
_DEPLOYS = METRICS.counter("k8s.deployments_run")
_APPLY_RETRIES = METRICS.counter("k8s.apply_retries")

#: Apply steps retry transient I/O failures (the ``k8s.apply`` fault
#: site injects them in chaos runs) with a short deterministic backoff
#: — a flaky apply must not abort a whole rollout.
_APPLY_RETRY = RetryPolicy(max_attempts=4, base_delay=0.001,
                           max_delay=0.01, jitter=0.0)

_COMPONENT_CLASSES = {
    "opcua-server": WorkcellServerComponent,
    "opcua-client": UaBrokerBridgeComponent,
    "historian": HistorianComponent,
}


def make_component_factory(world: FactoryWorld):
    """A cluster component factory bound to one factory world."""

    def factory(pod: Pod, kind: str, config: dict | None):
        cls = _COMPONENT_CLASSES.get(kind)
        if cls is None:
            raise ClusterError(
                f"pod {pod.metadata.name!r} has unknown component kind "
                f"{kind!r}")
        if config is None:
            raise ClusterError(
                f"pod {pod.metadata.name!r} has no mounted config.json")
        return cls(config, world)

    return factory


#: Start order within one rollout: servers must listen before the
#: bridge clients connect, and historians only consume broker traffic.
_COMPONENT_ORDER = {"opcua-server": 0, "opcua-client": 1, "historian": 2}


def _apply_order(document: dict) -> tuple[int, int, str]:
    kind = document.get("kind", "")
    kind_rank = 0 if kind == "ConfigMap" else (1 if kind == "Service" else 2)
    labels = (document.get("metadata", {}) or {}).get("labels", {}) or {}
    component_rank = _COMPONENT_ORDER.get(labels.get("component", ""), 3)
    name = (document.get("metadata", {}) or {}).get("name", "")
    return (kind_rank, component_rank, name)


def _deployment_order(deployment: Deployment) -> tuple[int, str]:
    """Re-creation order: servers before the clients that dial them."""
    component = deployment.pod_labels.get("component", "")
    return (_COMPONENT_ORDER.get(component, 3), deployment.metadata.name)


def heal(cluster: Cluster) -> dict[str, int]:
    """Self-heal after a failure: reschedule missing pods in dependency
    order, cascading restarts to downstream components.

    If any OPC UA *server* pod is missing (its endpoint went away), the
    bridge clients and historians hold dead sessions/subscriptions, so
    they are restarted too — the behaviour a liveness probe gives a real
    deployment.
    """
    missing_servers = any(
        len(cluster.pods_for(d.metadata.name, d.metadata.namespace))
        < d.replicas
        for d in cluster.deployments.values()
        if d.pod_labels.get("component") == "opcua-server")
    restarted_downstream = 0
    if missing_servers:
        restarted_downstream += cluster.restart_pods(
            component="opcua-client")
        restarted_downstream += cluster.restart_pods(component="historian")
    before = len(cluster.running_pods())
    cluster.reconcile_all(order=_deployment_order)
    after = len(cluster.running_pods())
    return {"rescheduled": after - before + restarted_downstream,
            "restarted_downstream": restarted_downstream,
            "running": after}


def apply_incremental(cluster: Cluster, result) -> dict[str, object]:
    """Roll a :class:`~repro.codegen.GenerationResult` onto *cluster*.

    Applies the manifests whose provenance is ``"regenerated"``, plus
    any whose deployment the cluster does not run yet (a cold result
    replayed from the artifact cache reports its manifests reused).
    Changed ConfigMaps roll their deployments automatically; if an
    OPC UA *server* that was already running rolled, downstream
    bridges/historians are restarted (they hold sessions into the old
    server instance). A first deploy therefore restarts nothing.
    """
    running = {deployment.metadata.name
               for deployment in cluster.deployments.values()}
    to_apply = {
        name: text for name, text in result.manifests.items()
        if result.provenance.get(f"manifest:{name}") == "regenerated"
        or k8s_name(name.removesuffix(".yaml")) not in running}
    applied = deploy_manifests(cluster, to_apply) if to_apply else []
    restarted = 0
    if any(isinstance(resource, Deployment)
           and resource.pod_labels.get("component") == "opcua-server"
           and resource.metadata.name in running
           for resource in applied):
        restarted += cluster.restart_pods(component="opcua-client")
        restarted += cluster.restart_pods(component="historian")
    cluster.reconcile_all(order=_deployment_order)
    return {"applied": len(applied),
            "manifests": sorted(to_apply),
            "restarted_downstream": restarted,
            "running": len(cluster.running_pods())}


def _apply_document(cluster: Cluster, document: dict) -> object:
    """One apply step, retried through transient (injected) I/O faults."""

    def attempt():
        fault_point("k8s.apply")
        return cluster.apply_manifest(document)

    return retry_call(
        attempt, policy=_APPLY_RETRY, retry_on=(OSError,),
        describe="k8s.apply",
        on_retry=lambda *_: _APPLY_RETRIES.inc())


def deploy_manifests(cluster: Cluster,
                     manifests: dict[str, str]) -> list[object]:
    """Apply all generated YAML files in dependency order.

    ConfigMaps first (deployments mount them), then Services, then
    Deployments ordered server -> client -> historian so each component
    finds its upstream already running.
    """
    with _span("deploy") as s:
        documents: list[dict] = []
        for filename in sorted(manifests):
            for document in parse_documents(manifests[filename]):
                if document is not None:
                    documents.append(document)
        applied = [_apply_document(cluster, document)
                   for document in sorted(documents, key=_apply_order)]
        _DEPLOYS.inc()
        _DOCUMENTS_APPLIED.inc(len(applied))
        if s.enabled:
            s.set("manifests", len(manifests))
            s.set("documents", len(applied))
    return applied
