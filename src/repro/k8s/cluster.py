"""The simulated Kubernetes cluster.

Nodes with CPU/memory capacity, an apply-based API, a deployment
controller that stamps out pods, a least-loaded scheduler, and service
endpoint resolution. Pods transition ``Pending -> Running`` when
scheduled (and, if a component factory is installed, once their
software component starts).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .resources import (ConfigMap, Deployment, Metadata, Pod, Service,
                        resource_from_manifest)


class ClusterError(RuntimeError):
    pass


@dataclass
class ClusterNode:
    name: str
    cpu_capacity_m: int = 4000
    memory_capacity_mi: int = 8192
    pods: list[Pod] = field(default_factory=list)
    offline: bool = False

    @property
    def cpu_used_m(self) -> int:
        return sum(p.cpu_request_m for p in self.pods)

    @property
    def memory_used_mi(self) -> int:
        return sum(p.memory_request_mi for p in self.pods)

    def fits(self, pod: Pod) -> bool:
        if self.offline:
            return False
        return (self.cpu_used_m + pod.cpu_request_m <= self.cpu_capacity_m
                and self.memory_used_mi + pod.memory_request_mi
                <= self.memory_capacity_mi)


#: Builds the simulated software for a pod; returns an object with
#: optional .start() / .stop(). Receives (pod, component_kind, config).
ComponentFactory = Callable[[Pod, str, dict | None], object]


def _deployment_spec_changed(old: Deployment, new: Deployment) -> bool:
    """Pod-template-relevant differences (replica-count changes alone
    are handled by plain reconciliation)."""
    def signature(deployment: Deployment):
        return (
            deployment.pod_labels,
            [(c.name, c.image, c.ports, tuple(sorted(c.env.items())),
              c.cpu_request_m, c.memory_request_mi)
             for c in deployment.containers],
            deployment.volumes,
        )
    return signature(old) != signature(new)


class Cluster:
    """A tiny in-memory Kubernetes."""

    def __init__(self, *, nodes: int = 3, cpu_per_node_m: int = 4000,
                 memory_per_node_mi: int = 8192,
                 component_factory: ComponentFactory | None = None):
        self.nodes = [ClusterNode(f"node-{i + 1}", cpu_per_node_m,
                                  memory_per_node_mi)
                      for i in range(nodes)]
        self.config_maps: dict[tuple[str, str], ConfigMap] = {}
        self.deployments: dict[tuple[str, str], Deployment] = {}
        self.services: dict[tuple[str, str], Service] = {}
        self.pods: dict[tuple[str, str], Pod] = {}
        self.component_factory = component_factory
        self.events: list[str] = []
        self._pod_serial = itertools.count(1)

    # -- API surface --------------------------------------------------------

    def apply_manifest(self, manifest: dict) -> object:
        resource = resource_from_manifest(manifest)
        if isinstance(resource, ConfigMap):
            previous = self.config_maps.get(resource.metadata.key)
            self.config_maps[resource.metadata.key] = resource
            self._record(f"configmap/{resource.metadata.name} applied")
            if previous is not None and previous.data != resource.data:
                # a changed ConfigMap rolls every deployment mounting it
                self._roll_mounting_deployments(resource)
        elif isinstance(resource, Deployment):
            previous = self.deployments.get(resource.metadata.key)
            self.deployments[resource.metadata.key] = resource
            self._record(f"deployment/{resource.metadata.name} applied")
            if previous is not None and _deployment_spec_changed(previous,
                                                                 resource):
                self._restart_deployment_pods(resource)
            self._reconcile_deployment(resource)
        elif isinstance(resource, Service):
            self.services[resource.metadata.key] = resource
            self._record(f"service/{resource.metadata.name} applied")
        return resource

    def _roll_mounting_deployments(self, config_map: ConfigMap) -> None:
        for deployment in list(self.deployments.values()):
            if deployment.metadata.namespace != \
                    config_map.metadata.namespace:
                continue
            if config_map.metadata.name in deployment.config_map_names():
                self._record(
                    f"deployment/{deployment.metadata.name} rolling "
                    f"(configmap {config_map.metadata.name} changed)")
                self._restart_deployment_pods(deployment)
                self._reconcile_deployment(deployment)

    def _restart_deployment_pods(self, deployment: Deployment) -> None:
        for pod in self.pods_for(deployment.metadata.name,
                                 deployment.metadata.namespace):
            self.delete_pod(pod)

    # -- deployment controller ---------------------------------------------------

    def _reconcile_deployment(self, deployment: Deployment) -> None:
        existing = [p for p in self.pods.values()
                    if p.owner == deployment.metadata.name
                    and p.metadata.namespace == deployment.metadata.namespace]
        missing = deployment.replicas - len(existing)
        for _ in range(missing):
            self._create_pod(deployment)
        for pod in existing[deployment.replicas:]:
            self.delete_pod(pod)

    def _create_pod(self, deployment: Deployment) -> Pod:
        name = f"{deployment.metadata.name}-{next(self._pod_serial):04d}"
        pod = Pod(
            metadata=Metadata(name=name,
                              namespace=deployment.metadata.namespace,
                              labels=dict(deployment.pod_labels)),
            labels=dict(deployment.pod_labels),
            containers=list(deployment.containers),
            owner=deployment.metadata.name,
        )
        pod.config = self._mounted_config(deployment)
        self.pods[pod.metadata.key] = pod
        self._schedule(pod)
        return pod

    def _mounted_config(self, deployment: Deployment) -> dict | None:
        import json
        for config_map_name in deployment.config_map_names():
            key = (deployment.metadata.namespace, config_map_name)
            config_map = self.config_maps.get(key)
            if config_map is None:
                raise ClusterError(
                    f"deployment {deployment.metadata.name!r} mounts "
                    f"missing ConfigMap {config_map_name!r}")
            raw = config_map.data.get("config.json")
            if raw is not None:
                try:
                    return json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ClusterError(
                        f"ConfigMap {config_map_name!r} holds invalid "
                        f"JSON: {exc}") from exc
        return None

    # -- scheduler -------------------------------------------------------------------

    def _schedule(self, pod: Pod) -> None:
        candidates = [n for n in self.nodes if n.fits(pod)]
        if not candidates:
            self._record(f"pod/{pod.metadata.name} unschedulable")
            pod.phase = "Pending"
            return
        node = min(candidates, key=lambda n: (n.cpu_used_m, n.name))
        node.pods.append(pod)
        pod.node = node.name
        self._start_component(pod)

    def _start_component(self, pod: Pod) -> None:
        if self.component_factory is None:
            pod.phase = "Running"
            self._record(f"pod/{pod.metadata.name} running on {pod.node}")
            return
        kind = pod.labels.get("component", "")
        try:
            component = self.component_factory(pod, kind, pod.config)
            start = getattr(component, "start", None)
            if callable(start):
                start()
            pod.component = component
            pod.phase = "Running"
            self._record(f"pod/{pod.metadata.name} running on {pod.node}")
        except Exception as exc:  # component crash -> CrashLoopBackOff-ish
            pod.phase = "Failed"
            self._record(f"pod/{pod.metadata.name} failed: {exc}")

    def delete_pod(self, pod: Pod) -> None:
        """Stop and delete *pod* (kubectl delete pod); its deployment
        re-creates it on the next reconcile."""
        component = pod.component
        stop = getattr(component, "stop", None)
        if callable(stop):
            stop()
        for node in self.nodes:
            if pod in node.pods:
                node.pods.remove(pod)
        self.pods.pop(pod.metadata.key, None)
        self._record(f"pod/{pod.metadata.name} deleted")

    # -- failure injection / healing ------------------------------------------------------

    def fail_node(self, node_name: str) -> list[str]:
        """Take a node offline; its pods are stopped and deleted.

        Returns the names of the evicted pods. Deployments are NOT
        reconciled automatically — call :meth:`reconcile_all` (or
        :func:`repro.k8s.deploy.heal`) to reschedule.
        """
        node = next((n for n in self.nodes if n.name == node_name), None)
        if node is None:
            raise ClusterError(f"no node named {node_name!r}")
        node.offline = True
        evicted = [p.metadata.name for p in list(node.pods)]
        for pod in list(node.pods):
            self.delete_pod(pod)
        self._record(f"node/{node_name} failed; evicted {len(evicted)} "
                     f"pod(s)")
        return evicted

    def reconcile_all(self, *, order=None) -> None:
        """Bring every deployment back to its replica count.

        *order* is an optional key function over deployments controlling
        the re-creation order (servers before the clients that dial
        them).
        """
        deployments = list(self.deployments.values())
        if order is not None:
            deployments.sort(key=order)
        for deployment in deployments:
            self._reconcile_deployment(deployment)

    def restart_pods(self, *, component: str | None = None) -> int:
        """Delete (and thus restart via reconcile) pods of a component
        kind; returns how many were deleted."""
        doomed = [p for p in self.pods.values()
                  if component is None
                  or p.labels.get("component") == component]
        for pod in doomed:
            self.delete_pod(pod)
        return len(doomed)

    # -- queries --------------------------------------------------------------------------

    def pods_for(self, deployment_name: str,
                 namespace: str = "default") -> list[Pod]:
        return [p for p in self.pods.values()
                if p.owner == deployment_name
                and p.metadata.namespace == namespace]

    def endpoints(self, service_name: str,
                  namespace: str = "default") -> list[Pod]:
        service = self.services.get((namespace, service_name))
        if service is None:
            raise ClusterError(f"no service {service_name!r} in "
                               f"{namespace!r}")
        return [p for p in self.pods.values()
                if p.metadata.namespace == namespace
                and all(p.labels.get(k) == v
                        for k, v in service.selector.items())]

    def running_pods(self) -> list[Pod]:
        return [p for p in self.pods.values() if p.phase == "Running"]

    def pending_pods(self) -> list[Pod]:
        return [p for p in self.pods.values() if p.phase == "Pending"]

    def failed_pods(self) -> list[Pod]:
        return [p for p in self.pods.values() if p.phase == "Failed"]

    def shutdown(self) -> None:
        for pod in list(self.pods.values()):
            self.delete_pod(pod)

    def stats(self) -> dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "deployments": len(self.deployments),
            "services": len(self.services),
            "config_maps": len(self.config_maps),
            "pods_running": len(self.running_pods()),
            "pods_pending": len(self.pending_pods()),
            "pods_failed": len(self.failed_pods()),
        }

    def _record(self, event: str) -> None:
        self.events.append(event)
