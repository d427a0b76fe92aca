"""The sharded serving tier described in its own SysML v2 model.

The paper's methodology — model the system in SysML v2, derive the
deployable configuration automatically — applies to *this repo's own
serving infrastructure* too. :func:`serving_topology_sysml` renders the
router/worker topology as a SysML v2 package (it parses and validates
with the repo's own front end), and
:func:`serving_topology_manifests` derives the matching Kubernetes
manifests: one ConfigMap carrying the ring parameters, one Deployment +
Service per worker (workers need *stable identities* — the ring hashes
their names — so they are N single-replica Deployments, not one
N-replica Deployment), and one router Deployment + front Service.
:func:`deploy_serving_topology` rolls the whole thing onto the
simulated cluster (:mod:`repro.k8s`), ConfigMaps first.

This is the dogfood loop: the same model → configuration → deployment
path the factory machines take, pointed at the serving tier itself.
"""

from __future__ import annotations

from ..fingerprint import ROUTER_RING_SALT
from .ring import DEFAULT_VNODES, HashRing

#: Base port the emitted worker Services advertise (purely nominal in
#: the simulated cluster; real workers bind ephemeral ports).
WORKER_BASE_PORT = 9000
ROUTER_PORT = 8737


def _worker_names(workers) -> list[str]:
    if isinstance(workers, int):
        if workers < 1:
            raise ValueError("need at least one worker")
        return [f"worker{i}" for i in range(workers)]
    names = [str(name) for name in workers]
    if not names:
        raise ValueError("need at least one worker")
    if len(set(names)) != len(names):
        raise ValueError("worker names must be unique")
    return names


def serving_topology_sysml(workers=4, *,
                           vnodes: int = DEFAULT_VNODES) -> str:
    """The sharded tier as a SysML v2 textual-notation document.

    *workers* is a count or an iterable of worker names. The document
    parses with :func:`repro.sysml.load_model` and validates cleanly —
    there is a conformance test holding us to that.
    """
    names = _worker_names(workers)
    lines = [
        "package ServingTier {",
        "    doc /* The repro sharded configuration-serving tier:",
        "           a consistent-hash router in front of "
        f"{len(names)} worker(s). */",
        "    part def ConfigWorker {",
        "        doc /* One repro serve process: the full single-node",
        "               service stack on its own port. */",
        "        attribute shard : Integer;",
        "        attribute port : Integer;",
        "        port def ServeHTTP {",
        "            attribute path : String;",
        "        }",
        "        port http : ServeHTTP;",
        "    }",
        "    part def ShardRouter {",
        "        doc /* Consistent-hash front end; forwards each",
        "               request to the worker owning its routing",
        "               key. */",
        f"        attribute vnodes : Integer = {vnodes};",
        f"        attribute ringSalt : String = \"{ROUTER_RING_SALT}\";",
        f"        attribute port : Integer = {ROUTER_PORT};",
        "        port def FrontHTTP {",
        "            attribute path : String;",
        "        }",
        "        port front : FrontHTTP;",
        "    }",
        "    part router : ShardRouter;",
    ]
    for index, name in enumerate(names):
        lines += [
            f"    part {name} : ConfigWorker {{",
            f"        attribute :>> shard = {index};",
            f"        attribute :>> port = {WORKER_BASE_PORT + index};",
            "    }",
        ]
    for name in names:
        lines.append(f"    connect router to {name};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _metadata(name: str, namespace: str,
              labels: dict[str, str]) -> dict[str, object]:
    return {"name": name, "namespace": namespace, "labels": dict(labels)}


def _deployment(name: str, namespace: str, labels: dict[str, str],
                container: dict[str, object],
                config_map: str) -> dict[str, object]:
    return {
        "apiVersion": "apps/v1",
        "kind": "Deployment",
        "metadata": _metadata(name, namespace, labels),
        "spec": {
            "replicas": 1,
            "selector": {"matchLabels": dict(labels)},
            "template": {
                "metadata": {"labels": dict(labels)},
                "spec": {
                    "containers": [container],
                    "volumes": [{
                        "name": "topology",
                        "configMap": {"name": config_map},
                    }],
                },
            },
        },
    }


def serving_topology_manifests(workers=4, *,
                               vnodes: int = DEFAULT_VNODES,
                               namespace: str = "repro-serving",
                               image: str = "repro-factory:latest"
                               ) -> list[dict[str, object]]:
    """Kubernetes manifests for the sharded tier, derived from the
    same parameters the SysML model carries.

    Ordered ConfigMap-first so :func:`repro.k8s.deploy_manifests` (and
    ``kubectl apply -f`` on the emitted YAML) bring up configuration
    before consumers.
    """
    names = _worker_names(workers)
    ring = HashRing(names, vnodes)
    config_map_name = "serving-ring"
    manifests: list[dict[str, object]] = [{
        "apiVersion": "v1",
        "kind": "ConfigMap",
        "metadata": _metadata(config_map_name, namespace,
                              {"app": "repro-serving"}),
        "data": {
            "ring.salt": ROUTER_RING_SALT,
            "ring.vnodes": str(vnodes),
            "ring.members": ",".join(ring.members),
        },
    }]
    for index, name in enumerate(names):
        labels = {"app": "repro-serving", "role": "worker",
                  "shard": name}
        port = WORKER_BASE_PORT + index
        container = {
            "name": name,
            "image": image,
            "ports": [{"containerPort": port}],
            "env": [
                {"name": "REPRO_ROLE", "value": "worker"},
                {"name": "REPRO_SHARD", "value": name},
            ],
            "resources": {"requests": {"cpu": "500m",
                                       "memory": "256Mi"}},
        }
        manifests.append(_deployment(name, namespace, labels, container,
                                     config_map_name))
        manifests.append({
            "apiVersion": "v1",
            "kind": "Service",
            "metadata": _metadata(name, namespace, labels),
            "spec": {
                "selector": dict(labels),
                "ports": [{"port": port, "targetPort": port}],
            },
        })
    router_labels = {"app": "repro-serving", "role": "router"}
    router_container = {
        "name": "router",
        "image": image,
        "ports": [{"containerPort": ROUTER_PORT}],
        "env": [
            {"name": "REPRO_ROLE", "value": "router"},
            {"name": "REPRO_WORKERS", "value": ",".join(names)},
            {"name": "REPRO_VNODES", "value": str(vnodes)},
        ],
        "resources": {"requests": {"cpu": "250m", "memory": "128Mi"}},
    }
    manifests.append(_deployment("router", namespace, router_labels,
                                 router_container, config_map_name))
    manifests.append({
        "apiVersion": "v1",
        "kind": "Service",
        "metadata": _metadata("router", namespace, router_labels),
        "spec": {
            "selector": dict(router_labels),
            "ports": [{"port": ROUTER_PORT,
                       "targetPort": ROUTER_PORT}],
        },
    })
    return manifests


def deploy_serving_topology(cluster, workers=4, *,
                            vnodes: int = DEFAULT_VNODES,
                            namespace: str = "repro-serving"
                            ) -> list[object]:
    """Apply the tier's manifests to a simulated cluster.

    ConfigMaps land first (the manifest list is already ordered);
    returns the applied resource objects.
    """
    return [cluster.apply_manifest(manifest)
            for manifest in serving_topology_manifests(
                workers, vnodes=vnodes, namespace=namespace)]
