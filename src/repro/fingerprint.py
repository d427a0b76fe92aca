"""Content fingerprints: the one place hashing lives.

Every cache layer in the system keys artifacts on a
:func:`fingerprint` — SHA-256 over the canonical-JSON rendering of the
inputs plus a salt. The salt has two components:

* :data:`CACHE_SCHEMA_VERSION` — bumped whenever the on-disk artifact
  layout changes, invalidating every entry at once;
* a per-layer salt string — it names the producing layer (parse
  trees, topology, whole result, ...) and embeds that layer's own
  version, so evolving one generator never serves stale artifacts from
  another. The per-layer salts are collected here as module constants
  so the key schema of the whole system is visible in one screen.

Canonical JSON (sorted keys, no whitespace, ``default=str`` for exotic
leaf values) makes the fingerprint independent of dict insertion order
and stable across processes.

Every salt lives here and nowhere else. A deleted layer takes its salt
along; the entries it left on disk age out through the cache's LRU.
"""

from __future__ import annotations

import hashlib
import json

#: Bump to invalidate every cached artifact (on-disk layout change).
CACHE_SCHEMA_VERSION = 1

# -- per-layer salts ---------------------------------------------------------
# Bump a salt whenever the corresponding layer's artifact format changes.

#: Cached parse trees (pickled root elements): embeds the parser and
#: element-layout generation, so grammar or layout changes never replay
#: stale trees. (v4: source locations and name records have
#: ``__slots__``; a v3 pickle would load them with their field names as
#: values.)
PARSE_TREE_SALT = "sysml-parse-tree/4"

#: The whole-model fingerprint derived from the source texts.
MODEL_SALT = "sysml-model/1"

#: Structural (Merkle) fingerprints of model subtrees — the per-node
#: keys of the incremental engine.
NODE_SALT = "sysml-node/1"

#: The extracted ISA-95 topology pickle. (v2: machines carry their
#: model node path for incremental re-elaboration; v3: node paths
#: quote names that contain ``::``.)
TOPOLOGY_SALT = "isa95-topology/3"

#: The whole-result bundle of one pipeline run. (v2: pickled groups
#: carry machine node paths; v3: node paths quote names that contain
#: ``::``.)
RESULT_SALT = "generation-result/3"

#: The service's request key: result memo, single-flight and routing.
SERVICE_GENERATE_SALT = "service-generate/1"

#: Consistent-hash ring of the sharded serving tier: vnode placement
#: points (:mod:`repro.service.ring`). Bumping it remaps every key —
#: equivalent to a full re-shard — so only bump on a ring change that
#: is *meant* to move traffic.
ROUTER_RING_SALT = "router-ring/1"

#: Scenario-engine artifacts (:mod:`repro.sim`): one simulated
#: scenario's report, and the multi-scenario briefing. Bump when the
#: report schema or the simulation semantics change.
SIM_REPORT_SALT = "sim-report/1"
SIM_BRIEFING_SALT = "sim-briefing/1"

#: A canonicalized :class:`repro.sim.workload.Workload` (job set,
#: routes, releases). Shared by the scenario engine and the planning
#: backend to state "these two runs planned/simulated the same work".
WORKLOAD_SALT = "sim-workload/1"

#: Operations-planning artifacts (:mod:`repro.planning`): the PDDL
#: domain/problem emission plus the plans and validation reports of
#: one run. Bump when the PDDL mapping, the planner semantics or the
#: cached bundle schema change.
PLAN_SALT = "planning/1"


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, compact, ``str()`` fallback."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def fingerprint(*parts: object, salt: str = "") -> str:
    """SHA-256 hex digest over canonical forms of *parts* + the salt.

    Each part is length-prefixed before hashing so adjacent parts can
    never collide by concatenation (``("ab", "c")`` vs ``("a", "bc")``).
    ``bytes`` and ``str`` parts hash as-is; everything else goes through
    :func:`canonical_json`.
    """
    hasher = hashlib.sha256()
    hasher.update(f"repro-cache/v{CACHE_SCHEMA_VERSION}|{salt}".encode())
    for part in parts:
        if isinstance(part, bytes):
            data = part
        elif isinstance(part, str):
            data = part.encode()
        else:
            data = canonical_json(part).encode()
        hasher.update(b"|%d|" % len(data))
        hasher.update(data)
    return hasher.hexdigest()


__all__ = [
    "CACHE_SCHEMA_VERSION", "MODEL_SALT", "NODE_SALT",
    "PARSE_TREE_SALT", "PLAN_SALT", "RESULT_SALT", "ROUTER_RING_SALT",
    "SERVICE_GENERATE_SALT", "SIM_BRIEFING_SALT",
    "SIM_REPORT_SALT", "TOPOLOGY_SALT", "WORKLOAD_SALT", "canonical_json",
    "fingerprint",
]
