"""Step 1+2 of the paper's pipeline: model -> JSON -> Kubernetes YAML.

Three backends consume the extracted ISA-95 topology:

* ``json``  — the per-client intermediate configuration files
  (:func:`machine_config` and friends, step 1 of the paper);
* ``yaml``  — the rendered Kubernetes manifests (step 2);
* ``pddl``  — the operations-planning domain/problem emission of
  :mod:`repro.planning` (kept in its own package — it pulls in the
  planner and the simulators — but registered here so the backend
  axis is visible in one place).
"""

from .client_config import client_config, topic_root
from .docs_gen import generate_handbook
from .incremental import IncrementalEngine
from .grouping import (ClientGroup, DEFAULT_CLIENT_CAPACITY,
                       GroupingError, group_machines, grouping_stats,
                       lower_bound_clients)
from .machine_config import (WORKCELL_SERVER_PORT, machine_config,
                             workcell_endpoint, workcell_server_config)
from .options import OptionError, PipelineOptions
from .pipeline import (COMPONENT_IMAGES, GenerationPipeline,
                       GenerationResult, generate_configuration)
from .storage_config import storage_config

#: The backend axis of the north star: every name here is one way the
#: extracted topology leaves the system. ``json``/``yaml`` live in
#: this package; ``pddl`` is :func:`repro.planning.plan_operations`.
CODEGEN_BACKENDS = ("json", "yaml", "pddl")

__all__ = [
    "CODEGEN_BACKENDS",
    "COMPONENT_IMAGES", "ClientGroup", "DEFAULT_CLIENT_CAPACITY",
    "IncrementalEngine", "generate_handbook", "OptionError",
    "PipelineOptions",
    "GenerationPipeline", "GenerationResult", "GroupingError",
    "WORKCELL_SERVER_PORT", "client_config", "generate_configuration",
    "group_machines", "grouping_stats", "lower_bound_clients",
    "machine_config", "storage_config", "topic_root", "workcell_endpoint",
    "workcell_server_config",
]
