"""ISA-95 layer: base library, topology extraction, conformance checks."""

from .levels import (ArgumentSpec, DriverInfo, FactoryTopology, MachineInfo,
                     ServiceSpec, VariableSpec, WorkcellInfo)
from .library import ISA95_LIBRARY_SOURCE
from .topology import TopologyError, TopologyExtractor, extract_topology
from .validation import validate_topology

__all__ = [
    "ArgumentSpec", "DriverInfo", "FactoryTopology",
    "ISA95_LIBRARY_SOURCE", "MachineInfo", "ServiceSpec", "TopologyError",
    "TopologyExtractor", "VariableSpec", "WorkcellInfo", "extract_topology",
    "validate_topology",
]
