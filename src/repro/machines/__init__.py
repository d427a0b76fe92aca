"""Machine catalog and behavioural simulators."""

from .catalog import (DriverSpec, MachineSpec, simple_service,
                      spec_from_machine_info)
from .simulator import MachineSimulator, SimulationError
from .specs import ICE_LAB_SPECS

__all__ = ["DriverSpec", "ICE_LAB_SPECS", "MachineSimulator", "MachineSpec",
           "SimulationError", "simple_service", "spec_from_machine_info"]
