"""ISA-95 equipment hierarchy records.

The extraction pass (:mod:`repro.isa95.topology`) turns a SysML v2 model
into these plain records — the neutral representation the configuration
generator consumes. They deliberately contain *only* the information the
paper's intermediate JSON files need.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VariableSpec:
    """One machine data point."""

    name: str
    data_type: str = "Real"
    category: str = ""
    description: str = ""
    unit: str = ""
    initial_value: object = None


@dataclass
class ArgumentSpec:
    name: str
    data_type: str = "String"


@dataclass
class ServiceSpec:
    """One machine service (command/operation)."""

    name: str
    inputs: list[ArgumentSpec] = field(default_factory=list)
    outputs: list[ArgumentSpec] = field(default_factory=list)
    description: str = ""


@dataclass
class DriverInfo:
    """The communication endpoint of a machine."""

    name: str
    protocol: str  # driver definition name, e.g. "EMCODriver", "OPCUADriver"
    is_generic: bool = False  # GenericDriver vs MachineDriver
    parameters: dict[str, object] = field(default_factory=dict)
    variable_count: int = 0
    method_count: int = 0
    #: Model path of the concrete driver *instance* usage this record was
    #: extracted from ("" for unresolved reference stubs) — lets the
    #: incremental engine re-extract exactly this driver after an edit.
    node_path: str = ""


@dataclass
class MachineInfo:
    """A machine with its data, services and driver."""

    name: str
    type_name: str  # machine definition name, e.g. "EMCOMillingMachine"
    workcell: str
    variables: list[VariableSpec] = field(default_factory=list)
    services: list[ServiceSpec] = field(default_factory=list)
    driver: DriverInfo | None = None
    #: Model path of the machine's part usage (see
    #: :func:`repro.sysml.depgraph.node_path`) — the incremental
    #: engine's handle for re-elaborating just this machine.
    node_path: str = ""

    @property
    def point_count(self) -> int:
        """Variables + services — the client-capacity unit of the paper."""
        return len(self.variables) + len(self.services)


@dataclass
class WorkcellInfo:
    name: str
    production_line: str
    machines: list[MachineInfo] = field(default_factory=list)


@dataclass
class FactoryTopology:
    """The extracted ISA-95 view of a factory model."""

    enterprise: str = ""
    site: str = ""
    area: str = ""
    production_lines: list[str] = field(default_factory=list)
    workcells: list[WorkcellInfo] = field(default_factory=list)

    @property
    def machines(self) -> list[MachineInfo]:
        return [m for wc in self.workcells for m in wc.machines]

    def workcell(self, name: str) -> WorkcellInfo:
        for workcell in self.workcells:
            if workcell.name == name:
                return workcell
        raise KeyError(f"no workcell named {name!r}")

    def machine(self, name: str) -> MachineInfo:
        for machine in self.machines:
            if machine.name == name:
                return machine
        raise KeyError(f"no machine named {name!r}")

    def service_inventory(self) -> dict[str, list[str]]:
        """Service name -> providing machines, in topology order.

        The capability view of the factory: which machines can perform
        each modeled service. The planning backend grounds its action
        schemas from exactly this mapping (several machines modeling
        the same service name are interchangeable providers), and the
        insertion order is the deterministic topology walk, so the
        mapping is stable for a given model.
        """
        inventory: dict[str, list[str]] = {}
        for machine in self.machines:
            for service in machine.services:
                providers = inventory.setdefault(service.name, [])
                if machine.name not in providers:
                    providers.append(machine.name)
        return inventory

    def summary(self) -> dict[str, int]:
        return {
            "workcells": len(self.workcells),
            "machines": len(self.machines),
            "variables": sum(len(m.variables) for m in self.machines),
            "services": sum(len(m.services) for m in self.machines),
        }
