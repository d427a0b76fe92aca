"""Machine catalog: declarative specifications of factory equipment.

A :class:`MachineSpec` is the ground truth a model is generated *from*
(and simulators are built from): the machine's variables grouped in
functional categories, its services, and its driver/connection data.
The ICE-lab entries (:mod:`repro.machines.specs`) are sized from Table I
of the paper.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..isa95.levels import ArgumentSpec, MachineInfo, ServiceSpec, VariableSpec


@dataclass
class DriverSpec:
    """Driver/protocol side of a machine spec."""

    protocol: str  # definition name, e.g. "EMCODriver", "OPCUAGenericDriver"
    is_generic: bool = False
    parameters: dict[str, object] = field(default_factory=dict)


@dataclass
class MachineSpec:
    """Full specification of one machine."""

    name: str  # instance name, e.g. "emco"
    display_name: str  # e.g. "EMCO Concept Mill 105"
    type_name: str  # part definition name, e.g. "EMCOMillingMachine"
    workcell: str  # e.g. "workCell02"
    driver: DriverSpec
    categories: dict[str, list[VariableSpec]] = field(default_factory=dict)
    services: list[ServiceSpec] = field(default_factory=list)

    def __post_init__(self):
        seen: set[str] = set()
        for category, variables in self.categories.items():
            for variable in variables:
                if variable.name in seen:
                    raise ValueError(
                        f"duplicate variable {variable.name!r} in machine "
                        f"{self.name!r}")
                seen.add(variable.name)
                if not variable.category:
                    variable.category = category
        service_names = [s.name for s in self.services]
        if len(service_names) != len(set(service_names)):
            raise ValueError(
                f"duplicate service names in machine {self.name!r}")

    @property
    def variables(self) -> list[VariableSpec]:
        return [v for vs in self.categories.values() for v in vs]

    @property
    def variable_count(self) -> int:
        return len(self.variables)

    @property
    def service_count(self) -> int:
        return len(self.services)

    @property
    def point_count(self) -> int:
        return self.variable_count + self.service_count


def simple_service(name: str, *, inputs: list[tuple[str, str]] | None = None,
                   outputs: list[tuple[str, str]] | None = None,
                   description: str = "") -> ServiceSpec:
    """Shorthand ServiceSpec constructor from (name, type) pairs."""
    return ServiceSpec(
        name=name,
        inputs=[ArgumentSpec(n, t) for n, t in (inputs or [])],
        outputs=[ArgumentSpec(n, t) for n, t in
                 (outputs or [("ok", "Boolean")])],
        description=description,
    )


def spec_from_machine_info(machine: MachineInfo) -> MachineSpec:
    """A simulator-ready spec synthesized from an extracted machine.

    The catalog is the ground truth for the built-in ICE lab, but the
    conformance corpus and user models only exist as *extracted*
    :class:`~repro.isa95.levels.MachineInfo` records; this bridges
    them so plans (and any other behaviour-level check) can execute
    against :class:`~repro.machines.simulator.MachineSimulator`
    instances for an arbitrary topology. Variable and service records
    are copied — ``MachineSpec`` normalizes categories in place and
    must never mutate the topology it was derived from.
    """
    variables = [dataclasses.replace(variable)
                 for variable in machine.variables]
    services = [dataclasses.replace(
                    service,
                    inputs=[dataclasses.replace(arg)
                            for arg in service.inputs],
                    outputs=[dataclasses.replace(arg)
                             for arg in service.outputs])
                for service in machine.services]
    driver = DriverSpec(
        protocol=machine.driver.protocol if machine.driver
        else "OPCUAGenericDriver",
        is_generic=machine.driver.is_generic if machine.driver else True,
        parameters=dict(machine.driver.parameters)
        if machine.driver else {})
    return MachineSpec(
        name=machine.name,
        display_name=machine.name,
        type_name=machine.type_name or "Machine",
        workcell=machine.workcell,
        driver=driver,
        categories={"data": variables} if variables else {},
        services=services)
