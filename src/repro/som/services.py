"""Machine-service registry (the SOM service directory).

In Service-Oriented Manufacturing every machine exposes its operations
as *machine services*; production processes are composed of sequences
of them. The registry is built from an extracted factory topology (or a
generation result) and records, per service, the broker topic on which
the deployed bridge components serve it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa95.levels import FactoryTopology


class ServiceLookupError(KeyError):
    pass


@dataclass(frozen=True)
class MachineService:
    """One invocable machine service within the architecture."""

    machine: str
    workcell: str
    name: str
    topic: str
    input_names: tuple[str, ...] = ()
    output_names: tuple[str, ...] = ()

    @property
    def qualified_name(self) -> str:
        return f"{self.machine}.{self.name}"


class ServiceRegistry:
    """Directory of every machine service in the factory."""

    def __init__(self) -> None:
        self._services: dict[str, MachineService] = {}

    @classmethod
    def from_topology(cls, topology: FactoryTopology,
                      topic_root: str) -> "ServiceRegistry":
        from ..templates.engine import k8s_name
        registry = cls()
        for machine in topology.machines:
            base = (f"{topic_root}/{k8s_name(machine.workcell)}"
                    f"/{machine.name}/services")
            for service in machine.services:
                registry.register(MachineService(
                    machine=machine.name,
                    workcell=machine.workcell,
                    name=service.name,
                    topic=f"{base}/{service.name}",
                    input_names=tuple(a.name for a in service.inputs),
                    output_names=tuple(a.name for a in service.outputs),
                ))
        return registry

    def register(self, service: MachineService) -> None:
        key = service.qualified_name
        if key in self._services:
            raise ValueError(f"duplicate service {key!r}")
        self._services[key] = service

    def lookup(self, machine: str, service: str) -> MachineService:
        key = f"{machine}.{service}"
        try:
            return self._services[key]
        except KeyError:
            raise ServiceLookupError(
                f"no service {service!r} on machine {machine!r}") from None

    def machines(self) -> list[str]:
        return sorted({s.machine for s in self._services.values()})

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self):
        return iter(self._services.values())
