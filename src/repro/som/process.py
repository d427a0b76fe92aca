"""Production processes as sequences of machine services.

"SOM consists of a set of machinery exposing their functionalities as a
set of machine services, and production processes are composed of
sequences of machine services" (Section II). A
:class:`ProductionProcess` is exactly such a sequence; the orchestrator
executes it over the broker.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ProcessStep:
    """One service invocation within a process."""

    machine: str
    service: str
    args: tuple = ()
    description: str = ""

    @property
    def qualified_name(self) -> str:
        return f"{self.machine}.{self.service}"


@dataclass
class ProductionProcess:
    """An ordered recipe of machine-service invocations."""

    name: str
    steps: list[ProcessStep] = field(default_factory=list)

    def add_step(self, machine: str, service: str, *args,
                 description: str = "") -> "ProductionProcess":
        self.steps.append(ProcessStep(machine, service, tuple(args),
                                      description))
        return self

    def validate_against(self, registry) -> list[str]:
        """Names of steps whose service is not in the registry."""
        from .services import ServiceLookupError
        missing: list[str] = []
        for step in self.steps:
            try:
                service = registry.lookup(step.machine, step.service)
            except ServiceLookupError:
                missing.append(step.qualified_name)
                continue
            if len(step.args) != len(service.input_names):
                missing.append(
                    f"{step.qualified_name} (arity {len(step.args)} != "
                    f"{len(service.input_names)})")
        return missing

    def __len__(self) -> int:
        return len(self.steps)
