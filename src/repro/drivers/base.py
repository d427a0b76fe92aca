"""Driver runtimes: protocol adapters between software and machines.

The paper's ``Driver`` concept has two runtime flavors: proprietary
machine drivers (EMCO, Universal Robots) speaking their own wire
protocols, and the generic driver for machines that already expose
OPC UA. A :class:`DriverRuntime` hides that difference behind a single
read/subscribe/call interface — exactly the "unifying layer" role
Section II describes.
"""

from __future__ import annotations

from typing import Callable

from ..machines.catalog import DriverSpec
from ..machines.simulator import MachineSimulator


class DriverError(RuntimeError):
    pass


class DriverRuntime:
    """Abstract protocol adapter."""

    #: Driver definition name this runtime implements (e.g. "EMCODriver").
    protocol: str = ""

    def __init__(self, spec: DriverSpec):
        if spec.protocol != self.protocol:
            raise DriverError(
                f"{type(self).__name__} implements {self.protocol!r}, "
                f"got a spec for {spec.protocol!r}")
        self.spec = spec
        self.connected = False

    # -- lifecycle ----------------------------------------------------------

    def connect(self) -> None:
        raise NotImplementedError

    def disconnect(self) -> None:
        raise NotImplementedError

    # -- data access ----------------------------------------------------------

    def read_variable(self, name: str) -> object:
        raise NotImplementedError

    def variable_names(self) -> list[str]:
        raise NotImplementedError

    def call_method(self, name: str, *args) -> tuple:
        raise NotImplementedError

    def subscribe(self, listener: Callable[[str, object], None]) -> None:
        """Register for variable-change events (name, new value)."""
        raise NotImplementedError

    def _ensure_connected(self) -> None:
        if not self.connected:
            raise DriverError(
                f"{type(self).__name__} is not connected")


class SimulatorBackedDriver(DriverRuntime):
    """Base for proprietary drivers that talk to a machine simulator.

    Subclasses implement the wire-protocol encoding; this base wires the
    simulator connection and the change events.
    """

    def __init__(self, spec: DriverSpec, machine: MachineSimulator):
        super().__init__(spec)
        self.machine = machine
        self._listeners: list[Callable[[str, object], None]] = []
        self._machine_listener_installed = False

    def connect(self) -> None:
        self._check_reachability()
        self.connected = True
        if not self._machine_listener_installed:
            self.machine.on_change(self._on_machine_change)
            self._machine_listener_installed = True

    def disconnect(self) -> None:
        self.connected = False

    def _check_reachability(self) -> None:
        ip = self.spec.parameters.get("ip")
        if not ip:
            raise DriverError(
                f"driver for {self.machine.spec.name!r} has no 'ip' "
                f"parameter configured")

    def _on_machine_change(self, name: str, value: object) -> None:
        if not self.connected:
            return
        for listener in list(self._listeners):
            listener(name, value)

    def subscribe(self, listener: Callable[[str, object], None]) -> None:
        self._ensure_connected()
        self._listeners.append(listener)

    def variable_names(self) -> list[str]:
        return self.machine.variable_names()
