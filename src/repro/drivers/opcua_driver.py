"""Generic OPC UA driver.

For machines that already speak OPC UA (most of the ICE lab), the
machine itself hosts a server; the driver is simply a UA client bound to
the machine's endpoint. :func:`host_machine_server` builds that
machine-side server from a simulator — the "each machine is equipped
with an OPC UA server" arrangement of Section II-C.
"""

from __future__ import annotations

from typing import Callable

from ..machines.catalog import DriverSpec
from ..machines.simulator import MachineSimulator
from ..opcua import (Argument, NetworkError, OpcUaClient, OpcUaServer,
                     UaNetwork)
from .base import DriverError, DriverRuntime


def host_machine_server(machine: MachineSimulator, endpoint: str,
                        network: UaNetwork) -> OpcUaServer:
    """Expose a machine simulator as its own OPC UA server."""
    server = OpcUaServer(endpoint, application_name=machine.spec.display_name,
                         network=network,
                         namespace_uris=[f"urn:icelab:{machine.spec.name}"])
    machine_node = server.add_object(server.space.objects, machine.spec.name)
    data_node = server.add_object(machine_node, "data")
    variable_nodes = {}
    for variable in machine.spec.variables:
        node = server.add_variable(
            data_node, variable.name, data_type=variable.data_type,
            initial_value=machine.read(variable.name))
        variable_nodes[variable.name] = node
    machine.on_change(
        lambda name, value: variable_nodes[name].write(value)
        if name in variable_nodes else None)
    services_node = server.add_object(machine_node, "services")
    for service in machine.spec.services:
        server.add_method(
            services_node, service.name,
            handler=_service_handler(machine, service.name),
            input_arguments=[Argument(a.name, a.data_type)
                             for a in service.inputs],
            output_arguments=[Argument(a.name, a.data_type)
                              for a in service.outputs])
    server.start()
    return server


def _service_handler(machine: MachineSimulator, name: str):
    def handler(*args):
        return machine.call(name, *args)
    return handler


class OpcUaGenericDriver(DriverRuntime):
    """Runtime for the ``OPCUADriver`` protocol: a plain UA client."""

    protocol = "OPCUADriver"

    def __init__(self, spec: DriverSpec, machine_name: str,
                 network: UaNetwork):
        super().__init__(spec)
        self.machine_name = machine_name
        self.network = network
        self.client = OpcUaClient(f"driver-{machine_name}", network=network)
        self._listeners: list[Callable[[str, object], None]] = []

    @property
    def endpoint(self) -> str:
        endpoint = self.spec.parameters.get("endpoint")
        if not endpoint:
            raise DriverError(
                f"OPC UA driver for {self.machine_name!r} has no "
                f"'endpoint' parameter")
        return str(endpoint)

    def connect(self) -> None:
        try:
            self.client.connect(self.endpoint)
        except NetworkError as exc:
            raise DriverError(str(exc)) from exc
        self.connected = True
        nodes = [f"{self.machine_name}/data/{name}"
                 for name in self.variable_names()]
        self.client.subscribe(nodes, callback=self._on_notification)

    def disconnect(self) -> None:
        self.client.disconnect()
        self.connected = False

    def _on_notification(self, notification) -> None:
        name = str(notification.node_id.identifier).rsplit("/", 1)[-1]
        for listener in list(self._listeners):
            listener(name, notification.value)

    def subscribe(self, listener: Callable[[str, object], None]) -> None:
        self._ensure_connected()
        self._listeners.append(listener)

    def read_variable(self, name: str) -> object:
        self._ensure_connected()
        return self.client.read(f"{self.machine_name}/data/{name}")

    def call_method(self, name: str, *args) -> tuple:
        self._ensure_connected()
        return self.client.call(f"{self.machine_name}/services/{name}",
                                *args)

    def variable_names(self) -> list[str]:
        self._ensure_connected()
        data = self.client.session.server.space.browse_path(
            f"{self.machine_name}/data")
        return [n.browse_name.name for n in data.children]
