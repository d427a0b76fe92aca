"""Figure 2 regeneration: machine <-> driver ports and interfaces.

The paper's Figure 2 shows, for the milling machine, the communication
channel structure: MachineData/MachineServices ports on the machine
side, DriverVariables/DriverMethods ports on the driver side, and the
two interfaces joining them. This module measures those quantities on
an actual loaded model and renders them as DOT and ASCII.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sysml.elements import Model, PartUsage
from ..sysml.instances import elaborate


@dataclass
class ConnectionFigure:
    """Measured port/connector structure of one machine-driver pair."""

    machine: str
    driver: str
    machine_data_ports: int
    machine_service_ports: int
    driver_variable_ports: int
    driver_method_ports: int
    data_connectors: int
    service_connectors: int
    bindings: int

    @property
    def total_ports(self) -> int:
        return (self.machine_data_ports + self.machine_service_ports
                + self.driver_variable_ports + self.driver_method_ports)

    @property
    def balanced(self) -> bool:
        """Machine-side ports mirror driver-side ports one-to-one."""
        return (self.machine_data_ports == self.driver_variable_ports
                and self.machine_service_ports == self.driver_method_ports)


def _is_machine(usage: PartUsage) -> bool:
    typ = usage.effective_type()
    return typ is not None and any(
        t.name == "Machine" for t in [typ, *typ.all_supertypes()])


def _group(path: str) -> str:
    """The port group a port lives in: the first segment below the root.

    Machine ports sit under ``<name>Data`` / ``<name>Services`` and
    driver ports under ``driverVariables`` / ``driverMethods``; the root
    (the machine's own name) is skipped so a machine named ``services``
    does not classify every port as a service port.
    """
    return path.split(".")[1]


def measure_connections(model: Model, machine_name: str,
                        driver_instance_name: str) -> ConnectionFigure:
    """Measure the Figure-2 structure for one machine."""
    # skip `ref part` placeholders (e.g. ISA95::Machine::driver) and
    # parts that are not machines (e.g. a driver's `data` variable
    # group): a machine named like one of those must resolve to its
    # concrete workcell part
    machine_usage = next(
        (e for e in model.all_elements()
         if isinstance(e, PartUsage) and e.name == machine_name
         and not e.is_reference and _is_machine(e)), None)
    driver_usage = next(
        (e for e in model.owned_elements
         if isinstance(e, PartUsage) and e.name == driver_instance_name),
        None)
    if machine_usage is None or driver_usage is None:
        raise KeyError(
            f"machine {machine_name!r} or driver "
            f"{driver_instance_name!r} not found in the model")
    machine_tree = elaborate(machine_usage)
    driver_tree = elaborate(driver_usage)
    machine_data_ports = machine_service_ports = 0
    data_connectors = service_connectors = bindings = 0
    for node in machine_tree.walk():
        if node.kind == "port":
            if _group(node.path).endswith("Services"):
                machine_service_ports += 1
            else:
                machine_data_ports += 1
        elif node.kind in ("connection", "interface"):
            if "mthd" in (node.value_ref or "") or "Methods" in \
                    (node.value_ref or ""):
                service_connectors += 1
            else:
                data_connectors += 1
        elif node.kind == "bind":
            bindings += 1
    driver_variable_ports = driver_method_ports = 0
    for node in driver_tree.walk():
        if node.kind == "port":
            if _group(node.path).endswith("Methods"):
                driver_method_ports += 1
            else:
                driver_variable_ports += 1
        elif node.kind == "bind":
            bindings += 1
    typ = machine_usage.effective_type()
    driver_typ = driver_usage.effective_type()
    return ConnectionFigure(
        machine=machine_name,
        driver=driver_typ.name if driver_typ is not None else "",
        machine_data_ports=machine_data_ports,
        machine_service_ports=machine_service_ports,
        driver_variable_ports=driver_variable_ports,
        driver_method_ports=driver_method_ports,
        data_connectors=data_connectors,
        service_connectors=service_connectors,
        bindings=bindings,
    )


def connections_dot(figure: ConnectionFigure) -> str:
    """Graphviz DOT in the layout of the paper's Figure 2."""
    return f"""digraph connections {{
    rankdir=LR;
    node [shape=record, fontname="Helvetica"];
    machine [label="{{{figure.machine}|MachineData: \
{figure.machine_data_ports} ports|MachineServices: \
{figure.machine_service_ports} ports}}"];
    driver [label="{{{figure.driver}|DriverVariables: \
{figure.driver_variable_ports} ports|DriverMethods: \
{figure.driver_method_ports} ports}}"];
    machine -> driver [label="data interface\\n\
{figure.data_connectors} connections", dir=both];
    machine -> driver [label="service interface\\n\
{figure.service_connectors} connections", dir=both];
}}
"""


def connections_ascii(figure: ConnectionFigure) -> str:
    left = [
        f"Machine: {figure.machine}",
        f"  MachineData      [{figure.machine_data_ports:>4} ports]",
        f"  MachineServices  [{figure.machine_service_ports:>4} ports]",
    ]
    right = [
        f"Driver: {figure.driver}",
        f"  DriverVariables  [{figure.driver_variable_ports:>4} ports]",
        f"  DriverMethods    [{figure.driver_method_ports:>4} ports]",
    ]
    middle = [
        "",
        f"==== data interface ({figure.data_connectors} conn) ====>",
        f"==== service interface ({figure.service_connectors} conn) ===>",
    ]
    width_left = max(len(s) for s in left) + 2
    width_middle = max(len(s) for s in middle) + 2
    lines = []
    for l, m, r in zip(left, middle, right):
        lines.append(f"{l:<{width_left}}{m:<{width_middle}}{r}")
    lines.append(f"(bindings: {figure.bindings}, "
                 f"total ports: {figure.total_ports}, "
                 f"balanced: {figure.balanced})")
    return "\n".join(lines) + "\n"
