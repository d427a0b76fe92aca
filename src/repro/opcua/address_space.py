"""The OPC UA address space: nodes, references, browsing.

Three node classes are modeled (the ones the paper's configured stack
needs): Objects (folders/machines), Variables (machine data points), and
Methods (machine services). References are parent->child ("Organizes" /
"HasComponent"); browsing walks them by browse name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .nodeids import NodeId, QualifiedName


class AddressSpaceError(RuntimeError):
    pass


@dataclass
class DataValue:
    """A value with OPC UA-style status and timestamps."""

    value: object
    status: str = "Good"
    source_timestamp: float = 0.0
    server_timestamp: float = 0.0


class Node:
    """Base address-space node."""

    node_class = "Unspecified"

    def __init__(self, node_id: NodeId, browse_name: QualifiedName,
                 display_name: str = ""):
        self.node_id = node_id
        self.browse_name = browse_name
        self.display_name = display_name or browse_name.name
        self.description = ""
        self.parent: Node | None = None
        self.children: list[Node] = []

    def add_child(self, child: "Node") -> "Node":
        child.parent = self
        self.children.append(child)
        return child

    def child_by_name(self, browse_name: str) -> "Node | None":
        wanted = QualifiedName.parse(browse_name)
        for child in self.children:
            if child.browse_name == wanted or \
                    child.browse_name.name == browse_name:
                return child
        return None

    def descendants(self) -> Iterator["Node"]:
        for child in self.children:
            yield child
            yield from child.descendants()

    @property
    def path(self) -> str:
        parts: list[str] = []
        node: Node | None = self
        while node is not None and node.parent is not None:
            parts.append(node.browse_name.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.node_id} "
                f"'{self.browse_name.name}'>")


class ObjectNode(Node):
    node_class = "Object"


class VariableNode(Node):
    node_class = "Variable"

    def __init__(self, node_id: NodeId, browse_name: QualifiedName,
                 data_type: str = "Double", initial_value: object = None,
                 writable: bool = True):
        super().__init__(node_id, browse_name)
        self.data_type = data_type
        self.writable = writable
        self._data_value = DataValue(initial_value)
        self._listeners: list[Callable[[VariableNode, DataValue], None]] = []

    @property
    def value(self) -> object:
        return self._data_value.value

    def read(self) -> DataValue:
        return self._data_value

    def write(self, value: object, *, status: str = "Good",
              timestamp: float | None = None) -> None:
        if not self.writable:
            raise AddressSpaceError(
                f"variable {self.node_id} is not writable")
        now = timestamp if timestamp is not None else time.monotonic()
        self._data_value = DataValue(value, status, now, now)
        for listener in list(self._listeners):
            listener(self, self._data_value)

    def on_change(self, listener: Callable[["VariableNode", DataValue], None]
                  ) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)


@dataclass
class Argument:
    """A method input/output argument declaration."""

    name: str
    data_type: str = "String"
    description: str = ""


class MethodNode(Node):
    node_class = "Method"

    def __init__(self, node_id: NodeId, browse_name: QualifiedName,
                 handler: Callable[..., tuple] | None = None,
                 input_arguments: list[Argument] | None = None,
                 output_arguments: list[Argument] | None = None):
        super().__init__(node_id, browse_name)
        self.handler = handler
        self.input_arguments = input_arguments or []
        self.output_arguments = output_arguments or []
        self.call_count = 0

    def call(self, *args) -> tuple:
        if self.handler is None:
            raise AddressSpaceError(
                f"method {self.node_id} has no bound handler")
        if len(args) != len(self.input_arguments):
            raise AddressSpaceError(
                f"method {self.node_id} expects "
                f"{len(self.input_arguments)} argument(s), got {len(args)}")
        self.call_count += 1
        result = self.handler(*args)
        if result is None:
            result = ()
        if not isinstance(result, tuple):
            result = (result,)
        if len(result) != len(self.output_arguments):
            raise AddressSpaceError(
                f"method {self.node_id} must return "
                f"{len(self.output_arguments)} value(s), got {len(result)}")
        return result


class AddressSpace:
    """Node storage with id and path indexes."""

    def __init__(self) -> None:
        from .nodeids import OBJECTS_FOLDER
        self._nodes: dict[NodeId, Node] = {}
        self.objects = ObjectNode(OBJECTS_FOLDER, QualifiedName(0, "Objects"))
        self._register(self.objects)

    def _register(self, node: Node) -> Node:
        if node.node_id in self._nodes:
            raise AddressSpaceError(f"duplicate NodeId {node.node_id}")
        self._nodes[node.node_id] = node
        return node

    def add(self, parent: Node | NodeId, node: Node) -> Node:
        parent_node = self.get(parent) if isinstance(parent, NodeId) else parent
        self._register(node)
        parent_node.add_child(node)
        return node

    def get(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise AddressSpaceError(f"unknown NodeId {node_id}") from None

    def find(self, node_id: NodeId) -> Node | None:
        return self._nodes.get(node_id)

    def browse_path(self, path: str) -> Node:
        """Walk ``a/b/c`` browse names from the Objects folder."""
        node = self.objects
        for name in path.split("/"):
            child = node.child_by_name(name)
            if child is None:
                raise AddressSpaceError(
                    f"browse path {path!r} broken at {name!r} "
                    f"(under '{node.browse_name.name}')")
            node = child
        return node

    def variables(self) -> list[VariableNode]:
        return [n for n in self._nodes.values()
                if isinstance(n, VariableNode)]

    def methods(self) -> list[MethodNode]:
        return [n for n in self._nodes.values() if isinstance(n, MethodNode)]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes
