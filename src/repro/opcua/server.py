"""The simulated OPC UA server.

Each machine (or workcell, in the generated deployment) runs one server
that exposes its variables and methods in a browsable address space.
The server hands out sessions; sessions perform read/write/call/browse
and own subscriptions, matching the service sets the configured software
stack uses (no security profiles — the paper's pipeline does not
configure them either).
"""

from __future__ import annotations

import itertools
from typing import Callable

from ..obs import METRICS
from .address_space import (AddressSpace, AddressSpaceError, Argument,
                            MethodNode, Node, ObjectNode, VariableNode)
from .network import UaNetwork, default_network
from .nodeids import NodeId, QualifiedName
from .subscription import DataChangeNotification, Subscription

_SESSIONS = METRICS.counter("opcua.sessions_created")
_READS = METRICS.counter("opcua.reads")
_WRITES = METRICS.counter("opcua.writes")
_CALLS = METRICS.counter("opcua.calls")
_SUBSCRIPTIONS = METRICS.counter("opcua.subscriptions_created")


class SessionError(RuntimeError):
    pass


class OpcUaServer:
    """An OPC UA server with a private address space."""

    def __init__(self, endpoint: str, *, application_name: str = "",
                 network: UaNetwork | None = None,
                 namespace_uris: list[str] | None = None):
        self.endpoint = endpoint
        self.application_name = application_name or endpoint
        self.network = network if network is not None else default_network
        self.space = AddressSpace()
        self.namespace_uris = ["http://opcfoundation.org/UA/"]
        self.namespace_uris.extend(namespace_uris or [])
        self.running = False
        self._sessions: dict[int, "Session"] = {}
        self._session_ids = itertools.count(1)
        self._node_counter = itertools.count(1000)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if not self.running:
            self.running = True
            self.network.register(self)

    def stop(self) -> None:
        if self.running:
            for session in list(self._sessions.values()):
                session.close()
            self.running = False
            self.network.unregister(self.endpoint)

    # -- address-space construction ---------------------------------------------

    def next_node_id(self, namespace: int, name: str | None = None) -> NodeId:
        if name is not None:
            return NodeId(namespace, name)
        return NodeId(namespace, next(self._node_counter))

    def add_object(self, parent: Node, name: str, *,
                   namespace: int = 1) -> ObjectNode:
        node = ObjectNode(self.next_node_id(namespace, f"{parent.path}/{name}"
                                            if parent.path else name),
                          QualifiedName(namespace, name))
        return self.space.add(parent, node)  # type: ignore[return-value]

    def add_variable(self, parent: Node, name: str, *, data_type: str,
                     initial_value: object = None, namespace: int = 1,
                     writable: bool = True) -> VariableNode:
        identifier = f"{parent.path}/{name}" if parent.path else name
        node = VariableNode(self.next_node_id(namespace, identifier),
                            QualifiedName(namespace, name),
                            data_type=data_type,
                            initial_value=initial_value,
                            writable=writable)
        return self.space.add(parent, node)  # type: ignore[return-value]

    def add_method(self, parent: Node, name: str, *,
                   handler: Callable[..., tuple] | None = None,
                   input_arguments: list[Argument] | None = None,
                   output_arguments: list[Argument] | None = None,
                   namespace: int = 1) -> MethodNode:
        identifier = f"{parent.path}/{name}" if parent.path else name
        node = MethodNode(self.next_node_id(namespace, identifier),
                          QualifiedName(namespace, name),
                          handler=handler,
                          input_arguments=input_arguments,
                          output_arguments=output_arguments)
        return self.space.add(parent, node)  # type: ignore[return-value]

    # -- sessions ------------------------------------------------------------------

    def create_session(self, client_name: str = "client") -> "Session":
        if not self.running:
            raise SessionError(
                f"server {self.endpoint} is not running")
        session = Session(next(self._session_ids), self, client_name)
        self._sessions[session.session_id] = session
        _SESSIONS.inc()
        return session

    def _drop_session(self, session_id: int) -> None:
        self._sessions.pop(session_id, None)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    def stats(self) -> dict[str, int]:
        return {
            "nodes": len(self.space),
            "variables": len(self.space.variables()),
            "methods": len(self.space.methods()),
            "sessions": self.session_count,
        }


class Session:
    """A client session on a server (service-call surface)."""

    def __init__(self, session_id: int, server: OpcUaServer,
                 client_name: str):
        self.session_id = session_id
        self.server = server
        self.client_name = client_name
        self.open = True
        self._subscriptions: dict[int, Subscription] = {}
        self._subscription_ids = itertools.count(1)

    # -- service set -----------------------------------------------------------

    def translate_browse_path(self, path: str) -> NodeId:
        self._ensure_open()
        return self.server.space.browse_path(path).node_id

    def read(self, node_id: NodeId):
        self._ensure_open()
        _READS.inc()
        node = self.server.space.get(node_id)
        if not isinstance(node, VariableNode):
            raise AddressSpaceError(f"{node_id} is not a variable")
        return node.read()

    def write(self, node_id: NodeId, value: object) -> None:
        self._ensure_open()
        _WRITES.inc()
        node = self.server.space.get(node_id)
        if not isinstance(node, VariableNode):
            raise AddressSpaceError(f"{node_id} is not a variable")
        node.write(value)

    def call(self, node_id: NodeId, *args) -> tuple:
        self._ensure_open()
        _CALLS.inc()
        node = self.server.space.get(node_id)
        if not isinstance(node, MethodNode):
            raise AddressSpaceError(f"{node_id} is not a method")
        return node.call(*args)

    def create_subscription(
            self, callback: Callable[[DataChangeNotification], None]
    ) -> Subscription:
        self._ensure_open()
        _SUBSCRIPTIONS.inc()
        subscription = Subscription(next(self._subscription_ids), callback)
        self._subscriptions[subscription.subscription_id] = subscription
        return subscription

    def monitor(self, subscription: Subscription, node_id: NodeId):
        self._ensure_open()
        node = self.server.space.get(node_id)
        if not isinstance(node, VariableNode):
            raise AddressSpaceError(f"{node_id} is not a variable")
        return subscription.monitor(node)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        if self.open:
            for subscription in self._subscriptions.values():
                subscription.close()
            self._subscriptions.clear()
            self.open = False
            self.server._drop_session(self.session_id)

    def _ensure_open(self) -> None:
        if not self.open:
            raise SessionError("session is closed")
        if not self.server.running:
            raise SessionError(
                f"server {self.server.endpoint} went down")
