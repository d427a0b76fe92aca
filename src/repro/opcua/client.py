"""The simulated OPC UA client.

Connects to a server by endpoint URL over the in-memory network and
wraps a session. The generated "OPC UA client" software components of
the paper's stack use this class to subscribe to machine variables and
forward them to the message broker.
"""

from __future__ import annotations

from typing import Callable

from .address_space import Node
from .network import NetworkError, UaNetwork, default_network
from .nodeids import NodeId
from .server import OpcUaServer, Session
from .subscription import DataChangeNotification, Subscription


class OpcUaClient:
    """Client handle: connect -> read/write/call/subscribe -> disconnect."""

    def __init__(self, client_name: str = "client",
                 network: UaNetwork | None = None):
        self.client_name = client_name
        self.network = network if network is not None else default_network
        self._session: Session | None = None
        self._server: OpcUaServer | None = None

    # -- connection ------------------------------------------------------------

    def connect(self, endpoint: str) -> None:
        if self._session is not None:
            raise NetworkError(f"{self.client_name} is already connected")
        server = self.network.lookup(endpoint)
        self._session = server.create_session(self.client_name)
        self._server = server

    def disconnect(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None
            self._server = None

    @property
    def connected(self) -> bool:
        return self._session is not None and self._session.open

    @property
    def session(self) -> Session:
        if self._session is None:
            raise NetworkError(f"{self.client_name} is not connected")
        return self._session

    # -- convenience service wrappers ---------------------------------------------

    def browse(self, node_id: NodeId | None = None) -> list[Node]:
        return self.session.browse(node_id)

    def read(self, node: NodeId | str):
        return self.session.read(self._resolve(node)).value

    def read_data_value(self, node: NodeId | str):
        return self.session.read(self._resolve(node))

    def write(self, node: NodeId | str, value: object) -> None:
        self.session.write(self._resolve(node), value)

    def call(self, node: NodeId | str, *args) -> tuple:
        return self.session.call(self._resolve(node), *args)

    def subscribe(self, nodes: list[NodeId | str],
                  callback: Callable[[DataChangeNotification], None] | None = None
                  ) -> Subscription:
        subscription = self.session.create_subscription(callback)
        for node in nodes:
            self.session.monitor(subscription, self._resolve(node))
        return subscription

    def _resolve(self, node: NodeId | str) -> NodeId:
        if isinstance(node, NodeId):
            return node
        return self.session.translate_browse_path(node)

    def __enter__(self) -> "OpcUaClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.disconnect()

    def __repr__(self) -> str:
        state = "connected" if self.connected else "idle"
        return f"<OpcUaClient {self.client_name} ({state})>"
