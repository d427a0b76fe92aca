"""The in-memory "network" connecting OPC UA clients to servers.

Servers register under their endpoint URL
(``opc.tcp://host:port/path``); clients connect by URL. A registry
instance stands in for a LAN segment; tests create isolated registries,
while the simulated factory shares one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .server import OpcUaServer


class NetworkError(ConnectionError):
    pass


class UaNetwork:
    """Registry of reachable OPC UA servers."""

    def __init__(self) -> None:
        self._servers: dict[str, "OpcUaServer"] = {}

    def register(self, server: "OpcUaServer") -> None:
        if server.endpoint in self._servers:
            raise NetworkError(
                f"endpoint already in use: {server.endpoint}")
        self._servers[server.endpoint] = server

    def unregister(self, endpoint: str) -> None:
        self._servers.pop(endpoint, None)

    def lookup(self, endpoint: str) -> "OpcUaServer":
        try:
            server = self._servers[endpoint]
        except KeyError:
            raise NetworkError(
                f"no OPC UA server listening on {endpoint}") from None
        if not server.running:
            raise NetworkError(f"server at {endpoint} is not running")
        return server

    def __len__(self) -> int:
        return len(self._servers)


#: Default shared network used when none is passed explicitly.
default_network = UaNetwork()
