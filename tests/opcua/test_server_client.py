"""Server/client/session/subscription integration tests."""

import pytest

from repro.opcua import (Argument, NetworkError, OpcUaClient, OpcUaServer,
                         SessionError, UaNetwork, VariableNode)


@pytest.fixture
def network():
    return UaNetwork()


@pytest.fixture
def server(network):
    server = OpcUaServer("opc.tcp://wc02:4840", network=network,
                         application_name="wc02-server")
    machine = server.add_object(server.space.objects, "emco")
    data = server.add_object(machine, "data")
    server.add_variable(data, "actualX", data_type="Double",
                        initial_value=0.0)
    server.add_variable(data, "mode", data_type="String",
                        initial_value="idle")
    services = server.add_object(machine, "services")
    server.add_method(services, "is_ready",
                      handler=lambda: (True,),
                      output_arguments=[Argument("ready", "Boolean")])
    server.add_method(services, "run_program",
                      handler=lambda name: (f"started:{name}",),
                      input_arguments=[Argument("program", "String")],
                      output_arguments=[Argument("status", "String")])
    server.start()
    yield server
    server.stop()


class TestServerLifecycle:
    def test_start_registers_endpoint(self, server, network):
        assert network.lookup("opc.tcp://wc02:4840") is server

    def test_stop_unregisters(self, network):
        server = OpcUaServer("opc.tcp://x:1", network=network)
        server.start()
        server.stop()
        with pytest.raises(NetworkError):
            network.lookup("opc.tcp://x:1")

    def test_duplicate_endpoint_rejected(self, server, network):
        clone = OpcUaServer("opc.tcp://wc02:4840", network=network)
        with pytest.raises(NetworkError):
            clone.start()

    def test_session_requires_running_server(self, network):
        server = OpcUaServer("opc.tcp://x:1", network=network)
        with pytest.raises(SessionError):
            server.create_session()

    def test_stats(self, server):
        stats = server.stats()
        assert stats["variables"] == 2
        assert stats["methods"] == 2


class TestClientBasics:
    def test_connect_read(self, server, network):
        client = OpcUaClient("test", network=network)
        client.connect("opc.tcp://wc02:4840")
        assert client.read("emco/data/actualX") == 0.0
        client.disconnect()

    def test_connect_unknown_endpoint(self, network):
        client = OpcUaClient(network=network)
        with pytest.raises(NetworkError):
            client.connect("opc.tcp://nowhere:4840")

    def test_double_connect_rejected(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        with pytest.raises(NetworkError):
            client.connect("opc.tcp://wc02:4840")

    def test_write_then_read(self, server, network):
        with_client = OpcUaClient(network=network)
        with_client.connect("opc.tcp://wc02:4840")
        with_client.write("emco/data/actualX", 12.5)
        assert with_client.read("emco/data/actualX") == 12.5

    def test_call_method(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        assert client.call("emco/services/is_ready") == (True,)
        assert client.call("emco/services/run_program", "part42.nc") == \
            ("started:part42.nc",)

    def test_browse(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        roots = client.browse()
        assert [n.browse_name.name for n in roots] == ["emco"]

    def test_browse_variables(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        pending, names = client.browse(), set()
        while pending:
            node = pending.pop()
            if isinstance(node, VariableNode):
                names.add(node.browse_name.name)
            pending.extend(client.browse(node.node_id))
        assert names == {"actualX", "mode"}

    def test_context_manager_disconnects(self, server, network):
        with OpcUaClient(network=network) as client:
            client.connect("opc.tcp://wc02:4840")
            assert client.connected
        assert not client.connected

    def test_operations_require_connection(self, network):
        client = OpcUaClient(network=network)
        with pytest.raises(NetworkError):
            client.read("x")

    def test_session_invalidated_by_server_stop(self, network):
        server = OpcUaServer("opc.tcp://y:1", network=network)
        server.add_variable(server.space.objects, "v", data_type="Double",
                            initial_value=0.0)
        server.start()
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://y:1")
        server.stop()
        with pytest.raises(SessionError):
            client.read("v")


class TestSubscriptions:
    def test_data_change_callback(self, server, network):
        writer = OpcUaClient("writer", network=network)
        writer.connect("opc.tcp://wc02:4840")
        watcher = OpcUaClient("watcher", network=network)
        watcher.connect("opc.tcp://wc02:4840")
        seen = []
        watcher.subscribe(["emco/data/actualX"],
                          callback=lambda n: seen.append(n.value))
        writer.write("emco/data/actualX", 1.0)
        writer.write("emco/data/actualX", 2.0)
        assert seen == [1.0, 2.0]

    def test_queue_mode(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        subscription = client.subscribe(["emco/data/mode"])
        client.write("emco/data/mode", "auto")
        notes = subscription.take_notifications()
        assert len(notes) == 1
        assert notes[0].value == "auto"
        assert subscription.take_notifications() == []

    def test_multiple_monitored_items(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        subscription = client.subscribe(
            ["emco/data/actualX", "emco/data/mode"])
        client.write("emco/data/actualX", 5.0)
        client.write("emco/data/mode", "run")
        notes = subscription.take_notifications()
        assert {str(n.node_id) for n in notes} == {
            "ns=1;s=emco/data/actualX", "ns=1;s=emco/data/mode"}

    def test_subscription_closed_with_session(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        seen = []
        client.subscribe(["emco/data/actualX"],
                         callback=lambda n: seen.append(n.value))
        client.disconnect()
        writer = OpcUaClient(network=network)
        writer.connect("opc.tcp://wc02:4840")
        writer.write("emco/data/actualX", 9.0)
        assert seen == []

    def test_queue_overflow_drops(self, server, network):
        client = OpcUaClient(network=network)
        client.connect("opc.tcp://wc02:4840")
        subscription = client.session.create_subscription()
        subscription.queue = type(subscription.queue)(maxlen=2)
        client.session.monitor(subscription,
                               client.session.translate_browse_path(
                                   "emco/data/actualX"))
        for i in range(5):
            client.write("emco/data/actualX", float(i))
        assert subscription.dropped == 3
        assert [n.value for n in subscription.take_notifications()] == \
            [3.0, 4.0]
