"""Message broker and client tests."""

import pytest

from repro.broker import (BrokerClient, BrokerError, MessageBroker,
                          TopicError)


@pytest.fixture
def broker():
    return MessageBroker()


class TestPublishSubscribe:
    def test_handler_receives_message(self, broker):
        seen = []
        broker.subscribe("c1", "a/b", lambda t, p: seen.append((t, p)))
        receivers = broker.publish("a/b", {"x": 1})
        assert receivers == 1
        assert seen == [("a/b", {"x": 1})]

    def test_non_matching_not_delivered(self, broker):
        seen = []
        broker.subscribe("c1", "a/b", lambda t, p: seen.append(p))
        broker.publish("a/c", 1)
        assert seen == []

    def test_wildcard_subscription(self, broker):
        seen = []
        broker.subscribe("c1", "factory/+/data/#",
                         lambda t, p: seen.append(t))
        broker.publish("factory/emco/data/x", 1)
        broker.publish("factory/ur5/data/deep/y", 2)
        broker.publish("factory/emco/status", 3)
        assert seen == ["factory/emco/data/x", "factory/ur5/data/deep/y"]

    def test_multiple_subscribers(self, broker):
        counts = {"a": 0, "b": 0}
        broker.subscribe("a", "t", lambda t, p: counts.__setitem__(
            "a", counts["a"] + 1))
        broker.subscribe("b", "t", lambda t, p: counts.__setitem__(
            "b", counts["b"] + 1))
        assert broker.publish("t", None) == 2
        assert counts == {"a": 1, "b": 1}

    def test_publish_validates_topic(self, broker):
        with pytest.raises(TopicError):
            broker.publish("bad/+/topic", 1)

    def test_queue_mode_poll(self, broker):
        sid = broker.subscribe("c1", "q/t")
        broker.publish("q/t", "one")
        broker.publish("q/t", "two")
        messages = broker.poll(sid)
        assert [m.payload for m in messages] == ["one", "two"]
        assert broker.poll(sid) == []

    def test_poll_max_messages(self, broker):
        sid = broker.subscribe("c1", "q/t")
        for i in range(5):
            broker.publish("q/t", i)
        assert len(broker.poll(sid, max_messages=2)) == 2
        assert len(broker.poll(sid)) == 3

    def test_poll_unknown_subscription(self, broker):
        with pytest.raises(BrokerError):
            broker.poll(999)

    def test_sequence_numbers_increase(self, broker):
        sid = broker.subscribe("c1", "t")
        broker.publish("t", "a")
        broker.publish("t", "b")
        first, second = broker.poll(sid)
        assert second.sequence > first.sequence


class TestRetained:
    def test_retained_delivered_on_subscribe(self, broker):
        broker.publish("state/mode", "auto", retain=True)
        seen = []
        broker.subscribe("late", "state/#", lambda t, p: seen.append(p))
        assert seen == ["auto"]

    def test_retained_replaced(self, broker):
        broker.publish("s", 1, retain=True)
        broker.publish("s", 2, retain=True)
        seen = []
        broker.subscribe("late", "s", lambda t, p: seen.append(p))
        assert seen == [2]

    def test_retained_opt_out(self, broker):
        broker.publish("s", 1, retain=True)
        seen = []
        broker.subscribe("c", "s", lambda t, p: seen.append(p),
                         receive_retained=False)
        assert seen == []


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self, broker):
        seen = []
        sid = broker.subscribe("c1", "t", lambda t, p: seen.append(p))
        broker.unsubscribe(sid)
        broker.publish("t", 1)
        assert seen == []

    def test_stats(self, broker):
        broker.subscribe("c1", "t", lambda t, p: None)
        broker.publish("t", 1)
        stats = broker.stats()
        assert stats["published"] == 1
        assert stats["delivered"] == 1
        assert stats["subscriptions"] == 1


class TestBrokerClient:
    def test_publish_subscribe_roundtrip(self, broker):
        client_a = BrokerClient(broker, "a")
        client_b = BrokerClient(broker, "b")
        seen = []
        client_b.subscribe("chat/#", lambda t, p: seen.append(p))
        client_a.publish("chat/hello", "hi")
        assert seen == ["hi"]

    def test_disconnect_cleans_subscriptions(self, broker):
        client = BrokerClient(broker, "a")
        client.subscribe("t")
        client.disconnect()
        assert broker.subscription_count == 0

    def test_disconnected_client_raises(self, broker):
        client = BrokerClient(broker, "a")
        client.disconnect()
        with pytest.raises(BrokerError):
            client.publish("t", 1)

    def test_request_reply(self, broker):
        server = BrokerClient(broker, "server")
        client = BrokerClient(broker, "client")
        server.serve("svc/echo",
                     lambda topic, req: {"echo": req["message"]})
        reply = client.request("svc/echo", {"message": "ping"})
        assert reply == {"echo": "ping"}

    def test_request_without_responder_raises(self, broker):
        client = BrokerClient(broker, "client")
        with pytest.raises(BrokerError, match="no responder"):
            client.request("svc/none", {})

    def test_request_reply_does_not_leak_subscriptions(self, broker):
        server = BrokerClient(broker, "server")
        client = BrokerClient(broker, "client")
        server.serve("svc/echo", lambda topic, req: "ok")
        before = broker.subscription_count
        client.request("svc/echo", {})
        assert broker.subscription_count == before

    def test_two_requests_get_distinct_replies(self, broker):
        server = BrokerClient(broker, "server")
        client = BrokerClient(broker, "client")
        server.serve("svc/inc", lambda t, req: req["n"] + 1)
        assert client.request("svc/inc", {"n": 1}) == 2
        assert client.request("svc/inc", {"n": 10}) == 11
