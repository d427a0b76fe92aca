"""Client wrapper over the message broker.

Components in the simulated software stack (OPC UA clients, storage
writers, the SOM orchestrator) hold a :class:`BrokerClient` rather than
the broker itself, mirroring how real components hold an MQTT/AMQP
session. The wrapper tracks this client's subscriptions so a component
shutdown cleans up after itself, and offers a simple request/reply
helper used for machine-service invocation.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .broker import BrokerError, Message, MessageBroker

_request_ids = itertools.count(1)


class BrokerClient:
    """A named session on a :class:`MessageBroker`."""

    def __init__(self, broker: MessageBroker, client_id: str):
        self.broker = broker
        self.client_id = client_id
        self._subscription_ids: list[int] = []
        self.connected = True

    # -- pub/sub -------------------------------------------------------------

    def publish(self, topic: str, payload: object,
                *, retain: bool = False) -> int:
        self._ensure_connected()
        return self.broker.publish(topic, payload, retain=retain)

    def subscribe(self, topic_filter: str,
                  handler: Callable[[str, object], None] | None = None
                  ) -> int:
        self._ensure_connected()
        subscription_id = self.broker.subscribe(self.client_id, topic_filter,
                                                handler)
        self._subscription_ids.append(subscription_id)
        return subscription_id

    def poll(self, subscription_id: int,
             max_messages: int | None = None) -> list[Message]:
        self._ensure_connected()
        return self.broker.poll(subscription_id, max_messages)

    # -- request/reply ----------------------------------------------------------

    def request(self, topic: str, payload: dict) -> object:
        """Publish a request and wait (synchronously) for the reply.

        The responder is expected to subscribe on *topic* and publish the
        reply on the ``reply_to`` topic included in the request envelope.
        Because the broker is synchronous, the reply is available
        immediately after ``publish`` returns, or never.
        """
        self._ensure_connected()
        request_id = next(_request_ids)
        reply_topic = f"{topic}/reply/{self.client_id}/{request_id}"
        replies: list[object] = []
        subscription_id = self.broker.subscribe(
            self.client_id, reply_topic,
            lambda _topic, reply_payload: replies.append(reply_payload))
        try:
            envelope = dict(payload)
            envelope["reply_to"] = reply_topic
            envelope["request_id"] = request_id
            receivers = self.broker.publish(topic, envelope)
            if receivers == 0:
                raise BrokerError(
                    f"no responder subscribed on {topic!r}")
            if not replies:
                raise BrokerError(f"responder on {topic!r} did not reply")
            return replies[0]
        finally:
            self.broker.unsubscribe(subscription_id)
            if subscription_id in self._subscription_ids:
                self._subscription_ids.remove(subscription_id)

    def serve(self, topic_filter: str,
              responder: Callable[[str, dict], object]) -> int:
        """Subscribe as a request responder.

        *responder* receives (topic, request payload) and its return
        value is published to the request's ``reply_to`` topic.
        """
        def handle(topic: str, payload: object) -> None:
            if not isinstance(payload, dict) or "reply_to" not in payload:
                return
            reply = responder(topic, payload)
            self.broker.publish(payload["reply_to"], reply)

        return self.subscribe(topic_filter, handle)

    # -- lifecycle -------------------------------------------------------------

    def disconnect(self) -> None:
        for subscription_id in self._subscription_ids:
            self.broker.unsubscribe(subscription_id)
        self._subscription_ids.clear()
        self.connected = False

    def _ensure_connected(self) -> None:
        if not self.connected:
            raise BrokerError(f"client {self.client_id!r} is disconnected")

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"<BrokerClient {self.client_id} ({state})>"
