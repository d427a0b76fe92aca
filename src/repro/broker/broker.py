"""In-memory topic-based message broker.

The central component of the paper's SOM architecture: all OPC UA
clients, control software, and storage components communicate through
it. Semantics are deliberately simple and synchronous — a publish
delivers to every matching subscription before returning — which makes
the simulated factory deterministic and easy to test. Retained messages
and per-subscription queues cover the patterns the configured software
stack needs (late-joining historians, request/reply method calls).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..obs import METRICS
from .topics import topic_matches, validate_filter, validate_topic

Payload = object
Handler = Callable[[str, Payload], None]

_PUBLISHED = METRICS.counter("broker.messages_published")
_DELIVERED = METRICS.counter("broker.messages_delivered")
_SUBSCRIBED = METRICS.counter("broker.subscriptions_created")


@dataclass(frozen=True)
class Message:
    """A published message: topic, payload, and a broker sequence number."""

    topic: str
    payload: Payload
    sequence: int


@dataclass
class Subscription:
    """One active subscription of a client."""

    client_id: str
    topic_filter: str
    handler: Handler | None = None
    queue: deque = field(default_factory=deque)
    delivered: int = 0

    def matches(self, topic: str) -> bool:
        return topic_matches(self.topic_filter, topic)


class BrokerError(RuntimeError):
    pass


class MessageBroker:
    """A deterministic in-memory pub/sub broker."""

    def __init__(self, name: str = "broker"):
        self.name = name
        self._subscriptions: dict[int, Subscription] = {}
        self._retained: dict[str, Message] = {}
        self._sequence = itertools.count(1)
        self._subscription_ids = itertools.count(1)
        self.published_count = 0
        self.delivered_count = 0

    # -- subscription management -------------------------------------------

    def subscribe(self, client_id: str, topic_filter: str,
                  handler: Handler | None = None,
                  *, receive_retained: bool = True) -> int:
        """Register a subscription; returns its id.

        With a *handler*, messages are delivered synchronously by calling
        it. Without one, messages accumulate in the subscription queue
        and are fetched with :meth:`poll`.
        """
        validate_filter(topic_filter)
        subscription_id = next(self._subscription_ids)
        subscription = Subscription(client_id, topic_filter, handler)
        self._subscriptions[subscription_id] = subscription
        _SUBSCRIBED.inc()
        if receive_retained:
            for topic, message in sorted(self._retained.items()):
                if subscription.matches(topic):
                    self._deliver(subscription, message)
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> None:
        self._subscriptions.pop(subscription_id, None)

    # -- publishing ----------------------------------------------------------

    def publish(self, topic: str, payload: Payload,
                *, retain: bool = False) -> int:
        """Publish; returns the number of subscriptions that received it."""
        validate_topic(topic)
        message = Message(topic, payload, next(self._sequence))
        self.published_count += 1
        _PUBLISHED.inc()
        if retain:
            self._retained[topic] = message
        receivers = 0
        for subscription in list(self._subscriptions.values()):
            if subscription.matches(topic):
                self._deliver(subscription, message)
                receivers += 1
        return receivers

    def _deliver(self, subscription: Subscription, message: Message) -> None:
        self.delivered_count += 1
        _DELIVERED.inc()
        subscription.delivered += 1
        if subscription.handler is not None:
            subscription.handler(message.topic, message.payload)
        else:
            subscription.queue.append(message)

    # -- polling ---------------------------------------------------------------

    def poll(self, subscription_id: int, max_messages: int | None = None
             ) -> list[Message]:
        """Drain queued messages for a handler-less subscription."""
        subscription = self._subscriptions.get(subscription_id)
        if subscription is None:
            raise BrokerError(f"unknown subscription {subscription_id}")
        drained: list[Message] = []
        while subscription.queue and (max_messages is None
                                      or len(drained) < max_messages):
            drained.append(subscription.queue.popleft())
        return drained

    # -- introspection -----------------------------------------------------------

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def matching_subscriptions(self, topic: str) -> int:
        """How many active subscriptions would receive *topic*."""
        validate_topic(topic)
        return sum(1 for s in self._subscriptions.values()
                   if s.matches(topic))

    def stats(self) -> dict[str, int]:
        return {
            "published": self.published_count,
            "delivered": self.delivered_count,
            "subscriptions": self.subscription_count,
            "retained": len(self._retained),
        }
