"""OPC UA subscriptions and monitored items.

A client creates a subscription on a server and adds monitored items
(variables). Each variable write produces a data-change notification
that is either queued (for :meth:`Subscription.take_notifications`) or
pushed to a callback — the mechanism the generated OPC UA clients use
to forward machine data onto the message broker.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .address_space import DataValue, VariableNode
from .nodeids import NodeId

_item_ids = itertools.count(1)


@dataclass(frozen=True)
class DataChangeNotification:
    subscription_id: int
    monitored_item_id: int
    node_id: NodeId
    value: object
    status: str
    timestamp: float


class MonitoredItem:
    """One monitored variable inside a subscription."""

    def __init__(self, subscription: "Subscription", node: VariableNode):
        self.item_id = next(_item_ids)
        self.subscription = subscription
        self.node = node
        self.notification_count = 0
        node.on_change(self._on_change)

    def _on_change(self, node: VariableNode, data_value: DataValue) -> None:
        self.notification_count += 1
        notification = DataChangeNotification(
            subscription_id=self.subscription.subscription_id,
            monitored_item_id=self.item_id,
            node_id=node.node_id,
            value=data_value.value,
            status=data_value.status,
            timestamp=data_value.source_timestamp,
        )
        self.subscription._dispatch(notification)

    def detach(self) -> None:
        self.node.remove_listener(self._on_change)


class Subscription:
    """A server-side subscription owned by one client session."""

    def __init__(self, subscription_id: int,
                 callback: Callable[[DataChangeNotification], None] | None = None,
                 *, max_queue: int = 10_000):
        self.subscription_id = subscription_id
        self.callback = callback
        self.items: dict[int, MonitoredItem] = {}
        self.queue: deque[DataChangeNotification] = deque(maxlen=max_queue)
        self.dropped = 0
        self.active = True

    def monitor(self, node: VariableNode) -> MonitoredItem:
        item = MonitoredItem(self, node)
        self.items[item.item_id] = item
        return item

    def unmonitor(self, item_id: int) -> None:
        item = self.items.pop(item_id, None)
        if item is not None:
            item.detach()

    def _dispatch(self, notification: DataChangeNotification) -> None:
        if not self.active:
            return
        if self.callback is not None:
            self.callback(notification)
        else:
            if len(self.queue) == self.queue.maxlen:
                self.dropped += 1
            self.queue.append(notification)

    def take_notifications(self, max_count: int | None = None
                           ) -> list[DataChangeNotification]:
        taken: list[DataChangeNotification] = []
        while self.queue and (max_count is None or len(taken) < max_count):
            taken.append(self.queue.popleft())
        return taken

    def close(self) -> None:
        self.active = False
        for item in list(self.items.values()):
            item.detach()
        self.items.clear()
