"""OPC UA subscriptions and monitored items.

A client creates a subscription on a server and adds monitored items
(variables). Each variable write produces a data-change notification
pushed to the subscription's callback — the mechanism the generated
OPC UA clients use to forward machine data onto the message broker.
"""

from __future__ import annotations

import itertools
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
                 callback: Callable[[DataChangeNotification], None]):
        self.subscription_id = subscription_id
        self.callback = callback
        self.items: dict[int, MonitoredItem] = {}
        self.active = True

    def monitor(self, node: VariableNode) -> MonitoredItem:
        item = MonitoredItem(self, node)
        self.items[item.item_id] = item
        return item

    def _dispatch(self, notification: DataChangeNotification) -> None:
        if self.active:
            self.callback(notification)

    def close(self) -> None:
        self.active = False
        for item in list(self.items.values()):
            item.detach()
        self.items.clear()
