"""Instance elaboration: expanding usage trees into instance trees.

A SysML v2 usage (``part emco : EMCO``) stands for an instance whose
structure combines the usage's own members with the members contributed
by its typing definition and by every (transitively) specialized type.
This module materializes that combination into a tree of
:class:`InstanceNode` records — the same expansion the paper's tool
performs when it walks the ISA-95 topology, and the basis for the
"Part/Attribute/Port instances" counts of Table I.

Rules implemented:

* own members shadow inherited members of the same name (redefinition by
  shadowing), and explicit redefinitions (``:>>``) replace their targets;
* ``ref part`` members are *references*: they appear as reference nodes
  but are not recursively expanded (ISA-95 machines referenced by
  workcells are modeled elsewhere);
* conjugated port typings (``: ~P``) flip the direction of the port's
  attributes and actions;
* nested *definitions* are never instantiated — only usages are;
* literal values attached to usages (``:>> ip = '10...'``) become the
  instance's value; feature references are kept symbolic and resolved by
  binding propagation (:func:`propagate_bindings`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .ast_nodes import FeatureRefExpr, Literal
from .elements import (BindingConnector, Connector, Element,
                       PerformAction, Usage)
from .errors import SysMLError


class ElaborationError(SysMLError):
    """Raised when a usage tree cannot be expanded (e.g. type cycles)."""


@dataclass
class InstanceNode:
    """One node of an elaborated instance tree."""

    name: str
    kind: str  # part | attribute | port | action | ...
    usage: Usage | None = None
    type_name: str = ""
    direction: str | None = None
    conjugated: bool = False
    is_reference: bool = False
    value: object | None = None
    value_ref: str | None = None  # symbolic feature-chain value, if any
    children: list["InstanceNode"] = field(default_factory=list)
    owner: Optional["InstanceNode"] = None

    # -- navigation ---------------------------------------------------------

    def add(self, child: "InstanceNode") -> "InstanceNode":
        child.owner = self
        self.children.append(child)
        return child

    @property
    def path(self) -> str:
        parts: list[str] = []
        node: InstanceNode | None = self
        while node is not None:
            parts.append(node.name)
            node = node.owner
        return ".".join(reversed(parts))

    def walk(self) -> Iterator["InstanceNode"]:
        """Pre-order traversal including self."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, path: str) -> Optional["InstanceNode"]:
        """Find a descendant by dotted path relative to this node."""
        node: InstanceNode | None = self
        for part in path.split("."):
            if node is None:
                return None
            node = next((c for c in node.children if c.name == part), None)
        return node

    def child(self, name: str) -> Optional["InstanceNode"]:
        return next((c for c in self.children if c.name == name), None)

    # -- metrics --------------------------------------------------------------

    def count(self, predicate: Callable[["InstanceNode"], bool]) -> int:
        return sum(1 for node in self.walk() if predicate(node))

    def __repr__(self) -> str:
        extra = f" : {self.type_name}" if self.type_name else ""
        return f"<InstanceNode {self.kind} {self.path}{extra}>"


class Elaborator:
    """Expands usages into :class:`InstanceNode` trees."""

    def __init__(self, *, max_depth: int = 64):
        self.max_depth = max_depth

    def elaborate(self, usage: Usage) -> InstanceNode:
        return self._expand(usage, depth=0, type_stack=())

    # -- expansion -----------------------------------------------------------

    def _expand(self, usage: Usage, *, depth: int,
                type_stack: tuple[int, ...],
                flip_direction: bool = False) -> InstanceNode:
        if depth > self.max_depth:
            raise ElaborationError(
                f"maximum elaboration depth exceeded at "
                f"{usage.qualified_name} (recursive part structure?)",
                usage.location)
        effective_type = usage.effective_type()
        node = InstanceNode(
            name=usage.name or f"<anon#{usage.local_ordinal}>",
            kind=usage.kind if usage.kind != "redefinition" else
            (usage.redefines[0].kind if usage.redefines else "attribute"),
            usage=usage,
            type_name=effective_type.qualified_name if effective_type else "",
            direction=_flip(usage.direction) if flip_direction else usage.direction,
            conjugated=usage.conjugated,
            is_reference=usage.is_reference,
        )
        self._attach_value(node, usage)
        if usage.is_reference:
            return node  # references are not expanded

        cycle_key = id(effective_type) if effective_type is not None else None
        if cycle_key is not None and cycle_key in type_stack:
            # Legal models never nest a definition inside itself; stop
            # expanding rather than recurse forever.
            return node
        next_stack = type_stack + ((cycle_key,) if cycle_key is not None else ())

        # conjugation flips directions of everything inside the port
        flip_children = flip_direction ^ usage.conjugated

        for member in self._effective_feature_members(usage):
            if isinstance(member, Usage):
                node.add(self._expand(member, depth=depth + 1,
                                      type_stack=next_stack,
                                      flip_direction=flip_children))
            elif isinstance(member, (BindingConnector, Connector)):
                node.add(_connector_node(member))
            elif isinstance(member, PerformAction):
                node.add(InstanceNode(
                    name=f"perform_{member.local_ordinal}", kind="perform",
                    value_ref=str(member.target_chain)))
        return node

    def _attach_value(self, node: InstanceNode, usage: Usage) -> None:
        value_expr = usage.value
        if value_expr is None:
            for redefined in usage.redefines:
                if redefined.value is not None:
                    value_expr = redefined.value
                    break
        if isinstance(value_expr, Literal):
            node.value = value_expr.value
        elif isinstance(value_expr, FeatureRefExpr):
            node.value_ref = str(value_expr.chain)

    def _effective_feature_members(self, usage: Usage) -> list[Element]:
        """Members to instantiate: own + inherited, redefinitions applied."""
        inherited: dict[str, Element] = {}
        anonymous: list[Element] = []
        for general in reversed(usage.all_supertypes()):
            for member in general.owned_elements:
                if isinstance(member, Usage) and member.name:
                    inherited[member.name] = member
                elif isinstance(member, (BindingConnector, Connector,
                                         PerformAction)):
                    anonymous.append(member)
        result: dict[str, Element] = dict(inherited)
        for member in usage.owned_elements:
            if isinstance(member, Usage):
                for redefined in member.redefines:
                    if redefined.name and redefined.name in result:
                        del result[redefined.name]
                if member.name:
                    result[member.name] = member
                else:
                    anonymous.append(member)
            elif isinstance(member, (BindingConnector, Connector,
                                     PerformAction)):
                anonymous.append(member)
        ordered = list(result.values()) + anonymous
        return ordered


def _flip(direction: str | None) -> str | None:
    if direction == "in":
        return "out"
    if direction == "out":
        return "in"
    return direction


def _connector_node(member: BindingConnector | Connector) -> InstanceNode:
    if isinstance(member, BindingConnector):
        return InstanceNode(
            name=f"bind_{member.local_ordinal}", kind="bind",
            value_ref=f"{member.left_chain}={member.right_chain}")
    return InstanceNode(
        name=member.name or f"connect_{member.local_ordinal}",
        kind=member.connector_kind,
        value_ref=f"{member.source_chain}->{member.target_chain}")


def elaborate(usage: Usage, *, max_depth: int = 64) -> InstanceNode:
    """Expand a single usage into an instance tree."""
    return Elaborator(max_depth=max_depth).elaborate(usage)


def propagate_bindings(root: InstanceNode) -> int:
    """Copy literal values across ``bind`` connectors until fixpoint.

    Returns the number of value propagations performed. Binding
    connectors equate two features: when one side has a concrete value
    and the other does not, the value flows. This mirrors how the
    generated configuration exposes machine attribute values through
    driver ports.
    """
    # Build a path index once; bind nodes record chains relative to their
    # owner instance.
    propagated = 0
    changed = True
    iterations = 0
    while changed and iterations < 100:
        changed = False
        iterations += 1
        for node in root.walk():
            if node.kind != "bind" or not node.value_ref:
                continue
            left_path, _, right_path = node.value_ref.partition("=")
            scope = node.owner
            if scope is None:
                continue
            left = _resolve_instance_chain(scope, left_path)
            right = _resolve_instance_chain(scope, right_path)
            if left is None or right is None:
                continue
            if left.value is None and right.value is not None:
                left.value = right.value
                propagated += 1
                changed = True
            elif right.value is None and left.value is not None:
                right.value = left.value
                propagated += 1
                changed = True
    return propagated


def _resolve_instance_chain(scope: InstanceNode, chain: str) -> InstanceNode | None:
    """Resolve ``a.b.c`` against an instance scope, searching outward."""
    parts = chain.split(".")
    node: InstanceNode | None = scope
    while node is not None:
        candidate = node.child(parts[0])
        if candidate is not None:
            for part in parts[1:]:
                candidate = candidate.child(part) if candidate else None
            if candidate is not None:
                return candidate
        node = node.owner
    return None
