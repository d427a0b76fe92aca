"""Model navigation and metric queries.

These are the measurements behind Table I: the part definitions a
usage's closure involves, its part/attribute/port instances, and
generic "find usages typed by X" navigation used by the ISA-95
topology extractor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elements import Definition, Model, Type, Usage
from .instances import InstanceNode, elaborate


@dataclass(frozen=True)
class ElementCounts:
    """Element statistics for one scope (a machine, a workcell, ...)."""

    part_definitions: int = 0
    part_instances: int = 0
    attribute_instances: int = 0
    port_instances: int = 0
    action_instances: int = 0
    binding_connectors: int = 0
    connectors: int = 0

    def __add__(self, other: "ElementCounts") -> "ElementCounts":
        return ElementCounts(
            self.part_definitions + other.part_definitions,
            self.part_instances + other.part_instances,
            self.attribute_instances + other.attribute_instances,
            self.port_instances + other.port_instances,
            self.action_instances + other.action_instances,
            self.binding_connectors + other.binding_connectors,
            self.connectors + other.connectors,
        )


def usages_typed_by(model: Model, definition: Type,
                    *, transitive: bool = True) -> list[Usage]:
    """Usages whose (effective) type is *definition* or a specialization."""
    result: list[Usage] = []
    for element in model.all_elements():
        if not isinstance(element, Usage):
            continue
        typ = element.effective_type()
        if typ is None:
            continue
        if typ is definition or (transitive and typ.conforms_to(definition)):
            result.append(element)
    return result


def specializations_of(model: Model, definition: Definition) -> list[Definition]:
    """Definitions that (transitively) specialize *definition*."""
    return [e for e in model.all_elements()
            if isinstance(e, Definition) and e is not definition
            and e.conforms_to(definition)]


def count_definition_closure(usage: Usage) -> int:
    """Number of distinct definitions involved in modeling *usage*.

    This is the paper's "Part Def." column: the definitions the usage's
    type closure declares or references (the machine def, its nested
    data/service defs, port defs, and everything they specialize outside
    the shared ISA-95 base library).
    """
    closure: set[int] = set()

    def visit_type(typ: Type | None) -> None:
        if typ is None or id(typ) in closure:
            return
        if isinstance(typ, Definition):
            closure.add(id(typ))
            for nested in typ.descendants():
                if isinstance(nested, Definition):
                    closure.add(id(nested))
                elif isinstance(nested, Usage):
                    visit_type(nested.effective_type())
        for general in typ.specializations:
            if isinstance(general, Definition):
                visit_type(general)

    visit_type(usage.effective_type())
    for nested in usage.descendants():
        if isinstance(nested, Usage):
            visit_type(nested.effective_type())
    return len(closure)


def instance_counts(usage: Usage) -> ElementCounts:
    """Elaborate *usage* and count the instance categories of Table I."""
    tree = elaborate(usage)
    return instance_counts_of_tree(tree)


def instance_counts_of_tree(tree: InstanceNode) -> ElementCounts:
    parts = attributes = ports = actions = binds = connectors = 0
    for node in tree.walk():
        if node.kind == "part":
            parts += 1
        elif node.kind == "attribute":
            attributes += 1
        elif node.kind == "port":
            ports += 1
        elif node.kind == "action":
            actions += 1
        elif node.kind == "bind":
            binds += 1
        elif node.kind in ("connection", "interface"):
            connectors += 1
    return ElementCounts(
        part_definitions=0,
        part_instances=parts,
        attribute_instances=attributes,
        port_instances=ports,
        action_instances=actions,
        binding_connectors=binds,
        connectors=connectors,
    )
