"""Fine-grained model fingerprints and the resolution dependency graph.

The incremental engine needs two facts about every part of a model:

* **what is here** — :func:`deep_fingerprint`, a Merkle hash over the
  purely *syntactic* content of a subtree: each element's class, name
  and the ``syntax_fields`` its class declares in
  :mod:`repro.sysml.elements` — never resolved pointers, never source
  locations, so comment-only edits hash equal;
* **who resolved through what** — a :class:`DepGraph` recorded while
  the resolver runs, with two edge kinds:

  - *target* edges point from a consumer to the subtree anchor its
    reference finally resolved to; they go stale when the producer's
    deep fingerprint changes (any content edit);
  - *scope* edges point from a consumer to every namespace its lookup
    *consulted* on the way (owner-chain walk, imports, supertype
    tables); they go stale only when that namespace's
    :func:`scope_fingerprint` changes — its declaration head, member
    name/kind table, imports or aliases — so a value edit deep inside
    a consulted scope dirties nobody.

Anchors are the granularity of invalidation: the model root's direct
children plus every *named* package or part usage. Everything else
(attributes, connectors, anonymous members) belongs to its nearest
anchor. :class:`NodeKey` names an anchor by class + path, stably across
loads of the same sources. A path joins names with ``::`` and spells an
anonymous element ``#ordinal``; a name that would not split back out
(one containing ``::``, say) is quoted the way the printer quotes it,
so :func:`find_by_path` inverts :func:`node_path` exactly.

Both fingerprints are cached on the elements. Nothing here snapshots a
whole model: :class:`~repro.sysml.ModelSession`'s merge measures the
elements it touches before and after an edit and diffs those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..fingerprint import NODE_SALT, fingerprint
from .ast_nodes import (FeatureChain, FeatureRefExpr, Literal, Multiplicity,
                        QualifiedName)
from .elements import (Alias, Definition, Element, Import, Model, Package,
                       PartUsage, RedefinitionUsage, Type, Usage)
from .printer import format_name

# Cached-attribute names (stored in element __dict__, invalidated by the
# merge along changed ancestor chains).
_DEEP_ATTR = "_repro_deep_fp"
_SCOPE_ATTR = "_repro_scope_fp"
_KEY_ATTR = "_repro_node_key"
_ANCHOR_ATTR = "_repro_anchor_key"


@dataclass(frozen=True)
class NodeKey:
    """Stable identity of one model node: element class + model path."""

    kind: str
    path: str

    def __str__(self) -> str:
        return f"{self.kind}:{self.path or '<root>'}"

    def is_under(self, path: str) -> bool:
        """Whether this key's path lies within *path* (inclusive)."""
        return self.path == path or self.path.startswith(path + "::")


#: The model root as a scope (its member table is the top-level names).
ROOT_KEY = NodeKey("Model", "")


def _segment(element: Element, index: int | None = None) -> str:
    """One path segment — syntactic, so it is identical before and
    after resolution (``:>> ip = ...`` contributes ``ip`` even while
    its resolver-assigned name is still unset). An element without a
    name is ``#`` plus its position (*index*, when the caller knows it).

    A name that would not split back out of a ``::``-joined path (it
    contains ``::`` or ends with ``:``), or that would read as a
    position or a quoted name (it starts with ``#`` or ``'``), is
    quoted the way the printer quotes names."""
    name = element.name
    if name is None and isinstance(element, RedefinitionUsage) \
            and element.redefinition_names:
        name = element.redefinition_names[0].parts[-1]
    if not name:
        return f"#{element.local_ordinal if index is None else index}"
    if "::" in name or name.endswith(":") or name.startswith(("#", "'")):
        return format_name(name)
    return name


def node_path(element: Element) -> str:
    """``Pkg::Part::child`` path of an element from the model root;
    :func:`find_by_path` is its inverse."""
    parts: list[str] = []
    node: Element | None = element
    while node is not None and not isinstance(node, Model):
        parts.append(_segment(node))
        node = node.owner
    return "::".join(reversed(parts))


def is_anchor(element: Element) -> bool:
    """Anchors: root children plus named packages, definitions and
    part usages — the granularity at which dirtiness is tracked."""
    if isinstance(element, Model):
        return False
    if isinstance(element.owner, Model):
        return True
    return isinstance(element, (Package, Definition, PartUsage)) \
        and bool(element.name)


def node_key(element: Element) -> NodeKey:
    """The (cached) :class:`NodeKey` of one element."""
    if isinstance(element, Model):
        return ROOT_KEY
    cached = element.__dict__.get(_KEY_ATTR)
    if cached is None:
        cached = NodeKey(type(element).__name__, node_path(element))
        element.__dict__[_KEY_ATTR] = cached
    return cached


def anchor_key(element: Element) -> NodeKey:
    """The key of the nearest enclosing anchor (or the root)."""
    cached = element.__dict__.get(_ANCHOR_ATTR)
    if cached is not None:
        return cached
    node: Element | None = element
    while node is not None and not isinstance(node, Model):
        if is_anchor(node):
            key = node_key(node)
            break
        node = node.owner
    else:
        key = ROOT_KEY
    element.__dict__[_ANCHOR_ATTR] = key
    return key


# -- syntactic signatures ----------------------------------------------------

def _value_signature(value: object) -> object:
    if isinstance(value, Literal):
        return ("lit", type(value.value).__name__, value.value)
    if isinstance(value, FeatureRefExpr):
        return ("ref", str(value.chain))
    if value is None:
        return None
    return ("expr", type(value).__name__, str(value))


def _name_of(element: Element) -> str | None:
    """Syntactic name (normalizing the ``:>>`` shorthand, whose real
    name is assigned by the resolver)."""
    if isinstance(element, RedefinitionUsage) and element.redefinition_names:
        return element.redefinition_names[0].parts[-1]
    return element.name


#: How a syntactic field's value enters a signature, by value type;
#: strings, booleans and ``None`` enter as they are.
_SIGNATURE_OF = {
    QualifiedName: str, FeatureChain: str,
    list: lambda names: tuple(map(str, names)),
    Multiplicity: lambda bounds: (bounds.lower, bounds.upper),
    Literal: _value_signature, FeatureRefExpr: _value_signature,
}


def own_signature(element: Element) -> tuple:
    """Every syntactic fact about one element, children excluded: its
    class, its syntactic name and its class's ``syntax_fields``.

    Resolved pointers and source locations stay out: the signature
    must be identical before and after resolution, and comment-only
    edits — which only shift locations — must hash equal.
    """
    cls = type(element)
    signature = [cls.__name__, _name_of(element)]
    for field in cls.syntax_fields:
        value = getattr(element, field)
        convert = _SIGNATURE_OF.get(type(value))
        signature.append(value if convert is None else convert(value))
    return tuple(signature)


def deep_fingerprint(element: Element) -> str:
    """Merkle hash of one subtree's full syntactic content (cached)."""
    cached = element.__dict__.get(_DEEP_ATTR)
    if cached is not None:
        return cached
    fp = fingerprint(own_signature(element),
                     [deep_fingerprint(child)
                      for child in element.owned_elements],
                     salt=NODE_SALT)
    element.__dict__[_DEEP_ATTR] = fp
    return fp


def _scope_head(element: Element) -> tuple:
    """The declaration facts that shape lookups *through* a namespace:
    its supertype clause and typing (inherited members), plus the
    member name/kind table, imports and aliases — but never member
    *content*, so value edits inside members leave it unchanged."""
    head: list[object] = [type(element).__name__, _name_of(element)]
    if isinstance(element, Package):
        head.append(element.is_library)
    if isinstance(element, Type):
        head.append(tuple(str(n) for n in element.specialization_names))
    if isinstance(element, Usage):
        head.append((str(element.type_name) if element.type_name else None,
                     element.conjugated,
                     tuple(str(n) for n in element.redefinition_names)))
    members = tuple(sorted(
        (_name_of(child) or "", type(child).__name__)
        for child in element.owned_elements if _name_of(child)))
    imports = tuple((str(child.target_name), child.wildcard, child.recursive)
                    for child in element.owned_elements
                    if isinstance(child, Import))
    aliases = tuple(sorted(
        (child.name or "", str(child.target_name))
        for child in element.owned_elements if isinstance(child, Alias)))
    return (tuple(head), members, imports, aliases)


def scope_fingerprint(element: Element) -> str:
    """Hash of one namespace *as a lookup scope* (cached)."""
    cached = element.__dict__.get(_SCOPE_ATTR)
    if cached is not None:
        return cached
    fp = fingerprint(_scope_head(element), salt=NODE_SALT + ":scope")
    element.__dict__[_SCOPE_ATTR] = fp
    return fp


def _elements_at(model: Model, path: str) -> list[Element]:
    """Every element whose :func:`node_path` is *path*, in pre-order
    (more than one only where siblings repeat a name).

    A name that could run into the next segment is quoted, so a child
    whose rendered segment plus ``::`` starts the rest of the path is
    the child the path goes through."""
    if not path:
        return [model]
    found: list[Element] = []

    def descend(scope: Element, rest: str) -> None:
        for index, child in enumerate(scope.owned_elements):
            segment = _segment(child, index)
            if rest == segment:
                found.append(child)
            elif rest.startswith(segment) \
                    and rest.startswith("::", len(segment)):
                descend(child, rest[len(segment) + 2:])

    descend(model, path)
    return found


def find_by_path(model: Model, path: str) -> Element | None:
    """The element at a :func:`node_path` (None if gone)."""
    found = _elements_at(model, path)
    return found[0] if found else None


# -- the dependency graph ----------------------------------------------------

class DepGraph:
    """Who-resolved-through-whom, recorded during name resolution.

    Consumers are anchor keys; producers are anchor keys (target edges)
    or namespace keys (scope edges). The graph is additive during a
    resolve pass; :meth:`drop_consumers` clears a consumer's edges
    right before it is re-resolved so stale edges never accumulate.
    """

    def __init__(self) -> None:
        self.target_deps: dict[NodeKey, set[NodeKey]] = {}
        self.scope_deps: dict[NodeKey, set[NodeKey]] = {}

    def record_target(self, consumer: NodeKey, producer: NodeKey) -> None:
        if producer != consumer:
            self.target_deps.setdefault(consumer, set()).add(producer)

    def record_scope(self, consumer: NodeKey, scope: NodeKey) -> None:
        if scope != consumer:
            self.scope_deps.setdefault(consumer, set()).add(scope)

    def drop_consumers(self, consumers: Iterable[NodeKey]) -> None:
        for consumer in consumers:
            self.target_deps.pop(consumer, None)
            self.scope_deps.pop(consumer, None)

    def consumers_affected(self, deep_changed: set[NodeKey],
                           scope_changed: set[NodeKey]) -> set[NodeKey]:
        """Consumers with a target edge into *deep_changed* or a scope
        edge into *scope_changed*."""
        affected: set[NodeKey] = set()
        if deep_changed:
            for consumer, producers in self.target_deps.items():
                if producers & deep_changed:
                    affected.add(consumer)
        if scope_changed:
            for consumer, scopes in self.scope_deps.items():
                if scopes & scope_changed:
                    affected.add(consumer)
        return affected


class DepRecorder:
    """Resolver-facing recording facade: tracks the element currently
    being resolved and writes its lookups into a :class:`DepGraph`."""

    def __init__(self, graph: DepGraph):
        self.graph = graph
        self._consumer: NodeKey | None = None

    def set_consumer(self, element: Element | None) -> None:
        self._consumer = None if element is None else anchor_key(element)

    def consulted(self, scope_element: Element) -> None:
        """A lookup consulted *scope_element*'s member table (and, when
        it is a type, its inherited tables)."""
        consumer = self._consumer
        if consumer is None:
            return
        self.graph.record_scope(consumer, node_key(scope_element))
        if isinstance(scope_element, Type):
            for general in scope_element.all_supertypes():
                self.graph.record_scope(consumer, node_key(general))

    def consulted_subtree(self, scope_element: Element) -> None:
        """A lookup walked the whole subtree (recursive wildcard
        import): depend on its full content, not just its head."""
        if self._consumer is not None:
            self.graph.record_target(self._consumer,
                                     anchor_key(scope_element))

    def resolved(self, element: Element | None) -> None:
        """A reference resolved to *element*."""
        if self._consumer is not None and element is not None \
                and not isinstance(element, Model):
            self.graph.record_target(self._consumer, anchor_key(element))


# -- dirty-subtree utilities -------------------------------------------------

def subtree_anchor_keys(element: Element) -> set[NodeKey]:
    """Anchor keys of every element in *element*'s subtree (what a
    wholesale-replaced subtree counts as edited)."""
    keys = {anchor_key(element)}

    def visit(node: Element) -> None:
        if is_anchor(node):
            keys.add(node_key(node))
        for child in node.owned_elements:
            visit(child)

    visit(element)
    return keys


def elements_anchored_in(model: Model, dirty: set[NodeKey]
                         ) -> list[Element]:
    """Pre-order list of every element whose nearest anchor is dirty.

    A clean anchor nested inside a dirty one keeps its subtree out of
    the list (its own resolution state is still valid). The walk finds
    the dirty anchors by path and enters only their subtrees and the
    owner chains leading to them."""
    leads: set[int] = set()
    for key in dirty:
        for element in _elements_at(model, key.path):
            if element is model or not is_anchor(element) \
                    or node_key(element) != key:
                continue
            node: Element | None = element
            while node is not None and id(node) not in leads:
                leads.add(id(node))
                node = node.owner
    collected: list[Element] = []

    def visit(element: Element, inside_dirty: bool) -> None:
        if is_anchor(element):
            inside_dirty = node_key(element) in dirty
        if inside_dirty:
            collected.append(element)
        elif id(element) not in leads:
            return
        for child in element.owned_elements:
            visit(child, inside_dirty)

    for child in model.owned_elements:
        if id(child) in leads:
            visit(child, False)
    return collected
