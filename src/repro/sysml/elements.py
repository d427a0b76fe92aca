"""Semantic element graph for SysML v2 models.

The parser builds instances of these classes and the
resolver links them together (specializations, feature typing,
redefinitions, connector ends). The design follows the KerML
definition/usage paradigm the paper relies on:

* :class:`Definition` — ``part def``, ``port def``, ... (types),
* :class:`Usage` — ``part``, ``attribute``, ``port``, ... (features),
* relationships are stored as resolved object references plus the raw
  syntactic targets, so diagnostics can always show what was written.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .ast_nodes import Expr, FeatureChain, Multiplicity, QualifiedName
from .errors import SourceLocation

_id_counter = itertools.count(1)


class Element:
    """Base class of every model element.

    Each class names its instance fields, extending its base's lists:
    ``syntax_fields`` are written from the source text (besides
    ``name`` and ``location``); ``resolved_fields`` are written by the
    resolver, each one element (``None`` until resolved) or a list of
    them (empty until resolved). ``ModelSession`` reads only these.
    """

    syntax_fields: tuple[str, ...] = ("documentation",)
    resolved_fields: tuple[str, ...] = ()

    def __init__(self, name: str | None = None,
                 location: SourceLocation | None = None):
        self.element_id: int = next(_id_counter)
        self.name = name
        self.owner: Optional["Element"] = None
        self.owned_elements: list[Element] = []
        self.documentation: str = ""
        self.location = location or SourceLocation()

    # -- ownership ---------------------------------------------------------

    def add_owned(self, element: "Element") -> "Element":
        element.owner = self
        self.owned_elements.append(element)
        return element

    @property
    def local_ordinal(self) -> int:
        """Position among the owner's children — stable across loads of
        the same sources (unlike ``element_id``, which is a process
        -global counter), so it is safe in derived names that end up in
        deterministic output."""
        if self.owner is None:
            return 0
        for index, sibling in enumerate(self.owner.owned_elements):
            if sibling is self:
                return index
        return 0

    @property
    def qualified_name(self) -> str:
        parts: list[str] = []
        node: Element | None = self
        while node is not None:
            if node.name:
                parts.append(node.name)
            node = node.owner
        return "::".join(reversed(parts)) or f"<anonymous#{self.element_id}>"

    def ancestors(self) -> Iterator["Element"]:
        node = self.owner
        while node is not None:
            yield node
            node = node.owner

    def descendants(self) -> Iterator["Element"]:
        """All transitively owned elements (pre-order, self excluded)."""
        for child in self.owned_elements:
            yield child
            yield from child.descendants()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.qualified_name}>"


class Namespace(Element):
    """An element whose owned, named members are resolvable by name."""

    @property
    def members(self) -> dict[str, Element]:
        table: dict[str, Element] = {}
        for child in self.owned_elements:
            if child.name and child.name not in table:
                table[child.name] = child
        return table

    def member(self, name: str) -> Element | None:
        for child in self.owned_elements:
            if child.name == name:
                return child
        return None


class Package(Namespace):
    """A ``package`` — purely organizational namespace.

    ``is_library`` marks implicitly-imported standard-library packages;
    they do not take part in ordinary root-scope lookup, so user models
    may freely reuse names like ``Base``.
    """

    syntax_fields = Namespace.syntax_fields + ("is_library",)

    def __init__(self, name: str | None = None,
                 location: SourceLocation | None = None):
        super().__init__(name, location)
        self.is_library = False


class Import(Element):
    """An ``import Pkg::*;`` membership-import relationship."""

    syntax_fields = Element.syntax_fields + ("target_name", "wildcard",
                                             "recursive")
    resolved_fields = ("target",)

    def __init__(self, target_name: QualifiedName, wildcard: bool,
                 recursive: bool, location: SourceLocation | None = None):
        super().__init__(name=None, location=location)
        self.target_name = target_name
        self.wildcard = wildcard
        self.recursive = recursive
        self.target: Namespace | Element | None = None  # set by resolver


class Type(Namespace):
    """Common base of definitions and usages: supports specialization."""

    syntax_fields = Namespace.syntax_fields + ("is_abstract",
                                               "specialization_names")
    resolved_fields = ("specializations",)

    def __init__(self, name: str | None = None, *, is_abstract: bool = False,
                 location: SourceLocation | None = None):
        super().__init__(name, location)
        self.is_abstract = is_abstract
        self.specialization_names: list[QualifiedName] = []
        self.specializations: list[Type] = []  # resolved general types

    # -- specialization ------------------------------------------------------

    def all_supertypes(self) -> list["Type"]:
        """Transitive general types, nearest first, duplicates removed."""
        seen: dict[int, Type] = {}
        stack = list(self.specializations)
        ordered: list[Type] = []
        while stack:
            general = stack.pop(0)
            if id(general) in seen:
                continue
            seen[id(general)] = general
            ordered.append(general)
            stack.extend(general.specializations)
        return ordered

    def conforms_to(self, other: "Type") -> bool:
        return other is self or other in self.all_supertypes()

    # -- member access incl. inheritance --------------------------------------

    def inherited_members(self) -> dict[str, Element]:
        """Members contributed by supertypes, nearest supertype wins."""
        table: dict[str, Element] = {}
        for general in self.all_supertypes():
            for name, member in general.members.items():
                table.setdefault(name, member)
        return table

    def effective_member(self, name: str) -> Element | None:
        own = self.member(name)
        if own is not None:
            return own
        return self.inherited_members().get(name)


class Definition(Type):
    """Base class for ``<kind> def`` declarations."""

    kind: str = "definition"


class PartDefinition(Definition):
    kind = "part"


class AttributeDefinition(Definition):
    kind = "attribute"


class PortDefinition(Definition):
    kind = "port"


class ActionDefinition(Definition):
    kind = "action"


class InterfaceDefinition(Definition):
    kind = "interface"


class ConnectionDefinition(Definition):
    kind = "connection"


class ItemDefinition(Definition):
    kind = "item"


class EnumerationDefinition(Definition):
    """``enum def`` — an attribute definition with a closed literal set."""

    kind = "enum"

    @property
    def literals(self) -> list["EnumerationLiteral"]:
        return [e for e in self.owned_elements
                if isinstance(e, EnumerationLiteral)]

    def literal(self, name: str) -> "EnumerationLiteral | None":
        for literal in self.literals:
            if literal.name == name:
                return literal
        return None


class Usage(Type):
    """Base class for feature usages (``part x : T`` etc.).

    A usage is itself a Type in KerML: it can own nested usages and can
    specialize. Its ``typ`` links to the :class:`Definition` named after
    the colon; ``conjugated`` records a ``~T`` port typing.
    """

    kind: str = "usage"

    syntax_fields = Type.syntax_fields + (
        "direction", "is_reference", "multiplicity", "type_name",
        "conjugated", "redefinition_names", "value")
    resolved_fields = Type.resolved_fields + ("typ", "redefines")

    def __init__(self, name: str | None = None, *, is_abstract: bool = False,
                 location: SourceLocation | None = None):
        super().__init__(name, is_abstract=is_abstract, location=location)
        self.direction: str | None = None
        self.is_reference = False
        self.multiplicity: Multiplicity | None = None
        self.type_name: QualifiedName | None = None
        self.conjugated = False
        self.typ: Definition | Usage | None = None  # resolved typing
        self.redefinition_names: list[QualifiedName] = []
        self.redefines: list[Usage] = []  # resolved redefined features
        self.value: Expr | None = None

    def effective_type(self) -> Optional["Type"]:
        """The definition this usage is typed by, following redefinitions."""
        if self.typ is not None:
            return self.typ
        for redefined in self.redefines:
            found = redefined.effective_type()
            if found is not None:
                return found
        return None

    def all_supertypes(self) -> list[Type]:
        """Supertypes: explicit specializations plus the typing definition.

        Feature typing makes the definition's members visible through the
        usage (``emcoParameters : EMCOParameters`` exposes ``ip`` ...), so
        the typing participates in member inheritance.
        """
        seen: dict[int, Type] = {}
        ordered: list[Type] = []
        stack: list[Type] = list(self.specializations)
        typ = self.effective_type()
        if typ is not None:
            stack.append(typ)
        for redefined in self.redefines:
            stack.append(redefined)
        while stack:
            general = stack.pop(0)
            if id(general) in seen:
                continue
            seen[id(general)] = general
            ordered.append(general)
            stack.extend(general.specializations)
            if isinstance(general, Usage):
                general_typ = general.effective_type()
                if general_typ is not None:
                    stack.append(general_typ)
        return ordered


class PartUsage(Usage):
    kind = "part"


class AttributeUsage(Usage):
    kind = "attribute"


class PortUsage(Usage):
    kind = "port"


class ActionUsage(Usage):
    kind = "action"


class InterfaceUsage(Usage):
    kind = "interface"


class ConnectionUsage(Usage):
    kind = "connection"


class ItemUsage(Usage):
    kind = "item"


class RedefinitionUsage(Usage):
    """Shorthand ``:>> name = value;`` whose kind comes from the target."""

    kind = "redefinition"


class EndUsage(Usage):
    """``end name : PortType;`` inside interface/connection definitions."""

    kind = "end"


class EnumerationLiteral(Usage):
    """One literal value of an :class:`EnumerationDefinition`."""

    kind = "enumliteral"


class Alias(Element):
    """``alias Short for Long::Name;`` — a membership alias."""

    syntax_fields = Element.syntax_fields + ("target_name",)
    resolved_fields = ("target",)

    def __init__(self, name: str, target_name: QualifiedName,
                 location: SourceLocation | None = None):
        super().__init__(name=name, location=location)
        self.target_name = target_name
        self.target: Element | None = None  # set by resolver


class BindingConnector(Element):
    """``bind a.b = c.d;`` — equates two features."""

    syntax_fields = Element.syntax_fields + ("left_chain", "right_chain")
    resolved_fields = ("left", "right")

    def __init__(self, left_chain: FeatureChain, right_chain: FeatureChain,
                 location: SourceLocation | None = None):
        super().__init__(name=None, location=location)
        self.left_chain = left_chain
        self.right_chain = right_chain
        self.left: Element | None = None
        self.right: Element | None = None


class Connector(Element):
    """``connect a to b`` — a connection or interface usage with ends."""

    syntax_fields = Element.syntax_fields + (
        "connector_kind", "type_name", "source_chain", "target_chain")
    resolved_fields = ("typ", "source", "target")

    def __init__(self, kind: str, name: str | None,
                 source_chain: FeatureChain, target_chain: FeatureChain,
                 location: SourceLocation | None = None):
        super().__init__(name=name, location=location)
        self.connector_kind = kind  # "connection" | "interface"
        self.type_name: QualifiedName | None = None
        self.typ: Definition | None = None
        self.source_chain = source_chain
        self.target_chain = target_chain
        self.source: Element | None = None
        self.target: Element | None = None


class PerformAction(Element):
    """``perform port.action { out x = other.y; }``."""

    syntax_fields = Element.syntax_fields + ("target_chain",)
    resolved_fields = ("target",)

    def __init__(self, target_chain: FeatureChain,
                 location: SourceLocation | None = None):
        super().__init__(name=None, location=location)
        self.target_chain = target_chain
        self.target: Element | None = None


class Assignment(Element):
    """``out name = chain;`` inside actions and performs."""

    syntax_fields = Element.syntax_fields + ("direction", "value")
    resolved_fields = ("resolved_value",)

    def __init__(self, direction: str | None, name: str, value: Expr,
                 location: SourceLocation | None = None):
        super().__init__(name=name, location=location)
        self.direction = direction
        self.value = value
        self.resolved_value: Element | None = None


#: Maps a syntactic kind to its Definition/Usage classes.
DEFINITION_CLASSES: dict[str, type[Definition]] = {
    "part": PartDefinition,
    "attribute": AttributeDefinition,
    "port": PortDefinition,
    "action": ActionDefinition,
    "interface": InterfaceDefinition,
    "connection": ConnectionDefinition,
    "item": ItemDefinition,
    "enum": EnumerationDefinition,
}

USAGE_CLASSES: dict[str, type[Usage]] = {
    "part": PartUsage,
    "attribute": AttributeUsage,
    "port": PortUsage,
    "action": ActionUsage,
    "interface": InterfaceUsage,
    "connection": ConnectionUsage,
    "item": ItemUsage,
    "redefinition": RedefinitionUsage,
    "end": EndUsage,
    "enumliteral": EnumerationLiteral,
}


class Model(Namespace):
    """Root namespace of a parsed and resolved model."""

    def __init__(self) -> None:
        super().__init__(name=None)
        #: Fingerprint of the source texts this model was loaded from
        #: (set by :func:`~repro.sysml.resolver.load_model`); ``None``
        #: for programmatically built models. Downstream caches key
        #: derived artifacts (topology, generation results) on it, so
        #: it goes stale if the model is mutated in place after loading.
        self.content_fingerprint: str | None = None

    def all_elements(self) -> Iterator[Element]:
        yield from self.descendants()

    def find(self, qualified: str) -> Element | None:
        """Look up an element by ``Pkg::Sub::Name`` path from the root."""
        parts = qualified.split("::")
        scope: Element = self
        for part in parts:
            if not isinstance(scope, Namespace):
                return None
            candidate: Element | None = None
            if isinstance(scope, Type):
                candidate = scope.effective_member(part)
            else:
                candidate = scope.member(part)
            if candidate is None:
                return None
            scope = candidate
        return scope
