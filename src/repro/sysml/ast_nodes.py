"""Name and expression nodes of the SysML v2 textual notation.

The parser builds semantic elements (:mod:`repro.sysml.elements`)
directly; what stays syntax inside them — qualified names, feature
chains, multiplicities and value expressions — is made of these plain
dataclasses, each with the location it was written at. They are the
front end's most numerous objects, so each has ``__slots__`` and no
per-instance ``__dict__``. :class:`ModelNode` holds the root elements
of one parsed source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from .errors import SourceLocation

if TYPE_CHECKING:
    from .elements import Element


@dataclass(slots=True)
class QualifiedName:
    """A ``::``-separated name, e.g. ``ISA95::Topology``."""

    parts: list[str]
    location: SourceLocation = field(default_factory=SourceLocation)

    def __str__(self) -> str:
        return "::".join(self.parts)


@dataclass(slots=True)
class FeatureChain:
    """A ``.``-separated feature access, e.g. ``pp_actual_X.value``."""

    parts: list[str]
    location: SourceLocation = field(default_factory=SourceLocation)

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass(slots=True)
class Multiplicity:
    """A multiplicity range ``[lower..upper]``; ``upper=None`` means ``*``."""

    lower: int = 0
    upper: int | None = None

    def __str__(self) -> str:
        upper = "*" if self.upper is None else str(self.upper)
        if self.upper == self.lower:
            return f"[{self.lower}]"
        return f"[{self.lower}..{upper}]"


@dataclass(slots=True)
class Literal:
    """A literal expression value (str/int/float/bool)."""

    value: object
    location: SourceLocation = field(default_factory=SourceLocation)


@dataclass(slots=True)
class FeatureRefExpr:
    """An expression that references another feature by chain."""

    chain: FeatureChain


Expr = Union[Literal, FeatureRefExpr]


@dataclass
class ModelNode:
    """One parsed source text: its root elements, unresolved."""

    members: list["Element"] = field(default_factory=list)
    filename: str = "<model>"
