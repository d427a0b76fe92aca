"""Diagnostics for the SysML v2 front end.

Every error raised while lexing, parsing, resolving, or validating a
model carries a :class:`SourceLocation` so tooling (and test output) can
point at the offending line of the textual notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.summary import Summarizable


@dataclass(frozen=True, slots=True)
class SourceLocation:
    """A position inside a textual-notation source file."""

    filename: str = "<model>"
    line: int = 1
    column: int = 1

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class SysMLError(Exception):
    """Base class for all SysML front-end errors."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or SourceLocation()
        super().__init__(f"{self.location}: {message}")


class LexerError(SysMLError):
    """Raised when the lexer meets a character it cannot tokenize."""


class ParseError(SysMLError):
    """Raised when the token stream does not match the grammar."""


class ResolutionError(SysMLError):
    """Raised when a qualified name or feature chain cannot be resolved."""


class ValidationError(SysMLError):
    """Raised (or collected) when a well-formedness rule is violated."""


@dataclass
class Diagnostic:
    """A single validation finding.

    Validation does not stop at the first problem: the validator collects
    :class:`Diagnostic` records so a model author sees every issue at once.
    """

    severity: str  # "error" | "warning"
    rule: str  # short rule identifier, e.g. "abstract-instantiation"
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    element: str = ""  # qualified name of the offending element, if any

    @property
    def is_error(self) -> bool:
        return self.severity == "error"

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element else ""
        return f"{self.severity}: {self.rule}: {self.message}{where} ({self.location})"


class DiagnosticReport(Summarizable):
    """Accumulates diagnostics produced by a validation pass."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []

    def error(self, rule: str, message: str, *, location: SourceLocation | None = None,
              element: str = "") -> None:
        self.diagnostics.append(
            Diagnostic("error", rule, message, location or SourceLocation(), element))

    def warning(self, rule: str, message: str, *, location: SourceLocation | None = None,
                element: str = "") -> None:
        self.diagnostics.append(
            Diagnostic("warning", rule, message, location or SourceLocation(), element))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, other: "DiagnosticReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def summary(self) -> dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [
                {"severity": d.severity, "rule": d.rule,
                 "message": d.message, "element": d.element,
                 "location": str(d.location)}
                for d in self.diagnostics
            ],
        }

    def raise_if_errors(self) -> None:
        """Raise a :class:`ValidationError` summarizing all errors, if any."""
        if self.errors:
            summary = "; ".join(str(d) for d in self.errors[:10])
            more = len(self.errors) - 10
            if more > 0:
                summary += f"; (+{more} more)"
            raise ValidationError(summary, self.errors[0].location)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __str__(self) -> str:
        return "\n".join(str(d) for d in self.diagnostics) or "(no diagnostics)"
