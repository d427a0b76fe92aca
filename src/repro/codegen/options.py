"""The canonical pipeline configuration object.

:class:`PipelineOptions` is the one configuration surface of
:class:`~repro.codegen.pipeline.GenerationPipeline`,
:func:`~repro.codegen.pipeline.generate_configuration` and
:class:`~repro.codegen.incremental.IncrementalEngine`; none of them
takes per-knob keyword arguments. It is frozen (safe to share between
pipelines and threads), round-trips through ``to_dict``/``from_dict``,
and carries the optional :class:`~repro.obs.Tracer` that turns on
pipeline telemetry.

Every output-shaping field is checked once, in the constructor: a
value of the wrong type or range raises :class:`OptionError`, which
the service answers with ``400 bad-option`` and the CLI with one
``error:`` line and exit status 2. So ``replace`` and ``from_dict``
are checked too.

Reuse across edits is not an option: an
:class:`~repro.codegen.incremental.IncrementalEngine` always reuses
what an edit left unchanged, a plain pipeline run never does. Nor is
a worker pool: generation runs in the caller's thread.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace

from ..cache import DEFAULT_CACHE_MAX_BYTES
from ..obs import Tracer
from .grouping import DEFAULT_CLIENT_CAPACITY

#: A Kubernetes namespace name: an RFC 1123 (DNS) label.
_DNS_LABEL = re.compile(r"[a-z0-9]([-a-z0-9]{0,61}[a-z0-9])?")


class OptionError(ValueError):
    """A :class:`PipelineOptions` field of the wrong type or range."""


@dataclass(frozen=True)
class PipelineOptions:
    """Everything configurable about one generation pipeline run."""

    capacity: int = DEFAULT_CLIENT_CAPACITY
    namespace: str = "factory"
    broker_url: str = "mqtt://broker:1883"
    database_url: str = "ts://factorydb:8086"
    validate: bool = True
    #: Artifact-cache directory; ``None`` disables caching.
    cache_dir: str | None = None
    #: LRU size bound of the artifact cache.
    cache_max_bytes: int = DEFAULT_CACHE_MAX_BYTES
    #: Tracer collecting the run's :class:`~repro.obs.PipelineTrace`;
    #: ``None`` leaves telemetry off (or inherits an ambient tracer).
    tracer: Tracer | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        checks = (
            # bool is an int subclass; ``capacity=True`` is not one point
            ("capacity", type(self.capacity) is int and self.capacity >= 1,
             "an integer >= 1"),
            ("namespace", isinstance(self.namespace, str)
             and _DNS_LABEL.fullmatch(self.namespace) is not None,
             "a DNS-1123 label (at most 63 lowercase alphanumerics "
             "and '-', alphanumeric at both ends)"),
            ("broker_url", isinstance(self.broker_url, str), "a string"),
            ("database_url", isinstance(self.database_url, str),
             "a string"),
            ("validate", isinstance(self.validate, bool), "true or false"))
        for name, ok, expected in checks:
            if not ok:
                raise OptionError(f"{name} must be {expected}, "
                                  f"got {getattr(self, name)!r}")

    @property
    def grouping(self) -> str:
        """The client packing every pipeline run uses; not an option
        (``benchmarks/e2e`` reads it to trace the packing)."""
        return "first-fit"

    def replace(self, **changes) -> "PipelineOptions":
        """A copy with *changes* applied (frozen-dataclass update)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, object]:
        """Serializable form; the (unserializable) tracer is omitted."""
        return {
            "capacity": self.capacity,
            "namespace": self.namespace,
            "broker_url": self.broker_url,
            "database_url": self.database_url,
            "validate": self.validate,
            "cache_dir": self.cache_dir,
            "cache_max_bytes": self.cache_max_bytes,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object], *,
                  tracer: Tracer | None = None) -> "PipelineOptions":
        known = {f.name for f in fields(cls)} - {"tracer"}
        unknown = set(data) - known
        if unknown:
            raise TypeError(
                f"unknown pipeline option(s): {', '.join(sorted(unknown))}")
        return cls(tracer=tracer, **data)  # type: ignore[arg-type]

