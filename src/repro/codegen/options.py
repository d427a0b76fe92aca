"""The canonical pipeline configuration object.

:class:`PipelineOptions` is the one configuration surface of
:class:`~repro.codegen.pipeline.GenerationPipeline`,
:func:`~repro.codegen.pipeline.generate_configuration` and
:class:`~repro.codegen.incremental.IncrementalEngine`; none of them
takes per-knob keyword arguments. It holds exactly the values that
shape the output and that a service request may set, and it is frozen
(safe to share between pipelines and threads).

Every field is checked once, in the constructor: a value of the wrong
type or range raises :class:`OptionError`, which the service answers
with ``400 bad-option`` and the CLI with one ``error:`` line and exit
status 2. So ``replace`` is checked too.

Runtime objects are not options. An artifact cache is passed as an
:class:`~repro.cache.ArtifactCache` (``cache=``) to the consumer that
uses it, and telemetry is on when a :class:`~repro.obs.Tracer` is
active (``with tracer.activate(): ...``). Reuse across edits is not an
option either: an :class:`~repro.codegen.incremental.IncrementalEngine`
always reuses what an edit left unchanged, a plain pipeline run never
does. Nor is a worker pool: generation runs in the caller's thread.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace

from .grouping import DEFAULT_CLIENT_CAPACITY

#: A Kubernetes namespace name: an RFC 1123 (DNS) label.
_DNS_LABEL = re.compile(r"[a-z0-9]([-a-z0-9]{0,61}[a-z0-9])?")


class OptionError(ValueError):
    """A :class:`PipelineOptions` field of the wrong type or range."""


@dataclass(frozen=True)
class PipelineOptions:
    """Everything that shapes one generation pipeline run's output."""

    capacity: int = DEFAULT_CLIENT_CAPACITY
    namespace: str = "factory"
    broker_url: str = "mqtt://broker:1883"
    database_url: str = "ts://factorydb:8086"
    validate: bool = True

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


def semantic_options(options: PipelineOptions) -> dict[str, object]:
    """Every field of *options*, in declaration order: part of every
    result-cache, single-flight, memo and routing key, and echoed in
    each service bundle."""
    return asdict(options)
