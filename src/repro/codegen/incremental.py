"""Incremental regeneration.

:class:`IncrementalEngine` owns a :class:`~repro.sysml.ModelSession`
and turns each source revision into a
:class:`~repro.codegen.pipeline.GenerationResult`. It decides only
*what* may have changed: the machines whose anchors the session
reported changed (``dirty``), re-elaborated into the previous topology.
The :class:`~repro.codegen.pipeline.GenerationPipeline` does the rest
with the previous result in hand — it recomputes only artifacts with a
changed input, re-solves grouping only when the capacity arithmetic
changed, and reports an artifact ``reused`` exactly when it equals the
previous result's. A clean update is the same call with no dirty
machine. Any edit the engine cannot localize (hierarchy restructuring,
definition churn, renames) falls back to a full pipeline run with the
same previous result, and so does the first call after a revision the
engine rejected. A fallback bumps ``incremental.fallbacks.<Exception>``
and names the exception on the ``engine-incremental`` span.

The session's :class:`~repro.sysml.ModelUpdate` is the engine's only
change detector.
"""

from __future__ import annotations

from ..cache import ArtifactCache
from ..isa95.levels import FactoryTopology, WorkcellInfo
from ..isa95.topology import TopologyExtractor
from ..obs import METRICS, span
from ..sysml.depgraph import find_by_path
from ..sysml.elements import Model, PartUsage
from ..sysml.incremental import ModelSession, ModelUpdate
from .options import PipelineOptions
from .pipeline import GenerationPipeline, GenerationResult

_PARTIAL_RUNS = METRICS.counter("incremental.partial_runs")
_FULL_RUNS = METRICS.counter("incremental.full_runs")
_CLEAN_RUNS = METRICS.counter("incremental.clean_runs")


class _EngineFallback(Exception):
    """Raised internally when an edit cannot be localized to machines."""


class IncrementalEngine:
    """Long-lived source-to-manifests generator with dirty-subtree reuse.

    Feed it successive revisions of the model sources via
    :meth:`generate`; each call returns a complete
    :class:`GenerationResult` whose ``provenance`` maps every artifact
    to ``"reused"`` (byte-identical to the previous revision's) or
    ``"regenerated"``. Results share unchanged config/manifest objects
    with earlier results — treat them as read-only. *cache*, when
    given, serves both the session's parse trees and the pipeline's
    topology and result layers.
    """

    def __init__(self, options: PipelineOptions | None = None, *,
                 cache: ArtifactCache | None = None):
        self.options = options if options is not None else PipelineOptions()
        self.pipeline = GenerationPipeline(self.options, cache=cache)
        self.session: ModelSession | None = None
        #: The :class:`ModelUpdate` behind the last :meth:`generate`.
        self.last_update: ModelUpdate | None = None
        self.previous: GenerationResult | None = None
        #: (machine name, node path) of every machine and driver.
        self._paths: list[tuple[str, str]] = []
        #: True when the session may differ from :attr:`previous`.
        self._stale = False

    @property
    def model(self) -> Model | None:
        return self.session.model if self.session is not None else None

    def generate(self, *texts: str,
                 filenames: list[str] | None = None) -> GenerationResult:
        """Generate (or regenerate) the full configuration for *texts*."""
        try:
            return self._generate(texts, filenames)
        except BaseException:
            # The session may already hold this revision (say it
            # resolved but failed topology validation). Dirty sets of
            # later revisions are computed against it, not against
            # `previous`, so the next call runs in full.
            self._stale = True
            raise

    def _generate(self, texts: tuple[str, ...],
                  filenames: list[str] | None) -> GenerationResult:
        if self.session is None:
            self.session = ModelSession(
                *texts, filenames=filenames, cache=self.pipeline.cache)
            self.last_update = ModelUpdate(full_rebuild=True)
            _FULL_RUNS.inc()
            return self._full_run()
        update = self.session.update(*texts, filenames=filenames)
        self.last_update = update
        if self._stale or update.full_rebuild:
            _FULL_RUNS.inc()
            return self._full_run()
        result = None
        with span("engine-incremental") as s:
            try:
                result = self._partial_run(update)
            except Exception as exc:  # noqa: BLE001 - safety valve
                # a bug must not pass for a slow edit: say which one
                reason = type(exc).__name__
                s.set("fallback", reason)
                METRICS.counter(f"incremental.fallbacks.{reason}").inc()
            else:
                s.set("regenerated",
                      sum(1 for state in result.provenance.values()
                          if state == "regenerated"))
        if result is None:
            _FULL_RUNS.inc()
            return self._full_run()
        (_CLEAN_RUNS if update.clean else _PARTIAL_RUNS).inc()
        return result

    def _full_run(self) -> GenerationResult:
        result = self.pipeline.run_on_model(self.session.model,
                                            previous=self.previous)
        self._retain(result)
        return result

    def _retain(self, result: GenerationResult) -> None:
        self.previous = result
        self._stale = False
        machines = result.topology.machines
        self._paths = [(m.name, m.node_path) for m in machines
                       if m.node_path]
        self._paths += [(m.name, m.driver.node_path) for m in machines
                        if m.driver is not None and m.driver.node_path]

    # -- the partial path ----------------------------------------------------

    def _dirty_machines(self, update: ModelUpdate) -> set[str]:
        """Machines owning every changed anchor — or fall back.

        Every changed anchor must lie inside a known machine or driver
        subtree; anything else (hierarchy edits, definition changes,
        renames, new parts) means the edit's blast radius is not
        machine-local and the full pipeline decides what to reuse.
        """
        dirty: set[str] = set()
        for key in update.changed_anchors:
            owners = {name for name, path in self._paths
                      if key.is_under(path)}
            if not owners:
                raise _EngineFallback(f"non-machine change at {key}")
            dirty |= owners
        return dirty

    def _reextract(self, dirty: set[str]) -> FactoryTopology:
        """The previous topology with dirty machines re-elaborated."""
        previous = self.previous.topology
        if not dirty:
            return previous
        model = self.session.model
        extractor = TopologyExtractor(model)
        workcells = []
        for workcell in previous.workcells:
            machines = []
            for machine in workcell.machines:
                if machine.name not in dirty:
                    machines.append(machine)
                    continue
                usage = find_by_path(model, machine.node_path)
                if not isinstance(usage, PartUsage):
                    raise _EngineFallback(
                        f"machine path vanished: {machine.name}")
                machines.append(
                    extractor.extract_machine_at(usage, workcell.name))
            workcells.append(WorkcellInfo(
                name=workcell.name,
                production_line=workcell.production_line,
                machines=machines))
        return FactoryTopology(
            enterprise=previous.enterprise, site=previous.site,
            area=previous.area,
            production_lines=list(previous.production_lines),
            workcells=workcells)

    def _partial_run(self, update: ModelUpdate) -> GenerationResult:
        dirty = self._dirty_machines(update)
        result = self.pipeline.run_on_topology(
            self._reextract(dirty), previous=self.previous, dirty=dirty)
        self._retain(result)
        return result
