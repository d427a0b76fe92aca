"""Incremental regeneration.

:class:`IncrementalEngine` owns a :class:`~repro.sysml.ModelSession`
and turns each source revision into a
:class:`~repro.codegen.pipeline.GenerationResult` by re-elaborating
only the machines whose anchors the session reported dirty — untouched
artifacts are byte-reused from the previous result (grouping is
re-solved only when the capacity arithmetic actually changed), and the
result's ``provenance`` says exactly which artifact was reused vs
regenerated. Any edit the engine cannot localize (hierarchy
restructuring, definition churn, renames) falls back to a full
pipeline run, which reports an artifact reused exactly when it equals
the previous result's and regenerated otherwise. So does the first
call after a revision the engine rejected.

The session's :class:`~repro.sysml.ModelUpdate` is the engine's only
change detector.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..isa95.levels import FactoryTopology, WorkcellInfo
from ..isa95.topology import TopologyExtractor
from ..obs import METRICS, span
from ..sysml.depgraph import find_by_path
from ..sysml.elements import Model, PartUsage
from ..sysml.incremental import ModelSession, ModelUpdate
from .client_config import client_config
from .grouping import ClientGroup, group_machines
from .machine_config import machine_config, workcell_server_config
from .options import PipelineOptions
from .pipeline import GenerationPipeline, GenerationResult
from .storage_config import storage_config

_REUSED = METRICS.counter("incremental.manifests_reused")
_REGENERATED = METRICS.counter("incremental.manifests_regenerated")
_PARTIAL_RUNS = METRICS.counter("incremental.partial_runs")
_FULL_RUNS = METRICS.counter("incremental.full_runs")
_CLEAN_RUNS = METRICS.counter("incremental.clean_runs")


class _EngineFallback(Exception):
    """Raised internally when an edit cannot be localized to machines."""


def _grouping_signature(topology: FactoryTopology, capacity: int,
                        algorithm: str) -> tuple:
    """Exactly the inputs the bin packing reads: the algorithm,
    capacity, plus each machine's (name, point count). Anything else —
    variable renames, driver params, hierarchy labels — cannot move a
    machine between groups, so equal signatures mean equal membership.
    """
    return (capacity, algorithm,
            tuple(sorted((m.name, m.point_count)
                         for m in topology.machines)))


def _share_unchanged(result: GenerationResult,
                     previous: GenerationResult) -> None:
    """Report a full run's provenance relative to *previous*: an
    artifact equal to *previous*'s is handed over to *previous*'s
    object and reported reused, any other one regenerated — whatever
    the pipeline said (a cache replay is not "unchanged since the
    last result")."""
    for kind, current, before in (
            ("machine", result.machine_configs, previous.machine_configs),
            ("server", result.server_configs, previous.server_configs),
            ("manifest", result.manifests, previous.manifests)):
        for name, value in current.items():
            if before.get(name) == value:
                current[name] = before[name]
                result.provenance[f"{kind}:{name}"] = "reused"
            else:
                result.provenance[f"{kind}:{name}"] = "regenerated"
    for kind, key, current, before in (
            ("client", "client", result.client_configs,
             previous.client_configs),
            ("storage", "historian", result.storage_configs,
             previous.storage_configs)):
        by_name = {config[key]: config for config in before}
        for index, config in enumerate(current):
            if by_name.get(config[key]) == config:
                current[index] = by_name[config[key]]
                result.provenance[f"{kind}:{config[key]}"] = "reused"
            else:
                result.provenance[f"{kind}:{config[key]}"] = "regenerated"


class IncrementalEngine:
    """Long-lived source-to-manifests generator with dirty-subtree reuse.

    Feed it successive revisions of the model sources via
    :meth:`generate`; each call returns a complete
    :class:`GenerationResult` whose ``provenance`` maps every artifact
    to ``"reused"`` (byte-identical to the previous revision's) or
    ``"regenerated"``. Results share unchanged config/manifest objects
    with earlier results — treat them as read-only.
    """

    def __init__(self, options: PipelineOptions | None = None):
        self.options = options if options is not None else PipelineOptions()
        self.pipeline = GenerationPipeline(self.options)
        self.session: ModelSession | None = None
        #: The :class:`ModelUpdate` behind the last :meth:`generate`.
        self.last_update: ModelUpdate | None = None
        self.previous: GenerationResult | None = None
        self._machine_paths: dict[str, str] = {}
        self._driver_paths: dict[str, str] = {}
        self._signature: tuple | None = None
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
        if update.clean:
            _CLEAN_RUNS.inc()
            return self._reuse_everything()
        try:
            with span("engine-incremental") as s:
                result = self._partial_run(update)
                s.set("regenerated",
                      sum(1 for state in result.provenance.values()
                          if state == "regenerated"))
        except Exception:  # noqa: BLE001 - correctness safety valve
            _FULL_RUNS.inc()
            return self._full_run()
        _PARTIAL_RUNS.inc()
        return result

    # -- full / clean paths --------------------------------------------------

    def _full_run(self) -> GenerationResult:
        result = self.pipeline.run_on_model(self.session.model)
        if self.previous is not None:
            _share_unchanged(result, self.previous)
        self._retain(result)
        return result

    def _reuse_everything(self) -> GenerationResult:
        started = time.perf_counter()
        previous = self.previous
        result = replace(
            previous, trace=None,
            provenance={artifact: "reused"
                        for artifact in previous.artifact_ids()})
        result.generation_seconds = time.perf_counter() - started
        return result

    def _retain(self, result: GenerationResult) -> None:
        self.previous = result
        self._stale = False
        machines = result.topology.machines
        self._machine_paths = {m.name: m.node_path for m in machines
                               if m.node_path}
        self._driver_paths = {m.name: m.driver.node_path for m in machines
                              if m.driver is not None
                              and m.driver.node_path}
        self._signature = _grouping_signature(result.topology,
                                              self.options.capacity,
                                              self.options.grouping)

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
            matched = False
            for name, path in self._machine_paths.items():
                if key.is_under(path):
                    dirty.add(name)
                    matched = True
            for name, path in self._driver_paths.items():
                if key.is_under(path):
                    dirty.add(name)
                    matched = True
            if not matched:
                raise _EngineFallback(f"non-machine change at {key}")
        return dirty

    def _reextract(self, dirty: set[str]) -> FactoryTopology:
        """The previous topology with dirty machines re-elaborated."""
        model = self.session.model
        previous = self.previous.topology
        extractor = TopologyExtractor(model)
        workcells = []
        for workcell in previous.workcells:
            machines = []
            for machine in workcell.machines:
                if machine.name not in dirty:
                    machines.append(machine)
                    continue
                usage = find_by_path(model,
                                     self._machine_paths[machine.name])
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

    def _regroup(self, topology: FactoryTopology) -> list[ClientGroup]:
        """Re-solve grouping only when the capacity arithmetic changed;
        otherwise rebuild the retained membership around the current
        :class:`MachineInfo` objects (first-fit-decreasing is a pure
        function of the signature, so membership cannot differ)."""
        signature = _grouping_signature(topology, self.options.capacity,
                                        self.options.grouping)
        if signature == self._signature and self.previous.groups:
            by_name = {m.name: m for m in topology.machines}
            return [ClientGroup(index=group.index, capacity=group.capacity,
                                machines=[by_name[m.name]
                                          for m in group.machines],
                                oversized=group.oversized)
                    for group in self.previous.groups]
        return group_machines(topology.machines, self.options.capacity,
                              algorithm=self.options.grouping)

    def _partial_run(self, update: ModelUpdate) -> GenerationResult:
        started = time.perf_counter()
        previous = self.previous
        dirty = self._dirty_machines(update)
        topology = self._reextract(dirty)
        self.pipeline._validate(topology)
        result = GenerationResult(topology=topology)

        step1_started = time.perf_counter()
        for machine in topology.machines:
            if machine.name in dirty:
                config = machine_config(machine, topology)
                if config == previous.machine_configs.get(machine.name):
                    config = previous.machine_configs[machine.name]
                    state = "reused"
                else:
                    state = "regenerated"
            else:
                config = previous.machine_configs[machine.name]
                state = "reused"
            result.machine_configs[machine.name] = config
            result.provenance[f"machine:{machine.name}"] = state

        render_tasks: list[tuple[str, str, dict, int | None, str]] = []
        for workcell in topology.workcells:
            if not workcell.machines:
                continue
            reusable = all(
                result.machine_configs[m.name]
                is previous.machine_configs.get(m.name)
                for m in workcell.machines) \
                and workcell.name in previous.server_configs
            if reusable:
                server = previous.server_configs[workcell.name]
                state = "reused"
            else:
                server = workcell_server_config(
                    workcell.name,
                    [result.machine_configs[m.name]
                     for m in workcell.machines])
                state = "regenerated"
            result.server_configs[workcell.name] = server
            result.provenance[f"server:{workcell.name}"] = state
            render_tasks.append(("opcua-server", server["server"], server,
                                 server["port"], state))

        result.groups = self._regroup(topology)
        previous_clients = {c["client"]: c
                            for c in previous.client_configs}
        previous_storage = {c["historian"]: c
                            for c in previous.storage_configs}
        previous_members = {g.name: g.machine_names
                            for g in previous.groups}
        client_tasks: list[tuple[str, str, dict, int | None, str]] = []
        storage_tasks: list[tuple[str, str, dict, int | None, str]] = []
        for group in result.groups:
            member_reuse = previous_members.get(group.name) \
                == group.machine_names and all(
                result.machine_configs.get(m.name)
                is previous.machine_configs.get(m.name)
                for m in group.machines)
            client = previous_clients.get(group.name)
            if member_reuse and client is not None:
                state = "reused"
            else:
                client = client_config(group, topology,
                                       self.options.broker_url)
                if client == previous_clients.get(client["client"]):
                    client = previous_clients[client["client"]]
                    state = "reused"
                else:
                    state = "regenerated"
            result.client_configs.append(client)
            result.provenance[f"client:{client['client']}"] = state
            client_tasks.append(("opcua-client", client["client"], client,
                                 None, state))
            storage = previous_storage.get(f"historian-{group.index:02d}")
            if member_reuse and storage is not None:
                state = "reused"
            else:
                storage = storage_config(group, topology,
                                         self.options.broker_url,
                                         self.options.database_url)
                if storage == previous_storage.get(storage["historian"]):
                    storage = previous_storage[storage["historian"]]
                    state = "reused"
                else:
                    state = "regenerated"
            result.storage_configs.append(storage)
            result.provenance[f"storage:{storage['historian']}"] = state
            storage_tasks.append(("historian", storage["historian"],
                                  storage, None, state))
        result.step1_seconds = time.perf_counter() - step1_started

        step2_started = time.perf_counter()
        reused_count = 0
        for kind, name, config, port, state in (render_tasks
                                                + client_tasks
                                                + storage_tasks):
            filename = f"{name}.yaml"
            previous_text = previous.manifests.get(filename)
            if state == "reused" and previous_text is not None:
                result.manifests[filename] = previous_text
                result.provenance[f"manifest:{filename}"] = "reused"
                reused_count += 1
                continue
            text = self.pipeline._render(kind, name, config, port=port)
            if text == previous_text:
                # regenerated config happened to render identically
                result.manifests[filename] = previous_text
                result.provenance[f"manifest:{filename}"] = "reused"
                reused_count += 1
            else:
                result.manifests[filename] = text
                result.provenance[f"manifest:{filename}"] = "regenerated"
        result.step2_seconds = time.perf_counter() - step2_started
        _REUSED.inc(reused_count)
        _REGENERATED.inc(len(result.manifests) - reused_count)

        result.generation_seconds = time.perf_counter() - started
        self._retain(result)
        return result
