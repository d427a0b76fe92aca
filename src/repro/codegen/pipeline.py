"""The two-step generation pipeline (Section IV of the paper).

Step 1: SysML v2 model -> ISA-95 topology -> intermediate JSON files
        (one per machine; one OPC UA server config per workcell; one
        client config + one storage config per machine group).
Step 2: intermediate JSON -> Kubernetes YAML via templates.

:func:`generate_configuration` runs both steps, measures the generation
time, and reports the same quantities as the last row of Table I
(generation time, #OPC UA servers, #clients, configuration size).

The entry point is ``generate_configuration(model,
options=PipelineOptions(...))``. When the options carry a
:class:`~repro.obs.Tracer` (or one is ambiently active), every phase is
recorded as a span — ``generate`` > ``topology`` / ``validate`` /
``step1`` (per machine, grouping) / ``step2`` (per rendered template) —
and the resulting :class:`~repro.obs.PipelineTrace` is attached to the
:class:`GenerationResult`.

Steps 1 and 2 run in the caller's thread: per-machine configs and
per-manifest renders are pure Python, so a worker pool cannot overlap
them under the GIL. ``cache_dir`` in :class:`PipelineOptions` enables
the :mod:`repro.cache` artifact cache for the work that costs more to
compute than to read back: the extracted topology and the whole result
set, both keyed on the model's source fingerprint (parse trees are
cached one layer down, by :func:`repro.sysml.load_model`). Machine
configs and manifests are cheaper to regenerate than to replay one by
one, so they are never cached on their own. Hits/misses surface as
``cache.*`` counters in ``repro trace``.

**Reuse across revisions.** This is the only code that builds step-1
configs and step-2 manifests, cold or incremental. Given the
``previous`` result (and, from
:class:`~repro.codegen.incremental.IncrementalEngine`, the ``dirty``
machines), a run recomputes only artifacts with an input that is not
an object of *previous*, re-solves grouping only when
:func:`~repro.codegen.grouping.grouping_signature` changed, and marks
each artifact ``reused`` exactly when it equals *previous*'s — keeping
*previous*'s object — or ``regenerated`` otherwise. Without
*previous*, every artifact is computed and ``regenerated`` (or
``reused`` when replayed from the cache).

**Reentrancy.** A :class:`GenerationPipeline` holds no per-run mutable
state — every run builds a fresh :class:`GenerationResult`, and the
shared :class:`~repro.cache.ArtifactCache` is thread-safe — so one
instance may serve concurrent ``run_on_model`` calls from many threads
(the :mod:`repro.service` layer does exactly this). The one exception
is a :class:`~repro.obs.Tracer` in the options: a tracer's span stack
belongs to a single run, so concurrent runs must not share one (the
service strips it; give each traced run its own tracer).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..cache import ArtifactCache
from ..fingerprint import RESULT_SALT, TOPOLOGY_SALT, fingerprint
from ..isa95.levels import FactoryTopology
from ..isa95.topology import extract_topology
from ..isa95.validation import validate_topology
from ..obs import PipelineTrace, Summarizable, activation, span
from ..sysml.elements import Model
from ..sysml.errors import ValidationError
from ..templates.engine import k8s_name
from ..templates.library import get_template
from .client_config import client_config, topic_root
from .grouping import ClientGroup, group_machines, grouping_signature
from .machine_config import machine_config, workcell_server_config
from .options import PipelineOptions
from .storage_config import storage_config

#: Container images of the deployed software stack components.
COMPONENT_IMAGES = {
    "opcua-server": "factory/opcua-server:1.4.2",
    "opcua-client": "factory/opcua-client:1.4.2",
    "historian": "factory/historian:1.2.0",
}

# Per-layer cache salts live in :mod:`repro.fingerprint` (see
# DESIGN.md, "Artifact cache"); bump one there whenever the
# corresponding generator's output format changes.


def _render_environment() -> dict[str, object]:
    """Everything besides configs that shapes manifest bytes — part of
    the whole-result cache key, so editing a template or bumping an
    image invalidates replayed runs."""
    from ..templates.library import TEMPLATE_SOURCES
    return {"images": COMPONENT_IMAGES,
            "templates": dict(TEMPLATE_SOURCES)}


@dataclass
class GenerationResult(Summarizable):
    """Everything the pipeline produced, plus metrics."""

    topology: FactoryTopology
    machine_configs: dict[str, dict] = field(default_factory=dict)
    server_configs: dict[str, dict] = field(default_factory=dict)
    client_configs: list[dict] = field(default_factory=list)
    storage_configs: list[dict] = field(default_factory=list)
    groups: list[ClientGroup] = field(default_factory=list)
    manifests: dict[str, str] = field(default_factory=dict)
    generation_seconds: float = 0.0
    step1_seconds: float = 0.0
    step2_seconds: float = 0.0
    #: Per-artifact provenance of this run: artifact id
    #: (``machine:NAME``, ``server:WORKCELL``, ``client:NAME``,
    #: ``storage:NAME``, ``manifest:FILE``) -> ``"reused"`` (replayed
    #: byte-identical from cache / previous result) or
    #: ``"regenerated"`` (computed this run).
    provenance: dict[str, str] = field(default_factory=dict, repr=False,
                                       compare=False)
    #: Per-phase telemetry of this run (None when tracing was off).
    trace: PipelineTrace | None = field(default=None, repr=False,
                                        compare=False)
    _size_cache: int | None = field(default=None, repr=False,
                                    compare=False)

    # -- Table I, last row -------------------------------------------------

    @property
    def opcua_server_count(self) -> int:
        return len(self.server_configs)

    @property
    def opcua_client_count(self) -> int:
        return len(self.client_configs)

    @property
    def config_size_bytes(self) -> int:
        # memoized: Table I checks and summary() hit this repeatedly,
        # and each computation re-serializes every config
        if self._size_cache is None:
            self._size_cache = sum(
                len(value) if isinstance(value, str)
                else len(json.dumps(value, indent=2))
                for value in self.artifacts().values())
        return self._size_cache

    @property
    def config_size_kb(self) -> float:
        return self.config_size_bytes / 1024.0

    def artifacts(self) -> dict[str, object]:
        """Every artifact this result carries, by provenance id."""
        table: dict[str, object] = {
            f"machine:{name}": config
            for name, config in self.machine_configs.items()}
        table.update((f"server:{name}", config)
                     for name, config in self.server_configs.items())
        table.update((f"client:{config['client']}", config)
                     for config in self.client_configs)
        table.update((f"storage:{config['historian']}", config)
                     for config in self.storage_configs)
        table.update((f"manifest:{name}", text)
                     for name, text in self.manifests.items())
        return table

    def summary(self) -> dict[str, object]:
        states = list(self.provenance.values())
        return {
            "generation_time_s": round(self.generation_seconds, 3),
            "opcua_servers": self.opcua_server_count,
            "opcua_clients": self.opcua_client_count,
            "config_size_kb": round(self.config_size_kb, 1),
            "machines": len(self.machine_configs),
            "manifest_files": len(self.manifests),
            "artifacts_reused": states.count("reused"),
            "artifacts_regenerated": states.count("regenerated"),
        }

    # -- file output ----------------------------------------------------------

    def files(self) -> dict[str, str]:
        """Every output file's text by relative path: JSON configs under
        ``intermediate/``, manifests under ``manifests/``."""
        files: dict[str, str] = {}
        # sanitize: raw model names may carry characters that are
        # unsafe or inconsistent with the server/client file naming
        for name, config in self.machine_configs.items():
            files[f"intermediate/machine-{k8s_name(name)}.json"] = \
                _json_text(config)
        for name, config in self.server_configs.items():
            files[f"intermediate/server-{k8s_name(name)}.json"] = \
                _json_text(config)
        for config in self.client_configs:
            files[f"intermediate/{config['client']}.json"] = \
                _json_text(config)
        for config in self.storage_configs:
            files[f"intermediate/{config['historian']}.json"] = \
                _json_text(config)
        for filename, text in self.manifests.items():
            files[f"manifests/{filename}"] = text
        return files

    def write_to(self, directory: str | Path) -> list[Path]:
        """Materialize every JSON and YAML file; returns written paths."""
        written: list[Path] = []
        for relative, text in self.files().items():
            path = Path(directory) / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            written.append(path)
        return written


def _json_text(config: dict) -> str:
    return json.dumps(config, indent=2) + "\n"


def _settle_replay(result: GenerationResult,
                   previous: GenerationResult) -> None:
    """Provenance of a result replayed from the cache, by the rule every
    run follows (see :class:`_Earlier`): a replay is not "unchanged
    since *previous*" unless it equals *previous*."""
    earlier = _Earlier(previous, result.provenance)
    for kind, table in (("machine", result.machine_configs),
                        ("server", result.server_configs)):
        for name, config in table.items():
            table[name] = earlier.keep(f"{kind}:{name}", config)
    for kind, key, configs in (
            ("client", "client", result.client_configs),
            ("storage", "historian", result.storage_configs)):
        configs[:] = [earlier.keep(f"{kind}:{config[key]}", config)
                      for config in configs]
    for name, text in result.manifests.items():
        result.manifests[name] = earlier.keep(f"manifest:{name}", text)


class _Earlier:
    """The artifacts of an earlier result, by provenance id, and the one
    rule that sets a run's provenance: an artifact is ``reused`` exactly
    when it equals the earlier one, and then the earlier object is what
    the run keeps; any other artifact is ``regenerated``."""

    def __init__(self, previous: GenerationResult | None,
                 provenance: dict[str, str]):
        self.previous = previous
        self.artifacts = previous.artifacts() if previous is not None \
            else {}
        self.provenance = provenance

    def get(self, artifact: str):
        return self.artifacts.get(artifact)

    def keep(self, artifact: str, value):
        before = self.artifacts.get(artifact)
        if before is not None and (before is value or before == value):
            self.provenance[artifact] = "reused"
            return before
        self.provenance[artifact] = "regenerated"
        return value

    def settle(self, artifact: str, unchanged: bool, compute):
        """The earlier *artifact* when its inputs are *unchanged*
        earlier objects, else ``compute()``; kept by the rule above."""
        value = self.artifacts.get(artifact) if unchanged else None
        return self.keep(artifact, compute() if value is None else value)


class GenerationPipeline:
    """Configurable pipeline instance; :class:`PipelineOptions` is its
    only configuration. ``previous`` must come from a pipeline with
    equal options; ``dirty`` names the machines whose
    :class:`MachineInfo` may differ from *previous*'s (``None``: any)."""

    def __init__(self, options: PipelineOptions | None = None):
        self.options = options if options is not None else PipelineOptions()
        self.cache: ArtifactCache | None = None
        if self.options.cache_dir is not None:
            self.cache = ArtifactCache(self.options.cache_dir,
                                       self.options.cache_max_bytes)

    # -- entry points ---------------------------------------------------------

    def run_on_model(self, model: Model, *,
                     previous: GenerationResult | None = None
                     ) -> GenerationResult:
        with activation(self.options.tracer) as tracer:
            started = time.perf_counter()
            with span("generate") as g:
                result = self._generate_from_model(model, started, g,
                                                   previous)
            if tracer.enabled:
                result.trace = tracer.trace()
        return result

    def _generate_from_model(self, model: Model, started: float,
                             generate_span, previous: GenerationResult | None
                             ) -> GenerationResult:
        source_fp = getattr(model, "content_fingerprint", None)
        topology = self._extract_topology(model, source_fp)
        if self.cache is None or source_fp is None:
            return self._run(topology, started, previous)
        # Whole-result layer: when the sources and every output-shaping
        # option are unchanged, reuse the complete artifact set in one
        # read instead of regenerating it.
        key = fingerprint(source_fp, self._semantic_options(),
                          _render_environment(), salt=RESULT_SALT)
        bundle = self.cache.get_object(key)
        if bundle is not None:
            self._validate(topology)
            result = GenerationResult(topology=topology, **bundle)
            if previous is None:
                result.provenance = dict.fromkeys(result.artifacts(),
                                                  "reused")
            else:
                _settle_replay(result, previous)
            result.generation_seconds = time.perf_counter() - started
            generate_span.set("result_cache", "hit")
            return result
        result = self._run(topology, started, previous)
        self.cache.put_object(key, {
            "machine_configs": result.machine_configs,
            "server_configs": result.server_configs,
            "client_configs": result.client_configs,
            "storage_configs": result.storage_configs,
            "groups": result.groups,
            "manifests": result.manifests,
        })
        return result

    def _extract_topology(self, model: Model,
                          source_fp: str | None) -> FactoryTopology:
        if self.cache is None or source_fp is None:
            return extract_topology(model)
        key = fingerprint(source_fp, salt=TOPOLOGY_SALT)
        cached = self.cache.get_object(key)
        if isinstance(cached, FactoryTopology):
            with span("topology", cached=True):
                pass
            return cached
        topology = extract_topology(model)
        self.cache.put_object(key, topology)
        return topology

    def _semantic_options(self) -> dict[str, object]:
        """The options that shape output bytes — *not* cache settings."""
        return {
            "capacity": self.options.capacity,
            "namespace": self.options.namespace,
            "broker_url": self.options.broker_url,
            "database_url": self.options.database_url,
        }

    def run_on_topology(self, topology: FactoryTopology, *,
                        previous: GenerationResult | None = None,
                        dirty: set[str] | None = None
                        ) -> GenerationResult:
        with activation(self.options.tracer) as tracer:
            with span("generate"):
                result = self._run(topology, time.perf_counter(),
                                   previous, dirty)
            if tracer.enabled:
                result.trace = tracer.trace()
        return result

    def _validate(self, topology: FactoryTopology) -> None:
        if not self.options.validate:
            return
        report = validate_topology(topology)
        if not report.ok:
            raise ValidationError(
                "topology validation failed: "
                + "; ".join(str(d) for d in report.errors))

    def _run(self, topology: FactoryTopology, extraction_started: float,
             previous: GenerationResult | None = None,
             dirty: set[str] | None = None) -> GenerationResult:
        self._validate(topology)
        result = GenerationResult(topology=topology)
        earlier = _Earlier(previous, result.provenance)
        step1_started = time.perf_counter()
        with span("step1") as s:
            self._step1(topology, result, earlier, dirty)
            s.set("machines", len(result.machine_configs))
            s.set("servers", len(result.server_configs))
            s.set("clients", len(result.client_configs))
        result.step1_seconds = time.perf_counter() - step1_started
        step2_started = time.perf_counter()
        with span("step2") as s:
            self._step2(result, earlier)
            s.set("manifests", len(result.manifests))
            s.set("bytes", sum(len(t) for t in result.manifests.values()))
        result.step2_seconds = time.perf_counter() - step2_started
        result.generation_seconds = time.perf_counter() - extraction_started
        return result

    # -- step 1: intermediate JSON ------------------------------------------------

    def _step1(self, topology: FactoryTopology, result: GenerationResult,
               earlier: _Earlier, dirty: set[str] | None) -> None:
        configs = result.machine_configs
        for machine in topology.machines:
            artifact = f"machine:{machine.name}"
            config = earlier.get(artifact) \
                if dirty is not None and machine.name not in dirty else None
            if config is None:
                with span(f"machine:{machine.name}",
                          points=machine.point_count):
                    config = machine_config(machine, topology)
            configs[machine.name] = earlier.keep(artifact, config)

        def unchanged(before: dict | None, members: list[str]) -> bool:
            """*before*, an earlier server or client config, serves
            exactly *members*, whose configs are all earlier objects."""
            return before is not None and members == [
                entry["machine"] for entry in before["machines"]] and all(
                configs[name] is earlier.get(f"machine:{name}")
                for name in members)

        with span("servers") as s:
            for workcell in topology.workcells:
                members = [m.name for m in workcell.machines]
                if not members:
                    continue
                artifact = f"server:{workcell.name}"
                result.server_configs[workcell.name] = earlier.settle(
                    artifact, unchanged(earlier.get(artifact), members),
                    lambda: workcell_server_config(
                        workcell.name, [configs[name] for name in members]))
            s.set("servers", len(result.server_configs))
        result.groups = self._group(topology, earlier.previous)
        root = topic_root(topology)
        with span("clients") as s:
            for group in result.groups:
                before = earlier.get(f"client:{group.name}")
                reusable = unchanged(before, group.machine_names) \
                    and before["topic_root"] == root
                result.client_configs.append(earlier.settle(
                    f"client:{group.name}", reusable,
                    lambda: client_config(group, topology,
                                          self.options.broker_url)))
                result.storage_configs.append(earlier.settle(
                    f"storage:historian-{group.index:02d}", reusable,
                    lambda: storage_config(group, topology,
                                           self.options.broker_url,
                                           self.options.database_url)))
            s.set("groups", len(result.groups))

    def _group(self, topology: FactoryTopology,
               previous: GenerationResult | None) -> list[ClientGroup]:
        """Bin-pack the machines — or, when the packing's inputs equal
        *previous*'s, rebuild *previous*'s membership around the current
        machines (the packing is a pure function of its signature)."""
        capacity = self.options.capacity
        if previous is not None and grouping_signature(
                topology.machines, capacity) \
                == grouping_signature(previous.topology.machines, capacity):
            by_name = {m.name: m for m in topology.machines}
            return [ClientGroup(index=group.index, capacity=group.capacity,
                                machines=[by_name[m.name]
                                          for m in group.machines],
                                oversized=group.oversized)
                    for group in previous.groups]
        return group_machines(topology.machines, capacity)

    # -- step 2: Kubernetes YAML -----------------------------------------------------

    def _step2(self, result: GenerationResult, earlier: _Earlier) -> None:
        tasks: list[tuple[str, str, str, dict, int | None]] = []
        for workcell, config in result.server_configs.items():
            tasks.append(("opcua-server", config["server"],
                          f"server:{workcell}", config, config["port"]))
        for config in result.client_configs:
            tasks.append(("opcua-client", config["client"],
                          f"client:{config['client']}", config, None))
        for config in result.storage_configs:
            tasks.append(("historian", config["historian"],
                          f"storage:{config['historian']}", config, None))
        for kind, name, source, config, port in tasks:
            result.manifests[f"{name}.yaml"] = earlier.settle(
                f"manifest:{name}.yaml", config is earlier.get(source),
                lambda: self._render(kind, name, config, port=port))

    def _render(self, kind: str, name: str, config: dict,
                *, port: int | None = None) -> str:
        context = {
            "namespace": self.options.namespace,
            "broker_url": self.options.broker_url,
            "database_url": self.options.database_url,
            "component": {
                "name": name,
                "kind": kind,
                "image": COMPONENT_IMAGES[kind],
                "replicas": 1,
                "port": port or 0,
                "cpu_request": "100m",
                "memory_request": "128Mi",
                "config_json": config,
            },
        }
        with span(f"render:{k8s_name(name)}") as s:
            text = get_template(kind).render(context)
            s.set("template", kind)
            s.set("bytes", len(text))
        return text


def generate_configuration(model: Model,
                           options: PipelineOptions | None = None
                           ) -> GenerationResult:
    """Run the full two-step pipeline on a resolved SysML model."""
    return GenerationPipeline(options).run_on_model(model)
