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
from .client_config import client_config
from .grouping import ClientGroup, group_machines
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
            total = sum(len(json.dumps(c, indent=2)) for c in
                        self._all_json_configs())
            total += sum(len(text) for text in self.manifests.values())
            self._size_cache = total
        return self._size_cache

    @property
    def config_size_kb(self) -> float:
        return self.config_size_bytes / 1024.0

    def _all_json_configs(self) -> list[dict]:
        return (list(self.machine_configs.values())
                + list(self.server_configs.values())
                + self.client_configs + self.storage_configs)

    def artifact_ids(self) -> list[str]:
        """Provenance ids of every artifact this result carries."""
        ids = [f"machine:{name}" for name in self.machine_configs]
        ids += [f"server:{name}" for name in self.server_configs]
        ids += [f"client:{c['client']}" for c in self.client_configs]
        ids += [f"storage:{c['historian']}" for c in self.storage_configs]
        ids += [f"manifest:{name}" for name in self.manifests]
        return ids

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

    def write_to(self, directory: str | Path) -> list[Path]:
        """Materialize every JSON and YAML file; returns written paths."""
        base = Path(directory)
        written: list[Path] = []
        json_dir = base / "intermediate"
        yaml_dir = base / "manifests"
        json_dir.mkdir(parents=True, exist_ok=True)
        yaml_dir.mkdir(parents=True, exist_ok=True)
        for name, config in self.machine_configs.items():
            # sanitize: raw model names may carry characters that are
            # unsafe or inconsistent with the server/client file naming
            written.append(_write_json(
                json_dir / f"machine-{k8s_name(name)}.json", config))
        for name, config in self.server_configs.items():
            written.append(_write_json(
                json_dir / f"server-{k8s_name(name)}.json", config))
        for config in self.client_configs:
            written.append(_write_json(
                json_dir / f"{config['client']}.json", config))
        for config in self.storage_configs:
            written.append(_write_json(
                json_dir / f"{config['historian']}.json", config))
        for filename, text in self.manifests.items():
            path = yaml_dir / filename
            path.write_text(text)
            written.append(path)
        return written


def _write_json(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


class GenerationPipeline:
    """Configurable pipeline instance; :class:`PipelineOptions` is its
    only configuration."""

    def __init__(self, options: PipelineOptions | None = None):
        self.options = options if options is not None else PipelineOptions()
        self.cache: ArtifactCache | None = None
        if self.options.cache_dir is not None:
            self.cache = ArtifactCache(self.options.cache_dir,
                                       self.options.cache_max_bytes)

    # -- entry points ---------------------------------------------------------

    def run_on_model(self, model: Model) -> GenerationResult:
        with activation(self.options.tracer) as tracer:
            started = time.perf_counter()
            with span("generate") as g:
                result = self._generate_from_model(model, started, g)
            if tracer.enabled:
                result.trace = tracer.trace()
        return result

    def _generate_from_model(self, model: Model, started: float,
                             generate_span) -> GenerationResult:
        source_fp = getattr(model, "content_fingerprint", None)
        topology = self._extract_topology(model, source_fp)
        if self.cache is None or source_fp is None:
            return self._run(topology, extraction_started=started)
        # Whole-result layer: when the sources and every output-shaping
        # option are unchanged, reuse the complete artifact set in one
        # read instead of regenerating it.
        key = fingerprint(source_fp, self._semantic_options(),
                          _render_environment(), salt=RESULT_SALT)
        bundle = self.cache.get_object(key)
        if bundle is not None:
            self._validate(topology)
            result = GenerationResult(topology=topology, **bundle)
            result.provenance = {artifact: "reused"
                                 for artifact in result.artifact_ids()}
            result.generation_seconds = time.perf_counter() - started
            generate_span.set("result_cache", "hit")
            return result
        result = self._run(topology, extraction_started=started)
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
            "grouping": self.options.grouping,
            "namespace": self.options.namespace,
            "broker_url": self.options.broker_url,
            "database_url": self.options.database_url,
        }

    def run_on_topology(self, topology: FactoryTopology
                        ) -> GenerationResult:
        with activation(self.options.tracer) as tracer:
            with span("generate"):
                result = self._run(topology,
                                   extraction_started=time.perf_counter())
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

    def _run(self, topology: FactoryTopology, extraction_started: float
             ) -> GenerationResult:
        self._validate(topology)
        result = GenerationResult(topology=topology)
        step1_started = time.perf_counter()
        with span("step1") as s:
            self._step1(topology, result)
            s.set("machines", len(result.machine_configs))
            s.set("servers", len(result.server_configs))
            s.set("clients", len(result.client_configs))
        result.step1_seconds = time.perf_counter() - step1_started
        step2_started = time.perf_counter()
        with span("step2") as s:
            self._step2(result)
            s.set("manifests", len(result.manifests))
            s.set("bytes", sum(len(t) for t in result.manifests.values()))
        result.step2_seconds = time.perf_counter() - step2_started
        result.generation_seconds = time.perf_counter() - extraction_started
        return result

    # -- step 1: intermediate JSON ------------------------------------------------

    def _step1(self, topology: FactoryTopology,
               result: GenerationResult) -> None:
        for machine in topology.machines:
            with span(f"machine:{machine.name}",
                      points=machine.point_count):
                result.machine_configs[machine.name] = \
                    machine_config(machine, topology)
            result.provenance[f"machine:{machine.name}"] = "regenerated"
        with span("servers") as s:
            for workcell in topology.workcells:
                if not workcell.machines:
                    continue
                configs = [result.machine_configs[m.name]
                           for m in workcell.machines]
                result.server_configs[workcell.name] = \
                    workcell_server_config(workcell.name, configs)
                result.provenance[f"server:{workcell.name}"] = \
                    "regenerated"
            s.set("servers", len(result.server_configs))
        result.groups = group_machines(topology.machines,
                                       self.options.capacity,
                                       algorithm=self.options.grouping)
        with span("clients") as s:
            for group in result.groups:
                client = client_config(group, topology,
                                       self.options.broker_url)
                storage = storage_config(group, topology,
                                         self.options.broker_url,
                                         self.options.database_url)
                result.client_configs.append(client)
                result.storage_configs.append(storage)
                result.provenance[f"client:{client['client']}"] = \
                    "regenerated"
                result.provenance[f"storage:{storage['historian']}"] = \
                    "regenerated"
            s.set("groups", len(result.groups))

    # -- step 2: Kubernetes YAML -----------------------------------------------------

    def _step2(self, result: GenerationResult) -> None:
        tasks: list[tuple[str, str, dict, int | None]] = []
        for config in result.server_configs.values():
            tasks.append(("opcua-server", config["server"], config,
                          config["port"]))
        for config in result.client_configs:
            tasks.append(("opcua-client", config["client"], config, None))
        for config in result.storage_configs:
            tasks.append(("historian", config["historian"], config, None))
        for kind, name, config, port in tasks:
            result.manifests[f"{name}.yaml"] = \
                self._render(kind, name, config, port=port)
            result.provenance[f"manifest:{name}.yaml"] = "regenerated"

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
