"""Seeded generator of arbitrary-but-valid SysML v2 factory models.

One integer seed deterministically yields one :class:`FactoryScenario`:
a random machine inventory (ISA-95 workcell layout, machine counts,
driver mixes, variable/service shapes) realized as textual SysML v2
sources through the same emitters the ICE-lab model uses
(:mod:`repro.icelab.model_gen`). With ``hostile=True`` the name pools
additionally draw *unrestricted names* — unicode, embedded spaces and
quotes, reserved words, deep ``/``-nested categories — which stress the
printer/parser quoting path and the interchange format.

Scenarios are pure data; ``generate_scenario(seed) ==
generate_scenario(seed)`` byte-for-byte, which is what makes the
conformance harness replayable from a seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..isa95.levels import VariableSpec
from ..isa95.library import ISA95_LIBRARY_SOURCE
from ..machines.catalog import DriverSpec, MachineSpec, simple_service
from ..icelab.model_gen import (generate_driver_instance, generate_library,
                                generate_topology_source)

_DATA_TYPES = ("Real", "Integer", "Boolean", "String", "Double", "Natural")

_MACHINE_WORDS = ("Mill", "Lathe", "Robot", "Conveyor", "Press", "Printer",
                  "Scanner", "Loader", "Oven", "Crane", "Agv", "Cell")
_VENDOR_WORDS = ("Acme", "Umbra", "Nord", "Vega", "Orion", "Delta", "Kilo")
_CATEGORY_WORDS = ("Axes", "Spindle", "Alarms", "Energy", "Doors", "Tooling",
                   "Vision", "Safety", "Motion", "Program")
_VARIABLE_WORDS = ("pos", "vel", "temp", "load", "state", "err", "feed",
                   "power", "speed", "count")
_SERVICE_WORDS = ("start", "stop", "reset", "home", "load", "unload",
                  "calibrate", "measure")
_PROTOCOL_WORDS = ("OPCUA", "EMCO", "Modbus", "Ros", "Profinet", "MQTT")

#: Hostile name fragments: unicode identifiers, unrestricted names with
#: spaces/quotes/backslashes, reserved words, and a newline-bearing
#: name (legal — the printer must escape it).
_HOSTILE_NAMES = (
    "µzelle", "Maschine Ä", "name with spaces", "per-cent%", "1leading",
    "part", "connect", "import", "apo'strophe", "back\\slash",
    "tab\tname", "new\nline", "*/almost comment", "::looks::qualified",
    "", "   ", "'", "😀cell",
)
#: Hostile names for *structural* elements (machines, workcells, the
#: ISA-95 hierarchy). These flow into Kubernetes resource names, so a
#: valid model needs them to sanitize to a non-empty DNS label — i.e.
#: contain at least one ASCII alphanumeric. Names that sanitize to
#: nothing (``""``, ``"   "``, ``"µ"``) are *invalid* machine names by
#: the pipeline's contract and stay out of this pool.
_HOSTILE_STRUCTURAL_NAMES = (
    "µ cell 1", "Maschine Ä", "name with spaces", "part", "connect",
    "apo'strophe", "1leading", "Zelle::X", "tab\tcell", "😀 cell A",
)
_HOSTILE_STRINGS = (
    "opc.tcp://host:4840/'quoted'", "line1\nline2", "tab\tsep",
    "back\\slash", "mixed \\' \n end", "*/", "ünïcode",
)
#: Share of hostile-mode name draws that come from the hostile pools.
_HOSTILE_RATE = 0.25


@dataclass(frozen=True)
class CorpusConfig:
    """Shape knobs of the generated corpus (all bounds inclusive)."""

    min_machines: int = 1
    max_machines: int = 6
    max_workcells: int = 3
    max_categories: int = 3
    max_variables: int = 10
    max_services: int = 4
    max_category_depth: int = 3
    #: Draw from the hostile name/string pools as well.
    hostile: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "min_machines": self.min_machines,
            "max_machines": self.max_machines,
            "max_workcells": self.max_workcells,
            "max_categories": self.max_categories,
            "max_variables": self.max_variables,
            "max_services": self.max_services,
            "max_category_depth": self.max_category_depth,
            "hostile": self.hostile,
        }


@dataclass
class FactoryScenario:
    """One generated factory: machine specs plus the topology naming."""

    seed: int
    specs: list[MachineSpec]
    topology_name: str = "Topology0"
    enterprise: str = "Enterprise0"
    site: str = "Site0"
    area: str = "Area0"
    line: str = "Line0"
    #: OPC UA client capacity this scenario is generated/grouped with;
    #: varied per seed so small capacities (oversized machines, many
    #: clients) are exercised too.
    capacity: int = 120
    config: CorpusConfig = field(default_factory=CorpusConfig)

    @property
    def sources(self) -> list[str]:
        """The scenario's SysML v2 sources, in load order."""
        return scenario_sources(self)

    @property
    def user_sources(self) -> list[str]:
        """The sources minus the fixed ISA-95 library prelude."""
        return self.sources[1:]

    def describe(self) -> dict[str, object]:
        return {
            "seed": self.seed,
            "machines": [s.name for s in self.specs],
            "workcells": sorted({s.workcell for s in self.specs}),
            "capacity": self.capacity,
            "points": sum(s.point_count for s in self.specs),
            "hostile": self.config.hostile,
        }


def scenario_sources(scenario: FactoryScenario) -> list[str]:
    """Realize a scenario as textual sources (library prelude first)."""
    sources = [ISA95_LIBRARY_SOURCE]
    seen_types: set[str] = set()
    for spec in scenario.specs:
        if spec.type_name not in seen_types:
            sources.append(generate_library(spec))
            seen_types.add(spec.type_name)
    for spec in scenario.specs:
        sources.append(generate_driver_instance(spec))
    sources.append(generate_topology_source(
        scenario.specs, topology_name=scenario.topology_name,
        enterprise=scenario.enterprise, site=scenario.site,
        area=scenario.area, line=scenario.line))
    return sources


def _sanitized(name: str) -> str:
    """The DNS-label the pipeline would derive (same rule as
    ``repro.templates.engine.k8s_name``, empty instead of raising)."""
    import re
    return re.sub(r"[^a-z0-9-]+", "-", name.lower()).strip("-")


class _NamePool:
    """Draws names from word pools, guaranteeing uniqueness by suffix.

    ``structural=True`` marks names that become Kubernetes resource
    names downstream: they draw from the sanitizable hostile pool and
    are kept unique *after* sanitization too, so two hostile names
    cannot collapse onto one manifest name.
    """

    def __init__(self, rng: random.Random, hostile: bool):
        self.rng = rng
        self.hostile = hostile
        self.used: set[str] = set()
        self.used_sanitized: set[str] = set()

    def draw(self, words: tuple[str, ...], *, suffix: str = "",
             style: str = "lower", structural: bool = False) -> str:
        base = self._raw(words, style, structural)
        name = base + suffix
        index = 2
        while name in self.used or (
                structural and _sanitized(name) in self.used_sanitized):
            name = f"{base}{index}{suffix}"
            index += 1
        self.used.add(name)
        if structural:
            self.used_sanitized.add(_sanitized(name))
        return name

    def _raw(self, words: tuple[str, ...], style: str,
             structural: bool) -> str:
        if self.hostile and self.rng.random() < _HOSTILE_RATE:
            pool = (_HOSTILE_STRUCTURAL_NAMES if structural
                    else _HOSTILE_NAMES)
            return self.rng.choice(pool)
        word = self.rng.choice(words)
        if style == "lower":
            return word[:1].lower() + word[1:]
        return word


def generate_scenario(seed: int,
                      config: CorpusConfig | None = None) -> FactoryScenario:
    """Deterministically generate the scenario for *seed*."""
    config = config or CorpusConfig()
    rng = random.Random(seed)
    machine_count = rng.randint(config.min_machines, config.max_machines)
    workcell_count = rng.randint(1, min(config.max_workcells, machine_count))
    names = _NamePool(rng, config.hostile)
    workcells = [names.draw(("workCell",), suffix=f"_{i:02d}",
                            structural=True)
                 for i in range(workcell_count)]

    specs: list[MachineSpec] = []
    type_pool: list[MachineSpec] = []
    for _ in range(machine_count):
        # occasionally clone an existing type (two machines of the same
        # kind sharing one library package, like the RB-Kairos pair)
        if type_pool and rng.random() < 0.2:
            template = rng.choice(type_pool)
            specs.append(_instantiate(rng, names, template,
                                      rng.choice(workcells)))
            continue
        spec = _generate_spec(rng, names, config, rng.choice(workcells))
        type_pool.append(spec)
        specs.append(spec)

    scenario = FactoryScenario(
        seed=seed, specs=specs,
        topology_name=names.draw(("Topology", "Plant", "Factory"),
                                 style="upper", structural=True),
        enterprise=names.draw(_VENDOR_WORDS, suffix="Corp", style="upper",
                              structural=True),
        site=names.draw(("North", "South", "Main", "West"), suffix="Site",
                        style="upper", structural=True),
        area=names.draw(("Area", "Hall", "Floor"), suffix="A",
                        style="upper", structural=True),
        line=names.draw(("Line", "Flow", "Track"), suffix="1",
                        style="upper", structural=True),
        capacity=rng.choice((4, 8, 16, 40, 120)),
        config=config,
    )
    return scenario


def _generate_spec(rng: random.Random, names: _NamePool,
                   config: CorpusConfig, workcell: str) -> MachineSpec:
    vendor = rng.choice(_VENDOR_WORDS)
    kind = rng.choice(_MACHINE_WORDS)
    type_name = names.draw((f"{vendor}{kind}",), style="upper")
    instance = names.draw((f"{kind.lower()}",), structural=True)
    display = f"{vendor} {kind} {rng.randint(100, 999)}"
    if config.hostile and rng.random() < 0.3:
        display += " " + rng.choice(_HOSTILE_STRINGS)

    local = _LocalNames(rng, names, config)
    categories: dict[str, list[VariableSpec]] = {}
    for _ in range(rng.randint(0, config.max_categories)):
        category = local.category()
        count = rng.randint(0, config.max_variables)
        categories[category] = [
            VariableSpec(name=local.variable(),
                         data_type=rng.choice(_DATA_TYPES),
                         unit=rng.choice(("", "mm", "rpm", "°C", "%")))
            for _ in range(count)]
    services = [simple_service(
        local.service(),
        inputs=[(local.argument(), rng.choice(_DATA_TYPES))
                for _ in range(rng.randint(0, 2))],
        outputs=[(local.argument(), rng.choice(_DATA_TYPES))
                 for _ in range(rng.randint(1, 2))])
        for _ in range(rng.randint(0, config.max_services))]

    return MachineSpec(
        name=instance, display_name=display, type_name=type_name,
        workcell=workcell, driver=_generate_driver(rng, config),
        categories=categories, services=services)


def _instantiate(rng: random.Random, names: _NamePool,
                 template: MachineSpec, workcell: str) -> MachineSpec:
    """A second instance of an existing machine type."""
    return MachineSpec(
        name=names.draw((template.name,), structural=True),
        display_name=template.display_name,
        type_name=template.type_name, workcell=workcell,
        driver=template.driver,
        categories={category: list(variables) for category, variables
                    in template.categories.items()},
        services=list(template.services))


def _generate_driver(rng: random.Random, config: CorpusConfig) -> DriverSpec:
    protocol = f"{rng.choice(_PROTOCOL_WORDS)}Driver"
    parameters: dict[str, object] = {}
    for i in range(rng.randint(0, 4)):
        key = f"param{i}"
        roll = rng.random()
        if roll < 0.3:
            parameters[key] = rng.randint(-1000, 65535)
        elif roll < 0.4:
            parameters[key] = rng.random() < 0.5
        elif config.hostile and roll < 0.7:
            parameters[key] = rng.choice(_HOSTILE_STRINGS)
        else:
            parameters[key] = f"opc.tcp://host{i}:{rng.randint(1, 9999)}"
    return DriverSpec(protocol=protocol,
                      is_generic=rng.random() < 0.5,
                      parameters=parameters)


class _LocalNames:
    """Per-machine name scopes (variables/services must be unique only
    within their machine)."""

    def __init__(self, rng: random.Random, names: _NamePool,
                 config: CorpusConfig):
        self.rng = rng
        self.names = names
        self.config = config
        self.used: set[str] = set()

    def _unique(self, base: str) -> str:
        name = base
        index = 2
        while name in self.used:
            name = f"{base}{index}"
            index += 1
        self.used.add(name)
        return name

    def _maybe_hostile(self, fallback: str) -> str:
        if self.config.hostile and self.rng.random() < 0.2:
            return self._unique(self.rng.choice(_HOSTILE_NAMES))
        return self._unique(fallback)

    def category(self) -> str:
        depth = self.rng.randint(1, self.config.max_category_depth)
        parts = [self.rng.choice(_CATEGORY_WORDS) for _ in range(depth)]
        return self._unique("/".join(parts))

    def variable(self) -> str:
        return self._maybe_hostile(
            f"{self.rng.choice(_VARIABLE_WORDS)}_{self.rng.randint(1, 99)}")

    def service(self) -> str:
        return self._maybe_hostile(self.rng.choice(_SERVICE_WORDS))

    def argument(self) -> str:
        return f"arg{self.rng.randint(0, 9)}"
