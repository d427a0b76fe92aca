"""Differential conformance harness for the reproduction pipeline.

The testkit closes the loop between the front end (parser/printer/
interchange), the generation pipeline (cache, parallel fan-out) and the
serving layer: a seeded corpus generator emits arbitrary-but-valid
factory models, a registry of equivalence oracles checks that every
path through the system agrees, and a delta-debugging shrinker reduces
any disagreement to a minimal reproducer.

Entry points:

* :func:`generate_scenario` — one seed -> one :class:`FactoryScenario`;
* :func:`mega_factory_specs` / :func:`mega_factory_sources` — the
  deterministic ICE-Lab×N corpus behind the A4 scaling bench;
* :data:`ORACLES` / :func:`run_oracle` — the oracle registry;
* :func:`run_conformance` — the parallel trial harness behind
  ``repro conformance``;
* :func:`shrink_failure` — ddmin reduction of a failing trial;
* :func:`wait_until` / :class:`Deadline` — bounded-wait helpers shared
  by the service tests (no fixed sleeps).
"""

from .corpus import CorpusConfig, FactoryScenario, generate_scenario
from .scale import mega_factory_sources, mega_factory_specs
from .harness import ConformanceReport, TrialResult, run_conformance, run_trial
from .oracles import (ORACLES, OracleFailure, TrialContext, chaos_plan,
                      oracle_names, run_oracle)
from .shrink import ddmin, shrink_failure, write_reproducer
from .waiting import Deadline, wait_until

__all__ = [
    "ConformanceReport", "CorpusConfig", "Deadline", "FactoryScenario",
    "ORACLES", "OracleFailure", "mega_factory_sources",
    "mega_factory_specs", "TrialContext", "TrialResult",
    "chaos_plan", "ddmin", "generate_scenario", "oracle_names",
    "run_conformance", "run_oracle", "run_trial", "shrink_failure",
    "wait_until", "write_reproducer",
]
