"""The engine's partial path is the pipeline's full path, restricted.

Over seeded literal edits to the ICE lab, the x2 mega factory and
corpus scenarios (tame and hostile), every revision the engine accepts
must equal, artifact for artifact:

* in bytes and in ``provenance``, a full recompute of the same revision
  by the engine's pipeline with the same previous result
  (``run_on_model(model, previous=...)``, no dirty set), and
* in bytes, a cold :func:`generate_configuration` over the revision.

The edits mix integer and string literal changes (mostly driver
parameters, which take the partial path) with a new attribute beside
an existing one (a point-count change that forces a regroup, or a
definition edit that falls back to a full run).
"""

from __future__ import annotations

import json
import random
import re

import pytest

from repro.codegen import (IncrementalEngine, PipelineOptions,
                           generate_configuration)
from repro.icelab.model_gen import icelab_sources
from repro.obs import METRICS
from repro.sysml import load_model
from repro.sysml.errors import SysMLError
from repro.testkit.corpus import CorpusConfig, generate_scenario
from repro.testkit.scale import mega_factory_sources

_NUMBER = re.compile(r"(= )(\d+)(;)")
_STRING = re.compile(r'(= ")([^"\n]*)(";)')
_ATTRIBUTE = re.compile(r"\n([ \t]*)attribute \w+ : [\w:]+;\n")


def seeded_edit(sources: list[str], rng: random.Random,
                number: int) -> list[str] | None:
    """*sources* with one seeded edit applied, or ``None`` when the
    chosen kind of edit has no site in them."""
    kind = rng.choice((_NUMBER, _STRING, _ATTRIBUTE))
    sites = [(index, match) for index, text in enumerate(sources)
             for match in kind.finditer(text)]
    if not sites:
        return None
    index, match = rng.choice(sites)
    text = sources[index]
    if kind is _ATTRIBUTE:
        line = f"{match.group(1)}attribute seeded{number} : Real;\n"
        text = text[:match.end()] + line + text[match.end():]
    else:
        value = str(int(match.group(2)) + rng.randrange(1, 1000)) \
            if kind is _NUMBER else f"seeded-{number}"
        text = text[:match.start(2)] + value + text[match.end(2):]
    return sources[:index] + [text] + sources[index + 1:]


def artifact_bytes(result) -> str:
    return json.dumps(result.artifacts(), indent=2)


def partial_runs() -> int:
    return METRICS.snapshot().get("incremental.partial_runs", 0)


def check_edit_script(sources, options, seed: int, edits: int) -> int:
    """Run *edits* seeded edits through one engine, checking each
    accepted revision; returns how many took the partial path."""
    rng = random.Random(seed)
    engine = IncrementalEngine(options)
    engine.generate(*sources)
    revision = list(sources)
    partial = 0
    for number in range(edits):
        candidate = seeded_edit(revision, rng, number)
        if candidate is None:
            continue
        try:
            cold = generate_configuration(load_model(*candidate), options)
        except SysMLError:
            continue  # the edit broke the model; try another one
        revision = candidate
        prior = engine.previous
        before = partial_runs()
        result = engine.generate(*revision)
        partial += partial_runs() - before
        full = engine.pipeline.run_on_model(engine.model, previous=prior)
        assert artifact_bytes(result) == artifact_bytes(full), number
        assert result.provenance == full.provenance, number
        assert artifact_bytes(result) == artifact_bytes(cold), number
    return partial


def test_icelab_edits_match_a_full_recompute():
    assert check_edit_script(icelab_sources(),
                             PipelineOptions(namespace="icelab"),
                             seed=23, edits=12) > 0


def test_mega_x2_edits_match_a_full_recompute():
    assert check_edit_script(mega_factory_sources(2), PipelineOptions(),
                             seed=24, edits=6) > 0


@pytest.mark.parametrize("hostile", [False, True],
                         ids=["tame", "hostile"])
@pytest.mark.parametrize("seed", [3, 5, 6])
def test_corpus_edits_match_a_full_recompute(seed, hostile):
    scenario = generate_scenario(seed, CorpusConfig(hostile=hostile))
    check_edit_script(scenario.sources,
                      PipelineOptions(capacity=scenario.capacity),
                      seed=seed, edits=4)
