"""Replay the crash corpus: every checked-in shrunk reproducer must
pass its oracle forever, and the seeds that once produced failures are
pinned as explicit hypothesis ``@example``s of the seeded-corpus
property."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CRASH_CORPUS_DIR, crash_corpus_files
from repro.testkit import ORACLES, TrialContext, generate_scenario

SOURCE_LEVEL = ("roundtrip", "interchange")


def _corpus_ids():
    return [path.stem for path in crash_corpus_files()]


def test_corpus_is_not_empty():
    assert crash_corpus_files(), (
        f"expected shrunk reproducers under {CRASH_CORPUS_DIR}")


@pytest.mark.parametrize("path", crash_corpus_files(), ids=_corpus_ids())
def test_reproducer_passes_its_oracle(path: Path):
    meta = json.loads(path.with_suffix(".json").read_text())
    ctx = TrialContext(sources=[path.read_text()])
    ORACLES[meta["oracle"]].run(ctx)


@pytest.mark.parametrize("path", crash_corpus_files(), ids=_corpus_ids())
def test_reproducer_passes_all_source_oracles(path: Path):
    """Regressions rarely respect the oracle that first caught them."""
    ctx = TrialContext(sources=[path.read_text()])
    for name in SOURCE_LEVEL:
        ORACLES[name].run(ctx)


def _seeded_roundtrip(seed: int, hostile: bool) -> None:
    from repro.testkit import CorpusConfig
    ctx = TrialContext(
        scenario=generate_scenario(seed, CorpusConfig(hostile=hostile)))
    for name in SOURCE_LEVEL:
        ORACLES[name].run(ctx)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       hostile=st.booleans())
def test_seeded_corpus_front_end_property(seed, hostile):
    _seeded_roundtrip(seed, hostile)


# pin each crash-corpus seed so hypothesis replays the exact inputs
# that once failed, on every run, in both corpus modes
for _path in crash_corpus_files():
    _seed = json.loads(_path.with_suffix(".json").read_text())["seed"]
    for _hostile in (False, True):
        test_seeded_corpus_front_end_property = example(
            seed=_seed, hostile=_hostile)(
                test_seeded_corpus_front_end_property)
