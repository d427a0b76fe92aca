"""Golden briefings: the canonical ICE-lab trio, byte for byte.

These files are the determinism contract made concrete: the committed
JSON must match a fresh `simulate_suite` run exactly — across machines,
interpreter restarts and repeated runs. A legitimate engine change that
alters outcomes must regenerate them (``python -m repro simulate
--seed 7 --json``) and the diff reviewed like any other artifact.
"""

from pathlib import Path

import pytest

from repro.sim import simulate_suite

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("policy", ["fifo", "edd"])
def test_icelab_trio_matches_committed_briefing(topology, policy):
    suffix = "" if policy == "fifo" else f"_{policy}"
    golden = (GOLDEN_DIR
              / f"briefing_icelab_seed7{suffix}.json").read_text()
    briefing = simulate_suite(topology, seed=7, policy=policy)
    assert briefing.to_json() == golden


def test_golden_digest_stable_across_repeat_runs(topology):
    first = simulate_suite(topology, seed=7)
    again = simulate_suite(topology, seed=7)
    assert again.digest == first.digest
    assert again.to_json() == first.to_json()
