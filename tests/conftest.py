import os
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from fixtures import EMCO_WORKCELL_SOURCE  # noqa: E402

from repro.sysml import load_model  # noqa: E402

try:  # property suites are skipped cleanly where hypothesis is absent
    from hypothesis import HealthCheck, settings as _hyp_settings
except ImportError:  # pragma: no cover
    _hyp_settings = None

if _hyp_settings is not None:
    # "dev" keeps the loop fast at the keyboard; "ci" digs deeper and
    # never gives up on a slow example. Select with
    # HYPOTHESIS_PROFILE=ci (the CI workflow does) — inline
    # @settings(max_examples=...) on individual tests still win.
    _hyp_settings.register_profile(
        "dev", max_examples=25, deadline=None)
    _hyp_settings.register_profile(
        "ci", max_examples=200, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow])
    _hyp_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE",
                       "ci" if os.environ.get("CI") else "dev"))

CRASH_CORPUS_DIR = TESTS_DIR / "crash_corpus"


def crash_corpus_files():
    """The checked-in minimal reproducers (shrinker output)."""
    return sorted(CRASH_CORPUS_DIR.glob("*.sysml"))


@pytest.fixture(scope="session")
def emco_model():
    """The paper's running example (workcell 02), parsed and resolved."""
    return load_model(EMCO_WORKCELL_SOURCE)


@pytest.fixture(scope="session")
def topology():
    """The extracted ICE-lab factory (6 workcells, 10 machines)."""
    from fixtures import icelab_topology
    return icelab_topology()
