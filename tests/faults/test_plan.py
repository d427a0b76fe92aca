"""Fault-plan determinism, activation scoping and site primitives."""

import pickle

import pytest

from repro.faults import (CORRUPT_PREFIX, FaultInjected, FaultPlan,
                          FaultSpec, InjectedCrash, InjectedIOError,
                          InjectedUnavailable, active_plan, corrupt_at,
                          corrupt_bytes, fault_point, install_plan,
                          uninstall_plan)
from repro.obs import METRICS


@pytest.fixture(autouse=True)
def _clean_global_plan():
    METRICS.reset()
    yield
    uninstall_plan()


def _schedule(plan, site, kinds=None, n=40):
    return [spec.kind if spec else None
            for spec in (plan.decide(site, kinds=kinds)
                         for _ in range(n))]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        specs = (FaultSpec("cache.get", "corrupt", probability=0.3),
                 FaultSpec("cache.get", "io-error", probability=0.1))
        first = _schedule(FaultPlan(seed=7, specs=specs), "cache.get")
        second = _schedule(FaultPlan(seed=7, specs=specs), "cache.get")
        assert first == second
        assert any(first)  # 0.3+0.1 over 40 draws: some must fire

    def test_different_seeds_differ(self):
        spec = (FaultSpec("site", "crash", probability=0.5),)
        schedules = {tuple(_schedule(FaultPlan(seed=s, specs=spec), "site"))
                     for s in range(4)}
        assert len(schedules) > 1

    def test_skipped_kinds_still_advance_occurrences(self):
        # a corrupt-only decide() must not shift the io-error stream
        specs = (FaultSpec("site", "io-error", probability=0.5),
                 FaultSpec("site", "corrupt", probability=0.5))
        plain = FaultPlan(seed=3, specs=specs)
        reference = _schedule(plain, "site", kinds=("io-error",))
        interleaved = FaultPlan(seed=3, specs=specs)
        observed = []
        for _ in range(40):
            interleaved.decide("site", kinds=("corrupt",))
            spec = interleaved.decide("site", kinds=("io-error",))
            observed.append(spec.kind if spec else None)
        assert observed == reference

    def test_probability_bounds(self):
        always = FaultPlan(specs=(FaultSpec("s", "crash", probability=1.0),))
        never = FaultPlan(specs=(FaultSpec("s", "crash", probability=0.0),))
        assert all(_schedule(always, "s", n=10))
        assert not any(_schedule(never, "s", n=10))

    def test_max_injections_caps_hits(self):
        plan = FaultPlan(specs=(
            FaultSpec("s", "io-error", probability=1.0, max_injections=2),))
        kinds = _schedule(plan, "s", n=10)
        assert kinds == ["io-error", "io-error"] + [None] * 8


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("site", "meteor-strike")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("site", "crash", probability=1.5)


class TestSerialization:
    def test_pickle_preserves_schedule_resets_counters(self):
        plan = FaultPlan(seed=11, specs=(
            FaultSpec("s", "crash", probability=0.5, max_injections=3),))
        reference = _schedule(FaultPlan(seed=11, specs=plan.specs), "s")
        _schedule(plan, "s")  # spend the injection budget before pickling
        assert not any(_schedule(plan, "s"))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == plan.seed and clone.specs == plan.specs
        assert _schedule(clone, "s") == reference


class TestActivation:
    def test_no_plan_is_a_noop(self):
        assert active_plan() is None
        fault_point("anywhere")  # must not raise
        assert corrupt_at("anywhere", b"data") == b"data"

    def test_activated_scopes_to_context(self):
        plan = FaultPlan(seed=1)
        with plan.activated():
            assert active_plan() is plan
        assert active_plan() is None

    def test_local_plan_wins_over_global(self):
        global_plan = FaultPlan(seed=1)
        local_plan = FaultPlan(seed=2)
        install_plan(global_plan)
        assert active_plan() is global_plan
        with local_plan.activated():
            assert active_plan() is local_plan
        assert active_plan() is global_plan
        uninstall_plan()
        assert active_plan() is None


class TestSitePrimitives:
    def _plan(self, kind, **kwargs):
        return FaultPlan(specs=(FaultSpec("site", kind, **kwargs),))

    def test_io_error_site(self):
        with self._plan("io-error").activated():
            with pytest.raises(InjectedIOError) as info:
                fault_point("site")
        assert isinstance(info.value, OSError)
        assert info.value.retriable and info.value.site == "site"

    def test_crash_site(self):
        with self._plan("crash").activated():
            with pytest.raises(InjectedCrash):
                fault_point("site")

    def test_unavailable_carries_retry_after(self):
        with self._plan("unavailable", retry_after=0.25).activated():
            with pytest.raises(InjectedUnavailable) as info:
                fault_point("site")
        assert info.value.retry_after == 0.25
        assert isinstance(info.value, FaultInjected)

    def test_fault_point_ignores_corrupt_specs(self):
        with self._plan("corrupt").activated():
            fault_point("site")  # corrupt needs a payload: no raise

    def test_corrupt_at_breaks_every_codec(self):
        data = corrupt_bytes(b'{"a": 1}')
        assert data.startswith(CORRUPT_PREFIX)
        with pytest.raises(UnicodeDecodeError):
            data.decode("utf-8")
        with pytest.raises(pickle.UnpicklingError):
            pickle.loads(data)

    def test_corrupt_at_fires_under_plan(self):
        with self._plan("corrupt").activated():
            assert corrupt_at("site", b"payload") != b"payload"

    def test_metrics_count_injections(self):
        with self._plan("io-error").activated():
            with pytest.raises(InjectedIOError):
                fault_point("site")
        snap = METRICS.snapshot()
        assert snap.get("faults.injected") == 1
        assert snap.get("faults.injected.io-error") == 1
