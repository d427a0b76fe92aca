"""Kernel tests: total event order, clock arithmetic, run bounds."""

import pytest

from repro.sim.kernel import (TICKS_PER_UNIT, Event, SchedulingInPastError,
                              SimulationError, Simulator, scale_ticks,
                              ticks, units)


class TestClock:
    def test_ticks_round_trip(self):
        assert ticks(1.0) == TICKS_PER_UNIT
        assert units(ticks(2.5)) == 2.5

    def test_ticks_rounds_to_tick_resolution(self):
        assert ticks(0.014) == 1
        assert ticks(0.016) == 2

    def test_scale_ticks_is_exact_ceiling(self):
        assert scale_ticks(100, 2, 1) == 200
        assert scale_ticks(3, 3, 2) == 5  # ceil(4.5)
        assert scale_ticks(0, 7, 3) == 0

    def test_scale_ticks_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            scale_ticks(10, 0, 1)
        with pytest.raises(ValueError):
            scale_ticks(-1, 1, 1)


class TestTotalOrder:
    def test_time_then_priority_then_ordinal(self):
        sim = Simulator(trace_events=True)
        order = []
        sim.schedule_at(5, lambda: order.append("late"), priority=0)
        sim.schedule_at(1, lambda: order.append("b"), priority=1)
        sim.schedule_at(1, lambda: order.append("a"), priority=0)
        sim.schedule_at(1, lambda: order.append("c"), priority=1)
        sim.run()
        assert order == ["a", "b", "c", "late"]

    def test_insertion_ordinal_breaks_exact_ties(self):
        sim = Simulator()
        order = []
        for index in range(10):
            sim.schedule_at(3, lambda i=index: order.append(i),
                            priority=2)
        sim.run()
        assert order == list(range(10))

    def test_heap_orders_equal_keys_by_ordinal_without_comparing_events(
            self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("the heap compared two Event objects")

        monkeypatch.setattr(Event, "__lt__", refuse)
        sim = Simulator(trace_events=True)
        # interleave two (time, priority) keys so heap sifts mix them
        for index in range(40):
            sim.schedule_at(7, lambda: None, priority=index % 2,
                            label=f"e{index}")
        sim.schedule_at(3, lambda: None, priority=5, label="first")
        sim.run()
        log = sim.event_log
        assert log[0][3] == "first"
        assert [entry[:2] for entry in log[1:]] == \
            [(7, 0)] * 20 + [(7, 1)] * 20
        for priority in (0, 1):
            ordinals = [entry[2] for entry in log
                        if entry[:2] == (7, priority)]
            assert ordinals == sorted(ordinals)
            assert ordinals == list(range(priority, 40, 2))

    def test_event_comparison_uses_full_key(self):
        early = Event(1, 0, 0, lambda: None, "")
        late = Event(1, 0, 1, lambda: None, "")
        assert early < late
        assert early.key == (1, 0, 0)

    def test_actions_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append((sim.now, depth))
            if depth:
                sim.schedule(2, lambda: chain(depth - 1))

        sim.schedule_at(0, lambda: chain(3))
        executed = sim.run()
        assert executed == 4
        assert seen == [(0, 3), (2, 2), (4, 1), (6, 0)]


class TestGuards:
    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5, lambda: sim.schedule_at(1, lambda: None))
        with pytest.raises(SchedulingInPastError):
            sim.run()

    def test_negative_delay_raises(self):
        with pytest.raises(SchedulingInPastError):
            Simulator().schedule(-1, lambda: None)

    def test_max_events_trips_on_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule_at(0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_until_leaves_later_events_pending(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1, lambda: fired.append(1))
        sim.schedule_at(10, lambda: fired.append(10))
        sim.run(until=5)
        assert fired == [1]
        assert sim.pending == 1
        sim.run()
        assert fired == [1, 10]

    def test_event_log_records_execution_order(self):
        sim = Simulator(trace_events=True)
        sim.schedule_at(2, lambda: None, label="two")
        sim.schedule_at(1, lambda: None, label="one")
        sim.run()
        assert [entry[3] for entry in sim.event_log] == ["one", "two"]
        assert sim.event_log == sorted(sim.event_log)
