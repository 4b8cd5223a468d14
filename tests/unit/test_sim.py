"""Unit tests of the discrete-event simulation engine."""
from __future__ import annotations

import math

import pytest

from repro.core import SimulationError
from repro.obs import MetricsRegistry, observe
from repro.sim import RandomSource, Simulator, derive_seed, spawn_streams
from repro.sim.engine import EventHandle, callback_label
from repro.sim.randomness import MAX_DERIVED_SEED


def run_both_ways(scenario):
    """Drive *scenario* with no observer and under a metrics observer.

    ``scenario(sim, fired)`` schedules events on a fresh simulator, runs it
    and records what fired in *fired*.  ``run()`` picks observed dispatch
    once per call, so both runs must agree on firing order, clock and
    event count, and the observer must count every fired event.  Returns
    the unobserved ``(sim, fired)`` for the caller's own assertions.
    """
    plain_sim, plain_fired = Simulator(), []
    scenario(plain_sim, plain_fired)
    observed_sim, observed_fired = Simulator(), []
    metrics = MetricsRegistry()
    with observe(metrics=metrics):
        scenario(observed_sim, observed_fired)
    assert observed_fired == plain_fired
    assert observed_sim.now == plain_sim.now
    assert observed_sim.processed_events == plain_sim.processed_events
    assert metrics.counter("engine.events_dispatched") == observed_sim.processed_events
    return plain_sim, plain_fired


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "b")
        sim.schedule(5, order.append, "a")
        sim.schedule(20, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 20.0

    def test_ties_fire_in_scheduling_order(self):
        def scenario(sim, order):
            for label in "abc":
                sim.schedule(5, order.append, label)
            sim.run()

        _, order = run_both_ways(scenario)
        assert order == ["a", "b", "c"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(42.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(5, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []
        assert not handle.pending()

    def test_run_until(self):
        def scenario(sim, seen):
            sim.schedule(5, seen.append, "early")
            sim.schedule(50, seen.append, "late")
            sim.run(until=10)
            assert seen == ["early"]
            assert sim.now == 10.0
            sim.run()

        sim, seen = run_both_ways(scenario)
        assert seen == ["early", "late"]
        assert sim.now == 50.0

    def test_run_until_the_past_is_rejected(self):
        sim = Simulator()
        seen = []
        sim.schedule(50, seen.append, "late")
        sim.run(until=10)
        with pytest.raises(SimulationError, match="already at 10"):
            sim.run(until=5)
        # The clock never moves backwards: an event scheduled now fires at
        # t=10, not at the rejected horizon.
        assert sim.now == 10.0
        sim.schedule(0, lambda: seen.append(sim.now))
        sim.run(until=10)
        assert seen == [10.0]
        sim.run()
        assert seen == [10.0, "late"]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(5, second)

        def second():
            seen.append(sim.now)

        sim.schedule(1, first)
        sim.run()
        assert seen == [1.0, 6.0]

    def test_peek_and_empty(self):
        sim = Simulator()
        assert sim.empty()
        assert math.isinf(sim.peek())
        sim.schedule(3, lambda: None)
        assert sim.peek() == 3.0
        assert not sim.empty()
        sim.run()
        assert sim.empty()

    def test_infinite_loop_guard(self):
        def scenario(sim, fired):
            def rescheduler():
                fired.append(sim.now)
                sim.schedule(0.0, rescheduler)

            sim.schedule(0.0, rescheduler)
            with pytest.raises(SimulationError):
                sim.run(max_events=1000)

        sim, fired = run_both_ways(scenario)
        # The guard trips on the event that exceeds the budget.
        assert len(fired) == sim.processed_events == 1001

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.processed_events == 5


class _Untouchable:
    """Stand-in for the event queue that fails on any access."""

    def __getattribute__(self, name):
        raise AssertionError("empty() must not inspect the event queue")


class TestPendingCounter:
    def test_empty_after_mass_cancellation(self):
        sim = Simulator()
        handles = [sim.schedule(5, lambda: None) for _ in range(5_000)]
        for handle in handles:
            handle.cancel()
        assert sim.empty()

    def test_empty_is_constant_time(self):
        # empty() must be answerable from the pending counter alone: replace
        # the queue structures with objects that explode on any access.
        sim = Simulator()
        handle = sim.schedule(5, lambda: None)
        sim._buckets = _Untouchable()
        sim._times = _Untouchable()
        assert not sim.empty()
        handle.cancelled = True
        sim._pending -= 1
        assert sim.empty()

    def test_counter_tracks_schedule_cancel_and_fire(self):
        sim = Simulator()
        keep = sim.schedule(1, lambda: None)
        drop = sim.schedule(2, lambda: None)
        assert not sim.empty()
        drop.cancel()
        drop.cancel()  # double-cancel must not decrement twice
        assert not sim.empty()
        sim.run()
        assert sim.empty()
        assert keep.fired and not drop.fired

    def test_interrupted_process_leaves_queue_empty(self):
        sim = Simulator()

        def worker():
            while True:
                yield 10

        proc = sim.process(worker())
        sim.schedule(25, proc.interrupt)
        sim.run()
        assert sim.empty()


class TestBatchedDispatch:
    """Same-timestamp batches must be indistinguishable from stepping."""

    def test_mid_batch_scheduling_at_same_timestamp(self):
        def scenario(sim, order):
            def b():
                order.append("b")
                # Same timestamp as the batch being fired: must run after it,
                # in schedule order, not be lost and not jump the queue.
                sim.schedule(0.0, order.append, "d")
                sim.schedule(0.0, order.append, "e")

            sim.schedule(5, order.append, "a")
            sim.schedule(5, b)
            sim.schedule(5, order.append, "c")
            sim.run()

        sim, order = run_both_ways(scenario)
        assert order == ["a", "b", "c", "d", "e"]
        assert sim.now == 5.0

    def test_mid_batch_cancellation_is_honoured(self):
        def scenario(sim, order):
            victim = None

            def killer():
                order.append("killer")
                victim.cancel()

            sim.schedule(5, killer)
            victim = sim.schedule(5, order.append, "victim")
            sim.schedule(5, order.append, "survivor")
            sim.run()

        sim, order = run_both_ways(scenario)
        assert order == ["killer", "survivor"]
        assert sim.empty()
        assert sim.processed_events == 2

    def test_step_and_run_agree_on_tie_order(self):
        def populate(sim, order):
            for label in "abc":
                sim.schedule(7, order.append, label)
            sim.schedule(3, order.append, "first")

        sim, stepped = Simulator(), []
        populate(sim, stepped)
        while sim.step():
            pass

        def scenario(sim, order):
            populate(sim, order)
            sim.run()

        _, ran = run_both_ways(scenario)
        assert stepped == ran == ["first", "a", "b", "c"]

    def test_event_handle_orders_by_time_then_seq(self):
        sim = Simulator()
        h1 = sim.schedule(5, lambda: None)
        h2 = sim.schedule(5, lambda: None)
        h3 = sim.schedule(4, lambda: None)
        assert h3 < h1 < h2
        assert sorted([h2, h3, h1]) == [h3, h1, h2]
        # Direct construction keeps the same (time, seq) order.
        a = EventHandle(1.0, 0, lambda: None, (), {})
        b = EventHandle(1.0, 1, lambda: None, (), {})
        assert a < b and not b < a


class TestCallbackLabels:
    def test_plain_function_label(self):
        def my_callback():
            pass

        assert callback_label(my_callback).endswith("my_callback")

    def test_bound_method_label_cached_across_instances(self):
        class Thing:
            def cb(self):
                pass

        a, b = Thing(), Thing()
        label_a = callback_label(a.cb)
        label_b = callback_label(b.cb)
        assert label_a.endswith("Thing.cb")
        # Memoized on the code object: the exact same string comes back for
        # every instance and every repeated call.
        assert label_a is label_b
        assert callback_label(a.cb) is label_a

    def test_process_label_uses_process_name(self):
        sim = Simulator()

        def worker():
            yield 1

        proc = sim.process(worker(), name="pump")
        assert callback_label(proc._step) == "process:pump"
        assert callback_label(proc._step) is callback_label(proc._step)


class TestProcesses:
    def test_generator_process_sleeps(self):
        sim = Simulator()
        seen = []

        def worker():
            seen.append(sim.now)
            yield 10
            seen.append(sim.now)
            yield 5
            seen.append(sim.now)

        proc = sim.process(worker(), name="worker")
        sim.run()
        assert seen == [0.0, 10.0, 15.0]
        assert proc.finished

    def test_yield_none_resumes_immediately(self):
        sim = Simulator()
        seen = []

        def worker():
            yield None
            seen.append(sim.now)

        sim.process(worker())
        sim.run()
        assert seen == [0.0]

    def test_negative_yield_is_an_error(self):
        sim = Simulator()

        def worker():
            yield -1

        sim.process(worker())
        with pytest.raises(SimulationError):
            sim.run()

    def test_interrupt_stops_process(self):
        sim = Simulator()
        seen = []

        def worker():
            while True:
                seen.append(sim.now)
                yield 10

        proc = sim.process(worker())
        sim.schedule(25, proc.interrupt)
        sim.run()
        assert seen == [0.0, 10.0, 20.0]


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(42), RandomSource(42)
        assert [a.uniform_int(0, 100) for _ in range(5)] == [
            b.uniform_int(0, 100) for _ in range(5)
        ]

    def test_uniform_int_bounds(self):
        rng = RandomSource(1)
        values = [rng.uniform_int(3, 7) for _ in range(200)]
        assert min(values) >= 3 and max(values) <= 7

    def test_gaussian_array_shape(self):
        assert RandomSource(0).gaussian_array(0, 1, 10).shape == (10,)

    def test_choice(self):
        assert RandomSource(0).choice(["only"]) == "only"

    def test_spawn_streams_are_independent_but_reproducible(self):
        s1 = [s.uniform() for s in spawn_streams(7, 3)]
        s2 = [s.uniform() for s in spawn_streams(7, 3)]
        assert s1 == s2
        assert len(set(s1)) == 3


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "fig9", 3) == derive_seed(0, "fig9", 3)

    def test_depends_on_every_component(self):
        base = derive_seed(0, "fig9", 3)
        assert derive_seed(1, "fig9", 3) != base
        assert derive_seed(0, "fig10", 3) != base
        assert derive_seed(0, "fig9", 4) != base

    def test_component_boundaries_matter(self):
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_none_root_is_valid_and_stable(self):
        assert derive_seed(None, "x") == derive_seed(None, "x")
        assert derive_seed(None, "x") != derive_seed(0, "x")

    def test_range(self):
        for replicate in range(50):
            seed = derive_seed(0, "scenario", replicate)
            assert 0 <= seed < MAX_DERIVED_SEED

    def test_no_collisions_over_grid(self):
        seeds = {
            derive_seed(0, scenario, replicate)
            for scenario in ("a", "b", "c", "d")
            for replicate in range(250)
        }
        assert len(seeds) == 1000

    def test_feeds_numpy_generator(self):
        a = RandomSource(derive_seed(0, "s", 0)).uniform()
        b = RandomSource(derive_seed(0, "s", 0)).uniform()
        assert a == b

    def test_derive_method_is_state_independent(self):
        source = RandomSource(42)
        source.uniform()  # advance the parent state
        child_after = source.derive("task", 1)
        child_fresh = RandomSource(42).derive("task", 1)
        assert child_after.uniform() == child_fresh.uniform()

    def test_derive_from_unseeded_source_stays_independent(self):
        # Entropy-seeded sources have no stable identity; their derived
        # children must not collapse onto the derive_seed(None, ...) constant.
        a = RandomSource().derive("workload")
        b = RandomSource().derive("workload")
        assert a.uniform() != b.uniform()
