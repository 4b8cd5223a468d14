"""Overhead budget of the observability layer (``repro.obs``).

The layer's contract is **near-zero cost when disabled**: ``Simulator.run``
reads the observation state once per call and then pays one local flag test
per event, the scheduler gates once per pass, and the other disabled hot
paths carry no per-event checks.  These benchmarks enforce the contract:

* the disabled layer adds < 5% to engine event dispatch, measured by
  comparing ``run()`` (which pays the gate and the per-event flag test)
  against a bare ``while sim.step(): pass`` loop over the same event
  population;
* the scheduler's 5,000 req/s floor (10x the paper's figure, raised by the
  issue-7 kernel overhaul) holds with observation disabled *and* with a
  live tracer + metrics registry, so turning observability on for a
  debugging session can never push the system under it.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -s
"""
from __future__ import annotations

import statistics
import time

from bench_scheduler_throughput import build_workload

from repro.core import Scheduler
from repro.obs import EventTracer, MetricsRegistry, observe
from repro.sim.engine import Simulator

#: Events per engine benchmark round (large enough to smooth fixed costs).
EVENT_COUNT = 50_000
#: Disabled-observability overhead ceiling, percent.
OVERHEAD_CEILING_PCT = 5.0
#: Scheduler throughput floor, requests/second (10x the paper's figure).
THROUGHPUT_FLOOR = 5_000


def _noop() -> None:
    pass


def _populated_simulator(events: int = EVENT_COUNT) -> Simulator:
    sim = Simulator()
    for i in range(events):
        sim.schedule(float(i) * 1e-3, _noop)
    return sim


def _median_run_seconds(body, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        sim = _populated_simulator()
        started = time.perf_counter()
        body(sim)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _bare_step_loop(sim: Simulator) -> None:
    while sim.step():
        pass


def test_disabled_observability_overhead_under_5_percent():
    """``run()`` vs a bare step loop: the gate and flag test must cost < 5%."""
    bare = _median_run_seconds(_bare_step_loop)
    through_run = _median_run_seconds(lambda sim: sim.run())
    overhead_pct = 100.0 * (through_run - bare) / bare
    print(
        f"\nengine dispatch: bare={bare:.4f}s run()={through_run:.4f}s "
        f"overhead={overhead_pct:+.2f}% (ceiling {OVERHEAD_CEILING_PCT:.1f}%)"
    )
    assert overhead_pct < OVERHEAD_CEILING_PCT


def _pass_throughput(observed: bool) -> float:
    scheduler = Scheduler({"c0": 4096})
    request_count = sum(
        len(app.all_requests()) for app in build_workload(16, 8).values()
    )
    samples = []
    for _ in range(5):
        applications = build_workload(16, 8)
        if observed:
            with observe(tracer=EventTracer(), metrics=MetricsRegistry()):
                started = time.perf_counter()
                scheduler.schedule(applications, now=0.0)
                samples.append(time.perf_counter() - started)
        else:
            started = time.perf_counter()
            scheduler.schedule(applications, now=0.0)
            samples.append(time.perf_counter() - started)
    return request_count / statistics.median(samples)


def test_scheduler_floor_holds_with_observation_disabled():
    throughput = _pass_throughput(observed=False)
    print(f"\nscheduler disabled-obs: {throughput:,.0f} req/s (floor {THROUGHPUT_FLOOR})")
    assert throughput > THROUGHPUT_FLOOR


def test_scheduler_floor_holds_with_observation_enabled():
    throughput = _pass_throughput(observed=True)
    print(f"\nscheduler enabled-obs: {throughput:,.0f} req/s (floor {THROUGHPUT_FLOOR})")
    assert throughput > THROUGHPUT_FLOOR
