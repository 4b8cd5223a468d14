"""The observability benchmark behind ``python -m repro obs bench``.

Measures six things and writes them as one ``BENCH_10.json`` report:

* **Scheduler throughput** (requests/second for one scheduling pass), with
  observation disabled *and* enabled -- both must beat the 5,000 req/s
  floor (10x the paper's 500 req/s figure), so instrumentation can never
  push the scheduler under it.
* **Trace ingest throughput** (SWF jobs parsed per second) against the
  trace subsystem's 100k jobs/s floor.
* **Engine dispatch throughput** over a realistic event population whose
  timestamps coalesce on whole seconds, against the kernel overhaul's
  1M events/s floor.
* **Engine dispatch overhead of the disabled observability layer**: the
  only cost :meth:`~repro.sim.engine.Simulator.run` pays when nothing
  observes is one ``observation_enabled()`` check per ``run()`` call plus
  one local flag test per event, so comparing ``run()`` against a bare
  ``while sim.step(): pass`` loop over the same event population bounds
  the tracing-disabled overhead.  CI asserts it stays under 5%.
* **Distributed dispatch overhead**: run units per second pushed through
  the full coordinator/worker RPC path (in-thread transport, no-op
  simulation), so queue bookkeeping + framing + record reassembly can
  never dominate real campaign runs.  Floor: 200 units/s.
* **A wall-clock phase breakdown** of one instrumented fig9 run (trace
  ingest / scheduling / event dispatch), demonstrating the profiler
  end to end.

All wall-clock numbers are medians over several repeats; they are
machine-dependent by nature and belong only in ``BENCH_*.json`` artefacts,
never in deterministic result files.
"""
from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from .hooks import observe
from .metrics import MetricsRegistry
from .profiler import PhaseProfiler
from .tracer import EventTracer

__all__ = ["run_bench", "BENCH_FILE", "FLOORS"]

#: Default report file name; the "10" ties the artefact to this PR's issue.
BENCH_FILE = "BENCH_10.json"

#: Acceptance floors, identical to the standalone benchmark suites.
FLOORS: Dict[str, float] = {
    "scheduler_requests_per_second": 5_000.0,
    "scheduler_requests_per_second_observed": 5_000.0,
    "trace_ingest_jobs_per_second": 100_000.0,
    "engine_dispatch_events_per_second": 1_000_000.0,
    "tracing_disabled_overhead_pct": 5.0,  # ceiling, not a floor
    "dist_units_per_second": 200.0,
}


def _median_seconds(fn: Callable[[], None], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# --------------------------------------------------------------------- #
# Scheduler throughput (with and without observation)
# --------------------------------------------------------------------- #
def _scheduler_workload(num_apps: int = 16, requests_per_app: int = 8):
    from ..core import ApplicationRequests, Request, RequestType

    applications = {}
    for i in range(num_apps):
        app = ApplicationRequests(f"app{i}")
        app.add(Request("c0", 32, math.inf, RequestType.PREALLOCATION))
        for j in range(requests_per_app):
            app.add(
                Request("c0", 4 + (j % 8), 600.0 + 60.0 * j, RequestType.NON_PREEMPTIBLE)
            )
        app.add(Request("c0", 16, math.inf, RequestType.PREEMPTIBLE))
        applications[f"app{i}"] = app
    return applications


def bench_scheduler(repeats: int = 5) -> Dict[str, float]:
    """Requests/second of one scheduling pass, plain and observed."""
    from ..core import Scheduler

    scheduler = Scheduler({"c0": 4096})
    request_count = sum(
        len(app.all_requests()) for app in _scheduler_workload().values()
    )

    def plain_pass() -> None:
        scheduler.schedule(_scheduler_workload(), now=0.0)

    def observed_pass() -> None:
        with observe(tracer=EventTracer(), metrics=MetricsRegistry()):
            scheduler.schedule(_scheduler_workload(), now=0.0)

    plain = _median_seconds(plain_pass, repeats)
    observed = _median_seconds(observed_pass, repeats)
    return {
        "scheduler_requests_per_second": request_count / plain if plain else math.inf,
        "scheduler_requests_per_second_observed": (
            request_count / observed if observed else math.inf
        ),
    }


# --------------------------------------------------------------------- #
# Trace ingest throughput
# --------------------------------------------------------------------- #
def bench_trace_ingest(jobs: int = 20_000, repeats: int = 3) -> Dict[str, float]:
    """SWF jobs parsed per second from text."""
    from ..traces import TraceModel, dumps_swf, loads_swf

    text = dumps_swf(TraceModel().synthesize(jobs, seed=123))
    seconds = _median_seconds(lambda: loads_swf(text), repeats)
    return {
        "trace_ingest_jobs_per_second": jobs / seconds if seconds else math.inf
    }


# --------------------------------------------------------------------- #
# Engine dispatch throughput (batched same-timestamp buckets)
# --------------------------------------------------------------------- #
def bench_engine_dispatch(
    events: int = 200_000, per_timestamp: int = 100, repeats: int = 3
) -> Dict[str, float]:
    """Events dispatched per second through ``Simulator.run``.

    The population coalesces ``per_timestamp`` events on each whole-second
    timestamp, matching the shape of trace-driven workloads (SWF submit
    times are integer seconds); this is exactly the case the calendar-bucket
    dispatch batches into one heap operation per distinct time.
    """
    from ..sim.engine import Simulator

    def _noop() -> None:
        pass

    samples = []
    for _ in range(repeats):
        sim = Simulator()
        for i in range(events):
            sim.schedule_at(float(i // per_timestamp), _noop)
        started = time.perf_counter()
        sim.run()
        samples.append(time.perf_counter() - started)
    seconds = statistics.median(samples)
    return {
        "engine_dispatch_events_per_second": events / seconds if seconds else math.inf
    }


# --------------------------------------------------------------------- #
# Disabled-observability overhead on the engine hot path
# --------------------------------------------------------------------- #
def bench_engine_overhead(events: int = 50_000, repeats: int = 7) -> Dict[str, float]:
    """Overhead of ``Simulator.run`` over a bare step loop, in percent.

    ``run()`` performs the single per-call observation check, a local flag
    test per event and its loop bookkeeping; the bare loop dispatches the identical event population
    through ``step()`` directly.  The difference is everything a disabled
    observability layer can possibly cost.
    """
    from ..sim.engine import Simulator

    def _noop() -> None:
        pass

    def populate() -> Simulator:
        sim = Simulator()
        for i in range(events):
            sim.schedule(float(i) * 1e-3, _noop)
        return sim

    def timed(body: Callable[[Simulator], None]) -> float:
        samples = []
        for _ in range(repeats):
            sim = populate()
            started = time.perf_counter()
            body(sim)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    def bare(sim: Simulator) -> None:
        while sim.step():
            pass

    def through_run(sim: Simulator) -> None:
        sim.run()

    bare_seconds = timed(bare)
    run_seconds = timed(through_run)
    overhead_pct = (
        100.0 * (run_seconds - bare_seconds) / bare_seconds if bare_seconds else 0.0
    )
    return {
        "engine_events_per_second": events / run_seconds if run_seconds else math.inf,
        "tracing_disabled_overhead_pct": overhead_pct,
    }


# --------------------------------------------------------------------- #
# Distributed dispatch overhead
# --------------------------------------------------------------------- #
def bench_dist(units: int = 64, workers: int = 4, repeats: int = 3) -> Dict[str, float]:
    """Run units per second through the coordinator/worker RPC path.

    Every unit is a no-op scenario run, so the measured rate is pure
    distribution overhead: queue bookkeeping, lease/result round-trips over
    the in-thread transport, and canonical record reassembly.
    """
    from ..campaign.runner import CampaignRunner
    from ..campaign.spec import CampaignSpec, ScenarioSpec
    from ..dist import ensure_noop_runner
    from ..dist.coordinator import Coordinator, DistConfig

    runner_name = ensure_noop_runner()
    spec = CampaignSpec(
        name="dist-overhead",
        scenarios=(ScenarioSpec(name="noop", runner=runner_name),),
        seeds=units,
    )
    tasks = CampaignRunner(spec).tasks()

    def one_campaign() -> None:
        outcome = Coordinator(
            tasks, DistConfig(transport="thread", poll_interval=0.001)
        ).run(workers)
        assert len(outcome.records) == units

    seconds = _median_seconds(one_campaign, repeats)
    return {"dist_units_per_second": units / seconds if seconds else math.inf}


# --------------------------------------------------------------------- #
# End-to-end phase breakdown of one instrumented run
# --------------------------------------------------------------------- #
def bench_phase_breakdown(scenario: str = "fig9", seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Wall-clock phase breakdown of one fully instrumented scenario run."""
    from ..campaign import builtin  # noqa: F401  (registers the runners)
    from ..campaign.registry import consume_provenance, get_runner, resolve_scenarios

    spec = resolve_scenarios([scenario])[0]
    runner = get_runner(spec.runner)
    profiler = PhaseProfiler()
    consume_provenance()
    with observe(metrics=MetricsRegistry(), profiler=profiler):
        runner(spec, seed)
    consume_provenance()
    return profiler.snapshot()


# --------------------------------------------------------------------- #
def run_bench(
    output: Optional[str] = None,
    repeats: int = 5,
    check_floors: bool = True,
) -> Dict[str, object]:
    """Run every benchmark and return (and optionally write) the report."""
    results: Dict[str, float] = {}
    results.update(bench_scheduler(repeats=repeats))
    results.update(bench_trace_ingest(repeats=max(3, repeats // 2 + 1)))
    results.update(bench_engine_dispatch(repeats=max(3, repeats // 2 + 1)))
    results.update(bench_engine_overhead(repeats=max(7, repeats)))
    results.update(bench_dist(repeats=max(3, repeats // 2 + 1)))

    failures = []
    if results["scheduler_requests_per_second"] < FLOORS["scheduler_requests_per_second"]:
        failures.append(
            f"scheduler throughput {results['scheduler_requests_per_second']:.0f} "
            f"req/s below the {FLOORS['scheduler_requests_per_second']:.0f} floor"
        )
    if (
        results["scheduler_requests_per_second_observed"]
        < FLOORS["scheduler_requests_per_second_observed"]
    ):
        failures.append(
            "observed scheduler throughput "
            f"{results['scheduler_requests_per_second_observed']:.0f} req/s below "
            f"the {FLOORS['scheduler_requests_per_second_observed']:.0f} floor"
        )
    if results["trace_ingest_jobs_per_second"] < FLOORS["trace_ingest_jobs_per_second"]:
        failures.append(
            f"trace ingest {results['trace_ingest_jobs_per_second']:.0f} jobs/s "
            f"below the {FLOORS['trace_ingest_jobs_per_second']:.0f} floor"
        )
    if (
        results["engine_dispatch_events_per_second"]
        < FLOORS["engine_dispatch_events_per_second"]
    ):
        failures.append(
            f"engine dispatch {results['engine_dispatch_events_per_second']:.0f} "
            f"events/s below the "
            f"{FLOORS['engine_dispatch_events_per_second']:.0f} floor"
        )
    if results["tracing_disabled_overhead_pct"] > FLOORS["tracing_disabled_overhead_pct"]:
        failures.append(
            f"disabled-tracing overhead {results['tracing_disabled_overhead_pct']:.2f}% "
            f"above the {FLOORS['tracing_disabled_overhead_pct']:.1f}% ceiling"
        )
    if results["dist_units_per_second"] < FLOORS["dist_units_per_second"]:
        failures.append(
            f"dist dispatch {results['dist_units_per_second']:.0f} units/s "
            f"below the {FLOORS['dist_units_per_second']:.0f} floor"
        )

    report: Dict[str, object] = {
        "bench": "repro.obs",
        "issue": 10,
        "python": sys.version.split()[0],
        "floors": FLOORS,
        "results": results,
        "phase_seconds": bench_phase_breakdown(),
        "failures": failures,
        "passed": not failures,
    }
    if output:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if check_floors and failures:
        raise AssertionError("; ".join(failures))
    return report
