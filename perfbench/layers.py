"""The layer boundaries the traced run wraps, and the per-layer metrics.

Layers follow the path a run takes through the package:
``traces`` -> ``sim`` -> ``core.rms`` -> ``core.request_set`` ->
``core.scheduler`` + ``policies`` stages -> ``cluster`` -> ``apps`` ->
``metrics`` -> ``experiments`` / ``campaign``.  Each boundary is a public
entry point patched where callers look it up.  Helpers called millions of
times per run (``RequestSet.children``, ``StepFunction._combine``) are not
wrapped: timing them would change the speed of what is being measured.

The package under test is imported by :func:`install` only, so the metric
definitions below can be used without it.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List

from spans import LayerTotals, SpanRecorder

__all__ = ["install", "per_layer_metrics", "PER_LAYER_METRICS"]


def _subclasses(base: type) -> Iterator[type]:
    yield base
    for sub in base.__subclasses__():
        yield from _subclasses(sub)


def _own_definers(base: type, attr: str) -> List[type]:
    """Every class in *base*'s hierarchy that defines *attr* itself."""
    return sorted(
        {cls for cls in _subclasses(base) if attr in cls.__dict__},
        key=lambda cls: cls.__qualname__,
    )


# ---------------------------------------------------------------------- #
# Count probes
# ---------------------------------------------------------------------- #
def _events_before(args: tuple) -> int:
    return args[0].processed_events


def _events_after(token: int, args: tuple, _result, counts: Counter) -> None:
    counts["sim.events"] += args[0].processed_events - token


def _live_before(args: tuple) -> int:
    requests = args[0]
    return (
        len(requests.preallocations)
        + len(requests.non_preemptible)
        + len(requests.preemptible)
    )


def _prune_after(recorder: SpanRecorder):
    def after(live: int, _args: tuple, removed, counts: Counter) -> None:
        counts["request_set.scanned"] += live
        counts["request_set.removed"] += len(removed)
        recorder.note_max("request_set.live_max", live)

    return after


def _jobs_after(_token, _args: tuple, result, counts: Counter) -> None:
    jobs, _provenance = result
    counts["traces.jobs"] += len(jobs)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary; undo with ``recorder.restore()``."""
    from repro import apps as _apps  # noqa: F401  (imports every app class)
    from repro.apps.base import BaseApplication
    from repro.campaign import builtin, runner as campaign_runner, store as campaign_store
    from repro.cluster.cluster import Cluster
    from repro.core import eqschedule, scheduler as core_scheduler
    from repro.core.request_set import ApplicationRequests
    from repro.core.rms import CooRMv2
    from repro.experiments import fig9_spontaneous, fig11_two_psas
    from repro.metrics.collector import SimulationMetrics
    from repro.policies import registry as _registry  # noqa: F401  (imports every stage)
    from repro.policies.base import BackfillStrategy, OrderingStrategy, SharingStrategy
    from repro.sim.engine import Simulator

    wrap = recorder.wrap
    # campaign: the runner (its self time is task dispatch and record
    # building) and the result store write.
    wrap(campaign_runner.CampaignRunner, "run", "campaign")
    wrap(campaign_store.ResultStore, "save_campaign", "campaign.store")
    # traces: SWF load, transforms and conversion, as the campaign's
    # generic runner calls them.
    wrap(builtin, "resolve_converted_jobs", "traces", after=_jobs_after)
    # experiments: scenario construction (AMR evolution, static-equivalent
    # sizing, platform and application set-up) around the simulation.
    for module in (fig9_spontaneous, fig11_two_psas, builtin):
        wrap(module, "run_scenario", "experiments")
    wrap(fig11_two_psas, "build_evolution", "experiments")
    wrap(SimulationMetrics, "collect", "metrics")
    # sim: the event loop; its self time is dispatch plus every event
    # callback no other layer claims.
    wrap(Simulator, "run", "sim", before=_events_before, after=_events_after)
    # core.rms: the engine -> RMS scheduling callback (start requests, push
    # views) and the application -> RMS messages.
    wrap(CooRMv2, "_run_schedule", "rms.pass")
    wrap(CooRMv2, "submit", "rms.msg")
    wrap(CooRMv2, "done", "rms.msg")
    wrap(
        ApplicationRequests,
        "prune_finished",
        "request_set",
        before=_live_before,
        after=_prune_after(recorder),
    )
    wrap(Cluster, "allocate", "cluster")
    wrap(Cluster, "transfer", "cluster")
    wrap(Cluster, "release", "cluster")
    wrap(Cluster, "release_all_of", "cluster")
    wrap(core_scheduler.Scheduler, "schedule", "scheduler")
    for cls in _own_definers(OrderingStrategy, "order"):
        wrap(cls, "order", "stage.order")
    for cls in _own_definers(BackfillStrategy, "fit_pending"):
        wrap(cls, "fit_pending", "stage.backfill")
    for cls in _own_definers(SharingStrategy, "share"):
        wrap(cls, "share", "stage.share")
    # to_view is imported by name into both modules that call it.
    wrap(core_scheduler, "to_view", "stage.to_view")
    wrap(eqschedule, "to_view", "stage.to_view")
    for attr in ("on_views", "on_start", "on_killed"):
        for cls in _own_definers(BaseApplication, attr):
            wrap(cls, attr, "apps")


#: layer -> (self-time metric, span-count metric or None)
_LAYER_METRICS: Dict[str, tuple] = {
    "request_set": ("request_set.prune_s", "request_set.prune_calls"),
    "cluster": ("cluster.alloc_s", "cluster.alloc_calls"),
    "scheduler": ("scheduler.self_s", "scheduler.passes"),
    "stage.order": ("stage.order_s", "stage.order_calls"),
    "stage.backfill": ("stage.backfill_s", "stage.backfill_calls"),
    "stage.share": ("stage.share_s", "stage.share_calls"),
    "stage.to_view": ("stage.to_view_s", "stage.to_view_calls"),
    "rms.pass": ("rms.pass_self_s", "rms.passes"),
    "rms.msg": ("rms.msg_s", "rms.msgs"),
    "apps": ("apps.callback_s", "apps.callbacks"),
    "sim": ("sim.self_s", None),
    "metrics": ("metrics.collect_s", None),
    "experiments": ("experiments.self_s", None),
    "traces": ("traces.ingest_s", None),
    "campaign.store": ("campaign.store_write_s", None),
    "campaign": ("campaign.self_s", None),
}

#: Counts kept as they are (summed over units) besides the span counts.
_PLAIN_COUNTS = (
    "request_set.scanned",
    "request_set.removed",
    "sim.events",
    "traces.jobs",
)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_METRICS: Dict[str, str] = {}
for _self_metric, _count_metric in _LAYER_METRICS.values():
    PER_LAYER_METRICS[_self_metric] = "s"
    if _count_metric is not None:
        PER_LAYER_METRICS[_count_metric] = "count"
for _name in _PLAIN_COUNTS:
    PER_LAYER_METRICS[_name] = "count"
PER_LAYER_METRICS["request_set.live_max"] = "count"
PER_LAYER_METRICS["request_set.prune_yield"] = "ratio"
PER_LAYER_METRICS["trace.unaccounted_frac"] = "ratio"
PER_LAYER_METRICS["trace.overhead_pct"] = "%"


def per_layer_metrics(
    totals: LayerTotals, traced_wall_s: float, untraced_wall_s: float
) -> Dict[str, float]:
    """Turn summed layer totals of one traced pass into named metrics."""
    out: Dict[str, float] = {}
    for layer, (self_metric, count_metric) in _LAYER_METRICS.items():
        out[self_metric] = totals.self_s.get(layer, 0.0)
        if count_metric is not None:
            out[count_metric] = totals.calls.get(layer, 0)
    for name in _PLAIN_COUNTS:
        out[name] = totals.counts.get(name, 0)
    out["request_set.live_max"] = totals.maxima.get("request_set.live_max", 0)
    scanned = out["request_set.scanned"]
    out["request_set.prune_yield"] = out["request_set.removed"] / scanned if scanned else 0.0
    accounted = sum(totals.self_s.values())
    out["trace.unaccounted_frac"] = 1.0 - accounted / traced_wall_s
    out["trace.overhead_pct"] = 100.0 * (traced_wall_s / untraced_wall_s - 1.0)
    return {name: out[name] for name in PER_LAYER_METRICS}
