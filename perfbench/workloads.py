"""The benchmark's three workloads: sizes, input generation and one unit of work.

A workload is a fixed list of *units* drawn from the run's seed.  A unit is
one figure sweep (``fig9-sweep``, ``fig11-fill``) or one campaign over a few
synthesized traces (``trace-rigid``), with its own input seed derived from
the run seed and the unit index.  Every unit reports each simulation it ran:
a stable key, the host seconds it took and its sim-time metrics.

``fig11-fill`` is not in ``BENCHMARK.json``: its cost varies too much with
the seed for a short run to be steady (see README.md).

This module imports only the standard library at module level; the package
under test is imported by :func:`setup` so that its import time is part of
the measured set-up.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

__all__ = ["Workload", "WORKLOADS", "Sim"]

#: One simulation: {"key": str, "seconds": float, "metrics": {name: value}}.
Sim = Dict[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Units per run, each run in a fresh child process; their inputs are
    #: fixed by the run seed.
    units: int
    #: Simulations one unit runs.
    sims_per_unit: int
    #: Size knobs, recorded next to the reference values.
    size: Dict[str, object]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig9-sweep",
            units=4,
            sims_per_unit=14,
            size={"scale": "reduced", "num_steps": 75},
        ),
        Workload(
            "fig11-fill",
            units=12,
            sims_per_unit=18,
            size={"scale": "tiny", "num_steps": 20},
        ),
        Workload(
            "trace-rigid",
            units=4,
            sims_per_unit=12,
            size={"traces": 6, "jobs": 60, "cluster_nodes": 64, "offered_load": 1.5},
        ),
    )
}


# ---------------------------------------------------------------------- #
# Figure sweeps
# ---------------------------------------------------------------------- #
class _SimCapture:
    """Times each ``run_scenario`` call a figure module makes.

    Installed on the figure module (where ``run_scenario`` is looked up)
    for the duration of one unit and removed afterwards.
    """

    def __init__(self, module, label: Callable[[Dict], str]):
        self.module = module
        self.label = label
        self.sims: List[Sim] = []

    def __enter__(self) -> "_SimCapture":
        original = self.module.run_scenario
        self.original = original

        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            seconds = time.perf_counter() - started
            self.sims.append(
                {
                    "key": self.label(kwargs),
                    "seconds": seconds,
                    "metrics": result.metrics.to_dict(),
                }
            )
            return result

        self.module.run_scenario = timed
        return self

    def __exit__(self, *exc) -> None:
        self.module.run_scenario = self.original


def _fig9_label(kwargs: Dict) -> str:
    kind = "static" if kwargs["static_allocation"] else "dynamic"
    return f"oc={kwargs['overcommit']:g},{kind}"


def _fig11_label(kwargs: Dict) -> str:
    kind = "strict" if kwargs["strict_equipartition"] else "filling"
    return f"announce={kwargs['announce_interval']:g},{kind}"


def _setup_fig9(workload: Workload, seed: int, tmp: Path):
    from repro.experiments import fig9_spontaneous
    from repro.experiments.runner import EvaluationScale

    scale = getattr(EvaluationScale, workload.size["scale"])().with_steps(
        workload.size["num_steps"]
    )

    def run() -> List[Sim]:
        with _SimCapture(fig9_spontaneous, _fig9_label) as capture:
            fig9_spontaneous.run(
                fig9_spontaneous.PAPER_OVERCOMMIT_FACTORS, scale=scale, seed=seed
            )
        return capture.sims

    return run


def _setup_fig11(workload: Workload, seed: int, tmp: Path):
    from repro.campaign.builtin import RELATIVE_ANNOUNCE_INTERVALS
    from repro.experiments import fig11_two_psas
    from repro.experiments.runner import EvaluationScale

    scale = getattr(EvaluationScale, workload.size["scale"])().with_steps(
        workload.size["num_steps"]
    )
    # The campaign's task-relative x-axis keeps the paper's 0..700 s sweep
    # shape against the tiny scale's shorter PSA1 tasks.
    intervals = [r * scale.psa1_task_duration for r in RELATIVE_ANNOUNCE_INTERVALS]

    def run() -> List[Sim]:
        with _SimCapture(fig11_two_psas, _fig11_label) as capture:
            fig11_two_psas.run(intervals, scale=scale, seed=seed)
        return capture.sims

    return run


# ---------------------------------------------------------------------- #
# Trace replay through the campaign runner
# ---------------------------------------------------------------------- #
def _setup_trace(workload: Workload, seed: int, tmp: Path):
    from repro.campaign import CampaignRunner, CampaignSpec, ResultStore, ScenarioSpec
    from repro.campaign.builtin import TRACE_SCENARIO_MODEL
    from repro.campaign.spec import PlatformSpec, WorkloadSpec
    from repro.sim.randomness import derive_seed
    from repro.traces.models import TraceModel
    from repro.traces.swf import dump_swf

    size = workload.size
    nodes = size["cluster_nodes"]
    model = TraceModel.from_dict(TRACE_SCENARIO_MODEL)
    scenarios = []
    for index in range(size["traces"]):
        trace = model.synthesize(size["jobs"], seed=derive_seed(seed, index))
        swf = tmp / f"trace-{index}.swf"
        dump_swf(trace, swf)
        # Compress arrivals until the trace offers a fixed multiple of the
        # cluster's capacity: a fixed factor would leave the draws between
        # under- and overload, and the replay cost varies threefold with it.
        offered = trace.total_area() / (trace.span * nodes)
        scenarios.append(
            ScenarioSpec(
                name=f"trace-{index}",
                runner="amr_psa",
                platform=PlatformSpec(cluster_nodes=nodes),
                workload=WorkloadSpec(
                    include_amr=False,
                    trace={
                        "path": str(swf),
                        "transforms": [
                            {"kind": "clamp_nodes", "max_nodes": nodes},
                            {"kind": "load_rescale", "factor": size["offered_load"] / offered},
                        ],
                    },
                ),
            )
        )
    spec = CampaignSpec(
        name="bench", scenarios=tuple(scenarios), policies=("coorm", "easy"), root_seed=seed
    )

    def run() -> List[Sim]:
        marks = [time.perf_counter()]
        result = CampaignRunner(
            spec,
            store=ResultStore(tmp / "results"),
            progress=lambda _done, _total, _record: marks.append(time.perf_counter()),
        ).run(workers=1)
        # Records come back in canonical order; the progress marks follow
        # execution order, which is the same on the serial backend.
        return [
            {"key": record["scenario"], "seconds": end - start, "metrics": record["metrics"]}
            for record, start, end in zip(result.records, marks, marks[1:])
        ]

    return run


_SETUP = {
    "fig9-sweep": _setup_fig9,
    "fig11-fill": _setup_fig11,
    "trace-rigid": _setup_trace,
}


def setup(workload: Workload, seed: int, tmp: Path) -> Callable[[], List[Sim]]:
    """Import the package and build one unit's inputs; returns the unit."""
    return _SETUP[workload.name](workload, seed, tmp)


def unit_seed(run_seed: int, workload: str, unit: int) -> int:
    """The input seed of one unit, a pure function of the run seed."""
    from repro.sim.randomness import derive_seed

    return derive_seed(run_seed, "perfbench", workload, unit)
