"""Correctness checks of one unit's simulations.

Two kinds of check, both on sim-time metrics only (host timings and file
paths are never compared):

* **reference values** -- for each run seed recorded in
  ``refs/<workload>.json``, every simulation's metrics must equal the
  recorded ones exactly (JSON round-trips floats exactly);
* **the paper's qualitative claims**, for any seed:
  fig9 -- static AMR used resources >= dynamic at every overcommit factor
  of at least 1 (below 1 the pre-allocation is smaller than the AMR's need,
  both runs use all of it, and the paper's curves coincide);
  fig11 -- used resources with filling >= strict at every interval;
  trace-rigid -- every trace job finished under every policy.

Each check returns the keys of the simulations it failed plus messages.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["References", "check_unit"]

REFS_DIR = Path(__file__).resolve().parent / "refs"


class References:
    """Recorded per-simulation metrics of one workload, keyed by run seed."""

    def __init__(self, data: Dict):
        self.data = data

    @classmethod
    def load(cls, workload: str, path: Optional[Path] = None) -> "References":
        path = path or REFS_DIR / f"{workload}.json"
        if not path.is_file():
            return cls({"workload": workload, "seeds": {}})
        return cls(json.loads(path.read_text(encoding="utf-8")))

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(self.data, sort_keys=True, separators=(",", ":"), allow_nan=False)
        path.write_text(text + "\n", encoding="utf-8")

    def for_unit(self, size: Dict, run_seed: int, unit: int) -> Optional[List[Dict]]:
        """The recorded simulations of one unit, or None if not recorded.

        References recorded for other size knobs never apply: comparing
        them would report every simulation as wrong.
        """
        if self.data.get("size") != size:
            return None
        units = self.data["seeds"].get(str(run_seed))
        if units is None or unit >= len(units):
            return None
        return units[unit]


def _compare(sims: Sequence[Dict], reference: Sequence[Dict]) -> Tuple[Set[str], List[str]]:
    failed: Set[str] = set()
    messages: List[str] = []
    recorded = {sim["key"]: sim["metrics"] for sim in reference}
    for sim in sims:
        expected = recorded.get(sim["key"])
        if expected is None:
            failed.add(sim["key"])
            messages.append(f"{sim['key']}: no recorded reference")
            continue
        actual = json.loads(json.dumps(sim["metrics"]))
        for name in sorted(set(expected) | set(actual)):
            if actual.get(name) != expected.get(name):
                failed.add(sim["key"])
                messages.append(
                    f"{sim['key']}: {name} = {actual.get(name)!r}, "
                    f"reference {expected.get(name)!r}"
                )
    missing = set(recorded) - {sim["key"] for sim in sims}
    for key in sorted(missing):
        failed.add(key)
        messages.append(f"{key}: recorded simulation did not run")
    return failed, messages


def _pairs(sims: Sequence[Dict], high: str, low: str) -> Dict[str, Dict[str, Dict]]:
    """Group ``<x>,<series>`` keys by x-position: {x: {series: metrics}}."""
    grouped: Dict[str, Dict[str, Dict]] = {}
    for sim in sims:
        x, _, series = sim["key"].rpartition(",")
        if series in (high, low):
            grouped.setdefault(x, {})[series] = sim["metrics"]
    return grouped


def _claim_at_least(
    sims: Sequence[Dict], high: str, low: str, metric: str, x_min: float = -math.inf
) -> Tuple[Set[str], List[str]]:
    """*high* >= *low* on *metric* at every x-position ``<name>=<x>`` >= *x_min*."""
    failed: Set[str] = set()
    messages: List[str] = []
    for x, series in sorted(_pairs(sims, high, low).items()):
        if float(x.partition("=")[2]) < x_min:
            continue
        if set(series) != {high, low}:
            failed.update(f"{x},{s}" for s in series)
            messages.append(f"{x}: needs both {high} and {low} simulations")
            continue
        a, b = series[high].get(metric), series[low].get(metric)
        if a is None or b is None or not a >= b:
            failed.update((f"{x},{high}", f"{x},{low}"))
            messages.append(f"{x}: {metric} {high} {a!r} < {low} {b!r}")
    return failed, messages


def _claim_trace(sims: Sequence[Dict]) -> Tuple[Set[str], List[str]]:
    failed: Set[str] = set()
    messages: List[str] = []
    for sim in sims:
        jobs = sim["metrics"].get("trace_jobs")
        finished = sim["metrics"].get("trace_finished")
        if not jobs or finished != jobs:
            failed.add(sim["key"])
            messages.append(f"{sim['key']}: {finished!r} of {jobs!r} trace jobs finished")
    return failed, messages


def _claims(workload: str, sims: Sequence[Dict]) -> Tuple[Set[str], List[str]]:
    if workload == "fig9-sweep":
        return _claim_at_least(sims, "static", "dynamic", "amr_used_node_seconds", x_min=1.0)
    if workload == "fig11-fill":
        return _claim_at_least(sims, "filling", "strict", "used_resources_percent")
    return _claim_trace(sims)


def check_unit(
    workload: str,
    sims: Sequence[Dict],
    expected_sims: int,
    reference: Optional[Sequence[Dict]],
) -> Tuple[Set[str], List[str]]:
    """Check one unit; returns (keys of failed simulations, messages)."""
    failed, messages = _claims(workload, sims)
    if len(sims) != expected_sims or len({s["key"] for s in sims}) != len(sims):
        messages.append(f"ran {len(sims)} simulations, expected {expected_sims} distinct")
        failed.update(s["key"] for s in sims)
    if reference is not None:
        ref_failed, ref_messages = _compare(sims, reference)
        failed |= ref_failed
        messages += ref_messages
    return failed, messages
