"""Paper-figure benchmark of the CooRMv2 reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                # every workload, untraced

Each workload is a fixed list of units drawn from ``--seed`` (see
``workloads.py``), each unit run in a fresh child process (``worker.py``).
Untraced (``--trace 0``), the whole list runs in passes, at least three and
more while another pass still fits in ``--seconds``; each unit's time is its
median over passes.  Traced (``--trace 1``), the list runs once untraced
and once under the span recorder, which gives the per-layer metrics; the
first two units then run traced again, and their exact counts must repeat.

Every simulation's sim-time metrics are checked (``check.py``).  A summary
is printed per metric, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits 2
when the checkout holds no ``src/repro`` package and 1 when a child process
fails outright; neither prints a result line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from check import References, check_unit  # noqa: E402
from layers import PER_LAYER_METRICS, per_layer_metrics  # noqa: E402
from spans import LayerTotals  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "wall_s": "s",
    "slowest_sim_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: One child may take this long before the run is abandoned.
CHILD_TIMEOUT_S = 170

#: Untraced runs make at least this many passes over their units.
MIN_PASSES = 3


class ChildFailed(RuntimeError):
    pass


def run_child(workload: Workload, seed: int, unit: int, trace: bool) -> Dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        workload.name,
        str(seed),
        str(unit),
        "1" if trace else "0",
    ]
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise ChildFailed(
            f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: Workload, seed: int, trace: bool, units: int = 0) -> List[Dict]:
    """Run the first *units* units (all by default), each in a fresh child."""
    return [
        run_child(workload, seed, unit, trace)
        for unit in range(units or workload.units)
    ]


class Tally:
    """Counts attempted and failed simulations and keeps failure messages."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.references = References.load(workload.name)
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, children: List[Dict]) -> None:
        expected = self.workload.sims_per_unit
        for unit in units_of(children):
            self.attempted += expected
            where = f"unit {unit['unit']} (seed {unit['seed']})"
            if unit["error"] is not None:
                self.failed += expected
                self.messages.append(f"{where} raised:\n{unit['error']}")
                continue
            reference = self.references.for_unit(self.workload.size, self.seed, unit["unit"])
            failed, messages = check_unit(self.workload.name, unit["sims"], expected, reference)
            missing = max(0, expected - len(unit["sims"]))
            self.failed += min(expected, len(failed) + missing)
            self.messages += [f"{where}: {m}" for m in messages]


def units_of(children: List[Dict]) -> List[Dict]:
    return [child["unit"] for child in children]


def pass_wall(children: List[Dict]) -> float:
    return sum(unit["wall_s"] for unit in units_of(children))


def slowest_sim(unit: Dict) -> float:
    return max((sim["seconds"] for sim in unit["sims"]), default=unit["wall_s"])


def measure_untraced(workload: Workload, seed: int, seconds: float, tally: Tally) -> Dict:
    """Run the unit list in passes and take each unit's median over passes.

    Passes go over all units before any unit repeats, so a unit's repeats
    are spread over the run: the host's speed drifts by tens of percent
    over seconds, and a per-unit median filters that out.
    """
    started = time.perf_counter()
    passes: List[List[Dict]] = []
    pass_s = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started + pass_s <= seconds:
        pass_started = time.perf_counter()
        children = run_pass(workload, seed, trace=False)
        tally.check(children)
        passes.append(children)
        pass_s = time.perf_counter() - pass_started
    by_unit = list(zip(*(units_of(children) for children in passes)))
    children = [child for p in passes for child in p]
    return {
        "wall_s": sum(statistics.median(u["wall_s"] for u in runs) for runs in by_unit),
        "slowest_sim_s": statistics.median(
            statistics.median(slowest_sim(u) for u in runs) for runs in by_unit
        ),
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "peak_rss_mib": statistics.median(child["peak_rss_mib"] for child in children),
    }


def exact_count_mismatches(first: List[Dict], second: List[Dict]) -> List[str]:
    """Units whose exact counts differ between two traced passes."""
    out = []
    for a, b in zip(units_of(first), units_of(second)):
        counts_a = LayerTotals.from_dict(a["layers"]).exact_counts()
        counts_b = LayerTotals.from_dict(b["layers"]).exact_counts()
        if counts_a != counts_b:
            diff = {
                k: (counts_a.get(k), counts_b.get(k))
                for k in sorted(set(counts_a) | set(counts_b))
                if counts_a.get(k) != counts_b.get(k)
            }
            out.append(f"unit {a['unit']}: exact counts differ between traced passes: {diff}")
    return out


def measure_traced(workload: Workload, seed: int, tally: Tally) -> Dict:
    untraced = run_pass(workload, seed, trace=False)
    traced = run_pass(workload, seed, trace=True)
    # Repeating a few units is enough to catch a non-deterministic count.
    repeated = run_pass(workload, seed, trace=True, units=min(2, workload.units))
    for children in (untraced, traced, repeated):
        tally.check(children)
    mismatches = exact_count_mismatches(traced, repeated)
    if mismatches:
        tally.failed += len(mismatches) * workload.sims_per_unit
        tally.messages += mismatches
    totals = LayerTotals()
    for unit in units_of(traced):
        totals.add(LayerTotals.from_dict(unit["layers"]))
    return per_layer_metrics(totals, pass_wall(traced), pass_wall(untraced))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    workload = WORKLOADS[name]
    tally = Tally(workload, seed)
    if trace:
        values = measure_traced(workload, seed, tally)
        units = PER_LAYER_METRICS
    else:
        values = measure_untraced(workload, seed, seconds, tally)
        units = END_TO_END
    for message in tally.messages:
        print(f"[{name}] FAILED {message}")
    print(f"[{name}] seed {seed}: {tally.failed} of {tally.attempted} simulations failed "
          f"(failed_frac {tally.failed / tally.attempted:.4f})")
    for metric, value in values.items():
        print(f"[{name}] {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
