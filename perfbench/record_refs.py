"""Record the reference sim-time metrics the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_refs.py fig9-sweep 0-19

Runs every unit of the workload once per run seed (untraced, through the
same child processes as ``run.py``) and writes each simulation's key and
metrics to ``perfbench/refs/<workload>.json``, merged with the seeds already
recorded for the same size knobs.  Record only at a commit whose results
are known to be right: later runs are compared against these values.
"""
from __future__ import annotations

import sys

from check import REFS_DIR, References, check_unit
from run import run_pass, units_of
from workloads import WORKLOADS


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    path = REFS_DIR / f"{workload.name}.json"
    refs = References.load(workload.name, path)
    if refs.data.get("size") != workload.size:
        refs = References({"workload": workload.name, "size": workload.size, "seeds": {}})
    for seed in parse_seeds(argv[1]):
        units = []
        for unit in units_of(run_pass(workload, seed, trace=False)):
            if unit["error"] is not None:
                print(f"seed {seed} unit {unit['unit']} raised:\n{unit['error']}")
                return 1
            # The paper claims are checked on every run anyway; a unit that
            # breaks one is recorded as it is and reported here.
            _failed, messages = check_unit(
                workload.name, unit["sims"], workload.sims_per_unit, None
            )
            for message in messages:
                print(f"seed {seed} unit {unit['unit']}: {message}")
            units.append([{"key": s["key"], "metrics": s["metrics"]} for s in unit["sims"]])
        refs.data["seeds"][str(seed)] = units
        refs.save(path)
        print(f"recorded {workload.name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
