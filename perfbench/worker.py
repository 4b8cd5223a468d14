"""One child process of the benchmark: set up, run one unit, report JSON.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py <workload> <run-seed> <unit> <trace 0|1>

The child puts the checkout's ``src`` first on ``sys.path``, imports the
package and builds the unit's inputs (the set-up, timed), runs the unit
(timed), and prints one JSON object as its last stdout line.  With trace 1
the unit runs under the span recorder of :mod:`layers`, which is removed
before the child exits.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (the benchmark writes nowhere else).
TMP_ROOT = ROOT / ".perfbench_tmp"


def main(argv) -> int:
    name, run_seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, setup, unit_seed

    seed = unit_seed(run_seed, name, index)
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        run = setup(WORKLOADS[name], seed, tmp)
        setup_s = time.perf_counter() - _STARTED
        recorder = None
        if trace:
            import layers
            from spans import SpanRecorder

            recorder = SpanRecorder()
            layers.install(recorder)
        try:
            report = _run_unit(index, seed, run, recorder)
        finally:
            if recorder is not None:
                recorder.restore()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "peak_rss_mib": peak_kib / 1024.0,
                "unit": report,
            },
            allow_nan=False,
        )
    )
    return 0


def _run_unit(index: int, seed: int, run, recorder) -> dict:
    report = {"unit": index, "seed": seed, "sims": [], "error": None, "layers": None}
    started = time.perf_counter()
    try:
        report["sims"] = run()
    except Exception:  # one failed unit is reported, not fatal to the run
        report["error"] = traceback.format_exc(limit=8)
    report["wall_s"] = time.perf_counter() - started
    if recorder is not None:
        report["layers"] = recorder.take().to_dict()
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
