"""Tests of the benchmark itself: span recorder, layer patches, checks.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from check import References, check_unit  # noqa: E402
from spans import LayerTotals, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Thing:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 2.0
        return "outer"

    def inner(self):
        self.clock.now += 4.0
        self.inner_again()

    def inner_again(self):
        self.clock.now += 8.0

    @classmethod
    def build(cls):
        return cls


def test_self_time_subtracts_children_and_merges_same_layer_nesting():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.wrap(Thing, "outer", "a")
    recorder.wrap(Thing, "inner", "b")
    recorder.wrap(Thing, "inner_again", "b")
    try:
        assert Thing(clock).outer() == "outer"
    finally:
        recorder.restore()
    totals = recorder.take()
    assert totals.self_s == {"a": 3.0, "b": 12.0}
    # inner_again ran inside inner's span of the same layer: one span only.
    assert totals.calls == {"a": 1, "b": 1}
    assert len(recorder) == 0


def test_restore_undoes_methods_classmethods_and_inherited_attributes():
    class Child(Thing):
        pass

    originals = {name: Thing.__dict__[name] for name in ("outer", "build")}
    recorder = SpanRecorder()
    recorder.wrap(Thing, "outer", "a")
    recorder.wrap(Thing, "build", "a")
    recorder.wrap(Child, "inner", "b")
    assert Thing.build() is Thing
    assert "inner" in Child.__dict__
    recorder.restore()
    for name, raw in originals.items():
        assert Thing.__dict__[name] is raw
    assert "inner" not in Child.__dict__


def test_layer_install_restores_every_patched_attribute():
    recorder = SpanRecorder()
    layers.install(recorder)
    patched = list(recorder._patches)
    assert len(patched) > 20
    for owner, attr, _had_own, raw in patched:
        assert owner.__dict__[attr] is not raw
    recorder.restore()
    for owner, attr, had_own, raw in patched:
        if had_own:
            assert owner.__dict__[attr] is raw, (owner, attr)
        else:
            assert attr not in owner.__dict__, (owner, attr)


def test_self_times_add_up_to_traced_wall_on_a_tiny_run():
    from repro.experiments import fig9_spontaneous
    from repro.experiments.runner import EvaluationScale

    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        started = time.perf_counter()
        fig9_spontaneous.run((1.0, 5.0), scale=EvaluationScale.tiny().with_steps(15), seed=3)
        wall = time.perf_counter() - started
    finally:
        recorder.restore()
    totals = recorder.take()
    metrics = layers.per_layer_metrics(totals, wall, wall)
    assert 0.0 <= metrics["trace.unaccounted_frac"] <= 0.05
    assert metrics["sim.events"] > 0
    assert metrics["request_set.prune_calls"] > 0
    assert metrics["rms.passes"] >= metrics["scheduler.passes"] > 0
    assert set(metrics) == set(layers.PER_LAYER_METRICS)


def test_exact_counts_round_trip_and_compare():
    totals = LayerTotals()
    totals.calls = {"sim": 2}
    totals.counts.update({"sim.events": 10})
    totals.maxima = {"request_set.live_max": 7}
    again = LayerTotals.from_dict(totals.to_dict())
    assert again.exact_counts() == totals.exact_counts() == {
        "request_set.live_max": 7,
        "sim.calls": 2,
        "sim.events": 10,
    }


def _recorded_unit(workload: str):
    refs = References.load(workload)
    size = WORKLOADS[workload].size
    seed = sorted(refs.data["seeds"], key=int)[0]
    reference = refs.for_unit(size, int(seed), 0)
    assert reference is not None, f"no recorded reference for {workload}"
    return reference


@pytest.mark.parametrize("workload", ["fig9-sweep", "trace-rigid"])
def test_recorded_reference_passes_its_own_check(workload):
    reference = _recorded_unit(workload)
    sims = [dict(sim, seconds=0.1) for sim in reference]
    failed, messages = check_unit(
        workload, sims, WORKLOADS[workload].sims_per_unit, reference
    )
    assert failed == set() and messages == []


@pytest.mark.parametrize("workload", ["fig9-sweep", "trace-rigid"])
def test_tampered_reference_value_fails_the_check(workload):
    reference = _recorded_unit(workload)
    tampered = copy.deepcopy(reference)
    victim = tampered[-1]
    name = sorted(k for k, v in victim["metrics"].items() if isinstance(v, float))[0]
    victim["metrics"][name] = victim["metrics"][name] * (1 + 1e-12) + 1e-9
    sims = [dict(sim, seconds=0.1) for sim in reference]
    failed, messages = check_unit(
        workload, sims, WORKLOADS[workload].sims_per_unit, tampered
    )
    assert failed == {victim["key"]}
    assert any(name in m for m in messages)


def test_broken_paper_claims_fail_for_any_seed():
    fig9 = [
        {"key": "oc=1,static", "metrics": {"amr_used_node_seconds": 10.0}},
        {"key": "oc=1,dynamic", "metrics": {"amr_used_node_seconds": 11.0}},
    ]
    failed, _ = check_unit("fig9-sweep", fig9, 2, None)
    assert failed == {"oc=1,static", "oc=1,dynamic"}
    # Below overcommit 1 both runs use the whole pre-allocation: no claim.
    under = [dict(sim, key=sim["key"].replace("oc=1", "oc=0.5")) for sim in fig9]
    assert check_unit("fig9-sweep", under, 2, None) == (set(), [])
    fig11 = [
        {"key": "announce=0,filling", "metrics": {"used_resources_percent": 80.0}},
        {"key": "announce=0,strict", "metrics": {"used_resources_percent": 70.0}},
    ]
    assert check_unit("fig11-fill", fig11, 2, None) == (set(), [])
    trace = [{"key": "t@easy", "metrics": {"trace_jobs": 600, "trace_finished": 599}}]
    failed, _ = check_unit("trace-rigid", trace, 1, None)
    assert failed == {"t@easy"}


def test_references_for_other_sizes_never_apply():
    refs = References({"size": {"num_steps": 1}, "seeds": {"0": [[]]}})
    assert refs.for_unit({"num_steps": 2}, 0, 0) is None
    assert refs.for_unit({"num_steps": 1}, 0, 0) == []
    assert refs.for_unit({"num_steps": 1}, 1, 0) is None
