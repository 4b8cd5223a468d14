"""Unit tests of the per-cluster views."""
from __future__ import annotations

import math

import pytest

from repro.core import Request, RequestType, StepFunction, View, ViewError


def make_request(n=4, duration=100.0, cluster="a", scheduled_at=0.0, earliest=0.0):
    r = Request(cluster, n, duration, RequestType.NON_PREEMPTIBLE)
    r.scheduled_at = scheduled_at
    r.earliest_schedule_at = earliest
    return r


class TestConstruction:
    def test_empty_view(self):
        v = View.empty()
        assert len(v) == 0
        assert v["missing"].is_zero()
        assert v.is_zero()

    def test_constant(self):
        v = View.constant({"a": 4, "b": 6})
        assert v.value_at("a", 100) == 4
        assert v.value_at("b", 0) == 6
        assert set(v.clusters()) == {"a", "b"}

    def test_rejects_non_profiles(self):
        with pytest.raises(ViewError):
            View({"a": 42})

    def test_from_duration_pairs(self):
        v = View.from_duration_pairs({"a": [(3600, 4), (3600, 3)], "b": [(1, 6)]})
        assert v["a"].value_at(1800) == 4
        assert v["a"].value_at(3600) == 3
        assert v["a"].value_at(7200) == 0
        assert v["b"].value_at(0.5) == 6

    def test_contains_and_iter(self):
        v = View.constant({"b": 1, "a": 2})
        assert "a" in v and "c" not in v
        assert list(iter(v)) == ["a", "b"]
        assert dict(v.items())["a"].value_at(0) == 2


class TestAlgebra:
    def test_add_sub_over_disjoint_clusters(self):
        v1 = View.constant({"a": 4})
        v2 = View.constant({"b": 6})
        total = v1 + v2
        assert total.value_at("a", 0) == 4
        assert total.value_at("b", 0) == 6
        diff = total - v2
        assert diff.value_at("b", 0) == 0
        assert diff.value_at("a", 0) == 4

    def test_union_is_pointwise_max(self):
        v1 = View({"a": StepFunction.from_duration_pairs([(10, 5)])})
        v2 = View({"a": StepFunction.from_duration_pairs([(20, 3)])})
        u = v1 | v2
        assert u.value_at("a", 5) == 5
        assert u.value_at("a", 15) == 3

    def test_clip_low(self):
        v = View.constant({"a": 2}) - View.constant({"a": 5})
        assert v.value_at("a", 0) == -3
        assert v.clip_low(0).value_at("a", 0) == 0
        assert v.clip_low(0).is_non_negative()

    def test_clip_high(self):
        v = View.constant({"a": 10, "b": 10})
        clipped = v.clip_high({"a": 4})
        assert clipped.value_at("a", 0) == 4
        assert clipped.value_at("b", 0) == 10

    def test_integrate_sums_clusters(self):
        v = View.from_duration_pairs({"a": [(10, 2)], "b": [(10, 3)]})
        assert v.integrate(0, 10) == pytest.approx(50)

    def test_equality(self):
        assert View.constant({"a": 3}) == View.constant({"a": 3})
        assert View.constant({"a": 3}) != View.constant({"a": 4})
        # Absent clusters compare as zero profiles.
        assert View({"a": StepFunction.zero()}) == View.empty()

    def test_to_duration_pairs(self):
        v = View.constant({"a": 3})
        pairs = v.to_duration_pairs(horizon=10)
        assert pairs["a"] == [(10.0, 3.0)]


class TestSchedulingPrimitives:
    def test_alloc_limits_to_available(self):
        v = View({"a": StepFunction.constant(10).subtract_rectangle(0, 50, 7)})
        r = make_request(n=5, duration=10, cluster="a", scheduled_at=0)
        assert v.alloc(r) == 3
        r2 = make_request(n=5, duration=10, cluster="a", scheduled_at=60)
        assert v.alloc(r2) == 5

    def test_alloc_unknown_cluster_is_zero(self):
        v = View.empty()
        assert v.alloc(make_request(cluster="nope")) == 0

    def test_find_hole_uses_earliest_schedule(self):
        v = View.constant({"a": 10})
        r = make_request(n=4, duration=10, cluster="a", earliest=25)
        assert v.find_hole(r, not_before=0) == 25
        assert v.find_hole(r, not_before=40) == 40

    def test_find_hole_waits_for_capacity(self):
        profile = StepFunction.constant(10).subtract_rectangle(0, 100, 9)
        v = View({"a": profile})
        r = make_request(n=5, duration=10, cluster="a")
        assert v.find_hole(r) == 100

    def test_find_hole_impossible(self):
        v = View.constant({"a": 2})
        r = make_request(n=5, duration=10, cluster="a")
        assert math.isinf(v.find_hole(r))
