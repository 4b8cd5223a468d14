"""Property tests: the identity fast paths of the profile and view algebra.

``StepFunction`` and ``View`` skip the merge when an operand cannot change
the result (adding or subtracting the zero profile, clipping a profile that
is already above the floor) and return the other operand itself.  These
tests pin every fast path against the generic merge, bit for bit: results
are compared through ``repr`` of their breakpoint and value lists, so a
``-0.0`` turning into ``+0.0`` (or back) fails, which an ``approx``
comparison would miss.
"""
from __future__ import annotations

import math
import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    RelatedHow,
    Request,
    RequestSet,
    RequestType,
    StepFunction,
    View,
    fit,
    to_view,
)

_CLUSTERS = ("a", "b", "c")

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0, 64.0]),
    st.integers(min_value=-8, max_value=8).map(float),
)


@st.composite
def _profiles(draw):
    """Zero profiles of either sign, constants and random step functions."""
    kind = draw(st.sampled_from(["zero", "neg-zero", "constant", "steps"]))
    if kind == "zero":
        return StepFunction.zero()
    if kind == "neg-zero":
        return StepFunction.constant(-0.0)
    if kind == "constant":
        return StepFunction.constant(draw(_values))
    inner = draw(
        st.lists(st.integers(min_value=1, max_value=60), unique=True, max_size=8)
    )
    times = [0.0] + [float(t) for t in sorted(inner)]
    values = draw(st.lists(_values, min_size=len(times), max_size=len(times)))
    return StepFunction(times, values)


_views = st.dictionaries(st.sampled_from(_CLUSTERS), _profiles(), max_size=3).map(View)
_floors = st.sampled_from([0.0, -0.0, 0, 1.0, -2.0, 3])


def _bits(profile: StepFunction) -> str:
    """Exact rendering of a profile: ``repr`` tells ``-0.0`` from ``0.0``."""
    return repr((list(profile.times), list(profile.values)))


def _view_bits(view: View) -> str:
    return repr([(cid, _bits(cap)) for cid, cap in view.items()])


# --------------------------------------------------------------------- #
# Generic paths the fast paths must reproduce
# --------------------------------------------------------------------- #
def _generic_add(a: StepFunction, b: StepFunction) -> StepFunction:
    return a._combine(b, operator.add)


def _generic_sub(a: StepFunction, b: StepFunction) -> StepFunction:
    return a._combine(b, operator.sub)


def _generic_clip_low(profile: StepFunction, floor) -> StepFunction:
    return StepFunction(list(profile.times), [max(v, floor) for v in profile.values])


def _generic_view(a: View, b: View, op) -> View:
    return View({cid: op(a[cid], b[cid]) for cid in set(a.clusters()) | set(b.clusters())})


# --------------------------------------------------------------------- #
# StepFunction
# --------------------------------------------------------------------- #
@settings(max_examples=400, deadline=None)
@given(a=_profiles(), b=_profiles())
def test_profile_add_and_sub_are_bit_identical_to_the_merge(a, b):
    assert _bits(a + b) == _bits(_generic_add(a, b))
    assert _bits(b + a) == _bits(_generic_add(b, a))
    assert _bits(a - b) == _bits(_generic_sub(a, b))
    assert _bits(b - a) == _bits(_generic_sub(b, a))


@settings(max_examples=300, deadline=None)
@given(a=_profiles(), floor=_floors)
def test_profile_clip_low_is_bit_identical_to_the_rebuild(a, floor):
    clipped = a.clip_low(floor)
    assert _bits(clipped) == _bits(_generic_clip_low(a, floor))
    if min(a.values) >= floor:
        assert clipped is a


@settings(max_examples=200, deadline=None)
@given(a=_profiles())
def test_zero_operands_return_the_other_operand(a):
    zero = StepFunction.zero()
    assert a - zero is a
    has_neg_zero = any(v == 0.0 and math.copysign(1.0, v) < 0 for v in a.values)
    if not has_neg_zero:
        assert a + zero is a
        # Zero plus zero hands back its left operand, an equal profile.
        assert zero + a is (zero if _bits(a) == _bits(zero) else a)


def test_negative_zero_is_not_absorbed_by_a_positive_zero():
    neg = StepFunction([0.0, 5.0], [-0.0, 3.0])
    zero = StepFunction.zero()
    assert repr(list((neg + zero).values)) == "[0.0, 3.0]"
    assert repr(list((zero + neg).values)) == "[0.0, 3.0]"
    assert (neg - zero) is neg
    assert repr(list((neg - zero).values)) == "[-0.0, 3.0]"


# --------------------------------------------------------------------- #
# View
# --------------------------------------------------------------------- #
@settings(max_examples=300, deadline=None)
@given(a=_views, b=_views)
def test_view_add_and_sub_are_bit_identical_to_the_merge(a, b):
    assert _view_bits(a + b) == _view_bits(_generic_view(a, b, _generic_add))
    assert _view_bits(b + a) == _view_bits(_generic_view(b, a, _generic_add))
    assert _view_bits(a - b) == _view_bits(_generic_view(a, b, _generic_sub))
    assert _view_bits(b - a) == _view_bits(_generic_view(b, a, _generic_sub))


@settings(max_examples=200, deadline=None)
@given(a=_views, floor=_floors)
def test_view_clip_low_is_bit_identical_to_the_rebuild(a, floor):
    clipped = a.clip_low(floor)
    expected = View({cid: _generic_clip_low(cap, floor) for cid, cap in a.items()})
    assert _view_bits(clipped) == _view_bits(expected)
    if all(min(cap.values) >= floor for _, cap in a.items()):
        assert clipped is a


@settings(max_examples=100, deadline=None)
@given(a=_views)
def test_empty_view_operands(a):
    empty = View()
    assert a - empty is a
    assert _view_bits(empty - a) == _view_bits(_generic_view(empty, a, _generic_sub))
    assert _view_bits(a + empty) == _view_bits(_generic_view(a, empty, _generic_add))
    assert _view_bits(empty + a) == _view_bits(_generic_view(empty, a, _generic_add))


# --------------------------------------------------------------------- #
# toView / fit on sets without live requests
# --------------------------------------------------------------------- #
def _snapshot(requests):
    return [repr([getattr(r, name) for name in Request.__slots__]) for r in requests]


def _finished_set() -> RequestSet:
    rs = RequestSet(RequestType.NON_PREEMPTIBLE)
    first = Request("a", 4, 100, RequestType.NON_PREEMPTIBLE)
    rs.add(first)
    rs.add(Request("a", 2, 50, RequestType.NON_PREEMPTIBLE, RelatedHow.NEXT, first))
    rs.add(Request("b", 1, 10, RequestType.NON_PREEMPTIBLE))
    for i, r in enumerate(rs):
        r.mark_started(float(i))
        r.mark_finished(float(i) + 1.0)
    return rs


def test_to_view_and_fit_of_sets_without_live_requests_are_empty():
    full = View.constant({"a": 8, "b": 8})
    for rs in (RequestSet(), _finished_set()):
        requests = list(rs)
        before = _snapshot(requests)
        for view in (to_view(rs), to_view(rs, full), fit(rs, full, 0.0)):
            assert len(view) == 0
            assert view.is_zero()
        assert _snapshot(requests) == before
