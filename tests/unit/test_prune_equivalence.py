"""Property tests: indexed ``RequestSet.prune_finished`` vs a naive reference.

``prune_finished`` used to ask, for every finished request, for its
descendants through a ``children`` helper that rescanned the whole set --
quadratic per pass in the depth of ``NEXT`` chains.  It now builds a
parent-id -> children index once per call and memoises "subtree finished"
in one iterative post-order walk.  These tests pin the new implementation
against ``reference_prune`` -- the original code, copied here as plain
functions -- over random request forests mixing ``NEXT``, ``COALLOC`` and
``FREE``-with-``related_to`` edges, parents outside the set and random
finished flags, over several prune rounds.
"""
from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelatedHow, Request, RequestSet, RequestType


def reference_children(requests: List[Request], request: Request) -> List[Request]:
    """Requests of the set directly constrained to *request* (rescans the set)."""
    return [
        r
        for r in requests
        if r.related_to is not None
        and r.related_to.request_id == request.request_id
        and r.related_how is not RelatedHow.FREE
    ]


def reference_descendants(requests: List[Request], request: Request) -> List[Request]:
    """All requests transitively constrained to *request* (pre-order)."""
    out: List[Request] = []
    stack = reference_children(requests, request)
    while stack:
        r = stack.pop(0)
        out.append(r)
        stack = reference_children(requests, r) + stack
    return out


def reference_prune(requests: List[Request]) -> List[Request]:
    """The original prune: removes from *requests* in place, returns removed."""
    removed = []
    for r in list(requests):
        if r.finished() and all(c.finished() for c in reference_descendants(requests, r)):
            dependants = [c for c in requests if c.related_to is r and not c.finished()]
            if not dependants:
                requests.remove(r)
                removed.append(r)
    return removed


_HOWS = (RelatedHow.NEXT, RelatedHow.COALLOC, RelatedHow.FREE)


@st.composite
def forests(draw):
    """A request forest in a random insertion order, plus round plans.

    Each request's parent is an earlier request (so the graph is acyclic),
    an outside request or nothing.  Returns the requests in insertion order
    and, per prune round, the requests to mark finished before it.
    """
    n = draw(st.integers(min_value=0, max_value=30))
    outside = Request("c", 1, 10, RequestType.NON_PREEMPTIBLE)
    created: List[Request] = []
    for _ in range(n):
        kind = draw(st.sampled_from(("root", "outside", "edge", "edge", "edge")))
        if kind == "root" or (kind == "edge" and not created):
            created.append(Request("c", 1, 10, RequestType.NON_PREEMPTIBLE))
            continue
        parent = outside if kind == "outside" else draw(st.sampled_from(created))
        how = draw(st.sampled_from(_HOWS))
        created.append(Request("c", 1, 10, RequestType.NON_PREEMPTIBLE, how, parent))
    order = draw(st.permutations(range(n)))
    requests = [created[i] for i in order]
    rounds = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=n),
            min_size=1,
            max_size=4,
        )
    )
    if n == 0:
        rounds = [[] for _ in rounds]
    return requests, rounds


def _ids(requests) -> List[int]:
    return [r.request_id for r in requests]


@settings(max_examples=300, deadline=None)
@given(forests())
def test_prune_matches_reference(case):
    requests, rounds = case
    rs = RequestSet(RequestType.NON_PREEMPTIBLE, requests)
    ref = list(requests)
    for to_finish in rounds:
        for i in to_finish:
            requests[i].mark_finished(1.0)
        expected = reference_prune(ref)
        assert _ids(rs.prune_finished()) == _ids(expected)
        assert _ids(rs) == _ids(ref)
        assert all(rs.get(r.request_id) is r for r in ref)
        assert all(rs.get(r.request_id) is None for r in expected)
