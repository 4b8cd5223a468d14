"""Scale tests: request-set pruning, ``to_view`` and ``fit`` far past the
paper's sizes, and one reduced-scale Figure 9 sweep.

``RequestSet.prune_finished``, ``to_view`` and ``fit`` run on every
scheduling pass, so their cost per pass must stay linear in the set size
and must not recurse along ``NEXT`` chains (1000 steps deep in the paper's
Figure 9 runs).  Timings compare one size with its double on the same host,
best of a few repeats with the garbage collector paused, so they measure
growth, not the machine.
"""
from __future__ import annotations

import gc
import math
import time
from typing import Callable, List

from repro.core import RelatedHow, Request, RequestSet, RequestType, View, fit, to_view
from repro.experiments import fig9_spontaneous
from repro.experiments.runner import EvaluationScale

#: Doubling the input may at most multiply the time by this (2.0 is linear).
MAX_DOUBLING_RATIO = 2.5


def _request(how: RelatedHow = RelatedHow.FREE, to: Request = None) -> Request:
    return Request("c", 1, 10, RequestType.NON_PREEMPTIBLE, how, to)


def pending_chain(steps: int) -> List[Request]:
    """A chain of *steps* pending ``NEXT`` updates."""
    chain = [_request()]
    for _ in range(steps - 1):
        chain.append(_request(RelatedHow.NEXT, chain[-1]))
    return chain


def next_chain(steps: int) -> List[Request]:
    """A chain of *steps* ``NEXT`` updates, every one finished but the last."""
    chain = pending_chain(steps)
    for r in chain[:-1]:
        r.mark_finished(1.0)
    return chain


def wide_set(groups: int) -> RequestSet:
    """*groups* trees of 10 requests each; 4 per tree are prunable.

    Per tree: a root with a 4-deep ``NEXT`` chain whose tail is unfinished,
    two finished ``COALLOC`` children of the root (prunable), an unfinished
    ``FREE`` request related to the chain (keeps its target), a finished
    ``NEXT`` child of a request outside the set (prunable) and a finished
    free root (prunable).
    """
    outside = _request()
    rs = RequestSet(RequestType.NON_PREEMPTIBLE)
    for _ in range(groups):
        root = _request()
        chain = [root]
        for _ in range(4):
            chain.append(_request(RelatedHow.NEXT, chain[-1]))
        tree = chain[:-1] + [
            _request(RelatedHow.COALLOC, root),
            _request(RelatedHow.COALLOC, root),
            _request(RelatedHow.NEXT, outside),
            _request(),
        ]
        for r in tree:
            r.mark_finished(1.0)
        tree += [chain[-1], _request(RelatedHow.FREE, chain[2])]
        for r in tree:
            rs.add(r)
    return rs


def scheduled_set(groups: int) -> RequestSet:
    """*groups* trees of 10 requests each: 7 fixed, 3 left to ``fit``.

    Per tree: a started root with a 4-deep ``NEXT`` chain and two
    ``COALLOC`` children (all fixed by ``to_view``), plus three pending
    ``FREE`` requests.
    """
    rs = RequestSet(RequestType.NON_PREEMPTIBLE)
    for g in range(groups):
        root = _request()
        root.mark_started(float(g))
        chain = [root]
        for _ in range(4):
            chain.append(_request(RelatedHow.NEXT, chain[-1]))
        tree = chain + [_request(RelatedHow.COALLOC, root) for _ in range(2)]
        tree += [_request() for _ in range(3)]
        for r in tree:
            rs.add(r)
    return rs


def _schedule(rs: RequestSet, available: View) -> View:
    """One scheduling round of a set: ``to_view`` then ``fit`` the rest."""
    fixed = to_view(rs)
    return fixed + fit(rs, available - fixed, 0.0)


def _doubling_ratio(
    make_small: Callable[[], RequestSet],
    make_large: Callable[[], RequestSet],
    repeats: int,
    run: Callable[[RequestSet], object] = RequestSet.prune_finished,
) -> float:
    """Best time of *run* (default: prune) on the large set over the small one's.

    The two are timed alternately, so a slow spell of the host hits both.
    """
    best = {make_small: float("inf"), make_large: float("inf")}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for make in best:
                rs = make()
                start = time.perf_counter()
                run(rs)
                best[make] = min(best[make], time.perf_counter() - start)
    finally:
        gc.enable()
    return best[make_large] / best[make_small]


class TestPruneScale:
    def test_10k_next_chain_prunes_without_recursion(self):
        chain = next_chain(10_000)
        rs = RequestSet(RequestType.NON_PREEMPTIBLE, chain)
        # The unfinished tail keeps the whole chain.
        assert rs.prune_finished() == []
        assert len(rs) == 10_000
        chain[-1].mark_finished(2.0)
        assert rs.prune_finished() == chain
        assert len(rs) == 0

    def test_next_chain_prune_is_linear_in_depth(self):
        small = RequestSet(RequestType.NON_PREEMPTIBLE, next_chain(10_000))
        large = RequestSet(RequestType.NON_PREEMPTIBLE, next_chain(20_000))
        # Nothing is prunable, so every repeat sees the same set.
        ratio = _doubling_ratio(lambda: small, lambda: large, 7)
        assert ratio <= MAX_DOUBLING_RATIO

    def test_100k_request_set_keeps_only_what_unfinished_requests_need(self):
        rs = wide_set(10_000)
        assert len(rs) == 100_000
        removed = rs.prune_finished()
        assert len(removed) == 40_000
        assert len(rs) == 60_000
        assert rs.prune_finished() == []

    def test_request_set_prune_is_linear_in_size(self):
        ratio = _doubling_ratio(lambda: wide_set(5_000), lambda: wide_set(10_000), 3)
        assert ratio <= MAX_DOUBLING_RATIO


class TestToViewAndFitScale:
    def test_10k_pending_next_chain_fits_back_to_back(self):
        chain = pending_chain(10_000)
        rs = RequestSet(RequestType.NON_PREEMPTIBLE, chain)
        assert to_view(rs).is_zero()
        occupied = fit(rs, View.constant({"c": 1}), 0.0)
        assert [r.scheduled_at for r in chain] == [10.0 * i for i in range(10_000)]
        assert occupied["c"].times == (0.0, 100_000.0)

    def test_10k_next_chain_started_at_its_head_is_fixed(self):
        chain = pending_chain(10_000)
        chain[0].mark_started(5.0)
        rs = RequestSet(RequestType.NON_PREEMPTIBLE, chain)
        occupied = to_view(rs)
        assert all(r.fixed for r in chain)
        assert chain[-1].scheduled_at == 5.0 + 10.0 * 9_999
        assert occupied["c"].times == (0.0, 5.0, 100_005.0)
        assert fit(rs, View.constant({"c": 1}) - occupied, 0.0).is_zero()

    def test_next_chain_to_view_and_fit_are_linear_in_depth(self):
        def chain_set(steps: int, started: bool) -> RequestSet:
            chain = pending_chain(steps)
            if started:
                chain[0].mark_started(0.0)
            return RequestSet(RequestType.NON_PREEMPTIBLE, chain)

        available = View.constant({"c": 1})
        for started in (False, True):
            small, large = chain_set(10_000, started), chain_set(20_000, started)
            ratio = _doubling_ratio(
                lambda: small, lambda: large, 5, lambda rs: _schedule(rs, available)
            )
            assert ratio <= MAX_DOUBLING_RATIO, (started, ratio)

    def test_100k_request_set_fixes_started_trees_and_fits_the_rest(self):
        rs = scheduled_set(10_000)
        assert len(rs) == 100_000
        occupied = _schedule(rs, View.constant({"c": 64}))
        requests = list(rs)
        assert sum(r.fixed for r in requests) == 70_000
        assert all(not math.isinf(r.scheduled_at) for r in requests)
        assert occupied.integrate(0.0, math.inf) == 100_000 * 10.0

    def test_to_view_and_fit_are_linear_in_set_size(self):
        available = View.constant({"c": 64})
        small, large = scheduled_set(2_500), scheduled_set(5_000)
        ratio = _doubling_ratio(
            lambda: small, lambda: large, 5, lambda rs: _schedule(rs, available)
        )
        assert ratio <= MAX_DOUBLING_RATIO


def test_reduced_fig9_static_uses_at_least_dynamic():
    """Paper Figure 9: past overcommit 1, a static AMR holds at least what a
    dynamic one uses (one seed, ``EvaluationScale.reduced()``)."""
    points = fig9_spontaneous.run(scale=EvaluationScale.reduced(), seed=0)
    assert [p.overcommit for p in points] == list(fig9_spontaneous.PAPER_OVERCOMMIT_FACTORS)
    for p in points:
        if p.overcommit >= 1.0:
            assert p.static_amr_used_node_seconds >= p.dynamic_amr_used_node_seconds, p
