"""Request sets and request trees (paper Appendix A.2).

Each application holds three separate request sets -- pre-allocations
``R_PA``, non-preemptible requests ``R_¬P`` and preemptible requests ``R_P``.
Inside a set, the ``COALLOC`` / ``NEXT`` constraints induce a forest:
unconstrained requests (or requests whose parent lives outside the set) are
tree roots, and each constraint creates a parent/child edge.

:class:`RequestSet` stores one such set and provides the paper's ``roots``
helper plus the filtering and pruning utilities used by the RMS.
:class:`ApplicationRequests` groups the three sets of one application.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from .errors import RequestError
from .request import Request
from .types import RelatedHow, RequestType

__all__ = ["RequestSet", "ApplicationRequests"]


class RequestSet:
    """An ordered collection of requests of a single type.

    Insertion order is preserved (it matters for deterministic scheduling);
    membership tests and removal are O(1) via an id index.
    """

    def __init__(self, rtype: Optional[RequestType] = None, requests: Iterable[Request] = ()):
        self.rtype = rtype
        self._requests: List[Request] = []
        self._by_id: Dict[int, Request] = {}
        for r in requests:
            self.add(r)

    # ------------------------------------------------------------------ #
    # Collection protocol
    # ------------------------------------------------------------------ #
    def add(self, request: Request) -> None:
        """Add *request*, enforcing the set's request type if one is declared."""
        if self.rtype is not None and request.rtype is not self.rtype:
            raise RequestError(
                f"request #{request.request_id} has type {request.rtype.value}, "
                f"set only accepts {self.rtype.value}"
            )
        if request.request_id in self._by_id:
            raise RequestError(f"request #{request.request_id} already in set")
        self._requests.append(request)
        self._by_id[request.request_id] = request

    def remove(self, request: Request) -> None:
        """Remove *request*; children constrained to it become roots."""
        if request.request_id not in self._by_id:
            raise RequestError(f"request #{request.request_id} not in set")
        del self._by_id[request.request_id]
        self._requests.remove(request)

    def discard(self, request: Request) -> None:
        """Remove *request* if present; no error otherwise."""
        if request.request_id in self._by_id:
            self.remove(request)

    def __contains__(self, request: Request) -> bool:
        return isinstance(request, Request) and request.request_id in self._by_id

    def __iter__(self) -> Iterator[Request]:
        return iter(list(self._requests))

    def __len__(self) -> int:
        return len(self._requests)

    def __bool__(self) -> bool:
        return bool(self._requests)

    def get(self, request_id: int) -> Optional[Request]:
        """Request with the given id, or None."""
        return self._by_id.get(request_id)

    # ------------------------------------------------------------------ #
    # Tree navigation (Appendix A.2)
    # ------------------------------------------------------------------ #
    def roots(self) -> List[Request]:
        """Requests that are tree roots within this set.

        A request is a root if it is unconstrained (``FREE``) or if its parent
        request does not belong to this set.
        """
        out = []
        for r in self._requests:
            if r.related_how is RelatedHow.FREE or r.related_to is None:
                out.append(r)
            elif r.related_to.request_id not in self._by_id:
                out.append(r)
        return out

    # ------------------------------------------------------------------ #
    # Filters used by the scheduler
    # ------------------------------------------------------------------ #
    def started(self) -> List[Request]:
        """Requests that have started and not yet finished."""
        return [r for r in self._requests if r.started() and not r.finished()]

    def pending(self) -> List[Request]:
        """Requests that have not started yet."""
        return [r for r in self._requests if r.pending()]

    def active_or_pending(self) -> List[Request]:
        """Requests that still matter for scheduling (not finished)."""
        return [r for r in self._requests if not r.finished()]

    def prune_finished(self) -> List[Request]:
        """Drop finished requests whose descendants are also all finished.

        Returns the removed requests, in set order.  Finished requests that
        still have unfinished children are kept because ``NEXT`` children
        need the parent's schedule to compute their own start time; so are
        finished requests an unfinished request points at through any
        constraint, ``FREE`` included.

        One pass costs O(n) for a set of n requests.  Each unfinished
        request marks its ancestors in the set as blocked, walking up its
        ``related_to`` chain and stopping at the first ancestor already
        blocked, so every request is marked at most once.  The walk is a
        loop, not a recursion: ``NEXT`` chains are as deep as an
        application's update count (1000 in the paper's Figure 9 runs).
        """
        by_id = self._by_id
        blocked: Set[int] = set()  # ids with an unfinished descendant
        pointed_at: Set[int] = set()  # ids an unfinished request is related to
        finished: List[Request] = []
        for r in self._requests:
            if r.finished():
                finished.append(r)
                continue
            if r.related_to is not None:
                pointed_at.add(r.related_to.request_id)
            child = r
            while child.related_how is not RelatedHow.FREE and child.related_to is not None:
                parent = by_id.get(child.related_to.request_id)
                if parent is None or parent.request_id in blocked:
                    break
                blocked.add(parent.request_id)
                child = parent
        removed = [
            r
            for r in finished
            if r.request_id not in blocked and r.request_id not in pointed_at
        ]
        if removed:
            for r in removed:
                del by_id[r.request_id]
            self._requests[:] = [r for r in self._requests if r.request_id in by_id]
        return removed

    def total_requested_nodes(self) -> int:
        """Sum of node counts of unfinished requests (diagnostic metric)."""
        return sum(r.node_count for r in self._requests if not r.finished())

    def __repr__(self) -> str:
        kind = self.rtype.value if self.rtype else "mixed"
        return f"RequestSet({kind}, {len(self._requests)} requests)"


class ApplicationRequests:
    """The three per-application request sets of Appendix A.2."""

    def __init__(self, app_id: str):
        self.app_id = app_id
        self.preallocations = RequestSet(RequestType.PREALLOCATION)
        self.non_preemptible = RequestSet(RequestType.NON_PREEMPTIBLE)
        self.preemptible = RequestSet(RequestType.PREEMPTIBLE)

    def set_for(self, rtype: RequestType) -> RequestSet:
        """The request set that stores requests of type *rtype*."""
        if rtype is RequestType.PREALLOCATION:
            return self.preallocations
        if rtype is RequestType.NON_PREEMPTIBLE:
            return self.non_preemptible
        return self.preemptible

    def add(self, request: Request) -> None:
        """Route *request* into the set matching its type."""
        request.app_id = self.app_id
        self.set_for(request.rtype).add(request)

    def remove(self, request: Request) -> None:
        self.set_for(request.rtype).remove(request)

    def all_requests(self) -> List[Request]:
        """Every request of the application, over all three sets."""
        return list(self.preallocations) + list(self.non_preemptible) + list(self.preemptible)

    def find(self, request_id: int) -> Optional[Request]:
        """Look up a request by id across the three sets."""
        for rs in (self.preallocations, self.non_preemptible, self.preemptible):
            r = rs.get(request_id)
            if r is not None:
                return r
        return None

    def prune_finished(self) -> List[Request]:
        """Prune finished requests from all three sets."""
        removed = []
        for rs in (self.preallocations, self.non_preemptible, self.preemptible):
            removed.extend(rs.prune_finished())
        return removed

    def __repr__(self) -> str:
        return (
            f"ApplicationRequests({self.app_id!r}, PA={len(self.preallocations)}, "
            f"nonP={len(self.non_preemptible)}, P={len(self.preemptible)})"
        )
