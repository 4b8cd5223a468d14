"""Property tests: the cluster's incremental free pool vs a scan-based model.

``Cluster`` keeps the IDs of its free nodes in a set that every allocation,
release, removal and addition updates, instead of scanning and sorting every
node whenever it needs them.  ``ScanModel`` is the plain reference: node
ownership in a dict, free nodes found by a sorted scan.  Random sequences of
cluster operations, failing ones included, must leave both agreeing on the
chosen IDs, the free list, the free and allocated counts and every node's
owner at every step.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.node import NodeState
from repro.core import AllocationError

APPS = ("a", "b", "c")


class ScanModel:
    """Node ID -> (app, request) or None for free; every query scans."""

    def __init__(self, node_count: int):
        self.owner: Dict[int, Optional[Tuple[str, int]]] = {
            nid: None for nid in range(node_count)
        }

    def free_nodes(self) -> List[int]:
        return sorted(nid for nid, owner in self.owner.items() if owner is None)

    def allocate(self, count, app, request, preferred):
        free = self.free_nodes()
        if count > len(free):
            raise AllocationError("not enough free nodes")
        chosen: List[int] = []
        for nid in preferred or ():
            if nid in free and nid not in chosen and len(chosen) < count:
                chosen.append(nid)
        for nid in free:
            if len(chosen) >= count:
                break
            if nid not in chosen:
                chosen.append(nid)
        for nid in chosen:
            self.owner[nid] = (app, request)
        return frozenset(chosen)

    def release(self, node_ids):
        for nid in node_ids:
            if self.owner.get(nid) is None:
                raise AllocationError(f"node {nid} is not allocated")
            self.owner[nid] = None

    def release_all_of(self, app):
        held = sorted(nid for nid, o in self.owner.items() if o is not None and o[0] == app)
        self.release(held)
        return frozenset(held)

    def transfer(self, node_ids, app, request):
        for nid in node_ids:
            owner = self.owner.get(nid)
            if owner is None or owner[0] != app:
                raise AllocationError(f"node {nid} is not held by {app}")
            self.owner[nid] = (app, request)

    def remove_nodes(self, node_ids):
        for nid in node_ids:
            if nid not in self.owner or self.owner[nid] is not None:
                raise AllocationError(f"node {nid} cannot be removed")
            del self.owner[nid]

    def add_nodes(self, count):
        added, nid = [], 0
        while len(added) < count:
            if nid not in self.owner:
                self.owner[nid] = None
                added.append(nid)
            nid += 1
        return added


def _outcome(call):
    try:
        return "ok", call()
    except AllocationError:
        return "error", None


def _owners(cluster: Cluster):
    return {
        nid: (node.owner_app, node.owner_request)
        if node.state is NodeState.ALLOCATED
        else None
        for nid, node in cluster.nodes.items()
    }


OPS = ("allocate", "allocate", "release", "transfer", "release_all_of", "remove", "add")


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.data())
def test_free_pool_matches_scan_model(node_count, data):
    cluster = Cluster("c", node_count)
    model = ScanModel(node_count)
    ids = st.integers(min_value=0, max_value=node_count + 3)
    for request in range(data.draw(st.integers(min_value=1, max_value=30))):
        op = data.draw(st.sampled_from(OPS))
        app = data.draw(st.sampled_from(APPS))
        if op == "allocate":
            count = data.draw(st.integers(min_value=0, max_value=len(model.owner) + 2))
            preferred = data.draw(st.none() | st.lists(ids, max_size=6))
            got = _outcome(lambda: cluster.allocate(count, app, request, 0.0, preferred))
            want = _outcome(lambda: model.allocate(count, app, request, preferred))
        elif op == "release":
            node_ids = data.draw(st.lists(ids, max_size=4, unique=True))
            got = _outcome(lambda: cluster.release(node_ids, 1.0))
            want = _outcome(lambda: model.release(node_ids))
        elif op == "transfer":
            node_ids = data.draw(st.lists(ids, max_size=4, unique=True))
            got = _outcome(lambda: cluster.transfer(node_ids, app, request, 1.0))
            want = _outcome(lambda: model.transfer(node_ids, app, request))
        elif op == "release_all_of":
            got = _outcome(lambda: cluster.release_all_of(app, 1.0))
            want = _outcome(lambda: model.release_all_of(app))
        elif op == "remove":
            node_ids = data.draw(st.lists(ids, max_size=3, unique=True))
            got = _outcome(lambda: cluster.remove_nodes(node_ids, 2.0))
            want = _outcome(lambda: model.remove_nodes(node_ids))
        else:
            count = data.draw(st.integers(min_value=0, max_value=4))
            got = _outcome(lambda: cluster.add_nodes(count, 2.0))
            want = _outcome(lambda: model.add_nodes(count))
        assert got == want, op
        assert cluster.free_nodes() == model.free_nodes()
        assert cluster.free_count() == len(model.free_nodes())
        assert cluster.allocated_count() == len(model.owner) - len(model.free_nodes())
        assert _owners(cluster) == model.owner


def test_preferred_duplicates_are_taken_once():
    cluster = Cluster("c", 4)
    assert cluster.allocate(2, "a", 1, 0.0, preferred=[3, 3]) == frozenset({0, 3})
    assert cluster.free_nodes() == [1, 2]
