"""Unit tests of the cluster substrate (nodes, clusters, platform)."""
from __future__ import annotations

import pytest

from repro.cluster import (
    Cluster,
    Node,
    NodeState,
    Platform,
)
from repro.core import AllocationError


class TestNode:
    def test_allocate_and_release(self):
        node = Node(0, "c")
        node.allocate("app", 1, now=10.0)
        assert node.state is NodeState.ALLOCATED
        assert node.owner_app == "app"
        node.release(now=25.0)
        assert node.state is NodeState.FREE
        assert node.busy_seconds == pytest.approx(15.0)

    def test_double_allocation_rejected(self):
        node = Node(0, "c")
        node.allocate("app", 1, now=0.0)
        with pytest.raises(AllocationError):
            node.allocate("other", 2, now=1.0)

    def test_release_free_node_rejected(self):
        with pytest.raises(AllocationError):
            Node(0, "c").release(now=0.0)


class TestCluster:
    def test_allocation_prefers_lowest_ids(self):
        cluster = Cluster("c", 8)
        ids = cluster.allocate(3, "app", 1, now=0.0)
        assert ids == frozenset({0, 1, 2})
        assert cluster.free_count() == 5
        assert cluster.allocated_to("app") == [0, 1, 2]

    def test_preferred_nodes_are_used_first(self):
        cluster = Cluster("c", 8)
        ids = cluster.allocate(2, "app", 1, now=0.0, preferred=[5, 6])
        assert ids == frozenset({5, 6})

    def test_insufficient_nodes_raise(self):
        cluster = Cluster("c", 4)
        cluster.allocate(3, "a", 1, now=0.0)
        with pytest.raises(AllocationError):
            cluster.allocate(2, "b", 2, now=0.0)

    def test_release_and_release_all(self):
        cluster = Cluster("c", 4)
        cluster.allocate(2, "a", 1, now=0.0)
        cluster.allocate(2, "b", 2, now=0.0)
        cluster.release([0], now=1.0)
        assert cluster.free_count() == 1
        released = cluster.release_all_of("b", now=2.0)
        assert len(released) == 2
        assert cluster.free_count() == 3

    def test_release_unknown_node_rejected(self):
        with pytest.raises(AllocationError):
            Cluster("c", 2).release([7], now=0.0)

    def test_transfer_relabels_owner_request(self):
        cluster = Cluster("c", 4)
        ids = cluster.allocate(2, "a", 1, now=0.0)
        cluster.transfer(ids, "a", 99, now=5.0)
        for nid in ids:
            assert cluster.nodes[nid].owner_request == 99
        with pytest.raises(AllocationError):
            cluster.transfer(ids, "someone-else", 100, now=6.0)

    def test_busy_node_seconds(self):
        cluster = Cluster("c", 4)
        cluster.allocate(2, "a", 1, now=0.0)
        assert cluster.busy_node_seconds(now=10.0) == pytest.approx(20.0)

    def test_zero_node_cluster_rejected(self):
        with pytest.raises(AllocationError):
            Cluster("c", 0)


class TestPlatform:
    def test_single_cluster_factory(self):
        platform = Platform.single_cluster(128)
        assert platform.total_nodes() == 128
        assert platform.capacity() == {"cluster0": 128}
        assert platform.default_cluster_id() == "cluster0"

    def test_multi_cluster(self):
        platform = Platform({"a": 4, "b": 8})
        assert platform.total_nodes() == 12
        assert platform.cluster("b").node_count == 8
        with pytest.raises(AllocationError):
            platform.cluster("missing")

    def test_requires_one_cluster(self):
        with pytest.raises(AllocationError):
            Platform({})

    def test_release_all_of_spans_clusters(self):
        platform = Platform({"a": 4, "b": 4})
        platform.allocate("a", 2, "app", 1, now=0.0)
        platform.allocate("b", 3, "app", 2, now=0.0)
        released = platform.release_all_of("app", now=1.0)
        assert len(released["a"]) == 2 and len(released["b"]) == 3
        assert platform.busy_node_seconds(now=1.0) == pytest.approx(5.0)

