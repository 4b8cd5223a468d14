"""Cluster substrate: nodes, clusters and the multi-cluster platform."""
from .node import Node, NodeState
from .cluster import Cluster
from .platform import Platform

__all__ = [
    "Node",
    "NodeState",
    "Cluster",
    "Platform",
]
