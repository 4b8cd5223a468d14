"""Compute nodes of the simulated platform.

The paper assumes space-shared, homogeneous clusters: a node is either free
or allocated exclusively to one request.  Nodes change state only through
their :class:`~repro.cluster.cluster.Cluster`, which keeps its free pool in
step with them.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..core.errors import AllocationError
from ..core.types import NodeId, Time

__all__ = ["NodeState", "Node"]


class NodeState(enum.Enum):
    """Operational state of a node."""

    FREE = "free"
    ALLOCATED = "allocated"


@dataclass
class Node:
    """One compute node, identified by an integer unique within its cluster."""

    node_id: NodeId
    cluster_id: str
    state: NodeState = NodeState.FREE
    #: Application currently holding the node, if any.
    owner_app: Optional[str] = None
    #: Request currently holding the node, if any.
    owner_request: Optional[int] = None
    #: Accumulated busy node-seconds (for accounting/energy reports).
    busy_seconds: float = 0.0
    #: Time of the last state change (used to integrate busy time).
    last_transition: Time = 0.0

    def allocate(self, app_id: str, request_id: int, now: Time) -> None:
        """Hand the node to an application; it must currently be free."""
        if self.state is NodeState.ALLOCATED:
            raise AllocationError(
                f"node {self.cluster_id}/{self.node_id} is already allocated "
                f"to {self.owner_app!r}"
            )
        self._accumulate(now)
        self.state = NodeState.ALLOCATED
        self.owner_app = app_id
        self.owner_request = request_id
        self.last_transition = now

    def release(self, now: Time) -> None:
        """Return the node to the free pool."""
        if self.state is not NodeState.ALLOCATED:
            raise AllocationError(
                f"node {self.cluster_id}/{self.node_id} is not allocated"
            )
        self._accumulate(now)
        self.state = NodeState.FREE
        self.owner_app = None
        self.owner_request = None
        self.last_transition = now

    def _accumulate(self, now: Time) -> None:
        if self.state is NodeState.ALLOCATED and now > self.last_transition:
            self.busy_seconds += now - self.last_transition

    def __repr__(self) -> str:
        owner = f" app={self.owner_app}" if self.owner_app else ""
        return f"Node({self.cluster_id}/{self.node_id} {self.state.value}{owner})"
