"""A Sort-Tile-Recursive (STR) packed R-tree baseline.

R-trees [29] and their packed variants are the workhorse spatial indexes of
database systems.  The STR bulk-loading used here sorts points by x, cuts
them into vertical slices, sorts each slice by y and packs leaves of B
points; internal levels pack B child bounding rectangles per node.
Halfspace queries descend into every child whose rectangle is crossed by
the constraint boundary — the same O(n) worst case as the other heuristics
on the paper's adversarial input.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


class _RNode:
    __slots__ = ("is_leaf", "box", "points_array", "child_table", "children")

    def __init__(self, is_leaf, box, points_array=None, child_table=None,
                 children=None):
        self.is_leaf = is_leaf
        self.box = box
        self.points_array = points_array
        self.child_table = child_table
        self.children = children or []


class RTreeIndex(ExternalIndex):
    """STR-packed R-tree over the simulated disk (any dimension >= 2)."""

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_capacity: Optional[int] = None,
                 fanout: Optional[int] = None):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, 2)
        if points.ndim != 2:
            raise ValueError("points must have shape (N, d)")
        self._points = points
        self._num_points = len(points)
        self._dimension = points.shape[1]
        self._leaf_capacity = leaf_capacity if leaf_capacity is not None else self.block_size
        self._fanout = fanout if fanout is not None else max(4, self.block_size)
        self._nodes: List[_RNode] = []
        self._last_nodes_visited = 0
        with self._building():
            self._root = self._bulk_load() if self._num_points else None

    # ------------------------------------------------------------------
    # STR bulk loading
    # ------------------------------------------------------------------
    def _bulk_load(self) -> int:
        order = np.argsort(self._points[:, 0], kind="mergesort")
        leaves_per_slice = max(1, int(math.ceil(
            math.sqrt(self._num_points / self._leaf_capacity))))
        slice_size = leaves_per_slice * self._leaf_capacity
        leaf_ids: List[int] = []
        for slice_start in range(0, self._num_points, slice_size):
            slice_indices = order[slice_start:slice_start + slice_size]
            by_y = slice_indices[np.argsort(self._points[slice_indices, 1],
                                            kind="mergesort")]
            for leaf_start in range(0, len(by_y), self._leaf_capacity):
                leaf_indices = by_y[leaf_start:leaf_start + self._leaf_capacity]
                leaf_ids.append(self._make_leaf(leaf_indices))
        level = leaf_ids
        while len(level) > 1:
            level = self._pack_level(level)
        return level[0]

    def _make_leaf(self, indices: np.ndarray) -> int:
        leaf = self._points[indices]
        node = _RNode(True, Box.of_points(leaf),
                      points_array=DiskArray.from_matrix(self._store, leaf))
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _pack_level(self, level: List[int]) -> List[int]:
        parents: List[int] = []
        for start in range(0, len(level), self._fanout):
            child_ids = level[start:start + self._fanout]
            lower = tuple(min(self._nodes[c].box.lower[axis] for c in child_ids)
                          for axis in range(self._dimension))
            upper = tuple(max(self._nodes[c].box.upper[axis] for c in child_ids)
                          for axis in range(self._dimension))
            box = Box(lower, upper)
            table_records = [(child, self._nodes[child].box.lower,
                              self._nodes[child].box.upper) for child in child_ids]
            node = _RNode(False, box,
                          child_table=DiskArray(self._store, table_records),
                          children=list(child_ids))
            self._nodes.append(node)
            parents.append(len(self._nodes) - 1)
        return parents

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def last_nodes_visited(self) -> int:
        """Nodes visited by the most recent query."""
        return self._last_nodes_visited

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points by descending into crossed rectangles."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        scan = kernels.DeferredScan(self._dimension, constraint.below,
                                    constraint.below_many)
        if self._root is not None:
            self._last_nodes_visited = 0
            self._visit(self._root, constraint, scan)
        return scan.flush()

    def _visit(self, node_id: int, constraint: LinearConstraint,
               scan: kernels.DeferredScan) -> None:
        node = self._nodes[node_id]
        self._last_nodes_visited += 1
        if node.is_leaf:
            scan.add(node.points_array, filtered=True)
            return
        hyperplane = constraint.hyperplane
        for record in node.child_table.scan():
            child_id, lower, upper = record
            relation = Box(lower, upper).classify_halfspace(hyperplane)
            if relation is CellRelation.ABOVE:
                continue
            if relation is CellRelation.BELOW:
                self._report_subtree(child_id, scan)
            else:
                self._visit(child_id, constraint, scan)

    def _report_subtree(self, node_id: int,
                        scan: kernels.DeferredScan) -> None:
        node = self._nodes[node_id]
        self._last_nodes_visited += 1
        if node.is_leaf:
            scan.add(node.points_array, filtered=False)
            return
        for record in node.child_table.scan():
            self._report_subtree(record[0], scan)
