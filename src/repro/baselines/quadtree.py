"""An external bucket PR quad-tree (Section 1.2 baseline).

Each node covers a square region; leaves hold up to B points, internal
nodes have four children covering the quadrants.  Halfspace queries recurse
into every child whose square is crossed by the boundary line.  On
uniformly distributed points the expected cost is O(sqrt(n) + t) I/Os, but
on the diagonal input with a slightly rotated query line the boundary
crosses Ω(n) squares — the degradation the paper highlights.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


class _QuadNode:
    __slots__ = ("is_leaf", "box", "points_array", "child_table", "children")

    def __init__(self, is_leaf, box, points_array=None, child_table=None,
                 children=None):
        self.is_leaf = is_leaf
        self.box = box
        self.points_array = points_array
        self.child_table = child_table
        self.children = children or []


class QuadTreeIndex(ExternalIndex):
    """Bucket PR quad-tree over the simulated disk (2-D points only)."""

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_capacity: Optional[int] = None,
                 max_depth: int = 32):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, 2)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("QuadTreeIndex expects points of shape (N, 2)")
        self._points = points
        self._num_points = len(points)
        self._leaf_capacity = leaf_capacity if leaf_capacity is not None else self.block_size
        self._max_depth = max_depth
        self._nodes: List[_QuadNode] = []
        self._last_nodes_visited = 0
        with self._building():
            if self._num_points:
                lo = points.min(axis=0)
                hi = points.max(axis=0)
                pad = 1e-9 + 1e-9 * float(np.abs(points).max())
                root_box = Box((float(lo[0]) - pad, float(lo[1]) - pad),
                               (float(hi[0]) + pad, float(hi[1]) + pad))
                self._root = self._build(np.arange(self._num_points),
                                         root_box, 0)
            else:
                self._root = None

    def _build(self, indices: np.ndarray, box: Box, depth: int) -> int:
        if len(indices) <= self._leaf_capacity or depth >= self._max_depth:
            node = _QuadNode(True, box, points_array=DiskArray.from_matrix(
                self._store, self._points[indices]))
            self._nodes.append(node)
            return len(self._nodes) - 1
        mid_x = (box.lower[0] + box.upper[0]) / 2.0
        mid_y = (box.lower[1] + box.upper[1]) / 2.0
        quadrant_boxes = [
            Box((box.lower[0], box.lower[1]), (mid_x, mid_y)),
            Box((mid_x, box.lower[1]), (box.upper[0], mid_y)),
            Box((box.lower[0], mid_y), (mid_x, box.upper[1])),
            Box((mid_x, mid_y), (box.upper[0], box.upper[1])),
        ]
        xs = self._points[indices, 0]
        ys = self._points[indices, 1]
        masks = [
            (xs <= mid_x) & (ys <= mid_y),
            (xs > mid_x) & (ys <= mid_y),
            (xs <= mid_x) & (ys > mid_y),
            (xs > mid_x) & (ys > mid_y),
        ]
        children = []
        table_records = []
        for quadrant_box, mask in zip(quadrant_boxes, masks):
            child_indices = indices[mask]
            child_id = self._build(child_indices, quadrant_box, depth + 1)
            children.append(child_id)
            table_records.append((child_id, quadrant_box.lower, quadrant_box.upper))
        node = _QuadNode(False, box,
                         child_table=DiskArray(self._store, table_records),
                         children=children)
        self._nodes.append(node)
        return len(self._nodes) - 1

    @property
    def dimension(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def last_nodes_visited(self) -> int:
        """Nodes visited by the most recent query (the degradation metric)."""
        return self._last_nodes_visited

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points by recursing into crossed quadrants."""
        if constraint.dimension != 2:
            raise ValueError("QuadTreeIndex answers 2-D constraints only")
        scan = kernels.DeferredScan(2, constraint.below,
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
