"""A k-d-B-tree-style baseline (binary kd splits, blocked leaves).

k-d-B-trees [45] marry kd-tree space partitioning with B-tree-style disk
nodes.  This baseline keeps the essential behaviour for the paper's
comparison: median splits along alternating axes, leaves of B points, and a
halfspace query that must descend into every region crossed by the
constraint boundary.  Internal nodes are packed several to a block, so the
I/O cost of a query is dominated by the number of crossed regions — Θ(n) on
the adversarial diagonal input.  Unlike the R-tree and the quad-tree it is
no cell tree: a cell table lists one node's children, a page here packs a
binary subtree.
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

_INTERNAL = 0
_LEAF = 1


class KDBTreeIndex(ExternalIndex):
    """kd-tree with blocked leaves and block-packed internal nodes."""

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_capacity: Optional[int] = None):
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
        # In-memory build structures; flattened to blocks afterwards.
        self._build_nodes: List[tuple] = []
        self._leaf_arrays: List[DiskArray] = []
        self._last_regions_visited = 0
        with self._building():
            if self._num_points:
                self._root = self._build(np.arange(self._num_points), axis=0)
            else:
                self._root = None
            self._pack_internal_nodes()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, indices: np.ndarray, axis: int) -> int:
        if len(indices) <= self._leaf_capacity:
            leaf = self._points[indices]
            self._leaf_arrays.append(DiskArray.from_matrix(self._store, leaf))
            box = Box.of_points(leaf) if len(leaf) else Box((0.0,) * self._dimension,
                                                            (0.0,) * self._dimension)
            self._build_nodes.append((_LEAF, len(self._leaf_arrays) - 1,
                                      box.lower, box.upper))
            return len(self._build_nodes) - 1
        values = self._points[indices, axis]
        order = np.argsort(values, kind="mergesort")
        middle = len(order) // 2
        left = indices[order[:middle]]
        right = indices[order[middle:]]
        next_axis = (axis + 1) % self._dimension
        left_id = self._build(left, next_axis)
        right_id = self._build(right, next_axis)
        box = Box.of_points(self._points[indices])
        self._build_nodes.append((_INTERNAL, left_id, right_id, box.lower, box.upper))
        return len(self._build_nodes) - 1

    def _pack_internal_nodes(self) -> None:
        """Write node records to disk, B per block, for honest I/O charging."""
        B = self.block_size
        self._node_block_ids: List[int] = []
        self._node_position: List[tuple] = []
        for start in range(0, len(self._build_nodes), B):
            chunk = self._build_nodes[start:start + B]
            block_id = self._store.allocate(chunk)
            block_index = len(self._node_block_ids)
            self._node_block_ids.append(block_id)
            for slot in range(len(chunk)):
                self._node_position.append((block_index, slot))

    def _read_node(self, node_id: int) -> tuple:
        block_index, slot = self._node_position[node_id]
        return self._store.read(self._node_block_ids[block_index])[slot]

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
    def last_regions_visited(self) -> int:
        """Regions (nodes) touched by the most recent query."""
        return self._last_regions_visited

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points by descending into crossed regions."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        scan = kernels.DeferredScan(self._dimension, constraint.below,
                                    constraint.below_many)
        if self._root is not None:
            self._last_regions_visited = 0
            self._visit(self._root, constraint, scan, filter_points=True)
        return scan.flush()

    def _visit(self, node_id: int, constraint: LinearConstraint,
               scan: kernels.DeferredScan, filter_points: bool) -> None:
        record = self._read_node(node_id)
        self._last_regions_visited += 1
        if record[0] == _LEAF:
            scan.add(self._leaf_arrays[record[1]], filtered=filter_points)
            return
        __, left_id, right_id, lower, upper = record
        if not filter_points:
            self._visit(left_id, constraint, scan, False)
            self._visit(right_id, constraint, scan, False)
            return
        relation = Box(lower, upper).classify_halfspace(constraint.hyperplane)
        if relation is CellRelation.ABOVE:
            return
        if relation is CellRelation.BELOW:
            self._visit(left_id, constraint, scan, False)
            self._visit(right_id, constraint, scan, False)
            return
        self._visit(left_id, constraint, scan, True)
        self._visit(right_id, constraint, scan, True)
