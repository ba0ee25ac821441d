"""The linear-size partition tree of Section 5 (Theorem 5.2).

``PartitionTreeIndex`` stores N points of R^d in O(n) disk blocks and
answers a halfspace query in O(n^{1-1/d+ε} + t) I/Os; the same traversal
also answers simplex queries (Remark i).  Every node holds a balanced
simplicial partition of its point subset into ``r_v = min(cB, 2 n_v)``
cells; a query visits a child only when the query hyperplane *crosses* its
cell, reports whole subtrees whose cells lie below the hyperplane, and
skips cells entirely above it.

The partition cells are produced by a pluggable partitioner (median-cut
boxes by default, ham-sandwich cells for the 2-D ablation) — the only
property the analysis needs is the o(r) crossing number of Theorem 5.1,
which both partitioners provide for hyperplane queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex, Point
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.partitions import PartitionCell, median_cut_partition
from repro.geometry.primitives import Hyperplane, LinearConstraint
from repro.geometry.simplex import Simplex
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

Partitioner = Callable[[np.ndarray, int, Optional[np.ndarray]], List[PartitionCell]]


@dataclass
class _Node:
    """One partition-tree node.

    Leaves store their points in ``points_array``; internal nodes store a
    disk-resident child table (one record per child: child id + its cell's
    box corners) plus the in-memory ids of their children.
    """

    is_leaf: bool
    size: int
    points_array: Optional[DiskArray] = None
    child_table: Optional[DiskArray] = None
    children: List[int] = field(default_factory=list)


class PartitionTreeIndex(ExternalIndex):
    """Linear-space halfspace/simplex reporting for any fixed dimension.

    Parameters
    ----------
    points:
        Array-like of shape (N, d).
    store / block_size:
        The simulated disk (a private one is created when ``store`` is None).
    max_fanout:
        The constant ``cB`` bounding the partition size at every node;
        defaults to the block size.
    leaf_capacity:
        Leaves hold at most this many points (defaults to B).
    partitioner:
        Callable building the balanced simplicial partition; defaults to
        :func:`repro.geometry.partitions.median_cut_partition`.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 max_fanout: Optional[int] = None,
                 leaf_capacity: Optional[int] = None,
                 partitioner: Optional[Partitioner] = None):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, 2)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (N, d)")
        self._points = points
        self._num_points = len(points)
        self._dimension = points.shape[1]
        self._max_fanout = max_fanout if max_fanout is not None else self.block_size
        self._leaf_capacity = leaf_capacity if leaf_capacity is not None else self.block_size
        self._partitioner = partitioner if partitioner is not None else median_cut_partition
        self._nodes: List[_Node] = []
        self._last_nodes_visited = 0
        self._begin_space_accounting()
        if self._num_points:
            self._root = self._build(np.arange(self._num_points))
        else:
            self._root = None
        self._end_space_accounting()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, indices: np.ndarray) -> int:
        size = len(indices)
        if size <= self._leaf_capacity:
            records = [tuple(self._points[index]) for index in indices]
            node = _Node(is_leaf=True, size=size,
                         points_array=DiskArray(self._store, records))
            self._nodes.append(node)
            return len(self._nodes) - 1
        blocks = -(-size // self.block_size)
        fanout = max(2, min(self._max_fanout, 2 * blocks))
        cells = self._partitioner(self._points, fanout, indices)
        children: List[int] = []
        table_records = []
        for cell in cells:
            child_id = self._build(np.asarray(cell.indices))
            children.append(child_id)
            table_records.append((child_id, tuple(cell.cell.lower),
                                  tuple(cell.cell.upper)))
        node = _Node(is_leaf=False, size=size,
                     child_table=DiskArray(self._store, table_records),
                     children=children)
        self._nodes.append(node)
        return len(self._nodes) - 1

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def num_nodes(self) -> int:
        """Total number of tree nodes."""
        return len(self._nodes)

    @property
    def last_nodes_visited(self) -> int:
        """Nodes whose cell was crossed during the most recent query."""
        return self._last_nodes_visited

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Theorem 5.2 bound: O(n^{1-1/d} + t) I/Os (ε dropped)."""
        del constraint
        blocks = max(1, self._store.blocks_for(max(1, self.size)))
        search = float(blocks) ** (1.0 - 1.0 / self.dimension)
        return 1.0 + search + self._output_blocks(expected_output)

    # ------------------------------------------------------------------
    # halfspace queries
    # ------------------------------------------------------------------
    def query(self, constraint: LinearConstraint) -> List[Point]:
        """Report every stored point satisfying the linear constraint."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        results = kernels.PointRows()
        if self._root is None:
            return results
        hyperplane = constraint.hyperplane
        self._last_nodes_visited = 0
        self._query_node(self._root, hyperplane, constraint, results)
        return results

    def _query_node(self, node_id: int, hyperplane: Hyperplane,
                    constraint: LinearConstraint, results: kernels.PointRows) -> None:
        node = self._nodes[node_id]
        self._last_nodes_visited += 1
        if node.is_leaf:
            kernels.filter_constraint(node.points_array, constraint,
                                      out=results)
            return
        for record in node.child_table.scan():
            child_id, lower, upper = record
            box = Box(lower, upper)
            relation = box.classify_halfspace(hyperplane)
            if relation is CellRelation.ABOVE:
                continue
            if relation is CellRelation.BELOW:
                self.report_subtree(child_id, results)
            else:
                self._query_node(child_id, hyperplane, constraint, results)

    def report_subtree(self, node_id: int, results: kernels.PointRows) -> None:
        """Append every point stored under ``node_id`` (no filtering)."""
        node = self._nodes[node_id]
        if node.is_leaf:
            kernels.collect_records(node.points_array, out=results)
            return
        for record in node.child_table.scan():
            self.report_subtree(record[0], results)

    # ------------------------------------------------------------------
    # simplex queries (Section 5, Remark i)
    # ------------------------------------------------------------------
    def query_simplex(self, simplex: Simplex) -> List[Point]:
        """Report every stored point inside ``simplex``."""
        results = kernels.PointRows()
        if self._root is None:
            return results
        self._query_simplex_node(self._root, simplex, results)
        return results

    def _query_simplex_node(self, node_id: int, simplex: Simplex,
                            results: kernels.PointRows) -> None:
        node = self._nodes[node_id]
        if node.is_leaf:
            kernels.filter_simplex(node.points_array, simplex, out=results)
            return
        for record in node.child_table.scan():
            child_id, lower, upper = record
            box = Box(lower, upper)
            if simplex.certainly_disjoint_from_box(box):
                continue
            if simplex.contains_box(box):
                self.report_subtree(child_id, results)
            else:
                self._query_simplex_node(child_id, simplex, results)
