"""Shallow partition trees (Section 6, Theorem 6.3).

``ShallowPartitionTreeIndex`` trades a log factor of space for query time:
it uses O(n log_B n) blocks and answers a halfspace query in O(n^ε + t)
I/Os (in R^3, and O(n^{1-1/⌊d/2⌋+ε} + t) in higher dimensions).

Every internal node stores, besides its balanced partition, a *secondary*
ordinary partition tree over the same point subset.  A query that crosses
more than ``β log2 r_v`` of the node's cells cannot be shallow with respect
to the subset (Matoušek's Theorem 6.2); in that case the output below the
hyperplane within the subtree is Ω(N_v / r), so handing the query to the
secondary structure costs O(n_v^{1-1/d} + t_v) = O(t_v) I/Os and the
recursion only ever continues through few crossed cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex, Point
from repro.core.partition_tree import PartitionTreeIndex, Partitioner
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.partitions import median_cut_partition
from repro.geometry.primitives import Hyperplane, LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


@dataclass
class _ShallowNode:
    """A node of the shallow tree (leaf, or internal with secondary tree)."""

    is_leaf: bool
    size: int
    points_array: Optional[DiskArray] = None
    child_table: Optional[DiskArray] = None
    children: List[int] = field(default_factory=list)
    secondary: Optional[PartitionTreeIndex] = None
    crossing_threshold: int = 0


class ShallowPartitionTreeIndex(ExternalIndex):
    """O(n log_B n)-space, O(n^ε + t)-I/O halfspace reporting.

    Parameters
    ----------
    shallow_factor:
        The constant β in the shallowness test ``crossed > β log2 r_v``.
    Other parameters are as for :class:`PartitionTreeIndex`.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 max_fanout: Optional[int] = None,
                 leaf_capacity: Optional[int] = None,
                 shallow_factor: float = 2.0,
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
        self._shallow_factor = shallow_factor
        self._partitioner = partitioner if partitioner is not None else median_cut_partition
        self._nodes: List[_ShallowNode] = []
        self._last_secondary_queries = 0
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
            node = _ShallowNode(is_leaf=True, size=size,
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
        secondary = PartitionTreeIndex(
            self._points[indices],
            store=self._store,
            max_fanout=self._max_fanout,
            leaf_capacity=self._leaf_capacity,
            partitioner=self._partitioner,
        )
        threshold = max(1, int(math.ceil(self._shallow_factor
                                         * math.log2(max(2, len(cells))))))
        node = _ShallowNode(is_leaf=False, size=size,
                            child_table=DiskArray(self._store, table_records),
                            children=children,
                            secondary=secondary,
                            crossing_threshold=threshold)
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
    def last_secondary_queries(self) -> int:
        """How often the last query fell back to a secondary tree."""
        return self._last_secondary_queries

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Theorem 6.3 bound: O(n^ε + t) I/Os (ε taken as 1/4)."""
        del constraint
        blocks = max(1, self._store.blocks_for(max(1, self.size)))
        return 1.0 + float(blocks) ** 0.25 + self._output_blocks(expected_output)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, constraint: LinearConstraint) -> List[Point]:
        """Report every stored point satisfying the linear constraint."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        results = kernels.PointRows()
        if self._root is None:
            return results
        self._last_secondary_queries = 0
        self._query_node(self._root, constraint.hyperplane, constraint, results)
        return results

    def _query_node(self, node_id: int, hyperplane: Hyperplane,
                    constraint: LinearConstraint, results: kernels.PointRows) -> None:
        node = self._nodes[node_id]
        if node.is_leaf:
            kernels.filter_constraint(node.points_array, constraint,
                                      out=results)
            return
        # First pass over the child table: classify the cells.
        classified = []
        crossed = 0
        for record in node.child_table.scan():
            child_id, lower, upper = record
            relation = Box(lower, upper).classify_halfspace(hyperplane)
            if relation is CellRelation.CROSSES:
                crossed += 1
            classified.append((child_id, relation))
        if crossed > node.crossing_threshold:
            # The query is not shallow for this subset: answer it with the
            # node's secondary (ordinary) partition tree.
            self._last_secondary_queries += 1
            results.extend(node.secondary.query(constraint))
            return
        for child_id, relation in classified:
            if relation is CellRelation.ABOVE:
                continue
            if relation is CellRelation.BELOW:
                self._report_subtree(child_id, results)
            else:
                self._query_node(child_id, hyperplane, constraint, results)

    def _report_subtree(self, node_id: int, results: kernels.PointRows) -> None:
        node = self._nodes[node_id]
        if node.is_leaf:
            for record in node.points_array.scan():
                results.append(record)
            return
        for record in node.child_table.scan():
            self._report_subtree(record[0], results)
