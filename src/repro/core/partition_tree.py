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

from dataclasses import dataclass
from itertools import repeat
from typing import (Callable, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex, Point
from repro.geometry.boxes import (CELL_RELATIONS, Box, CellRelation,
                                  classify_boxes_halfspace)
from repro.geometry.partitions import PartitionCell, median_cut_partition
from repro.geometry.primitives import Hyperplane, LinearConstraint
from repro.geometry.simplex import Simplex
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

Partitioner = Callable[[np.ndarray, int, Optional[np.ndarray]], List[PartitionCell]]


@dataclass
class _Node:
    """One node of a cell tree.

    A leaf stores its points in ``points_array``; an internal node stores
    a disk-resident cell table (:func:`encode_cells`).  ``secondary`` and
    ``crossing_threshold`` are the shallow tree's, ``leaf_index`` is the
    hybrid structure's.
    """

    is_leaf: bool
    size: int
    points_array: Optional[DiskArray] = None
    child_table: Optional[DiskArray] = None
    secondary: Optional["PartitionTreeIndex"] = None
    crossing_threshold: int = 0
    leaf_index: Optional[ExternalIndex] = None


# ----------------------------------------------------------------------
# the cell table: one record per child, (child id, lower, upper) flat
# ----------------------------------------------------------------------
def encode_cells(child_ids: Sequence[int],
                 cells: Sequence[PartitionCell]) -> np.ndarray:
    """One flat float row ``(child_id, *lower, *upper)`` per cell, so a
    table block is columnar: one ``(fanout, 1 + 2d)`` float64 matrix
    from here to the buffer pool and the file backends."""
    return np.array([(child_id, *cell.cell.lower, *cell.cell.upper)
                     for child_id, cell in zip(child_ids, cells)],
                    dtype=float)


def scan_cells(child_table: DiskArray
               ) -> Iterator[Tuple[int, Tuple[float, ...], Tuple[float, ...]]]:
    """``(child_id, lower, upper)`` per table record, one block read at
    a time: the record-at-a-time reader."""
    for record in child_table.scan():
        split = (len(record) + 1) // 2
        yield int(record[0]), record[1:split], record[split:]


def scan_child_ids(child_table: DiskArray) -> Iterator[List[int]]:
    """The child ids of the table's records (an unfiltered report looks
    at no box), one list per block read."""
    if not kernels.vectorized_enabled():
        for child_id, __, __ in scan_cells(child_table):
            yield [child_id]
        return
    for matrix in child_table.scan_batches():
        yield matrix[:, 0].astype(np.intp).tolist()


def classify_cells(child_table: DiskArray, hyperplane: Hyperplane
                   ) -> Iterator[List[Tuple[int, CellRelation]]]:
    """``(child_id, relation)`` for every cell of the table not ABOVE
    ``hyperplane``, in record order, one list per block read.

    Lazy, one table block at a time — a caller that descends into the
    cells of one block before asking for the next reads blocks in the
    order the record-at-a-time loop does — and each block is classified
    in one :func:`classify_boxes_halfspace` call.  Under
    :func:`kernels.scalar_kernels` it is that loop, a cell at a time.
    """
    if not kernels.vectorized_enabled():
        for child_id, lower, upper in scan_cells(child_table):
            relation = Box(lower, upper).classify_halfspace(hyperplane)
            if relation is not CellRelation.ABOVE:
                yield [(child_id, relation)]
        return
    for matrix in child_table.scan_batches():
        split = (matrix.shape[1] + 1) // 2
        codes = classify_boxes_halfspace(matrix[:, 1:split],
                                         matrix[:, split:], hyperplane)
        hit = np.flatnonzero(codes)
        yield list(zip(matrix[hit, 0].astype(np.intp).tolist(),
                       map(CELL_RELATIONS.__getitem__, codes[hit].tolist())))


class CellTreeIndex(ExternalIndex):
    """What the partition trees of Sections 5 and 6 share: the recursive
    build over balanced partitions, the cell tables and the descent.

    A query visits a child only when the query hyperplane *crosses* its
    cell, reports whole subtrees whose cells lie below the hyperplane and
    skips cells entirely above it.  Leaves hand their blocks to one
    :class:`kernels.DeferredScan` per query.  Subclasses set their own
    parameters, then call :meth:`_build_tree`; they vary the node
    contents (:meth:`_leaf_node`, :meth:`_internal_node`) and what
    happens at a crossed node (:meth:`_query_leaf`, :meth:`_cells`).
    """

    def _build_tree(self, points: Sequence[Sequence[float]],
                    empty_dimension: int, max_fanout: Optional[int],
                    leaf_size: int,
                    partitioner: Optional[Partitioner]) -> None:
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, empty_dimension)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (N, d)")
        self._points = points
        self._max_fanout = max_fanout if max_fanout is not None else self.block_size
        self._leaf_size = leaf_size
        self._partitioner = partitioner if partitioner is not None else median_cut_partition
        self._nodes: List[_Node] = []
        self._last_nodes_visited = 0
        self._begin_space_accounting()
        self._root = self._build(np.arange(len(points))) if len(points) else None
        self._end_space_accounting()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, indices: np.ndarray) -> int:
        size = len(indices)
        if size <= self._leaf_size:
            node = self._leaf_node(indices)
        else:
            blocks = -(-size // self.block_size)
            fanout = max(2, min(self._max_fanout, 2 * blocks))
            cells = self._partitioner(self._points, fanout, indices)
            child_ids = [self._build(np.asarray(cell.indices)) for cell in cells]
            node = self._internal_node(indices, encode_cells(child_ids, cells))
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _leaf_node(self, indices: np.ndarray) -> _Node:
        return _Node(is_leaf=True, size=len(indices),
                     points_array=DiskArray.from_matrix(
                         self._store, self._points[indices]))

    def _internal_node(self, indices: np.ndarray,
                       cell_table: np.ndarray) -> _Node:
        return _Node(is_leaf=False, size=len(indices),
                     child_table=DiskArray.from_matrix(self._store,
                                                       cell_table))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    @property
    def size(self) -> int:
        return len(self._points)

    @property
    def num_nodes(self) -> int:
        """Total number of tree nodes."""
        return len(self._nodes)

    @property
    def last_nodes_visited(self) -> int:
        """Nodes whose cell was crossed during the most recent query."""
        return self._last_nodes_visited

    # ------------------------------------------------------------------
    # halfspace queries
    # ------------------------------------------------------------------
    def query(self, constraint: LinearConstraint) -> List[Point]:
        """Report every stored point satisfying the linear constraint."""
        return self.query_and_scan(constraint, ())

    def query_and_scan(self, constraint: LinearConstraint,
                       arrays: Iterable[DiskArray]) -> List[Point]:
        """:meth:`query`, followed by the records of the unindexed
        ``arrays`` (an insertion buffer) that satisfy the constraint —
        read after the tree's blocks, filtered in the same deferred scan."""
        if constraint.dimension != self.dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self.dimension))
        scan = kernels.DeferredScan(kernels.PointRows(), constraint.below,
                                    constraint.below_many)
        self.walk(constraint, scan)
        for array in arrays:
            scan.add(array, filtered=True)
        return scan.flush()

    def walk(self, constraint: LinearConstraint,
             scan: kernels.DeferredScan) -> None:
        """Feed ``scan`` the blocks a query with ``constraint`` reads."""
        self._last_nodes_visited = 0
        if self._root is not None:
            self._visit([(self._root, CellRelation.CROSSES)], constraint,
                        scan)

    #: A subclass's own answer to a leaf whose cell the hyperplane
    #: crosses, ``_query_leaf(node, constraint, scan)``; None: the leaf's
    #: blocks join the scan, filtered, like any other run of blocks.
    _query_leaf = None

    def _descend(self, node_id: int, constraint: LinearConstraint,
                 scan: kernels.DeferredScan) -> None:
        """A crossed node :meth:`_visit` does not scan itself."""
        node = self._nodes[node_id]
        self._last_nodes_visited += 1
        if node.is_leaf:
            self._query_leaf(node, constraint, scan)
            return
        for cells in self._cells(node, constraint, scan):
            self._visit(cells, constraint, scan)

    def _visit(self, cells: Iterable[Tuple[int, CellRelation]],
               constraint: Optional[LinearConstraint],
               scan: kernels.DeferredScan) -> None:
        """Visit the children of one table block (or the root alone),
        none of them ABOVE, in record order.  Consecutive leaves that
        only need scanning go to ``scan`` as one run — one pool call for
        their blocks — which any other child (its subtree is read before
        the next leaf) ends."""
        run_ids: List[int] = []
        run_kept: List[bool] = []
        for child_id, relation in cells:
            child = self._nodes[child_id]
            below = relation is CellRelation.BELOW
            if child.is_leaf and (below or self._query_leaf is None):
                self._last_nodes_visited += not below
                block_ids = child.points_array.block_ids
                run_ids += block_ids
                run_kept += [below] * len(block_ids)
                continue
            if run_ids:
                scan.add_blocks(self._store, run_ids, run_kept)
                run_ids, run_kept = [], []
            if below:
                self._report_subtree(child_id, scan)
            else:
                self._descend(child_id, constraint, scan)
        if run_ids:
            scan.add_blocks(self._store, run_ids, run_kept)

    def _cells(self, node: _Node, constraint: LinearConstraint,
               scan: kernels.DeferredScan
               ) -> Iterable[List[Tuple[int, CellRelation]]]:
        """The cells of a crossed internal node still to be visited, one
        list per table block."""
        del scan
        return classify_cells(node.child_table, constraint.hyperplane)

    def _report_subtree(self, node_id: int, scan: kernels.DeferredScan) -> None:
        """Every point stored under ``node_id``, unfiltered."""
        node = self._nodes[node_id]
        if node.is_leaf:
            scan.add(node.points_array, filtered=False)
            return
        for child_ids in scan_child_ids(node.child_table):
            self._visit(zip(child_ids, repeat(CellRelation.BELOW)), None,
                        scan)


class PartitionTreeIndex(CellTreeIndex):
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
        self._build_tree(points, 2, max_fanout,
                         leaf_capacity if leaf_capacity is not None else self.block_size,
                         partitioner)

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Theorem 5.2 bound: O(n^{1-1/d} + t) I/Os (ε dropped)."""
        del constraint
        blocks = max(1, self._store.blocks_for(max(1, self.size)))
        search = float(blocks) ** (1.0 - 1.0 / self.dimension)
        return 1.0 + search + self._output_blocks(expected_output)

    # ------------------------------------------------------------------
    # simplex queries (Section 5, Remark i)
    # ------------------------------------------------------------------
    def query_simplex(self, simplex: Simplex) -> List[Point]:
        """Report every stored point inside ``simplex``."""
        scan = kernels.DeferredScan(kernels.PointRows(), simplex.contains,
                                    simplex.contains_many)
        self._last_nodes_visited = 0
        if self._root is not None:
            self._descend_simplex(self._root, simplex, scan)
        return scan.flush()

    def _descend_simplex(self, node_id: int, simplex: Simplex,
                         scan: kernels.DeferredScan) -> None:
        node = self._nodes[node_id]
        self._last_nodes_visited += 1
        if node.is_leaf:
            scan.add(node.points_array, filtered=True)
            return
        for child_id, lower, upper in scan_cells(node.child_table):
            box = Box(lower, upper)
            if simplex.certainly_disjoint_from_box(box):
                continue
            if simplex.contains_box(box):
                self._report_subtree(child_id, scan)
            else:
                self._descend_simplex(child_id, simplex, scan)
