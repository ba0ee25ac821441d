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
from repro.geometry.boxes import CELL_RELATIONS, Box, CellRelation
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

    def check_invariants(self) -> None:
        """Raise AssertionError unless the stored tree is the one the
        build promises, as read back from the disk.

        Node records are packed B per block in id order; a child's id is
        below its parent's, every node but the root (the last) is one
        node's child, an internal box holds its children's boxes and a
        leaf's box its points; every leaf array is referenced once and
        holds 1 to ``leaf_capacity`` points, N in all.  The blocks are
        read from the backend directly, so no I/O is charged and the
        buffer pool is untouched.
        """
        backend = self._store.backend
        B = self.block_size

        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError(message % values)

        blocks = [backend.get_payload(block_id)
                  for block_id in self._node_block_ids]
        records = [record for block in blocks for record in block]
        count = len(records)
        check([len(block) for block in blocks]
              == [min(B, count - start) for start in range(0, count, B)]
              and self._node_position == [divmod(node_id, B)
                                          for node_id in range(count)],
              "%d node records are not packed %d per block in id order",
              count, B)
        check(self._root == (count - 1 if count else None),
              "the root is node %r of %d", self._root, count)
        boxes = [(np.asarray(record[-2]), np.asarray(record[-1]))
                 for record in records]
        parents = [0] * count
        leaves = [0] * len(self._leaf_arrays)
        total = 0
        for node_id, record in enumerate(records):
            lower, upper = boxes[node_id]
            if record[0] == _LEAF:
                check(0 <= record[1] < len(leaves), "leaf node %d names "
                      "leaf array %r", node_id, record[1])
                leaves[record[1]] += 1
                array = self._leaf_arrays[record[1]]
                array.check_invariants()
                rows = np.concatenate([np.empty((0, self._dimension))] + [
                    np.asarray(backend.get_payload(block_id), dtype=float)
                    for block_id in array.block_ids])
                check(1 <= len(rows) <= self._leaf_capacity, "leaf node %d "
                      "holds %d points, its capacity %d", node_id,
                      len(rows), self._leaf_capacity)
                check(bool(np.all((lower <= rows) & (rows <= upper))),
                      "the box of leaf node %d does not hold its points",
                      node_id)
                total += len(rows)
                continue
            for child_id in record[1:3]:
                check(0 <= child_id < node_id, "node %d lists child %r",
                      node_id, child_id)
                parents[child_id] += 1
                low, high = boxes[child_id]
                check(bool(np.all(lower <= low) and np.all(high <= upper)),
                      "the box of node %d does not hold its child %d",
                      node_id, child_id)
        # (no child id reaches the root's, the last)
        check(parents[:-1] == [1] * (count - 1), "the nodes are no tree: "
              "parent counts %r", parents)
        check(leaves == [1] * len(leaves), "leaf arrays are referenced "
              "%r times", leaves)
        check(total == self._num_points, "the leaves hold %d of %d points",
              total, self._num_points)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        return self._num_points

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points by descending into crossed regions."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        scan = kernels.DeferredScan(self._dimension, constraint)
        if self._root is not None:
            self._visit(self._root, constraint, scan, filter_points=True)
        return scan.flush()

    def _visit(self, node_id: int, constraint: LinearConstraint,
               scan: kernels.DeferredScan, filter_points: bool) -> None:
        record = self._read_node(node_id)
        if record[0] == _LEAF:
            scan.add(self._leaf_arrays[record[1]], filtered=filter_points)
            return
        __, left_id, right_id, lower, upper = record
        if not filter_points:
            self._visit(left_id, constraint, scan, False)
            self._visit(right_id, constraint, scan, False)
            return
        relation = CELL_RELATIONS[constraint.classify_boxes(
            np.array([lower]), np.array([upper]))[0]]
        if relation is CellRelation.ABOVE:
            return
        if relation is CellRelation.BELOW:
            self._visit(left_id, constraint, scan, False)
            self._visit(right_id, constraint, scan, False)
            return
        self._visit(left_id, constraint, scan, True)
        self._visit(right_id, constraint, scan, True)
