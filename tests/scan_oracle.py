"""The record-at-a-time scan loops, kept as the batch kernels' oracle.

Every index reads a block and filters it in one way: a block in its
stored form (a point block as a read-only float64 matrix) and a masked
numpy predicate over it (``repro.core.kernels``).  The loops here are
what those kernels replaced: one block read at a time, one record at a
time, the per-point predicate on each.  They read the same blocks in the
same order, so answers, row order, reads and pool hits must agree.

:func:`scalar_kernels` patches them in, for the ``with`` block, in place
of the batch readers (``CellTreeIndex.walk``, ``DeferredScan.add_blocks``,
``HalfplaneIndex2D._scan_cluster``, ``LowestPlanesIndex._planes_along``)
and of the polytope mask ``Simplex.contains_many`` (a conjunction's).
The record readers below (``scan``, ``read_all``, ``read_range``, ...)
are the loops' block reads, one ``store.read`` per block.

:func:`walk` is the cell trees' descent as it was before it became its
price's computation: recursive, one table record at a time, each cell
classified as it is read.  The one-call walk must read the same blocks
in the same order, count the same steps and answer the same rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.core import partition_tree
from repro.core.halfplane2d import HalfplaneIndex2D
from repro.core.kernels import DeferredScan
from repro.core.lowest_planes import LowestPlanesIndex
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.primitives import below_bound
from repro.geometry.simplex import Simplex

from geometry_oracle import (certainly_disjoint_from_box, classify_halfspace,
                             contains_box)


# ----------------------------------------------------------------------
# record readers: one store.read per block
# ----------------------------------------------------------------------
def store_scan(store, block_ids) -> Iterator[Any]:
    """Yield records from the given blocks one block-read at a time."""
    for block_id in block_ids:
        for record in store.read(block_id):
            yield record


def read_many(store, block_ids) -> List[Any]:
    """Read several blocks and concatenate their records in order."""
    out: List[Any] = []
    for block_id in block_ids:
        out.extend(store.read(block_id))
    return out


def scan(array) -> Iterator[Any]:
    """Yield all records of a ``DiskArray`` front to back, one block
    read at a time."""
    return store_scan(array.store, array.block_ids)


def read_all(array) -> List[Any]:
    """Read the whole array into memory (⌈N/B⌉ read I/Os)."""
    return read_many(array.store, array.block_ids)


def read_block(array, index: int) -> List[Any]:
    """Read the records of the ``index``-th block (one I/O)."""
    return array.store.read(array.block_ids[index])


def read_range(array, start: int, stop: int) -> List[Any]:
    """Read records in ``[start, stop)`` touching only the needed blocks:
    exactly ``last_block - first_block + 1`` block reads."""
    if start < 0 or stop > len(array) or start > stop:
        raise IndexError("invalid range [%d, %d) for length %d"
                         % (start, stop, len(array)))
    if start == stop:
        return []
    store, block_ids = array.store, array.block_ids
    B = store.block_size
    first_block = start // B
    last_block = (stop - 1) // B
    records: List[Any] = []
    for block_index in range(first_block, last_block + 1):
        block = store.read(block_ids[block_index])
        lo = start - block_index * B if block_index == first_block else 0
        hi = stop - block_index * B if block_index == last_block else len(block)
        records.extend(block[lo:hi] if (lo, hi) != (0, len(block)) else block)
    return records


# ----------------------------------------------------------------------
# the scan loops
# ----------------------------------------------------------------------
def scan_cells(child_table) -> Iterator[Tuple[int, Tuple[float, ...],
                                             Tuple[float, ...]]]:
    """``(child_id, lower, upper)`` per table record, one block read at
    a time."""
    for record in scan(child_table):
        split = (len(record) + 1) // 2
        yield int(record[0]), record[1:split], record[split:]


def classify_cells(child_table, region
                   ) -> Iterator[Tuple[int, CellRelation]]:
    """``(child_id, relation)`` for every cell of the table not ABOVE
    ``region``, in record order, a cell at a time: the corner tests of
    :meth:`Box.classify_halfspace` for a constraint, the box-at-a-time
    polytope tests for a :class:`Simplex`."""
    polytope = isinstance(region, Simplex)
    for child_id, lower, upper in scan_cells(child_table):
        box = Box(lower, upper)
        relation = classify_halfspace(box, region.hyperplane) \
            if not polytope else CellRelation.ABOVE \
            if certainly_disjoint_from_box(region, box) else \
            CellRelation.BELOW if contains_box(region, box) else \
            CellRelation.CROSSES
        if relation is not CellRelation.ABOVE:
            yield child_id, relation


def walk(self, region, scan) -> None:
    """``CellTreeIndex.walk`` as a recursion over the stored tables, a
    record at a time: a leaf's blocks join the scan when its record is
    read, a crossed node is descended into before the next record."""
    if self._root is not None:
        _visit(self, [(self._root, CellRelation.CROSSES)], region, scan)


def _visit(tree, cells: Iterable[Tuple[int, CellRelation]], region,
           scan) -> None:
    """Visit the cells (none ABOVE) in order."""
    for child_id, relation in cells:
        child = tree._nodes[child_id]
        below = relation is CellRelation.BELOW
        if child.is_leaf and (below or child.leaf_index is None):
            scan.crossed += not below
            block_ids = child.points_array.block_ids
            scan.add_blocks(tree._store, block_ids, [below] * len(block_ids))
        elif below:
            _visit(tree, ((grandchild, CellRelation.BELOW) for grandchild,
                          __, __ in scan_cells(child.child_table)), None,
                   scan)
        else:
            _descend(tree, child, region, scan)


def _descend(tree, node, region, scan) -> None:
    """A crossed node: a leaf with a structure of its own is that
    structure's; a shallow tree's node reads its whole table and hands
    the query to its secondary tree when it crosses more cells than it
    tolerates."""
    scan.crossed += 1
    if node.is_leaf:
        tree._answer_delegated(node, region, scan)
        return
    cells = classify_cells(node.child_table, region)
    if node.secondary is not None:
        cells = list(cells)
        crossed = sum(relation is CellRelation.CROSSES
                      for __, relation in cells)
        if crossed > node.crossing_threshold:
            tree._answer_delegated(node, region, scan)
            return
    _visit(tree, cells, region, scan)


def add_blocks(self, store, block_ids, kept) -> None:
    """``DeferredScan.add_blocks`` with nothing deferred: each block is
    read on its own and ``keep_one`` runs over its records on the spot."""
    for block_id, keep in zip(block_ids, kept):
        self._select(store.read(block_id), not keep)


def scan_cluster(self, layer, cluster_index: int, query_x: float,
                 query_y: float, reported,
                 above_set: Optional[Set[float]] = None) -> Tuple[int, int]:
    """``HalfplaneIndex2D._scan_cluster``, a record at a time; the
    below-records join the answer as one matrix per cluster."""
    cluster = layer.clusters[cluster_index]
    below = 0
    above = 0
    records = []
    for record in scan(cluster):
        global_index, slope, intercept, __, __ = record
        if intercept <= below_bound((-query_x,), (slope,), query_y):
            below += 1
            records.append(record)
        else:
            above += 1
            if above_set is not None:
                above_set.add(global_index)
    if records:
        reported.matrices.append(np.array(records, dtype=np.float64))
    return below, above


def planes_along(self, array, start: int, stop: int) -> np.ndarray:
    """``LowestPlanesIndex._planes_along``, a record at a time."""
    return np.array(read_range(array, start, stop),
                    dtype=np.float64).reshape(-1, 4)


def contained_rows(self, points: np.ndarray) -> np.ndarray:
    """``Simplex.contains_many`` as a row loop over
    :meth:`Simplex.contains`."""
    return np.array([self.contains(point) for point in points.tolist()],
                    dtype=bool)


#: What :func:`scalar_kernels` swaps in: (owner, attribute, oracle).
ORACLES = (
    (partition_tree.CellTreeIndex, "walk", walk),
    (DeferredScan, "add_blocks", add_blocks),
    (HalfplaneIndex2D, "_scan_cluster", scan_cluster),
    (LowestPlanesIndex, "_planes_along", planes_along),
    (Simplex, "contains_many", contained_rows),
)


@contextmanager
def scalar_kernels() -> Iterator[None]:
    """Run the ``with`` block on the record loops above instead of the
    batch kernels; nested blocks are fine, and everything is restored on
    exit."""
    with pytest.MonkeyPatch.context() as patch:
        for owner, name, oracle in ORACLES:
            patch.setattr(owner, name, oracle)
        yield
