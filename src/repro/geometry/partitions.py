"""Balanced simplicial partitions (the Theorem 5.1 interface).

Matoušek's theorem guarantees, for any point set S and parameter r, a
*balanced simplicial partition* ``{(S_1, Δ_1), ..., (S_r, Δ_r)}`` — disjoint
subsets of roughly equal size, each enclosed in a simplex — such that any
hyperplane crosses only O(r^{1-1/d}) simplices.  The partition trees of
Sections 5 and 6 use nothing else about the construction.

Two partitioners are provided:

* Median cuts (the default, and the substitution documented under
  "Substitutions" in README.md): the largest piece — the first of equal
  ones — is halved at the median of its widest axis, the first half kept
  in place and the second appended, until ``r`` pieces exist; each piece's
  cell is its bounding box.  A hyperplane crosses O(r^{1-1/d}) cells of
  such a grid-like partition, which is the property Theorem 5.1 is used
  for.  Which piece is split when depends on sizes only
  (:func:`split_schedule`), so a whole tree's partitions are built
  breadth-first by :func:`median_cut_hierarchy`: every column is argsorted
  once, every piece is a run of each of those lists, and one vectorised
  round of :meth:`MedianCuts.split` halves every piece of one split depth
  at once, across all nodes of one tree depth, by a stable partition of
  the lists — no sort.  A piece keeps the order the per-split recursion
  gives it (its parent's, stably sorted by the split axis): on an axis
  with no repeated coordinate that is the run of the axis's list; an axis
  with ties is sorted by one segmented ``lexsort`` per round instead.
  :func:`median_cut_partition` is the one-node case of the same rounds.
* :func:`ham_sandwich_partition` (2-D only, in :mod:`repro.geometry.hamsandwich`)
  — Willard-style partitions by ham-sandwich cuts, used by the ablation
  benchmark; :func:`partitioner_hierarchy` calls it once per node.

Both produce :class:`PartitionCell` objects (or, for a whole tree,
:class:`PartitionNode` records) pairing a point subset with a box.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.boxes import CELL_RELATIONS, Box, CellRelation
from repro.geometry.primitives import Hyperplane, classify_boxes_halfspace


@dataclass
class PartitionCell:
    """One pair ``(S_i, Δ_i)`` of a simplicial partition.

    ``indices`` are positions into the original point array, so callers can
    keep a single copy of the data and address subsets by index.
    """

    indices: np.ndarray
    cell: Box

    @property
    def size(self) -> int:
        """Number of points assigned to the cell."""
        return int(len(self.indices))


Partitioner = Callable[[np.ndarray, int, Optional[np.ndarray]],
                       List[PartitionCell]]


class PartitionNode(NamedTuple):
    """One node of a partition hierarchy: its points, in its own order
    (positions into the point array), and — unless it is a leaf — the
    node numbers of its cells' subtrees with the cells' boxes as one
    ``(len(children), 2d)`` matrix of ``(*lower, *upper)`` rows."""

    indices: np.ndarray
    children: Sequence[int]
    corners: Optional[np.ndarray]


@lru_cache(maxsize=256)
def split_schedule(n: int, r: int) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """The median cuts of ``n`` points into at most ``r`` pieces, as runs.

    Split the largest piece (the first of equal ones) into its first
    ``size // 2`` and the rest, keep the first half in place and append
    the second, until ``r`` pieces exist or every piece is one point.  A
    piece is a run ``(start, size)`` of its node's order, its halves side
    by side.  Returns the runs split at each depth (a piece made by a
    depth-k split is split at depth k + 1, so one depth's runs are
    disjoint) as ``(m, 2)`` arrays, and the final pieces, in piece order,
    as one ``(pieces, 2)`` array.  Read-only: the result is shared.
    """
    pieces = [(0, n, 0)]
    largest = [(-n, 0)]        # (-size, position): the first of equal ones
    depths: List[List[Tuple[int, int]]] = []
    while len(pieces) < r:
        position = largest[0][1]
        start, size, depth = pieces[position]
        if size <= 1:
            break
        half = size // 2
        pieces[position] = (start, half, depth + 1)
        pieces.append((start + half, size - half, depth + 1))
        heapq.heapreplace(largest, (-half, position))
        heapq.heappush(largest, (half - size, len(pieces) - 1))
        if depth == len(depths):
            depths.append([])
        depths[depth].append((start, size))
    runs = tuple(np.array(splits, dtype=np.intp).reshape(-1, 2)
                 for splits in depths)
    final = np.array([piece[:2] for piece in pieces], dtype=np.intp)
    for array in runs + (final,):
        array.setflags(write=False)
    return runs, final


class MedianCuts:
    """An ``(n, d)`` point matrix under median cuts, every piece a run.

    ``order`` lists the row numbers piece after piece, each piece in the
    order the per-split recursion gives it.  Beside it, one list per axis
    holds the same runs, each sorted by that coordinate: the columns are
    argsorted once, and every :meth:`split` stably partitions each list's
    runs, which keeps them sorted.  The two ends of a run of an axis's
    list are its piece's extent on that axis, and on an axis without a
    repeated coordinate the run *is* the piece sorted by that axis.
    """

    def __init__(self, values: np.ndarray):
        self._values = values
        self.order = np.arange(len(values))
        columns = np.ascontiguousarray(values.T)
        self._lists = np.argsort(columns, axis=1)
        ascending = np.take_along_axis(columns, self._lists, axis=1)
        #: Per axis: some coordinate repeats (or is NaN), so the sorted
        #: order of a piece depends on its order, not on the list's.
        self._ties = ~np.all(ascending[:, 1:] > ascending[:, :-1], axis=1)
        self._axes = np.arange(values.shape[1])

    def split(self, runs: np.ndarray) -> None:
        """Halve every run of ``runs`` (``(m, 2)`` disjoint ``(start,
        size)``, sizes >= 2) at the median of its widest axis — the first
        of equally wide ones — in one vectorised round."""
        starts, sizes = runs[:, 0], runs[:, 1]
        halves = sizes // 2
        lefts_before = np.cumsum(halves) - halves
        positions = np.arange(sizes.sum()) + np.repeat(
            starts - (np.cumsum(sizes) - sizes), sizes)
        lowest, highest = self._extents(starts, sizes)
        axes = np.argmax(highest - lowest, axis=1)
        order = self._lists.ravel().take(
            np.repeat(axes * len(self.order), sizes) + positions)
        tied = self._ties[axes]
        if tied.any():
            # The recursion's order: the piece's, stably sorted.
            pick = np.repeat(tied, sizes)
            members = self.order[positions[pick]]
            coordinates = self._values[members, np.repeat(axes[tied],
                                                          sizes[tied])]
            pieces = np.repeat(np.arange(len(runs))[tied], sizes[tied])
            order[pick] = members[np.lexsort((coordinates, pieces))]
        self.order[positions] = order
        goes_left = np.empty(len(self.order), dtype=bool)
        goes_left[order] = positions < np.repeat(starts + halves, sizes)
        # The stable partition of every list: each run's lefts first,
        # then its rights, each in the list's order.
        members = self._lists.take(positions, axis=1)
        left = goes_left[members]
        lefts = np.cumsum(left, axis=1)
        target = (positions + np.repeat(halves + lefts_before, sizes)) - lefts
        np.add(lefts, np.repeat(starts - lefts_before - 1, sizes), out=target,
               where=left)
        self._lists[self._axes[:, None], target] = members

    def corners(self, runs: np.ndarray) -> np.ndarray:
        """The bounding boxes of unsplit pieces ``runs``, one
        ``(*lower, *upper)`` row each."""
        return np.hstack(self._extents(runs[:, 0], runs[:, 1]))

    def _extents(self, starts: np.ndarray, sizes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Per run, the lowest and highest coordinate on every axis."""
        ends = self._lists.take(np.concatenate((starts, starts + sizes - 1)),
                                axis=1)
        extremes = self._values[ends.T, self._axes]
        return extremes[:len(starts)], extremes[len(starts):]


def median_cut_partition(points: np.ndarray, r: int,
                         indices: Optional[np.ndarray] = None
                         ) -> List[PartitionCell]:
    """Partition ``points`` into at most ``r`` balanced box cells.

    The split tree halves the current subset at the median of its widest
    axis until ``r`` leaves exist; each leaf yields one cell whose box is the
    bounding box of its points.  Subset sizes differ by at most a factor of
    two, as required by the definition of a *balanced* partition.
    """
    if r < 1:
        raise ValueError("partition size r must be >= 1, got %r" % r)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array of shape (N, d)")
    if indices is None:
        indices = np.arange(len(points))
    if len(indices) == 0:
        return []
    cuts = MedianCuts(points[indices])
    depths, pieces = split_schedule(len(indices), r)
    for runs in depths:
        cuts.split(runs)
    order = indices[cuts.order]
    d = points.shape[1]
    return [PartitionCell(indices=order[start:start + size],
                          cell=Box(tuple(corner[:d]), tuple(corner[d:])))
            for (start, size), corner in zip(pieces.tolist(),
                                             cuts.corners(pieces).tolist())]


def median_cut_hierarchy(points: np.ndarray, fanout: Callable[[int], int]
                         ) -> List[PartitionNode]:
    """A whole tree of median-cut partitions, breadth-first.

    A node of ``size`` points is partitioned into ``fanout(size)`` cells,
    or is a leaf when that is 0; node 0 is the root over every row of
    ``points``.  Each tree depth runs its nodes' split depths as
    :meth:`MedianCuts.split` rounds, so every node and cell is exactly
    what :func:`median_cut_partition` makes of the node's indices.
    """
    cuts = MedianCuts(points)
    nodes: List[PartitionNode] = []
    level = [(0, len(points))]          # this tree depth's nodes, as runs
    while level:
        # Each node's own order, as 32-bit positions while they fit (a
        # build scope holds a hierarchy while its chunk's trees build).
        order = cuts.order.astype(np.int32 if len(points) < 2 ** 31
                                  else np.intp)
        schedules = [split_schedule(size, fanout(size)) if fanout(size)
                     else None for __, size in level]
        rounds: List[List[np.ndarray]] = []
        cells: List[np.ndarray] = []
        for (start, __), schedule in zip(level, schedules):
            if schedule is None:
                continue
            depths, pieces = schedule
            for depth, runs in enumerate(depths):
                if depth == len(rounds):
                    rounds.append([])
                rounds[depth].append(runs + (start, 0))
            cells.append(pieces + (start, 0))
        for runs in rounds:
            cuts.split(np.concatenate(runs))
        children = (np.concatenate(cells) if cells
                    else np.empty((0, 2), dtype=np.intp))
        corners = cuts.corners(children)
        first = len(nodes) + len(level)
        child = first
        for (start, size), schedule in zip(level, schedules):
            count = 0 if schedule is None else len(schedule[1])
            nodes.append(PartitionNode(
                order[start:start + size], range(child, child + count),
                None if schedule is None
                else corners[child - first:child - first + count]))
            child += count
        level = children.tolist()
    return nodes


def partitioner_hierarchy(points: np.ndarray, fanout: Callable[[int], int],
                          partitioner: Partitioner) -> List[PartitionNode]:
    """:func:`median_cut_hierarchy` for any partitioner, called once per
    node (breadth-first) on the node's indices."""
    nodes = [PartitionNode(np.arange(len(points)), range(0), None)]
    number = 0
    while number < len(nodes):
        indices = nodes[number].indices
        size = len(indices)
        if fanout(size):
            cells = partitioner(points, fanout(size), indices)
            if any(cell.size >= size for cell in cells):
                raise ValueError("the partitioner left a node of %d points "
                                 "undivided" % size)
            nodes[number] = PartitionNode(
                indices, range(len(nodes), len(nodes) + len(cells)),
                np.array([cell.cell.lower + cell.cell.upper
                          for cell in cells], dtype=float))
            nodes.extend(PartitionNode(np.asarray(cell.indices), range(0),
                                       None) for cell in cells)
        number += 1
    return nodes


def crossing_number(cells: Sequence[PartitionCell],
                    hyperplane: Hyperplane) -> int:
    """Number of cells crossed by ``hyperplane`` (the Theorem 5.1 quantity)."""
    if not cells:
        return 0
    codes = classify_boxes_halfspace(
        np.array([cell.cell.lower for cell in cells], dtype=float),
        np.array([cell.cell.upper for cell in cells], dtype=float), hyperplane)
    return int(np.count_nonzero(
        codes == CELL_RELATIONS.index(CellRelation.CROSSES)))


def max_crossing_number(cells: Sequence[PartitionCell],
                        hyperplanes: Sequence[Hyperplane]) -> int:
    """Maximum crossing number over a family of query hyperplanes."""
    return max((crossing_number(cells, hyperplane) for hyperplane in hyperplanes),
               default=0)
