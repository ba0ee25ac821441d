"""Balanced simplicial partitions (the Theorem 5.1 interface).

Matoušek's theorem guarantees, for any point set S and parameter r, a
*balanced simplicial partition* ``{(S_1, Δ_1), ..., (S_r, Δ_r)}`` — disjoint
subsets of roughly equal size, each enclosed in a simplex — such that any
hyperplane crosses only O(r^{1-1/d}) simplices.  The partition trees of
Sections 5 and 6 use nothing else about the construction.

Two partitioners are provided:

* :func:`median_cut_partition` — recursive median splits along alternating
  axes, producing axis-aligned boxes.  A hyperplane crosses O(r^{1-1/d})
  cells of such a grid-like partition, which is the property Theorem 5.1 is
  used for; this is the default (and the substitution documented under
  "Substitutions" in README.md).
* :func:`ham_sandwich_partition` (2-D only, in :mod:`repro.geometry.hamsandwich`)
  — Willard-style partitions by ham-sandwich cuts, used by the ablation
  benchmark.

Both return :class:`PartitionCell` objects pairing a point subset with a
cell that supports the classification tests the trees need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.boxes import (CELL_RELATIONS, Box, CellRelation,
                                  classify_boxes_halfspace)
from repro.geometry.primitives import Hyperplane


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
    pieces: List[np.ndarray] = [indices]
    # Repeatedly split the largest piece until we have r pieces (or pieces of
    # size one).  Splitting the largest first keeps the partition balanced.
    while len(pieces) < r:
        largest_position = max(range(len(pieces)), key=lambda i: len(pieces[i]))
        largest = pieces[largest_position]
        if len(largest) <= 1:
            break
        first_half, second_half = _median_split(points, largest)
        pieces[largest_position] = first_half
        pieces.append(second_half)
    cells: List[PartitionCell] = []
    for piece in pieces:
        if len(piece) == 0:
            continue
        box = Box.of_points(points[piece])
        cells.append(PartitionCell(indices=piece, cell=box))
    return cells


def _median_split(points: np.ndarray,
                  indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``indices`` at the median of the widest axis of their spread."""
    subset = points[indices]
    spreads = subset.max(axis=0) - subset.min(axis=0)
    axis = int(np.argmax(spreads))
    order = np.argsort(subset[:, axis], kind="mergesort")
    middle = len(order) // 2
    return indices[order[:middle]], indices[order[middle:]]


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


def is_balanced(cells: Sequence[PartitionCell], total: int,
                slack: float = 2.0) -> bool:
    """Check the balance condition ``N/r <= |S_i| <= slack * N/r`` loosely.

    Cells created from very small subsets (fewer points than cells) are
    exempt, mirroring the way the partition trees only request partitions of
    subsets with many more points than the fan-out.
    """
    if not cells:
        return True
    r = len(cells)
    target = total / r
    for cell in cells:
        if cell.size > slack * target + 1:
            return False
    return True
