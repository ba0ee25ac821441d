"""Axis-aligned boxes used as partition cells by the partition trees.

Matoušek's Theorem 5.1 only requires, of the cells of a simplicial
partition, that (a) each cell contains its subset of points and (b) few
cells are *crossed* by any query hyperplane.  The partition trees of
Sections 5 and 6 therefore work with any cell type exposing a
``classify(hyperplane)`` test; this module provides axis-aligned boxes (the
cells produced by the median-cut partitioner) and the classification logic
against hyperplanes and simplices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.primitives import EPS, Hyperplane


class CellRelation(Enum):
    """How a cell relates to the halfspace below a query hyperplane."""

    BELOW = "below"      # every point of the cell satisfies the constraint
    ABOVE = "above"      # no point of the cell satisfies the constraint
    CROSSES = "crosses"  # the hyperplane intersects the cell


#: The relation behind each code :func:`classify_boxes_halfspace` returns
#: (0 is ABOVE, so ``np.flatnonzero(codes)`` is the cells worth a visit).
CELL_RELATIONS = (CellRelation.ABOVE, CellRelation.BELOW, CellRelation.CROSSES)


def classify_boxes_halfspace(lowers: np.ndarray, uppers: np.ndarray,
                             hyperplane: Hyperplane) -> np.ndarray:
    """:meth:`Box.classify_halfspace` for n boxes at once, as codes.

    ``lowers`` / ``uppers`` are ``(n, d)`` corner matrices; the result
    indexes :data:`CELL_RELATIONS`.  Two folds stand in for the 2^d
    corners: IEEE multiply and add are monotone, so the scalar fold
    ``sum(c * x) + offset + eps`` over a box's corners is largest at the
    corner taking ``upper_i`` where ``c_i >= 0`` else ``lower_i`` and
    smallest at the opposite one.  Some corner is below iff ``lower_d``
    is below the largest fold, some corner is above iff ``upper_d`` is
    not below the smallest.  Both folds replay the scalar accumulation
    one coefficient at a time, as ``LinearConstraint.below_many`` does,
    so a cell touching the hyperplane resolves exactly as
    :meth:`Box.classify_halfspace` resolves it.
    """
    # Each fold starts from its first term, not from 0: 0 + t is t but
    # for a zero's sign, which adding the offset, then EPS > 0, erases.
    highest = lowest = None
    for axis, coefficient in enumerate(hyperplane.coeffs):
        rising = coefficient >= 0
        high = coefficient * (uppers if rising else lowers)[:, axis]
        low = coefficient * (lowers if rising else uppers)[:, axis]
        if highest is None:
            highest, lowest = high, low
        else:
            highest += high
            lowest += low
    if highest is None:                     # d = 1: no coefficient
        highest, lowest = np.zeros((2, lowers.shape[0]))
    for fold in (highest, lowest):
        fold += hyperplane.offset
        fold += EPS
    below_any = lowers[:, -1] <= highest
    above_any = ~(uppers[:, -1] <= lowest)
    return np.add(below_any, below_any & above_any, dtype=np.int8)


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box ``[lower_i, upper_i]`` in R^d."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper corners have different dimensions")
        for low, high in zip(self.lower, self.upper):
            if low > high:
                raise ValueError("box has lower > upper: %r > %r" % (low, high))

    @property
    def dimension(self) -> int:
        """Ambient dimension d."""
        return len(self.lower)

    @classmethod
    def of_points(cls, points: Sequence[Sequence[float]]) -> "Box":
        """The bounding box of a non-empty point set (an ``(n, d)``
        array, or anything that converts to one)."""
        matrix = np.asarray(points, dtype=float)
        if len(matrix) == 0:
            raise ValueError("bounding box of an empty point set is undefined")
        return cls(tuple(matrix.min(axis=0).tolist()),
                   tuple(matrix.max(axis=0).tolist()))

    def contains(self, point: Sequence[float]) -> bool:
        """True if ``point`` lies inside the (closed) box."""
        return all(low - EPS <= coordinate <= high + EPS
                   for low, coordinate, high in zip(self.lower, point, self.upper))

    def corners(self) -> list:
        """All 2^d corner points of the box."""
        axes = [(low, high) for low, high in zip(self.lower, self.upper)]
        return [tuple(choice) for choice in product(*axes)]

    def classify_halfspace(self, hyperplane: Hyperplane) -> CellRelation:
        """Relate the box to the halfspace on or below ``hyperplane``.

        Because the constraint ``x_d <= h(x_1..x_{d-1})`` is linear, its
        extrema over the box are attained at corners, so checking the 2^d
        corners is exact.
        """
        below_any = False
        above_any = False
        for corner in self.corners():
            if hyperplane.point_below(corner):
                below_any = True
            else:
                above_any = True
            if below_any and above_any:
                return CellRelation.CROSSES
        return CellRelation.BELOW if below_any else CellRelation.ABOVE

    def split(self, axis: int, value: float) -> Tuple["Box", "Box"]:
        """Split the box at ``value`` along ``axis`` into (lower, upper) halves."""
        if not self.lower[axis] <= value <= self.upper[axis]:
            raise ValueError("split value %r outside box extent on axis %d"
                             % (value, axis))
        upper_of_low = list(self.upper)
        upper_of_low[axis] = value
        lower_of_high = list(self.lower)
        lower_of_high[axis] = value
        return (Box(self.lower, tuple(upper_of_low)),
                Box(tuple(lower_of_high), self.upper))

    def __repr__(self) -> str:
        return "Box(%s)" % " x ".join("[%.4g, %.4g]" % (low, high)
                                       for low, high in zip(self.lower, self.upper))
