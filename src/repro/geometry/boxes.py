"""Axis-aligned boxes used as partition cells by the partition trees.

Matoušek's Theorem 5.1 only requires, of the cells of a simplicial
partition, that (a) each cell contains its subset of points and (b) few
cells are *crossed* by any query hyperplane.  The partition trees of
Sections 5 and 6 therefore work with any cell type exposing a
box test; this module provides axis-aligned boxes (the cells produced by
the median-cut partitioner) and the relations a region's box test
reports.  A constraint's box test is the box form of its membership fold
(:func:`~repro.geometry.primitives.classify_boxes_halfspace`); the
corner-by-corner loop it replaces is the tests' oracle
(``tests/geometry_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.primitives import EPS


class CellRelation(Enum):
    """How a cell relates to the halfspace below a query hyperplane."""

    BELOW = "below"      # every point of the cell satisfies the constraint
    ABOVE = "above"      # no point of the cell satisfies the constraint
    CROSSES = "crosses"  # the hyperplane intersects the cell


#: The relation behind each code a region's ``classify_boxes`` returns —
#: :func:`~repro.geometry.primitives.classify_boxes_halfspace` for a
#: constraint, :meth:`~repro.geometry.simplex.Simplex.classify_boxes` for
#: a polytope (0 is ABOVE, so ``np.flatnonzero(codes)`` is the cells
#: worth a visit).
CELL_RELATIONS = (CellRelation.ABOVE, CellRelation.BELOW, CellRelation.CROSSES)


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
