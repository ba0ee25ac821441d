"""Geometric primitives: lines, planes, hyperplanes and linear constraints.

The paper phrases queries as *linear constraints*
``x_d <= a_0 + sum_i a_i x_i`` over points in R^d; geometrically this asks
for the points on or below a non-vertical hyperplane.  The primitives here
use the same explicit ("non-vertical") representation, which is also what
the duality transform of Section 2.1 expects:

* :class:`Line2` — ``y = slope * x + intercept``.
* :class:`Plane3` — ``z = a * x + b * y + c``.
* :class:`Hyperplane` — ``x_d = coeffs . (x_1 .. x_{d-1}) + offset``.
* :class:`LinearConstraint` — the query object of the public API; wraps a
  hyperplane together with the direction of the inequality.

Membership has one rule, the fold :func:`below_bound`: every index kind,
shard pruning, the selectivity estimate, the result cache and a
conjunction decide "in the answer" with its point form
(:meth:`LinearConstraint.below`) or its box form
(:func:`classify_boxes_halfspace`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

#: The library's one absolute tolerance: a point within ``EPS`` of a
#: boundary counts as on it, in every above/below, inside/outside test,
#: scalar or vectorised.
EPS = 1e-9


def below_bound(coeffs: Sequence, columns: Sequence, offset):
    """The membership fold ``coeffs[0] * columns[0] + ... + offset +
    EPS``: a point ``p`` is in the answer of ``x_d <= a . x + offset`` iff
    ``p[-1] <= below_bound(a, p, offset)``.

    One term at a time, from the first (``0 + t`` is ``t`` but for a
    zero's sign, which the offset, then ``EPS > 0``, erase), then the
    offset, then ``EPS``.  Scalars and arrays fold alike: a point, a
    matrix's columns, a box's extreme corners, or one point against a
    table of constraints — one rounding, bit for bit, for every caller.
    """
    total = None
    for coefficient, column in zip(coeffs, columns):
        if total is None:
            total = coefficient * column
        else:
            total += coefficient * column
    if total is None:                       # d = 1: no coefficient
        return offset + EPS
    total += offset
    total += EPS
    return total


def classify_boxes_halfspace(lowers: np.ndarray, uppers: np.ndarray,
                             plane) -> np.ndarray:
    """Relate n boxes (``(n, d)`` corner matrices) to the halfspace on
    or below ``plane`` (a :class:`Hyperplane` or a constraint), as codes
    indexing :data:`~repro.geometry.boxes.CELL_RELATIONS`.

    Two :func:`below_bound` folds stand in for the 2^d corners: IEEE
    multiply and add are monotone, so the fold is largest at the corner
    taking ``upper_i`` where ``c_i >= 0`` else ``lower_i``, smallest at
    the opposite one.  A box ABOVE holds no point ``below`` admits, a
    box BELOW none it refuses.
    """
    tops, bottoms = [], []
    for axis, coefficient in enumerate(plane.coeffs):
        high, low = (uppers, lowers) if coefficient >= 0 else (lowers, uppers)
        tops.append(high[:, axis])
        bottoms.append(low[:, axis])
    below_any = (lowers[:, -1] <= below_bound(
        plane.coeffs, tops, plane.offset)).view(np.int8)
    above_any = (~(uppers[:, -1] <= below_bound(
        plane.coeffs, bottoms, plane.offset))).view(np.int8)
    return below_any + (below_any & above_any)


@dataclass(frozen=True)
class Line2:
    """A non-vertical line ``y = slope * x + intercept`` in the plane."""

    slope: float
    intercept: float

    def y_at(self, x: float) -> float:
        """The line's y-coordinate at abscissa ``x``."""
        return self.slope * x + self.intercept

    def intersection_x(self, other: "Line2") -> float:
        """The x-coordinate where this line meets ``other``.

        Returns ``math.inf`` for parallel lines (no finite intersection).
        """
        denominator = self.slope - other.slope
        if abs(denominator) < 1e-15:
            return math.inf
        return (other.intercept - self.intercept) / denominator

    def intersection(self, other: "Line2") -> Tuple[float, float]:
        """The intersection point with ``other`` (x may be ``inf``)."""
        x = self.intersection_x(other)
        if math.isinf(x):
            return (x, math.inf)
        return (x, self.y_at(x))

    def __repr__(self) -> str:
        return "Line2(y = %.6g*x + %.6g)" % (self.slope, self.intercept)


@dataclass(frozen=True)
class Plane3:
    """A non-vertical plane ``z = a * x + b * y + c`` in R^3."""

    a: float
    b: float
    c: float

    def z_at(self, x: float, y: float) -> float:
        """The plane's height above the point ``(x, y)``."""
        return self.a * x + self.b * y + self.c

    def coefficients(self) -> Tuple[float, float, float]:
        """The ``(a, b, c)`` triple (used by the dual-hull computations)."""
        return (self.a, self.b, self.c)

    def __repr__(self) -> str:
        return "Plane3(z = %.6g*x + %.6g*y + %.6g)" % (self.a, self.b, self.c)


@dataclass(frozen=True)
class Hyperplane:
    """A non-vertical hyperplane ``x_d = coeffs . (x_1..x_{d-1}) + offset``."""

    coeffs: Tuple[float, ...]
    offset: float

    @property
    def dimension(self) -> int:
        """Ambient dimension d (one more than the number of coefficients)."""
        return len(self.coeffs) + 1

    def __repr__(self) -> str:
        terms = " + ".join("%.4g*x%d" % (c, i + 1)
                           for i, c in enumerate(self.coeffs))
        return "Hyperplane(x%d = %s + %.4g)" % (self.dimension, terms, self.offset)


@dataclass(frozen=True)
class LinearConstraint:
    """A linear-constraint query ``x_d <= a_0 + sum_{i<d} a_i x_i``.

    This is the public query object of the library (the paper's Section 1.1
    problem statement).  ``LinearConstraint.below(point)`` decides whether a
    point satisfies the constraint; the indexes in :mod:`repro.core` report
    all stored points that do.

    The convenience constructor :meth:`from_inequality` accepts the general
    form ``sum_i c_i x_i <= rhs`` as long as the coefficient of the last
    coordinate is non-zero (the constraint is then normalised so that the
    last coordinate is isolated, flipping the inequality if needed).
    """

    coeffs: Tuple[float, ...]
    offset: float

    @classmethod
    def from_inequality(cls, coefficients: Sequence[float],
                        rhs: float) -> "LinearConstraint":
        """Normalise ``sum_i c_i x_i <= rhs`` into the paper's query form."""
        coefficients = tuple(float(c) for c in coefficients)
        if not coefficients:
            raise ValueError("a constraint needs at least one coefficient")
        last = coefficients[-1]
        if abs(last) < 1e-15:
            raise ValueError(
                "the coefficient of the last coordinate must be non-zero; "
                "rotate the coordinate frame or restate the constraint")
        if last < 0:
            # c_d < 0: dividing flips the inequality into x_d >= ..., which we
            # turn back into <= by negating the point set's last axis.  To keep
            # the library simple we instead reject and ask the caller to flip.
            raise ValueError(
                "constraints of the form x_d >= ... are 'upper' halfspaces; "
                "negate all coefficients and the right-hand side to query the "
                "complementary halfspace, or negate the data's last axis")
        scaled = tuple(-c / last for c in coefficients[:-1])
        return cls(coeffs=scaled, offset=rhs / last)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the constraint."""
        return len(self.coeffs) + 1

    @property
    def constraints(self) -> Tuple["LinearConstraint", ...]:
        """The constraint as a query's conjuncts: itself alone (a
        conjunction's are its ``constraints``)."""
        return (self,)

    @property
    def hyperplane(self) -> Hyperplane:
        """The boundary hyperplane ``x_d = a_0 + sum a_i x_i``."""
        return Hyperplane(self.coeffs, self.offset)

    def below(self, point: Sequence[float]) -> bool:
        """True if ``point`` satisfies the constraint (lies on/below the
        plane): ``point[-1] <= below_bound(coeffs, point, offset)``."""
        return point[-1] <= below_bound(self.coeffs, point, self.offset)

    def below_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`below`: a boolean mask over an ``(n, d)`` matrix.

        The same :func:`below_bound` fold over the matrix's columns, so
        every row resolves as per-point :meth:`below` resolves it, points
        exactly on the boundary included (a BLAS dot product may round
        differently and flip them).
        """
        return points[:, -1] <= below_bound(
            self.coeffs, points.T[:-1], self.offset)

    def classify_boxes(self, lowers: np.ndarray,
                       uppers: np.ndarray) -> np.ndarray:
        """:func:`classify_boxes_halfspace` of this constraint."""
        return classify_boxes_halfspace(lowers, uppers, self)

    #: A constraint is a region, as a polytope is: these name its tests.
    contains = below
    contains_many = below_many

    def __repr__(self) -> str:
        terms = " + ".join("%.4g*x%d" % (c, i + 1)
                           for i, c in enumerate(self.coeffs))
        return "LinearConstraint(x%d <= %s + %.4g)" % (
            self.dimension, terms, self.offset)
