"""The paper's duality transform (Section 2.1, Lemma 2.1).

The dual of a point ``(a_1, ..., a_d)`` is the hyperplane
``x_d = -a_1 x_1 - ... - a_{d-1} x_{d-1} + a_d`` and the dual of a
hyperplane ``x_d = b_1 x_1 + ... + b_{d-1} x_{d-1} + b_d`` is the point
``(b_1, ..., b_d)``.  The transform preserves the above/below relation
(Lemma 2.1), which turns *"report the points of S below a query hyperplane
h"* into *"report the hyperplanes of S* below the query point h*"* — the
formulation every structure in :mod:`repro.core` actually works with.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.geometry.primitives import Hyperplane, Line2, Plane3


def dual_line_of_point(point: Sequence[float]) -> Line2:
    """Dual line ``y = -a1 * x + a2`` of a point ``(a1, a2)`` in the plane."""
    a1, a2 = point[0], point[1]
    return Line2(slope=-a1, intercept=a2)


def dual_point_of_line(line: Line2) -> Tuple[float, float]:
    """Dual point ``(b1, b2)`` of the line ``y = b1 * x + b2``."""
    return (line.slope, line.intercept)


def dual_plane_of_point(point: Sequence[float]) -> Plane3:
    """Dual plane ``z = -a1*x - a2*y + a3`` of a point ``(a1, a2, a3)``."""
    a1, a2, a3 = point[0], point[1], point[2]
    return Plane3(a=-a1, b=-a2, c=a3)


def dual_point_of_plane(plane: Plane3) -> Tuple[float, float, float]:
    """Dual point ``(b1, b2, b3)`` of the plane ``z = b1*x + b2*y + b3``."""
    return (plane.a, plane.b, plane.c)


def dual_hyperplane_of_point(point: Sequence[float]) -> Hyperplane:
    """Dual hyperplane of a d-dimensional point (general-dimension form)."""
    coeffs = tuple(-c for c in point[:-1])
    return Hyperplane(coeffs=coeffs, offset=point[-1])


def dual_point_of_hyperplane(hyperplane: Hyperplane) -> Tuple[float, ...]:
    """Dual point of a d-dimensional hyperplane."""
    return tuple(hyperplane.coeffs) + (hyperplane.offset,)
