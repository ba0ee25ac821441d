"""Basic geometric predicates (orientation and above/below tests).

All predicates take an explicit tolerance so callers can trade robustness
for strictness; the defaults are appropriate for the double-precision random
workloads used in the benchmarks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.geometry.primitives import EPS, Hyperplane, Line2, Plane3


def orientation(p: Sequence[float], q: Sequence[float], r: Sequence[float],
                eps: float = EPS) -> int:
    """Orientation of the ordered triple ``p, q, r`` in the plane.

    Returns +1 for a counter-clockwise turn, -1 for clockwise and 0 for
    (numerically) collinear points.
    """
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if cross > eps:
        return 1
    if cross < -eps:
        return -1
    return 0


def point_below_line(point: Sequence[float], line: Line2,
                     eps: float = EPS) -> bool:
    """True if ``point`` lies strictly below ``line``."""
    return point[1] < line.y_at(point[0]) - eps


def line_below_point(line: Line2, point: Sequence[float],
                     eps: float = EPS) -> bool:
    """True if ``line`` passes strictly below ``point`` (the dual-query test)."""
    return line.y_at(point[0]) < point[1] - eps


def point_below_plane(point: Sequence[float], plane: Plane3,
                      eps: float = EPS) -> bool:
    """True if the 3-D ``point`` lies strictly below ``plane``."""
    return point[2] < plane.z_at(point[0], point[1]) - eps


def point_below_hyperplane(point: Sequence[float], hyperplane: Hyperplane,
                           eps: float = EPS) -> bool:
    """True if ``point`` lies strictly below ``hyperplane`` (any dimension)."""
    return point[-1] < hyperplane.height_at(point) - eps


def point_in_triangle(point: Sequence[float],
                      a: Sequence[float],
                      b: Sequence[float],
                      c: Sequence[float],
                      eps: float = 1e-9) -> bool:
    """True if ``point`` lies inside (or on the boundary of) triangle ``abc``."""
    d1 = orientation(point, a, b, eps)
    d2 = orientation(point, b, c, eps)
    d3 = orientation(point, c, a, eps)
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def triangle_area(a: Sequence[float], b: Sequence[float],
                  c: Sequence[float]) -> float:
    """Unsigned area of triangle ``abc``."""
    return abs((b[0] - a[0]) * (c[1] - a[1])
               - (b[1] - a[1]) * (c[0] - a[0])) / 2.0


def bounding_box(points: Sequence[Sequence[float]]) -> Tuple[Tuple[float, ...],
                                                              Tuple[float, ...]]:
    """Axis-aligned bounding box ``(lower_corner, upper_corner)`` of ``points``."""
    if not points:
        raise ValueError("bounding_box of an empty point set is undefined")
    dimension = len(points[0])
    lower = [min(p[axis] for p in points) for axis in range(dimension)]
    upper = [max(p[axis] for p in points) for axis in range(dimension)]
    return tuple(lower), tuple(upper)
