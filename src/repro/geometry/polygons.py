"""Convex polygon utilities (clipping, area, triangulation).

Used to turn the cells of a plane-envelope minimisation diagram into
bounded convex polygons (clipped to a query domain) and to represent the
cells of the ham-sandwich partitioner.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

Point2 = Tuple[float, float]

#: How far past a clipping line a vertex may sit and still count as
#: inside, and how close two vertices must be to count as one.
CLIP_EPS = 1e-12


def rectangle_polygon(xmin: float, xmax: float, ymin: float,
                      ymax: float) -> List[Point2]:
    """Counter-clockwise rectangle polygon for the given bounds."""
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("degenerate rectangle [%r, %r] x [%r, %r]"
                         % (xmin, xmax, ymin, ymax))
    return [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]


def clip_polygon_halfplane(polygon: Sequence[Point2], a: float, b: float,
                           c: float) -> List[Point2]:
    """Clip a convex polygon to the halfplane ``a*x + b*y <= c``.

    Standard Sutherland–Hodgman step; returns the (possibly empty) clipped
    polygon with vertices in the original orientation.
    """
    if not polygon:
        return []
    result: List[Point2] = []
    count = len(polygon)
    for index in range(count):
        current = polygon[index]
        nxt = polygon[(index + 1) % count]
        current_inside = a * current[0] + b * current[1] <= c + CLIP_EPS
        next_inside = a * nxt[0] + b * nxt[1] <= c + CLIP_EPS
        if current_inside:
            result.append(current)
            if not next_inside:
                crossing = _halfplane_crossing(current, nxt, a, b, c)
                if crossing is not None:
                    result.append(crossing)
        elif next_inside:
            crossing = _halfplane_crossing(current, nxt, a, b, c)
            if crossing is not None:
                result.append(crossing)
    return _dedupe(result)


def _halfplane_crossing(p: Point2, q: Point2, a: float, b: float,
                        c: float) -> Optional[Point2]:
    fp = a * p[0] + b * p[1] - c
    fq = a * q[0] + b * q[1] - c
    denom = fp - fq
    if abs(denom) < 1e-300:
        return None
    t = fp / denom
    t = min(max(t, 0.0), 1.0)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _dedupe(polygon: List[Point2]) -> List[Point2]:
    """Remove consecutive (near-)duplicate vertices."""
    if not polygon:
        return []
    cleaned: List[Point2] = []
    for vertex in polygon:
        if cleaned and abs(vertex[0] - cleaned[-1][0]) <= CLIP_EPS \
                and abs(vertex[1] - cleaned[-1][1]) <= CLIP_EPS:
            continue
        cleaned.append(vertex)
    while len(cleaned) > 1 and abs(cleaned[0][0] - cleaned[-1][0]) <= CLIP_EPS \
            and abs(cleaned[0][1] - cleaned[-1][1]) <= CLIP_EPS:
        cleaned.pop()
    return cleaned


def polygon_area(polygon: Sequence[Point2]) -> float:
    """Unsigned area of a simple polygon (shoelace formula)."""
    if len(polygon) < 3:
        return 0.0
    total = 0.0
    count = len(polygon)
    for index in range(count):
        x1, y1 = polygon[index]
        x2, y2 = polygon[(index + 1) % count]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2.0


def fan_triangulate(polygon: Sequence[Point2]) -> List[Tuple[Point2, Point2, Point2]]:
    """Triangulate a convex polygon by fanning from its first vertex."""
    if len(polygon) < 3:
        return []
    triangles = []
    for index in range(1, len(polygon) - 1):
        triangles.append((polygon[0], polygon[index], polygon[index + 1]))
    return triangles


def convex_hull(points: Sequence[Point2], eps: float = 0.0) -> List[int]:
    """Indices of the convex hull's corners, counter-clockwise.

    Andrew's monotone chain.  A point within ``eps`` (as a cross product)
    of the line through its hull neighbours is not a corner, so collinear
    points — and, with a positive ``eps``, the near-duplicates that the
    same vertex computed twice leaves behind — are dropped.  Fewer than
    three corners mean the points are (nearly) collinear.
    """
    order = sorted(range(len(points)), key=points.__getitem__)
    if len(order) < 3:
        return order

    def chain(indices) -> List[int]:
        kept: List[int] = []
        for index in indices:
            x, y = points[index]
            while len(kept) >= 2:
                ax, ay = points[kept[-2]]
                bx, by = points[kept[-1]]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > eps:
                    break
                kept.pop()
            kept.append(index)
        return kept

    lower = chain(order)
    upper = chain(reversed(order))
    return lower[:-1] + upper[:-1]
