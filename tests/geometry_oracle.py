"""Geometry helpers only the tests call, kept as references.

The line envelopes cross-check the k-level walk (the 0-level and the
(N-1)-level of an arrangement are its lower and upper envelopes); the
primal-point inverses check the duality transform's round trips;
``is_balanced`` checks the balance condition of a simplicial partition
(Theorem 5.1); ``relevant_cluster_index`` is the linear scan the boundary
B-tree of the planar structure replaces; ``locate_brute`` is the linear
scan the point locator replaces, and ``envelope_height`` /
``covered_area`` check an envelope's triangles.  A hyperplane's scalar
height over a point (``height_at``), its inclusive below test
(``point_below``) and the batch height (``height_many``) are the
references the box and boundary tests place points with.  The lifting identities
are what the k-nearest-neighbour reduction rests on (Theorem 4.3).  ``filter_points`` is the
in-memory ground truth every index answer is checked against, and the
box-at-a-time tests — a box's 2^d ``corners`` and the corner loop
``classify_halfspace`` for a constraint, the polytope tests for a
:class:`Simplex` — are what ``classify_boxes_halfspace`` and
``Simplex.classify_boxes`` fold into one call per table block (the scan
oracle's ``classify_cells``).
"""

import math
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clustering import Cluster
from repro.core.conjunction import ConstraintConjunction
from repro.geometry.boxes import Box, CellRelation
from repro.geometry.envelope3d import TriangulatedEnvelope
from repro.geometry.lifting import lift_point
from repro.geometry.partitions import PartitionCell
from repro.geometry.polygons import Point2, polygon_area
from repro.geometry.primitives import (EPS, Hyperplane, Line2,
                                       LinearConstraint, Plane3, below_bound)
from repro.geometry.simplex import Simplex


def lower_envelope(lines: Sequence[Line2]) -> List[Tuple[int, float, float]]:
    """Compute the lower envelope of ``lines``.

    Returns a list of ``(line_index, x_from, x_to)`` triples, ordered left to
    right, describing which input line realises the minimum on each maximal
    x-interval.  ``x_from`` of the first entry is ``-inf`` and ``x_to`` of
    the last is ``+inf``.
    """
    return _envelope(lines, lower=True)


def upper_envelope(lines: Sequence[Line2]) -> List[Tuple[int, float, float]]:
    """Compute the upper envelope (pointwise maximum) of ``lines``."""
    return _envelope(lines, lower=False)


def envelope_value(envelope: List[Tuple[int, float, float]],
                   lines: Sequence[Line2], x: float) -> float:
    """Evaluate an envelope (as returned above) at abscissa ``x``."""
    for line_index, x_from, x_to in envelope:
        if x_from <= x <= x_to:
            return lines[line_index].y_at(x)
    raise ValueError("abscissa %r not covered by the envelope" % x)


def _envelope(lines: Sequence[Line2], lower: bool) -> List[Tuple[int, float, float]]:
    if not lines:
        return []
    # Sort by slope; for the lower envelope, among equal slopes only the one
    # with the smallest intercept can ever appear (largest for the upper).
    order = sorted(range(len(lines)),
                   key=lambda i: (lines[i].slope,
                                  lines[i].intercept if lower else -lines[i].intercept))
    filtered: List[int] = []
    for index in order:
        if filtered and abs(lines[filtered[-1]].slope - lines[index].slope) < 1e-15:
            continue
        filtered.append(index)
    if lower:
        # For the lower envelope, process slopes in decreasing order: the line
        # with the largest slope is lowest at x = -inf.
        filtered.reverse()
    # Incremental stack construction: maintain the envelope as a sequence of
    # line indices with the breakpoints between consecutive ones increasing.
    stack: List[int] = []
    breakpoints: List[float] = []  # breakpoints[i] = x where stack[i] hands over to stack[i+1]
    for index in filtered:
        line = lines[index]
        while stack:
            x_cross = lines[stack[-1]].intersection_x(line)
            if breakpoints and x_cross <= breakpoints[-1] + 1e-15:
                # The current top never realises the envelope once ``line``
                # arrives: drop it and try against the new top.
                stack.pop()
                breakpoints.pop()
            else:
                breakpoints.append(x_cross)
                break
        stack.append(index)
    result: List[Tuple[int, float, float]] = []
    for position, index in enumerate(stack):
        x_from = float("-inf") if position == 0 else breakpoints[position - 1]
        x_to = float("inf") if position == len(stack) - 1 else breakpoints[position]
        result.append((index, x_from, x_to))
    return result


def lines_strictly_below(lines: Sequence[Line2], x: float, y: float,
                         eps: float = 1e-9) -> List[int]:
    """Indices of the lines passing strictly below the point ``(x, y)``."""
    return [i for i, line in enumerate(lines) if line.y_at(x) < y - eps]


def lines_strictly_above(lines: Sequence[Line2], x: float, y: float,
                         eps: float = 1e-9) -> List[int]:
    """Indices of the lines passing strictly above the point ``(x, y)``."""
    return [i for i, line in enumerate(lines) if line.y_at(x) > y + eps]


def planes_below_point(planes: Sequence[Plane3], x: float, y: float,
                       z: float) -> List[int]:
    """Indices of the planes passing strictly below the point (the
    reference for a triangle's conflict list)."""
    return [index for index, plane in enumerate(planes)
            if plane.z_at(x, y) < z - EPS]


def primal_point_of_dual_line(line: Line2) -> Tuple[float, float]:
    """Invert :func:`dual_line_of_point`: recover the point whose dual is ``line``."""
    return (-line.slope, line.intercept)


def primal_point_of_dual_plane(plane: Plane3) -> Tuple[float, float, float]:
    """Invert :func:`dual_plane_of_point`."""
    return (-plane.a, -plane.b, plane.c)


def primal_point_of_dual_hyperplane(hyperplane: Hyperplane) -> Tuple[float, ...]:
    """Invert :func:`dual_hyperplane_of_point`."""
    return tuple(-c for c in hyperplane.coeffs) + (hyperplane.offset,)


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


def relevant_cluster_index(clusters: Sequence[Cluster], x: float) -> int:
    """Index of the cluster relevant for abscissa ``x`` (linear scan reference)."""
    for index, cluster in enumerate(clusters):
        if cluster.covers(x):
            return index
    return len(clusters) - 1


def filter_points(query, points) -> list:
    """The points a constraint, polytope or conjunction keeps, in order
    (a conjunction's are its polytope's)."""
    if isinstance(query, ConstraintConjunction):
        query = query.to_polytope()
    return [point for point in points if query.contains(point)]


def validate_against_scan(index, constraint: LinearConstraint,
                          points) -> bool:
    """Whether ``index`` answers ``constraint`` with the set of
    ``points`` an in-memory scan keeps."""
    expected = {tuple(point) for point in points if constraint.below(point)}
    actual = set(map(tuple, index.query(constraint).tolist()))
    return expected == actual


def height_at(hyperplane: Hyperplane, point: Sequence[float]) -> float:
    """The hyperplane's x_d value above the first d-1 coordinates of ``point``."""
    return sum(c * x for c, x in zip(hyperplane.coeffs, point)) \
        + hyperplane.offset


def point_below(hyperplane: Hyperplane, point: Sequence[float]) -> bool:
    """True if ``point`` lies on or below the hyperplane.

    This is the containment test of the paper's query: report all points
    ``p`` with ``p_d <= a_0 + sum a_i p_i`` (:func:`below_bound`).
    """
    return point[-1] <= below_bound(hyperplane.coeffs, point,
                                    hyperplane.offset)


def height_many(hyperplane: Hyperplane, points: np.ndarray) -> np.ndarray:
    """Vectorized :func:`height_at` over an ``(n, d)`` point matrix.

    Accumulates one coefficient at a time, in coefficient order, so
    every row reproduces the scalar left-to-right fold
    ``sum(c * x for ...)`` bit for bit (a BLAS dot product may round
    differently and flip points sitting exactly on the boundary).
    """
    heights = np.full(points.shape[0], hyperplane.offset, dtype=np.float64)
    total = np.zeros(points.shape[0], dtype=np.float64)
    for index, coefficient in enumerate(hyperplane.coeffs):
        total += coefficient * points[:, index]
    heights += total
    return heights


def corners(box: Box) -> list:
    """All 2^d corner points of the box."""
    return [tuple(choice) for choice in product(*zip(box.lower, box.upper))]


def classify_halfspace(box: Box, hyperplane: Hyperplane) -> CellRelation:
    """Relate the box to the halfspace on or below ``hyperplane``, corner
    by corner: the constraint is linear, so its extrema over the box are
    attained at corners, and checking the 2^d corners is exact."""
    below_any = False
    above_any = False
    for corner in corners(box):
        if point_below(hyperplane, corner):
            below_any = True
        else:
            above_any = True
        if below_any and above_any:
            return CellRelation.CROSSES
    return CellRelation.BELOW if below_any else CellRelation.ABOVE


def excludes_box(facet, box: Box) -> bool:
    """True if no point of ``box`` satisfies the facet (a
    :class:`Halfspace` or a constraint; exact test): a linear facet's
    extrema over a box are attained at corners, so no corner does."""
    return not any(facet.contains(corner) for corner in corners(box))


def contains_box(simplex: Simplex, box: Box) -> bool:
    """Exact test: every point of ``box`` lies inside the simplex."""
    return all(simplex.contains(corner) for corner in corners(box))


def certainly_disjoint_from_box(simplex: Simplex, box: Box) -> bool:
    """Conservative test: some facet halfspace excludes the whole box.

    True certifies disjointness; False means "maybe intersects" and the
    traversal recurses (correct, possibly slightly slower).
    """
    return any(excludes_box(halfspace, box)
               for halfspace in simplex.halfspaces)


# ----------------------------------------------------------------------
# polygons, boxes and envelopes, by hand
# ----------------------------------------------------------------------
def polygon_contains(polygon: Sequence[Point2], x: float, y: float) -> bool:
    """True if the convex polygon (CCW or CW) contains ``(x, y)``."""
    if len(polygon) < 3:
        return False
    sign = 0
    count = len(polygon)
    for index in range(count):
        x1, y1 = polygon[index]
        x2, y2 = polygon[(index + 1) % count]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if cross > EPS:
            current = 1
        elif cross < -EPS:
            current = -1
        else:
            continue
        if sign == 0:
            sign = current
        elif sign != current:
            return False
    return True


def polygon_centroid(polygon: Sequence[Point2]) -> Point2:
    """Arithmetic mean of the polygon vertices (inside a convex polygon)."""
    if not polygon:
        raise ValueError("centroid of an empty polygon is undefined")
    sx = sum(p[0] for p in polygon)
    sy = sum(p[1] for p in polygon)
    return (sx / len(polygon), sy / len(polygon))


def extent(box: Box, axis: int) -> float:
    """The box's side length along ``axis``."""
    return box.upper[axis] - box.lower[axis]


def widest_axis(box: Box) -> int:
    """The axis along which the box is widest."""
    return max(range(box.dimension), key=lambda axis: extent(box, axis))


def volume(box: Box) -> float:
    """Product of the box's side lengths."""
    result = 1.0
    for axis in range(box.dimension):
        result *= extent(box, axis)
    return result


def locate_brute(envelope: TriangulatedEnvelope, x: float,
                 y: float) -> Optional[int]:
    """Index of a triangle containing ``(x, y)``, by linear scan."""
    for index, triangle in enumerate(envelope.triangles):
        a, b, c = triangle.xy_vertices()
        if polygon_contains([a, b, c], x, y):
            return index
    return None


def envelope_height(envelope: TriangulatedEnvelope, x: float, y: float) -> float:
    """Height of the lower envelope at ``(x, y)``."""
    return envelope.planes[envelope.lowest_plane_at(x, y)].z_at(x, y)


def covered_area(envelope: TriangulatedEnvelope) -> float:
    """Total area of the triangles (the domain's, when they tile it)."""
    total = 0.0
    for triangle in envelope.triangles:
        a, b, c = triangle.xy_vertices()
        total += polygon_area([a, b, c])
    return total


# ----------------------------------------------------------------------
# the paraboloid lifting
# ----------------------------------------------------------------------
def lifted_height_is_shifted_squared_distance(
        point: Sequence[float],
        query: Sequence[float]) -> Tuple[float, float]:
    """(lifted plane height at ``query``, squared distance minus
    ``|query|^2``): equal, which is the identity the reduction uses."""
    plane = lift_point(point)
    px, py = float(query[0]), float(query[1])
    height = plane.z_at(px, py)
    squared_distance = (point[0] - px) ** 2 + (point[1] - py) ** 2
    return height, squared_distance - (px * px + py * py)


def distance_from_height(height: float, query: Sequence[float]) -> float:
    """The true distance, recovered from a lifted-plane height at
    ``query``."""
    px, py = float(query[0]), float(query[1])
    squared = height + px * px + py * py
    return math.sqrt(max(squared, 0.0))
