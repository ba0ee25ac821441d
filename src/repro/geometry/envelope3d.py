"""Triangulated lower envelopes of planes in R^3 with conflict lists.

The 3-D structure of Section 4 stores, for every random sample ``R_i`` of
the (dual) planes, a triangulation ``Δ(R_i)`` of the lower envelope of
``R_i`` together with the *conflict list* ``K(Δ)`` of every triangle — the
planes of ``H \\ R_i`` that pass below some point of the triangle
(Clarkson–Shor, Lemma 4.1).

This module computes those objects:

* :func:`compute_lower_envelope` — the minimisation diagram of the planes,
  clipped to a rectangular query domain and fan-triangulated.  Two backends
  are available: an exact O(m^2) construction (each cell is the query domain
  clipped by the halfplanes induced by every other plane) used for small
  samples and as the reference in tests, and a dual convex-hull backend
  (scipy/qhull) that only clips against the hull neighbours of each plane.
  The paper instead invokes the external algorithm of Crauser et al. [18];
  the substitution affects construction cost only (see "Substitutions"
  in README.md).
* :func:`conflict_lists` — vectorised computation of the triangle conflict
  lists (a plane conflicts with a triangle iff it passes strictly below one
  of the triangle's vertices, by linearity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.polygons import (
    clip_polygon_halfplane,
    fan_triangulate,
    polygon_area,
    polygon_contains,
    rectangle_polygon,
)
from repro.geometry.primitives import Plane3

Point3 = Tuple[float, float, float]

#: Cells with less than this area after clipping are discarded as slivers.
_MIN_CELL_AREA = 1e-18

#: Samples up to this size always use the exact O(m^2) backend.
_EXACT_BACKEND_LIMIT = 96


@dataclass
class EnvelopeTriangle:
    """One triangle of the triangulated lower envelope.

    ``plane_index`` refers to the *sample-local* index of the plane that
    realises the envelope over the triangle; ``vertices`` are the three 3-D
    corners (lying on that plane).
    """

    plane_index: int
    vertices: Tuple[Point3, Point3, Point3]

    def xy_vertices(self) -> Tuple[Tuple[float, float], ...]:
        """The triangle's projection onto the xy-plane."""
        return tuple((v[0], v[1]) for v in self.vertices)


@dataclass
class TriangulatedEnvelope:
    """A triangulated lower envelope of a set of planes over a query domain."""

    planes: Sequence[Plane3]
    triangles: List[EnvelopeTriangle]
    domain: Tuple[float, float, float, float]

    @property
    def size(self) -> int:
        """Number of triangles."""
        return len(self.triangles)

    def lowest_plane_at(self, x: float, y: float) -> int:
        """Index of the plane minimising the height at ``(x, y)`` (reference)."""
        best_index = 0
        best_value = self.planes[0].z_at(x, y)
        for index in range(1, len(self.planes)):
            value = self.planes[index].z_at(x, y)
            if value < best_value:
                best_value = value
                best_index = index
        return best_index

    def locate_brute(self, x: float, y: float) -> Optional[int]:
        """Index of a triangle containing ``(x, y)`` by linear scan (reference)."""
        for index, triangle in enumerate(self.triangles):
            a, b, c = triangle.xy_vertices()
            if polygon_contains([a, b, c], x, y):
                return index
        return None

    def envelope_height(self, x: float, y: float) -> float:
        """Height of the lower envelope at ``(x, y)``."""
        plane = self.planes[self.lowest_plane_at(x, y)]
        return plane.z_at(x, y)

    def covered_area(self) -> float:
        """Total area of the triangles (should equal the domain area)."""
        total = 0.0
        for triangle in self.triangles:
            a, b, c = triangle.xy_vertices()
            total += polygon_area([a, b, c])
        return total

    def domain_area(self) -> float:
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)

    def contains_xy(self, x: float, y: float) -> bool:
        """True if ``(x, y)`` lies inside the triangulated query domain."""
        xmin, xmax, ymin, ymax = self.domain
        return xmin <= x <= xmax and ymin <= y <= ymax


def compute_lower_envelope(planes: Sequence[Plane3],
                           domain: Tuple[float, float, float, float],
                           backend: str = "auto") -> TriangulatedEnvelope:
    """Triangulate the lower envelope of ``planes`` over ``domain``.

    Parameters
    ----------
    planes:
        The input planes (``z = a*x + b*y + c``).
    domain:
        ``(xmin, xmax, ymin, ymax)`` rectangle over which the envelope is
        triangulated.  Queries outside the domain must be handled by the
        caller (the 3-D structure falls back to scanning the sample).
    backend:
        ``"exact"`` forces the O(m^2) construction, ``"hull"`` forces the
        dual convex-hull construction, ``"auto"`` (default) picks by size.
    """
    if not planes:
        raise ValueError("cannot build the envelope of an empty set of planes")
    xmin, xmax, ymin, ymax = domain
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("degenerate query domain %r" % (domain,))
    if backend not in ("auto", "exact", "hull"):
        raise ValueError("unknown backend %r" % backend)

    if backend == "exact" or (backend == "auto"
                              and len(planes) <= _EXACT_BACKEND_LIMIT):
        neighbor_sets = [
            [j for j in range(len(planes)) if j != i] for i in range(len(planes))
        ]
        triangles = _cells_to_triangles(planes, neighbor_sets, domain)
        return TriangulatedEnvelope(planes=planes, triangles=triangles,
                                    domain=domain)

    triangles = _hull_backend(planes, domain)
    if triangles is None:
        # Degenerate input for qhull (coplanar dual points, ...): fall back.
        neighbor_sets = [
            [j for j in range(len(planes)) if j != i] for i in range(len(planes))
        ]
        triangles = _cells_to_triangles(planes, neighbor_sets, domain)
    return TriangulatedEnvelope(planes=planes, triangles=triangles, domain=domain)


def _hull_backend(planes: Sequence[Plane3],
                  domain: Tuple[float, float, float, float]
                  ) -> Optional[List[EnvelopeTriangle]]:
    """Neighbour discovery via the lower convex hull of the dual points."""
    try:
        from scipy.spatial import ConvexHull  # type: ignore
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return None
    try:
        from scipy.spatial import QhullError  # type: ignore
    except ImportError:  # pragma: no cover - older scipy releases
        from scipy.spatial.qhull import QhullError  # type: ignore
    coefficients = np.array([plane.coefficients() for plane in planes], dtype=float)
    try:
        hull = ConvexHull(coefficients)
    except (QhullError, ValueError):
        return None
    # Facets of the lower hull (with respect to the c-axis) have an outward
    # normal with negative last component.
    neighbor_sets: List[set] = [set() for _ in planes]
    on_lower_hull = [False] * len(planes)
    for simplex, equation in zip(hull.simplices, hull.equations):
        if equation[2] >= -1e-12:
            continue
        for vertex in simplex:
            on_lower_hull[vertex] = True
        for a_index in simplex:
            for b_index in simplex:
                if a_index != b_index:
                    neighbor_sets[a_index].add(int(b_index))
    if not any(on_lower_hull):
        return None
    neighbor_lists = [sorted(neighbors) for neighbors in neighbor_sets]
    participating = [index for index, flag in enumerate(on_lower_hull) if flag]
    triangles = _cells_to_triangles(planes, neighbor_lists, domain,
                                    candidates=participating)
    # Sanity: the cells must tile the domain; if clipping lost too much area
    # (extreme degeneracies), fall back to the exact backend.
    xmin, xmax, ymin, ymax = domain
    domain_area = (xmax - xmin) * (ymax - ymin)
    covered = sum(polygon_area(list(t.xy_vertices())) for t in triangles)
    if covered < 0.999 * domain_area:
        return None
    return triangles


def _cells_to_triangles(planes: Sequence[Plane3],
                        neighbor_sets: Sequence[Sequence[int]],
                        domain: Tuple[float, float, float, float],
                        candidates: Optional[Sequence[int]] = None
                        ) -> List[EnvelopeTriangle]:
    """Clip each candidate plane's minimisation cell and fan-triangulate it."""
    xmin, xmax, ymin, ymax = domain
    base_polygon = rectangle_polygon(xmin, xmax, ymin, ymax)
    if candidates is None:
        candidates = range(len(planes))
    triangles: List[EnvelopeTriangle] = []
    for index in candidates:
        plane = planes[index]
        cell = list(base_polygon)
        for other_index in neighbor_sets[index]:
            other = planes[other_index]
            # Cell of ``index``: a*x + b*y + c <= a'*x + b'*y + c'.
            a = plane.a - other.a
            b = plane.b - other.b
            c = other.c - plane.c
            cell = clip_polygon_halfplane(cell, a, b, c)
            if len(cell) < 3:
                break
        if len(cell) < 3 or polygon_area(cell) < _MIN_CELL_AREA:
            continue
        for corner_a, corner_b, corner_c in fan_triangulate(cell):
            vertices = tuple(
                (float(px), float(py), float(plane.z_at(px, py)))
                for px, py in (corner_a, corner_b, corner_c)
            )
            triangles.append(EnvelopeTriangle(plane_index=index, vertices=vertices))
    return triangles


def conflict_lists(all_planes: Sequence[Plane3],
                   sample_indices: Sequence[int],
                   envelope: TriangulatedEnvelope,
                   eps: float = 1e-9,
                   chunk: int = 256) -> List[List[int]]:
    """Conflict list of every triangle of ``envelope``.

    Parameters
    ----------
    all_planes:
        The full set ``H`` of planes (global indices).
    sample_indices:
        Global indices of the planes in the sample ``R`` (excluded from the
        conflict lists, as in the paper).
    envelope:
        The triangulated lower envelope of the sample.
    eps:
        Strictness tolerance for "passes below".

    Returns
    -------
    A list with one entry per triangle: the global indices of the planes of
    ``H \\ R`` passing strictly below at least one vertex of the triangle.
    """
    num_planes = len(all_planes)
    in_sample = np.zeros(num_planes, dtype=bool)
    for index in sample_indices:
        in_sample[index] = True

    coefficients = np.array([plane.coefficients() for plane in all_planes],
                            dtype=float)
    a_column = coefficients[:, 0]
    b_column = coefficients[:, 1]
    c_column = coefficients[:, 2]

    results: List[List[int]] = [[] for _ in range(envelope.size)]
    triangle_indices = list(range(envelope.size))
    for start in range(0, len(triangle_indices), chunk):
        batch = triangle_indices[start:start + chunk]
        if not batch:
            continue
        # Stack the 3 vertices of each triangle in the batch: (3*batch, 3).
        vertices = np.array(
            [vertex for t in batch for vertex in envelope.triangles[t].vertices],
            dtype=float)
        # heights[p, v] = height of plane p above vertex v's xy position.
        heights = (a_column[:, None] * vertices[None, :, 0]
                   + b_column[:, None] * vertices[None, :, 1]
                   + c_column[:, None])
        below = heights < (vertices[None, :, 2] - eps)
        below[in_sample, :] = False
        for offset, triangle_index in enumerate(batch):
            columns = slice(3 * offset, 3 * offset + 3)
            mask = below[:, columns].any(axis=1)
            results[triangle_index] = np.nonzero(mask)[0].tolist()
    return results


def planes_below_point(planes: Sequence[Plane3], x: float, y: float, z: float,
                       eps: float = 1e-9) -> List[int]:
    """Indices of the planes passing strictly below the point (reference)."""
    return [index for index, plane in enumerate(planes)
            if plane.z_at(x, y) < z - eps]


def default_domain(planes: Sequence[Plane3], margin: float = 2.0,
                   minimum_half_width: float = 4.0
                   ) -> Tuple[float, float, float, float]:
    """A square query domain large enough for typical dual-query positions.

    The dual point of a query plane has xy-coordinates equal to the plane's
    slope coefficients, so a domain proportional to the spread of the input
    planes' own coefficients (times ``margin``) covers every reasonable
    query.  The domain is deliberately kept tight: triangles reaching far
    outside the populated region accumulate needlessly large conflict lists,
    which inflates both space and query I/Os.  Callers whose queries can
    fall outside the default should pass an explicit domain (queries outside
    the domain remain correct — the index falls back to a scan).
    """
    scale = 0.0
    for plane in planes:
        scale = max(scale, abs(plane.a), abs(plane.b))
    half_width = max(minimum_half_width, margin * scale)
    return (-half_width, half_width, -half_width, half_width)
