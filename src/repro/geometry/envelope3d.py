"""Triangulated lower envelopes of planes in R^3 with conflict lists.

The 3-D structure of Section 4 stores, for every random sample ``R_i`` of
the (dual) planes, a triangulation ``Δ(R_i)`` of the lower envelope of
``R_i`` together with the *conflict list* ``K(Δ)`` of every triangle — the
planes of ``H \\ R_i`` that pass below some point of the triangle
(Clarkson–Shor, Lemma 4.1).

This module computes those objects:

* :func:`compute_lower_envelope` — the minimisation diagram of the planes,
  clipped to a rectangular query domain and fan-triangulated: each cell is
  the query domain clipped by the halfplanes induced by every other plane
  (O(m^2); the reference in tests), or by the plane's neighbours on the
  dual convex hull (``backend="hull"``, scipy/qhull: the tests' second
  oracle, imported by nothing else).
* :func:`refine_lower_envelope` — the envelope of a sample from the
  envelope of the half of it drawn first and that envelope's conflict
  lists, which is how the index builds its nested samples coarse to fine.
  The paper instead invokes the external algorithm of Crauser et al. [18];
  the substitution affects construction cost only (see "Substitutions"
  in README.md).
* :func:`conflict_lists` — vectorised computation of the triangle conflict
  lists (a plane conflicts with a triangle iff it passes strictly below one
  of the triangle's vertices, by linearity).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.geometry.polygons import (
    clip_polygon_halfplane,
    convex_hull,
    fan_triangulate,
    polygon_area,
    rectangle_polygon,
)
from repro.geometry.primitives import EPS, Plane3

Point2 = Tuple[float, float]
Point3 = Tuple[float, float, float]

#: Cells with less than this area after clipping are discarded as slivers.
_MIN_CELL_AREA = 1e-18

#: Cells must cover the domain to within this share of its area.
_TILING_TOLERANCE = 1e-6

#: A piece corner this close (as a cross product) to the line through its
#: neighbours is the same cell vertex found in two triangles, not a corner.
_MERGE_EPS = 1e-12


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

    def domain_area(self) -> float:
        xmin, xmax, ymin, ymax = self.domain
        return (xmax - xmin) * (ymax - ymin)


def compute_lower_envelope(planes: Sequence[Plane3],
                           domain: Tuple[float, float, float, float],
                           backend: str = "exact") -> TriangulatedEnvelope:
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
        ``"exact"`` (default) clips every plane against every other;
        ``"hull"`` clips it against its neighbours on the dual convex
        hull and needs scipy (the ``test`` extra).
    """
    if not planes:
        raise ValueError("cannot build the envelope of an empty set of planes")
    xmin, xmax, ymin, ymax = domain
    if xmin >= xmax or ymin >= ymax:
        raise ValueError("degenerate query domain %r" % (domain,))
    if backend not in ("exact", "hull"):
        raise ValueError("unknown backend %r" % backend)
    triangles = _hull_backend(planes, domain) if backend == "hull" else None
    if triangles is None:
        # (also qhull's degenerate inputs: coplanar dual points, ...)
        everyone = range(len(planes))
        triangles = _cells_to_triangles(
            planes, domain, {index: everyone for index in everyone})
    return TriangulatedEnvelope(planes=planes, triangles=triangles,
                                domain=domain)


def _hull_backend(planes: Sequence[Plane3],
                  domain: Tuple[float, float, float, float]
                  ) -> Optional[List[EnvelopeTriangle]]:
    """Neighbour discovery via the lower convex hull of the dual points."""
    try:
        from scipy.spatial import ConvexHull, QhullError  # type: ignore
    except ImportError as error:
        raise ImportError(
            'compute_lower_envelope(backend="hull") needs scipy, which only '
            'the "test" extra installs (pip install "repro[test]")'
        ) from error
    coefficients = np.array([plane.coefficients() for plane in planes], dtype=float)
    try:
        hull = ConvexHull(coefficients)
    except (QhullError, ValueError):
        return None
    # Facets of the lower hull (with respect to the c-axis) have an outward
    # normal with negative last component.
    neighbor_sets: Dict[int, set] = {}
    for simplex, equation in zip(hull.simplices, hull.equations):
        if equation[2] >= -1e-12:
            continue
        for a_index in simplex:
            neighbors = neighbor_sets.setdefault(int(a_index), set())
            neighbors.update(int(b_index) for b_index in simplex)
    if not neighbor_sets:
        return None
    triangles = _cells_to_triangles(
        planes, domain, {index: sorted(neighbor_sets[index])
                         for index in sorted(neighbor_sets)})
    # Sanity: the cells must tile the domain; if clipping lost too much area
    # (extreme degeneracies), fall back to the exact backend.
    xmin, xmax, ymin, ymax = domain
    domain_area = (xmax - xmin) * (ymax - ymin)
    covered = sum(polygon_area(list(t.xy_vertices())) for t in triangles)
    if covered < 0.999 * domain_area:
        return None
    return triangles


def _clip_cell(planes: Sequence[Plane3], index: int, rivals: Iterable[int],
               polygon: List[Point2]) -> List[Point2]:
    """The part of the convex ``polygon`` where plane ``index`` is the
    lowest of ``rivals`` (which may name the plane itself)."""
    plane = planes[index]
    cell = polygon
    for other_index in rivals:
        if other_index == index:
            continue
        other = planes[other_index]
        # Cell of ``index``: a*x + b*y + c <= a'*x + b'*y + c'.
        a = plane.a - other.a
        b = plane.b - other.b
        c = other.c - plane.c
        if a == 0.0 and b == 0.0 and c == 0.0 and other_index < index:
            return []       # the same plane twice: the first keeps the cell
        cell = clip_polygon_halfplane(cell, a, b, c)
        if len(cell) < 3:
            return []
    return cell


def _triangulate(index: int, plane: Plane3,
                 cell: Sequence[Point2]) -> List[EnvelopeTriangle]:
    """Fan triangles of one plane's cell, lifted onto the plane."""
    if len(cell) < 3 or polygon_area(cell) < _MIN_CELL_AREA:
        return []
    return [EnvelopeTriangle(plane_index=index, vertices=tuple(
                (float(px), float(py), float(plane.z_at(px, py)))
                for px, py in corners))
            for corners in fan_triangulate(cell)]


def _cells_to_triangles(planes: Sequence[Plane3],
                        domain: Tuple[float, float, float, float],
                        rivals_of: Mapping[int, Iterable[int]]
                        ) -> List[EnvelopeTriangle]:
    """Clip each candidate plane's minimisation cell out of the domain
    against its rivals and fan-triangulate it."""
    xmin, xmax, ymin, ymax = domain
    base_polygon = rectangle_polygon(xmin, xmax, ymin, ymax)
    triangles: List[EnvelopeTriangle] = []
    for index, rivals in rivals_of.items():
        cell = _clip_cell(planes, index, rivals, base_polygon)
        triangles.extend(_triangulate(index, planes[index], cell))
    return triangles


def refine_lower_envelope(envelope: TriangulatedEnvelope,
                          planes: Sequence[Plane3],
                          added_conflicts: Sequence[Sequence[int]]
                          ) -> TriangulatedEnvelope:
    """The envelope of ``planes`` from the envelope of a prefix of them.

    ``envelope`` is the lower envelope of ``planes[:r]`` and
    ``added_conflicts[t]`` names the planes ``r, r + 1, ...`` in the
    conflict list of its triangle ``t``.  A plane is on the new envelope
    only if it was on the old one or is an added plane in some triangle's
    list, and inside an old triangle only that triangle's own plane and its
    added conflicts compete — so each old triangle is clipped against that
    active set alone, a plane's pieces are merged back into its (convex)
    cell and the cell is fan-triangulated: near-linear in the envelope's
    size, where clipping the whole sample is quadratic.  Should the cells
    fail to tile the domain, every candidate is clipped against every
    other instead.
    """
    pieces: Dict[int, List[Point2]] = {}
    for triangle, added in zip(envelope.triangles, added_conflicts):
        polygon = list(triangle.xy_vertices())
        active = [triangle.plane_index, *added]
        for index in active:
            corners = _clip_cell(planes, index, active, polygon)
            if corners:
                pieces.setdefault(index, []).extend(corners)
    triangles: List[EnvelopeTriangle] = []
    covered = 0.0
    for index in sorted(pieces):
        corners = pieces[index]
        cell = [corners[corner]
                for corner in convex_hull(corners, eps=_MERGE_EPS)]
        covered += polygon_area(cell)
        triangles.extend(_triangulate(index, planes[index], cell))
    xmin, xmax, ymin, ymax = envelope.domain
    domain_area = (xmax - xmin) * (ymax - ymin)
    if abs(covered - domain_area) > _TILING_TOLERANCE * domain_area:
        candidates = sorted({triangle.plane_index
                             for triangle in envelope.triangles}.union(
                                 *added_conflicts))
        triangles = _cells_to_triangles(
            planes, envelope.domain,
            {index: candidates for index in candidates})
    return TriangulatedEnvelope(planes=planes, triangles=triangles,
                                domain=envelope.domain)


def nested_envelopes(coefficients: np.ndarray, sizes: Sequence[int],
                     domain: Tuple[float, float, float, float]
                     ) -> Iterator[Tuple[TriangulatedEnvelope, List[List[int]]]]:
    """Envelope and conflict lists of each nested sample, coarse to fine.

    Sample ``i`` is the first ``sizes[i]`` rows (ascending sizes) of the
    ``(N, 3)`` plane ``coefficients``; its conflict lists number the
    planes by row.  The coarsest envelope is clipped from scratch, every
    finer one refined from the one before it
    (:func:`refine_lower_envelope`) — the lists a sample stores are what
    building the next sample needs.
    """
    planes = [Plane3(*row) for row in coefficients[:sizes[-1]].tolist()]
    envelope = conflicts = None
    for size in sizes:
        if envelope is None:
            envelope = compute_lower_envelope(planes[:size], domain)
        else:
            # Ascending lists of planes outside the old sample: the added
            # planes are a prefix of each.
            envelope = refine_lower_envelope(envelope, planes[:size], [
                conflict[:bisect_left(conflict, size)]
                for conflict in conflicts])
        conflicts = conflict_lists(coefficients, range(size), envelope)
        yield envelope, conflicts


#: ``conflict_lists`` evaluates this many (plane, vertex) heights at a time.
_CONFLICT_BATCH = 1 << 18


def conflict_lists(all_planes: Union[Sequence[Plane3], np.ndarray],
                   sample_indices: Sequence[int],
                   envelope: TriangulatedEnvelope) -> List[List[int]]:
    """Conflict list of every triangle of ``envelope``.

    Parameters
    ----------
    all_planes:
        The full set ``H`` of planes (global indices), or their ``(N, 3)``
        coefficient matrix.
    sample_indices:
        Global indices of the planes in the sample ``R`` (excluded from the
        conflict lists, as in the paper).
    envelope:
        The triangulated lower envelope of the sample.

    Returns
    -------
    A list with one entry per triangle: the global indices, ascending, of
    the planes of ``H \\ R`` passing strictly below at least one vertex of
    the triangle.
    """
    if isinstance(all_planes, np.ndarray):
        coefficients = all_planes
    else:
        coefficients = np.array([plane.coefficients() for plane in all_planes],
                                dtype=float).reshape(-1, 3)
    outside_sample = np.ones(len(coefficients), dtype=bool)
    outside_sample[np.asarray(sample_indices, dtype=np.intp)] = False
    a_column = coefficients[:, 0:1]
    b_column = coefficients[:, 1:2]
    c_column = coefficients[:, 2:3]

    results: List[List[int]] = []
    # A few triangles at a time, so that the (N, 3 * batch) height matrix
    # stays small beside the structure being built.
    batch = max(1, _CONFLICT_BATCH // (3 * max(1, len(coefficients))))
    for start in range(0, envelope.size, batch):
        # Stack the 3 vertices of each triangle in the batch: (3*batch, 3).
        vertices = np.array(
            [vertex for triangle in envelope.triangles[start:start + batch]
             for vertex in triangle.vertices], dtype=float)
        # heights[p, v] = height of plane p above vertex v's xy position.
        heights = a_column * vertices[:, 0]
        heights += b_column * vertices[:, 1]
        heights += c_column
        below = heights < (vertices[:, 2] - EPS)
        in_list = below.reshape(len(below), -1, 3).any(axis=2)
        in_list &= outside_sample[:, None]
        results.extend(np.flatnonzero(column).tolist() for column in in_list.T)
    return results


def default_domain(planes: Sequence[Plane3]
                   ) -> Tuple[float, float, float, float]:
    """A square query domain large enough for typical dual-query positions.

    The dual point of a query plane has xy-coordinates equal to the plane's
    slope coefficients, so a domain proportional to the spread of the input
    planes' own coefficients (twice the largest, at least 4) covers every
    reasonable query.  The domain is deliberately kept tight: triangles
    reaching far outside the populated region accumulate needlessly large
    conflict lists, which inflates both space and query I/Os.  Queries
    outside the domain remain correct — the index scans, and prices that
    scan in its cost estimate.  On unit-cube points with uniformly random
    query directions (the system benchmark's 3-D stream) that is 17–19% of
    the constraints with the default [-4, 4]^2; a [-24, 24]^2 domain
    scanned 16% fewer of them for 47% more space.  Callers whose queries
    mostly fall outside the default should pass an explicit domain.
    """
    scale = 0.0
    for plane in planes:
        scale = max(scale, abs(plane.a), abs(plane.b))
    half_width = max(4.0, 2.0 * scale)
    return (-half_width, half_width, -half_width, half_width)
