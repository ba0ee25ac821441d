"""Simplices and simplex queries (Section 5, Remark i).

The paper defines a d-dimensional simplex as the intersection of ``d + 1``
halfspaces; the linear-size partition tree can report the points inside such
a simplex within the same I/O bound as a halfspace query.  This module
provides the simplex object used by that query path — every cell tree's
one walk — including the cell-vs-simplex tests the walk needs: a box at a
time (the scalar oracle) and a table block of boxes in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.boxes import Box
from repro.geometry.primitives import EPS


@dataclass(frozen=True)
class Halfspace:
    """A closed halfspace ``normal . x <= offset`` in R^d."""

    normal: Tuple[float, ...]
    offset: float

    def contains(self, point: Sequence[float]) -> bool:
        """True if ``point`` satisfies ``normal . x <= offset``."""
        value = sum(n * x for n, x in zip(self.normal, point))
        return value <= self.offset + EPS

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains`: a boolean mask over the rows.

        Replays the scalar accumulation order (one coefficient at a
        time) so boundary points resolve identically to :meth:`contains`.
        """
        values = np.zeros(points.shape[0], dtype=np.float64)
        for index, coefficient in enumerate(self.normal):
            if index >= points.shape[1]:
                break
            values += coefficient * points[:, index]
        return values <= self.offset + EPS

    def excludes_box(self, box: Box) -> bool:
        """True if no point of ``box`` satisfies the halfspace (exact test).

        The minimum of ``normal . x`` over an axis-aligned box is attained
        corner-wise, so the test picks the minimising corner directly.
        """
        minimum = 0.0
        for coefficient, low, high in zip(self.normal, box.lower, box.upper):
            minimum += coefficient * (low if coefficient >= 0 else high)
        return minimum > self.offset + EPS


@dataclass(frozen=True)
class Simplex:
    """A convex polytope given as an intersection of halfspaces.

    Despite the name the class accepts any number of halfspaces, so convex
    polytopes with more facets (the paper's Remark i triangulates them into
    simplices; we simply query with the polytope directly) work too.
    """

    halfspaces: Tuple[Halfspace, ...]

    @classmethod
    def from_vertices_2d(cls, vertices: Sequence[Tuple[float, float]]) -> "Simplex":
        """Build the simplex (convex polygon) spanned by 2-D ``vertices``.

        Vertices must be in counter-clockwise order; each edge contributes
        one halfspace.
        """
        if len(vertices) < 3:
            raise ValueError("a 2-D simplex needs at least 3 vertices")
        halfspaces: List[Halfspace] = []
        count = len(vertices)
        for index in range(count):
            ax, ay = vertices[index]
            bx, by = vertices[(index + 1) % count]
            # Inward side of the directed edge a->b for a CCW polygon is the
            # left side: (b-a) x (p-a) >= 0, i.e. -(by-ay)*px + (bx-ax)*py <= c.
            normal = (by - ay, -(bx - ax))
            offset = normal[0] * ax + normal[1] * ay
            halfspaces.append(Halfspace(normal=normal, offset=offset))
        return cls(tuple(halfspaces))

    @property
    def dimension(self) -> int:
        """Ambient dimension (taken from the first halfspace)."""
        return len(self.halfspaces[0].normal)

    def contains(self, point: Sequence[float]) -> bool:
        """True if ``point`` satisfies every halfspace."""
        return all(halfspace.contains(point) for halfspace in self.halfspaces)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over an ``(n, d)`` point matrix.

        Short-circuits the way the scalar ``all(...)`` does, but per
        batch: each facet is evaluated only on the rows still alive
        after the previous facets (cumulative masking), so later facets
        touch shrinking submatrices.
        """
        active = points
        indices = np.arange(points.shape[0])
        for halfspace in self.halfspaces:
            inside = halfspace.contains_many(active)
            if not inside.all():
                indices = indices[inside]
                active = active[inside]
                if indices.size == 0:
                    break
        mask = np.zeros(points.shape[0], dtype=bool)
        mask[indices] = True
        return mask

    def contains_box(self, box: Box) -> bool:
        """Exact test: every point of ``box`` lies inside the simplex."""
        return all(self.contains(corner) for corner in box.corners())

    def certainly_disjoint_from_box(self, box: Box) -> bool:
        """Conservative test: some facet halfspace excludes the whole box.

        True certifies disjointness; False means "maybe intersects" and the
        traversal recurses (correct, possibly slightly slower).
        """
        return any(halfspace.excludes_box(box)
                   for halfspace in self.halfspaces)

    def classify_boxes(self, lowers: np.ndarray,
                       uppers: np.ndarray) -> np.ndarray:
        """:meth:`certainly_disjoint_from_box` and :meth:`contains_box`
        for n boxes at once, as :data:`~repro.geometry.boxes.CELL_RELATIONS`
        codes: ABOVE when some facet excludes the box, BELOW when every
        facet contains it, else CROSSES.

        ``lowers`` / ``uppers`` are ``(n, d)`` corner matrices.  Per
        facet, two folds stand in for the 2^d corners (IEEE multiply and
        add are monotone): the least ``normal . x`` over a box is at the
        corner taking ``lower_i`` where ``normal_i >= 0`` else
        ``upper_i``, the greatest at the opposite one.  Both replay the
        scalar accumulation one coefficient at a time, so a box touching
        a facet resolves as the two scalar tests resolve it.
        """
        count = lowers.shape[0]
        excluded = np.zeros(count, dtype=bool)
        inside = np.ones(count, dtype=bool)
        for halfspace in self.halfspaces:
            least = np.zeros(count)
            most = np.zeros(count)
            for axis, coefficient in enumerate(halfspace.normal):
                rising = coefficient >= 0
                least += coefficient * (lowers if rising else uppers)[:, axis]
                most += coefficient * (uppers if rising else lowers)[:, axis]
            bound = halfspace.offset + EPS
            excluded |= least > bound
            inside &= most <= bound
        return np.add(~excluded, ~(excluded | inside), dtype=np.int8)

    def filter(self, points: Sequence[Sequence[float]]) -> List[Sequence[float]]:
        """In-memory reference filter used by the tests."""
        return [point for point in points if self.contains(point)]
