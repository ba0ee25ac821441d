"""Simplices and simplex queries (Section 5, Remark i).

The paper defines a d-dimensional simplex as the intersection of ``d + 1``
halfspaces; the linear-size partition tree can report the points inside such
a simplex within the same I/O bound as a halfspace query.  This module
provides the simplex object used by that query path — every cell tree's
one walk — including the cell-vs-simplex test the walk needs, a table
block of boxes in one call (the box-at-a-time tests are the tests'
oracle, ``tests/geometry_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

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

    def classify_boxes(self, lowers: np.ndarray,
                       uppers: np.ndarray) -> np.ndarray:
        """Relate n boxes to the polytope at once, as
        :data:`~repro.geometry.boxes.CELL_RELATIONS` codes: ABOVE when
        some facet excludes the box, BELOW when every facet contains it
        (every corner passes :meth:`contains`), else CROSSES.

        ``lowers`` / ``uppers`` are ``(n, d)`` corner matrices.  Per
        facet, two folds stand in for the 2^d corners (IEEE multiply and
        add are monotone): the least ``normal . x`` over a box is at the
        corner taking ``lower_i`` where ``normal_i >= 0`` else
        ``upper_i``, the greatest at the opposite one.  Both replay the
        per-corner accumulation one coefficient at a time, so a box
        touching a facet resolves as a corner-by-corner test resolves it.
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
