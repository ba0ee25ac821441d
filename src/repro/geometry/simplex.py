"""Simplices and simplex queries (Section 5, Remark i).

The paper defines a d-dimensional simplex as the intersection of ``d + 1``
halfspaces; the linear-size partition tree can report the points inside such
a simplex within the same I/O bound as a halfspace query.  This module
provides the simplex object used by that query path — every cell tree's
one walk — including the cell-vs-simplex test the walk needs, a table
block of boxes in one call (the box-at-a-time tests are the tests'
oracle, ``tests/geometry_oracle.py``).
A facet is a raw :class:`Halfspace` or a constraint, which tests points
and boxes with its own membership fold: a conjunction's polytope holds a
point iff every conjunct's ``below`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.geometry.primitives import EPS, LinearConstraint


@dataclass(frozen=True)
class Halfspace:
    """A closed halfspace ``normal . x <= offset`` in R^d."""

    normal: Tuple[float, ...]
    offset: float

    @property
    def dimension(self) -> int:
        """Ambient dimension (the normal's length)."""
        return len(self.normal)

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

    def classify_boxes(self, lowers: np.ndarray,
                       uppers: np.ndarray) -> np.ndarray:
        """Relate n boxes (``(n, d)`` corner matrices) to the halfspace,
        as :data:`~repro.geometry.boxes.CELL_RELATIONS` codes.  IEEE
        multiply and add are monotone, so :meth:`contains`'s fold at the
        corner taking ``lower_i`` where ``normal_i >= 0`` else ``upper_i``
        is the box's least, at the opposite corner its greatest."""
        least = np.zeros(lowers.shape[0])
        most = np.zeros(lowers.shape[0])
        for axis, coefficient in enumerate(self.normal):
            rising = coefficient >= 0
            least += coefficient * (lowers if rising else uppers)[:, axis]
            most += coefficient * (uppers if rising else lowers)[:, axis]
        bound = self.offset + EPS
        outside = least > bound
        return np.add(~outside, ~(outside | (most <= bound)), dtype=np.int8)


@dataclass(frozen=True)
class Simplex:
    """A convex polytope given as an intersection of halfspaces.

    Despite the name the class accepts any number of halfspaces, so convex
    polytopes with more facets (the paper's Remark i triangulates them into
    simplices; we simply query with the polytope directly) work too.
    """

    halfspaces: Tuple[Union[LinearConstraint, Halfspace], ...]

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
        """Ambient dimension (taken from the first facet)."""
        return self.halfspaces[0].dimension

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
        """Relate n boxes (``(n, d)`` corner matrices) to the polytope,
        as :data:`~repro.geometry.boxes.CELL_RELATIONS` codes: ABOVE when
        some facet's own box form finds the box outside it, BELOW when
        every facet's finds it inside, else CROSSES."""
        excluded = np.zeros(lowers.shape[0], dtype=bool)
        inside = np.ones(lowers.shape[0], dtype=bool)
        for facet in self.halfspaces:
            codes = facet.classify_boxes(lowers, uppers)
            excluded |= codes == 0
            inside &= codes == 1
        return np.add(~excluded, ~(excluded | inside), dtype=np.int8)
