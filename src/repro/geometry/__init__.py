"""Computational-geometry substrate.

Everything the paper's data structures need from geometry lives here:

* :mod:`repro.geometry.primitives` — points, lines, planes, hyperplanes,
  the linear-constraint query object and ``EPS``, the one absolute
  tolerance every above/below and inside/outside test uses.
* :mod:`repro.geometry.duality` — the paper's duality transform (Lemma 2.1).
* :mod:`repro.geometry.arrangement2d` — k-levels of line arrangements
  (Section 2.3) used by the optimal 2-D structure.
* :mod:`repro.geometry.envelope3d` — triangulated lower envelopes of planes
  with conflict lists (Section 4 / Clarkson–Shor).
* :mod:`repro.geometry.point_location` — external-memory point location over
  a triangulated planar subdivision.
* :mod:`repro.geometry.boxes` / :mod:`repro.geometry.simplex` — cells used by
  the partition trees of Sections 5–6.
* :mod:`repro.geometry.partitions` — balanced simplicial partitions
  (Matoušek's Theorem 5.1 interface).
* :mod:`repro.geometry.hamsandwich` — 2-D ham-sandwich cuts (alternative
  partitioner, used for the ablation study).
* :mod:`repro.geometry.lifting` — the paraboloid lifting behind the
  k-nearest-neighbour reduction (Theorem 4.3).
"""

from repro.geometry.primitives import (
    Line2,
    LinearConstraint,
    Plane3,
    Hyperplane,
)
from repro.geometry.duality import (
    dual_line_of_point,
    dual_point_of_line,
    dual_plane_of_point,
    dual_point_of_plane,
    dual_hyperplane_of_point,
    dual_point_of_hyperplane,
)

__all__ = [
    "Line2",
    "Plane3",
    "Hyperplane",
    "LinearConstraint",
    "dual_line_of_point",
    "dual_point_of_line",
    "dual_plane_of_point",
    "dual_point_of_plane",
    "dual_hyperplane_of_point",
    "dual_point_of_hyperplane",
]
