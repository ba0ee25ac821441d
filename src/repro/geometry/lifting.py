"""The paraboloid lifting behind the k-nearest-neighbour reduction.

Theorem 4.3 maps each planar point ``(a, b)`` to the plane
``z = a^2 + b^2 - 2 a x - 2 b y``; the k nearest neighbours of a query
``(p, q)`` are exactly the k lowest of these planes along the vertical line
through ``(p, q, 0)``, because the height of the lifted plane at ``(p, q)``
equals ``|pq|^2 - (p^2 + q^2)`` — a constant shift of the squared distance.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.primitives import Plane3


def lift_point(point: Sequence[float]) -> Plane3:
    """Lift a planar point ``(a, b)`` to its distance plane."""
    a, b = float(point[0]), float(point[1])
    return Plane3(a=-2.0 * a, b=-2.0 * b, c=a * a + b * b)
