"""The three-dimensional halfspace index of Section 4 (Theorem 4.4).

``HalfspaceIndex3D`` stores N points of R^3 in O(n log2 n) expected blocks
and reports the points satisfying a 3-D linear constraint in
O(log_B n + t) expected I/Os.  It dualises the points to planes and answers
"planes below the dual query point" with the layered random-sampling
structure of :class:`~repro.core.lowest_planes.LowestPlanesIndex`: from the
conflict list of one triangle of the one layer whose envelope clears the
dual point, or from a scan when that cannot be cheaper.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.interface import ExternalIndex
from repro.core.kernels import answer_matrix
from repro.core.lowest_planes import LowestPlanesIndex
from repro.geometry.duality import dual_plane_of_point, dual_point_of_hyperplane
from repro.geometry.primitives import LinearConstraint
from repro.io.store import BlockStore


class HalfspaceIndex3D(ExternalIndex):
    """Average-case optimal halfspace reporting in R^3.

    Parameters mirror :class:`~repro.core.lowest_planes.LowestPlanesIndex`;
    ``copies`` is the number of independent sample structures (the paper
    uses three for the sharpest expectation, one is the practical default).
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 copies: int = 1,
                 beta: Optional[int] = None,
                 domain: Optional[Tuple[float, float, float, float]] = None,
                 seed: Optional[int] = None):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size and (points.ndim != 2 or points.shape[1] != 3):
            raise ValueError("HalfspaceIndex3D expects points of shape (N, 3)")
        self._points = points.reshape(-1, 3)
        self._num_points = len(self._points)
        with self._building():
            planes = [dual_plane_of_point(point) for point in self._points]
            self._planes_index = LowestPlanesIndex(
                planes,
                store=self._store,
                copies=copies,
                beta=beta,
                domain=domain,
                seed=seed,
            )

    @property
    def dimension(self) -> int:
        return 3

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def planes_index(self) -> LowestPlanesIndex:
        """The underlying Theorem 4.2 structure (exposed for diagnostics)."""
        return self._planes_index

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """The bound the query honours, ``min(scan, probes + one list)``
        (:meth:`LowestPlanesIndex.estimated_halfspace_ios`); a constraint
        whose dual point lies outside the envelopes' domain is a scan."""
        if expected_output is None:
            expected_output = min(self.size, self.block_size)
        qx, qy = constraint.coeffs
        return self._planes_index.estimated_halfspace_ios(
            qx, qy, max(0.0, expected_output))

    def check_invariants(self) -> None:
        """Raise AssertionError unless every stored layer, its point
        locator included, holds Section 4.1's relations
        (:meth:`LowestPlanesIndex.check_invariants`); charges no I/O."""
        self._planes_index.check_invariants()

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report every stored point satisfying the 3-D linear constraint."""
        if constraint.dimension != 3:
            raise ValueError("expected a 3-D constraint, got dimension %d"
                             % constraint.dimension)
        if not self._num_points:
            return answer_matrix((), 3)
        qx, qy, qz = dual_point_of_hyperplane(constraint.hyperplane)
        indices = self._planes_index.planes_below_point(qx, qy, qz)
        # layer, probes, list_blocks and scanned
        # (:attr:`LowestPlanesIndex.last_query`).
        self.last_query = self._planes_index.last_query
        return answer_matrix((self._points[indices],), 3)
