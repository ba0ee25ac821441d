"""k-nearest-neighbour searching in the plane (Theorem 4.3).

Each stored point ``(a, b)`` is lifted to the plane
``z = a^2 + b^2 - 2 a x - 2 b y``; the height of that plane at a query
``(p, q)`` is the squared distance to the point shifted by the constant
``-(p^2 + q^2)``, so the k nearest neighbours are exactly the k lowest
lifted planes along the vertical line through the query.  The structure is
therefore a thin wrapper around
:class:`~repro.core.lowest_planes.LowestPlanesIndex`, inheriting its
O(n log2 n) expected space and O(log_B n + k/B) expected query I/Os.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lowest_planes import LowestPlanesIndex
from repro.geometry.lifting import lift_point
from repro.io.store import BlockStore


class KNNIndex:
    """External-memory k-nearest-neighbour index for planar points."""

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 copies: int = 1,
                 beta: Optional[int] = None,
                 domain: Optional[Tuple[float, float, float, float]] = None,
                 seed: Optional[int] = None):
        points = np.asarray(points, dtype=float)
        if points.size and (points.ndim != 2 or points.shape[1] != 2):
            raise ValueError("KNNIndex expects points of shape (N, 2)")
        self._points = points.reshape(-1, 2)
        self._num_points = len(self._points)
        if store is None:
            store = BlockStore(block_size=block_size)
        self._store = store
        if domain is None and self._num_points:
            # Query positions live in the same range as the data; leave a
            # margin so the envelope domain covers them without being so
            # large that boundary triangles collect bloated conflict lists.
            span = float(np.abs(self._points).max()) if self._num_points else 1.0
            width = max(4.0, 2.0 * span)
            domain = (-width, width, -width, width)
        planes = [lift_point(point) for point in self._points]
        blocks_before = store.num_blocks
        self._planes_index = LowestPlanesIndex(
            planes, store=store, copies=copies, beta=beta, domain=domain,
            seed=seed)
        self._space_blocks = store.num_blocks - blocks_before

    @property
    def store(self) -> BlockStore:
        """The simulated disk."""
        return self._store

    @property
    def block_size(self) -> int:
        """The block size B of the underlying disk."""
        return self._store.block_size

    @property
    def size(self) -> int:
        """Number of indexed points."""
        return self._num_points

    @property
    def space_blocks(self) -> int:
        """Disk blocks occupied by the index."""
        return self._space_blocks

    @property
    def planes_index(self) -> LowestPlanesIndex:
        """The underlying Theorem 4.2 structure."""
        return self._planes_index

    def nearest(self, query: Sequence[float], k: int) -> List[Tuple[float, float]]:
        """The ``k`` stored points nearest to ``query``, closest first."""
        if k <= 0 or self._num_points == 0:
            return []
        k = min(k, self._num_points)
        qx, qy = float(query[0]), float(query[1])
        lowest = self._planes_index.k_lowest(qx, qy, k)
        rows = self._points[[index for index, __ in lowest]]
        return list(map(tuple, rows.tolist()))

    def nearest_with_stats(self, query: Sequence[float], k: int):
        """Run :meth:`nearest` from a cold buffer pool and return
        ``(points, IOStats)``."""
        with self._store.measured(clear_cache=True) as ios:
            points = self.nearest(query, k)
        return points, ios
