"""An external bucket PR quad-tree (Section 1.2 baseline).

Each node covers a square region; leaves hold up to B points, internal
nodes list the nonempty ones of their four quadrants.  The quadrants are
a partition hierarchy, so the tree is a
:class:`~repro.core.partition_tree.CellTreeIndex`: halfspace queries
recurse into every child whose square is crossed by the boundary line.  On
uniformly distributed points the expected cost is O(sqrt(n) + t) I/Os, but
on the diagonal input with a slightly rotated query line the boundary
crosses Ω(n) squares — the degradation the paper highlights.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.partition_tree import CellTreeIndex
from repro.geometry.partitions import PartitionNode
from repro.io.store import BlockStore


class QuadTreeIndex(CellTreeIndex):
    """Bucket PR quad-tree over the simulated disk (2-D points only)."""

    #: A node's points may all fall in one quadrant.
    _min_cells = 1

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_capacity: Optional[int] = None,
                 max_depth: int = 32):
        super().__init__(store, block_size)
        if np.shape(points)[1:] not in ((), (2,)):
            raise ValueError("QuadTreeIndex expects points of shape (N, 2)")
        self._max_depth = max_depth
        self._build_tree(points, 2, None,
                         leaf_capacity if leaf_capacity is not None else self.block_size,
                         None)

    def _leaf_limit(self, depth: int) -> int:
        # A leaf at the depth limit keeps every point that reached it.
        return self.size if depth >= self._max_depth else self._leaf_size

    def _hierarchy(self, points: np.ndarray) -> List[PartitionNode]:
        """The midpoint quadrants of the padded bounding square, split
        until a node holds ``leaf_size`` points or sits at ``max_depth``."""
        nodes: List[PartitionNode] = []

        def split(indices: np.ndarray, square: tuple, depth: int) -> int:
            number = len(nodes)
            nodes.append(PartitionNode(indices, (), None))
            if len(indices) <= self._leaf_size or depth >= self._max_depth:
                return number
            x0, y0, x1, y1 = square
            mid_x, mid_y = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            quadrant = ((points[indices, 0] > mid_x)
                        + 2 * (points[indices, 1] > mid_y))
            children, corners = [], []
            for code, corner in enumerate(((x0, y0, mid_x, mid_y),
                                           (mid_x, y0, x1, mid_y),
                                           (x0, mid_y, mid_x, y1),
                                           (mid_x, mid_y, x1, y1))):
                inside = indices[quadrant == code]
                if len(inside):
                    children.append(split(inside, corner, depth + 1))
                    corners.append(corner)
            nodes[number] = PartitionNode(indices, children,
                                          np.array(corners))
            return number

        pad = 1e-9 + 1e-9 * float(np.abs(points).max())
        square = np.concatenate((points.min(axis=0) - pad,
                                 points.max(axis=0) + pad))
        split(np.arange(len(points)), tuple(square.tolist()), 0)
        return nodes
