"""A Sort-Tile-Recursive (STR) packed R-tree baseline.

R-trees [29] and their packed variants are the workhorse spatial indexes of
database systems.  The STR bulk-loading used here sorts points by x, cuts
them into vertical slices, sorts each slice by y and packs leaves of B
points; internal levels pack B child bounding rectangles per node.  The
packing is a partition hierarchy whose cells are the children's tight
boxes, so the tree is a :class:`~repro.core.partition_tree.CellTreeIndex`:
halfspace queries descend into every child whose rectangle is crossed by
the constraint boundary — the same O(n) worst case as the other heuristics
on the paper's adversarial input.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.core.partition_tree import CellTreeIndex
from repro.geometry.partitions import PartitionNode
from repro.io.store import BlockStore


class RTreeIndex(CellTreeIndex):
    """STR-packed R-tree over the simulated disk (any dimension >= 2)."""

    #: The last node of a level packs what is left: one child, maybe.
    _min_cells = 1

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_capacity: Optional[int] = None,
                 fanout: Optional[int] = None):
        super().__init__(store, block_size)
        self._build_tree(points, 2,
                         fanout if fanout is not None else max(4, self.block_size),
                         leaf_capacity if leaf_capacity is not None else self.block_size,
                         None)

    def _hierarchy(self, points: np.ndarray) -> List[PartitionNode]:
        """The STR packing: leaves of ``leaf_size`` points, then levels of
        ``max_fanout`` consecutive nodes up to one root."""
        count, capacity = len(points), self._leaf_size
        order = np.argsort(points[:, 0], kind="mergesort")
        slice_size = capacity * max(1, math.ceil(math.sqrt(count / capacity)))
        nodes: List[PartitionNode] = []
        for start in range(0, count, slice_size):
            column = order[start:start + slice_size]
            column = column[np.argsort(points[column, 1], kind="mergesort")]
            nodes += [PartitionNode(column[first:first + capacity], (), None)
                      for first in range(0, len(column), capacity)]
        boxes = [np.concatenate((points[node.indices].min(axis=0),
                                 points[node.indices].max(axis=0)))
                 for node in nodes]
        level = range(len(nodes))
        d = points.shape[1]
        while len(level) > 1:
            parents = []
            for first in range(0, len(level), self._max_fanout):
                children = level[first:first + self._max_fanout]
                corners = np.array([boxes[child] for child in children])
                nodes.append(PartitionNode(
                    np.concatenate([nodes[child].indices
                                    for child in children]),
                    children, corners))
                boxes.append(np.concatenate((corners[:, :d].min(axis=0),
                                             corners[:, d:].max(axis=0))))
                parents.append(len(nodes) - 1)
            level = parents
        # Built bottom-up; numbered from the root down.
        last = len(nodes) - 1
        return [PartitionNode(node.indices,
                              [last - child for child in node.children],
                              node.corners)
                for node in reversed(nodes)]
