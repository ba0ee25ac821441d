"""Shallow partition trees (Section 6, Theorem 6.3).

``ShallowPartitionTreeIndex`` trades a log factor of space for query time:
it uses O(n log_B n) blocks and answers a halfspace query in O(n^ε + t)
I/Os (in R^3, and O(n^{1-1/⌊d/2⌋+ε} + t) in higher dimensions).

Every internal node stores, besides its balanced partition, a *secondary*
ordinary partition tree over the same point subset.  A query that crosses
more than ``β log2 r_v`` of the node's cells cannot be shallow with respect
to the subset (Matoušek's Theorem 6.2); in that case the output below the
hyperplane within the subtree is Ω(N_v / r), so handing the query to the
secondary structure costs O(n_v^{1-1/d} + t_v) = O(t_v) I/Os and the
recursion only ever continues through few crossed cells.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.partition_tree import (CellTreeIndex, PartitionTreeIndex,
                                       Partitioner, Region, _Node)
from repro.io.store import BlockStore


class ShallowPartitionTreeIndex(CellTreeIndex):
    """O(n log_B n)-space, O(n^ε + t)-I/O halfspace reporting.

    Parameters
    ----------
    shallow_factor:
        The constant β in the shallowness test ``crossed > β log2 r_v``.
    Other parameters are as for :class:`PartitionTreeIndex`.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 max_fanout: Optional[int] = None,
                 leaf_capacity: Optional[int] = None,
                 shallow_factor: float = 2.0,
                 partitioner: Optional[Partitioner] = None):
        super().__init__(store, block_size)
        self._shallow_factor = shallow_factor
        self._build_tree(points, 2, max_fanout,
                         leaf_capacity if leaf_capacity is not None else self.block_size,
                         partitioner)
        #: Per pricing slot, the crossings its node tolerates.
        self._crossing_limits = np.array(
            [] if self._costs is None else
            [self._nodes[node].crossing_threshold
             for node in self._costs.node.tolist()])

    def _internal_node(self, indices: np.ndarray,
                       cell_table: np.ndarray) -> _Node:
        secondary = PartitionTreeIndex(
            self._points[indices],
            store=self._store,
            max_fanout=self._max_fanout,
            leaf_capacity=self._leaf_size,
            partitioner=self._partitioner,
        )
        node = super()._internal_node(indices, cell_table)
        node.secondary = secondary
        node.crossing_threshold = max(1, int(math.ceil(
            self._shallow_factor * math.log2(max(2, len(cell_table))))))
        return node

    def _delegated(self, crossed: np.ndarray) -> np.ndarray:
        """The nodes crossing more of their cells than they tolerate:
        a walk hands those to their secondary trees."""
        parents = self._costs.parent[1:]       # of every slot but the root
        crossings = np.bincount(parents[crossed[1:]], minlength=len(crossed))
        return crossings > self._crossing_limits

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    _steps = ("secondary_walks",)
    #: A crossed node's whole table is classified before any child is
    #: visited: its crossed cells decide whether it is shallow.
    _whole_tables = True

    def _answer_delegated(self, node: _Node, region: Region,
                          scan: kernels.DeferredScan) -> None:
        """The query is not shallow for this node's subset: answer it
        with the node's secondary (ordinary) partition tree, whose walk
        counts its crossed nodes into the same account."""
        scan.steps["secondary_walks"] += 1
        node.secondary.walk(region, scan)
