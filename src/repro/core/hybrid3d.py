"""The space/query trade-off structure for R^3 (Section 6, Theorem 6.1).

``HybridIndex3D`` runs the partition-tree recursion of Section 5 but stops
as soon as a subset has at most ``B^a`` points; each such leaf subset is
stored in the Section 4 random-sampling structure.  The result uses
O(n log2 B) blocks and answers a halfspace query in
O((n / B^{a-1})^{2/3+ε} + t) expected I/Os: the tree shrinks the problem to
O((n/B^{a-1})^{2/3+ε}) leaves crossed by the query plane, and each of those
answers its residual query in O(log_B n + t_leaf) expected I/Os.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.halfspace3d import HalfspaceIndex3D
from repro.core.partition_tree import (CellTreeIndex, Partitioner, Region,
                                      _Node)
from repro.geometry.primitives import LinearConstraint
from repro.io.store import BlockStore


class HybridIndex3D(CellTreeIndex):
    """Theorem 6.1: O(n log2 B) space, O((n/B^{a-1})^{2/3+ε} + t) query I/Os.

    Parameters
    ----------
    leaf_exponent:
        The constant ``a > 1``: recursion stops at subsets of ``<= B^a``
        points, which are then indexed by the Section 4 structure (each
        leaf also keeps a raw copy for unfiltered reporting, and for a
        polytope query, which the structure does not answer).
    copies / seed:
        Passed through to the leaf structures.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 leaf_exponent: float = 1.5,
                 max_fanout: Optional[int] = None,
                 copies: int = 1,
                 partitioner: Optional[Partitioner] = None,
                 seed: Optional[int] = None):
        super().__init__(store, block_size)
        if leaf_exponent <= 1.0:
            raise ValueError("leaf_exponent must be > 1 (the paper's a > 1)")
        points = np.asarray(points, dtype=float)
        if points.ndim == 2 and points.shape[1] != 3:
            raise ValueError("HybridIndex3D expects points of shape (N, 3)")
        self._copies = copies
        self._seed = seed
        self._build_tree(points, 3, max_fanout,
                         max(self.block_size,
                             int(round(self.block_size ** leaf_exponent))),
                         partitioner)
        #: Per pricing slot, whether its node is a leaf.
        self._leaf_slots = np.array(
            [] if self._costs is None else
            [self._nodes[node].is_leaf for node in self._costs.node.tolist()],
            dtype=bool)
        if self._costs is not None:
            # A crossed leaf reads none of its raw copy: it is its Section 4
            # structure's query, priced there.
            self._costs.own[self._leaf_slots] = 0

    def _leaf_structure(self, points: np.ndarray) -> HalfspaceIndex3D:
        """A leaf's Section 4 structure, written before its raw copy."""
        return HalfspaceIndex3D(points, store=self._store,
                                copies=self._copies, seed=self._seed)

    def _delegated(self, crossed: np.ndarray) -> np.ndarray:
        """The crossed leaves: each structure prices its own query."""
        return crossed & self._leaf_slots

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    _steps = ("leaves_queried", "leaf_scans")

    def _answer_delegated(self, node: _Node, region: Region,
                          scan: kernels.DeferredScan) -> None:
        """Ask the leaf's structure; count it, and whether it scanned
        instead of reading one conflict list.  The structure answers a
        constraint only: under a polytope the leaf's raw copy joins the
        scan, filtered, as any cell tree's crossed leaf does."""
        if not isinstance(region, LinearConstraint):
            scan.add(node.points_array, filtered=True)
            return
        scan.extend(node.leaf_index.query(region))
        scan.steps["leaves_queried"] += 1
        if node.leaf_index.last_query["scanned"] is not None:
            scan.steps["leaf_scans"] += 1
