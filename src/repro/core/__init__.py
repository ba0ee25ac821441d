"""The paper's data structures (its primary contributions).

* :class:`~repro.core.halfplane2d.HalfplaneIndex2D` — Section 3's optimal
  2-D structure: O(n) blocks, O(log_B n + t) worst-case query I/Os.
* :class:`~repro.core.halfspace3d.HalfspaceIndex3D` — Section 4's 3-D
  structure: O(n log2 n) blocks, O(log_B n + t) expected query I/Os, built
  on :class:`~repro.core.lowest_planes.LowestPlanesIndex`.
* :class:`~repro.core.knn.KNNIndex` — Theorem 4.3's k-nearest-neighbour
  structure via the paraboloid lifting.
* :class:`~repro.core.partition_tree.PartitionTreeIndex` — Section 5's
  linear-size structure for any dimension, with simplex queries.
* :class:`~repro.core.shallow_tree.ShallowPartitionTreeIndex` — Theorem 6.3's
  O(n log_B n)-space, O(n^eps + t) structure.
* :class:`~repro.core.hybrid3d.HybridIndex3D` — Theorem 6.1's space/query
  trade-off combining the partition tree with 3-D structures at the leaves.
"""

from repro.core.interface import ExternalIndex, QueryResult
from repro.core.halfplane2d import HalfplaneIndex2D
from repro.core.lowest_planes import LowestPlanesIndex
from repro.core.halfspace3d import HalfspaceIndex3D
from repro.core.knn import KNNIndex
from repro.core.partition_tree import PartitionTreeIndex
from repro.core.shallow_tree import ShallowPartitionTreeIndex
from repro.core.hybrid3d import HybridIndex3D
from repro.core.conjunction import (
    ConstraintConjunction,
    query_conjunction,
)

__all__ = [
    "ExternalIndex",
    "QueryResult",
    "HalfplaneIndex2D",
    "LowestPlanesIndex",
    "HalfspaceIndex3D",
    "KNNIndex",
    "PartitionTreeIndex",
    "ShallowPartitionTreeIndex",
    "HybridIndex3D",
    "ConstraintConjunction",
    "query_conjunction",
]
