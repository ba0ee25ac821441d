"""repro — external-memory halfspace range searching.

A faithful reproduction of *Efficient Searching with Linear Constraints*
(Agarwal, Arge, Erickson, Franciosa, Vitter; PODS 1998 / JCSS 2000): data
structures that store a set of points on (simulated) disk and report the
points satisfying a linear constraint ``x_d <= a_0 + sum_i a_i x_i`` using
as few block transfers (I/Os) as possible.

Quickstart::

    import numpy as np
    from repro import HalfplaneIndex2D, LinearConstraint

    points = np.random.default_rng(0).uniform(-1, 1, size=(10_000, 2))
    index = HalfplaneIndex2D(points, block_size=64)
    query = LinearConstraint(coeffs=(0.5,), offset=0.1)   # y <= 0.5 x + 0.1
    result = index.query_with_stats(query)
    print(len(result.points), "points in", result.total_ios, "I/Os")

The main entry points are the index classes re-exported below; the
underlying substrates (the simulated disk, geometry kernels, workload
generators) live in :mod:`repro.io`, :mod:`repro.geometry` and
:mod:`repro.workloads`.
"""

from repro.core import (
    ConstraintConjunction,
    ExternalIndex,
    HalfplaneIndex2D,
    HalfspaceIndex3D,
    HybridIndex3D,
    KNNIndex,
    LowestPlanesIndex,
    PartitionTreeIndex,
    QueryResult,
    ShallowPartitionTreeIndex,
    query_conjunction,
)
from repro.engine import QueryEngine
from repro.geometry.primitives import Hyperplane, Line2, LinearConstraint, Plane3
from repro.io import BlockStore, BTree, DiskArray, IOStats

__version__ = "1.0.0"

__all__ = [
    "ExternalIndex",
    "QueryResult",
    "HalfplaneIndex2D",
    "HalfspaceIndex3D",
    "HybridIndex3D",
    "KNNIndex",
    "LowestPlanesIndex",
    "PartitionTreeIndex",
    "ShallowPartitionTreeIndex",
    "ConstraintConjunction",
    "query_conjunction",
    "QueryEngine",
    "LinearConstraint",
    "Hyperplane",
    "Line2",
    "Plane3",
    "BlockStore",
    "BTree",
    "DiskArray",
    "IOStats",
    "__version__",
]
