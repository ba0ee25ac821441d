"""Baseline external-memory structures the paper compares against.

Section 1.2 of the paper reviews the practical spatial indexes of the
database literature — quad-trees, R-trees, k-d-B-trees — and points out
that, although they answer halfspace queries correctly, their worst-case
query cost degrades to Ω(n) I/Os (for example on points lying on a diagonal
line queried with a slightly rotated halfplane).  These baselines exist so
the benchmarks can demonstrate exactly that contrast against the paper's
structures, plus the trivial full scan and the naively paged
internal-memory structure (O(log2 N + T) I/Os).  The R-tree and the
quad-tree are cell trees (:class:`~repro.core.partition_tree.CellTreeIndex`)
built from hierarchies of their own; the k-d-B-tree packs binary nodes
into pages and walks them itself.
"""

from repro.baselines.full_scan import FullScanIndex
from repro.baselines.quadtree import QuadTreeIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.kdb_tree import KDBTreeIndex
from repro.baselines.paged_cgl import PagedDualIndex2D

__all__ = [
    "FullScanIndex",
    "QuadTreeIndex",
    "RTreeIndex",
    "KDBTreeIndex",
    "PagedDualIndex2D",
]
