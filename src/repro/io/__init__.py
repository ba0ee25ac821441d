"""External-memory (I/O model) substrate.

The paper analyses every data structure in the standard external memory
model: the disk is an array of *blocks*, each block holds ``B`` records, and
the unit of cost is one block transfer (an *I/O*).  This subpackage provides
a faithful software simulation of that model:

* :class:`~repro.io.store.BlockStore` — a simulated disk with I/O counters
  and an optional LRU buffer pool of ``M/B`` blocks.
* :class:`~repro.io.backend.StorageBackend` — where blocks physically live:
  :class:`~repro.io.backend.MemoryBackend` (a dict, the default) or
  :class:`~repro.io.backend.FileBackend` (a real file, seek/read), both
  behind identical I/O accounting.
* :class:`~repro.io.disk_array.DiskArray` — a blocked sequence of records.
* :class:`~repro.io.btree.BTree` — an external B+-tree, bulk-loaded and
  probed by predecessor: the boundary tree of the 2-D structure of
  Section 3.

A block has one form, fixed when the backend's ``put`` writes it: the
read-only ``(n, d)`` float64 matrix of a point block
(:func:`~repro.io.block.as_point_matrix` is the one gate for a record
list), the record list of any other.  The medium, the buffer pool and the
batch readers all hold that one value.

All higher-level structures in :mod:`repro.core` and :mod:`repro.baselines`
perform their disk accesses exclusively through this layer, so their
reported query costs are measured in I/Os exactly as in the paper.
"""

from repro.io.backend import (
    FileBackend,
    MemoryBackend,
    StorageBackend,
    make_backend,
)
from repro.io.block import (
    BlockId,
    POINT_DTYPE,
    as_point_matrix,
    matrix_to_records,
)
from repro.io.cache import LRUCache
from repro.io.store import BlockStore, IOStats
from repro.io.disk_array import DiskArray
from repro.io.btree import BTree

__all__ = [
    "BlockId",
    "POINT_DTYPE",
    "as_point_matrix",
    "matrix_to_records",
    "LRUCache",
    "BlockStore",
    "FileBackend",
    "IOStats",
    "MemoryBackend",
    "StorageBackend",
    "make_backend",
    "DiskArray",
    "BTree",
]
