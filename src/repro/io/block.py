"""Disk blocks for the simulated external memory.

A :class:`Block` is the unit of transfer in the I/O model: it holds at most
``capacity`` records (the paper's parameter ``B``).  Records are arbitrary
Python objects; the simulation counts *records per block*, not bytes, which
matches the way the paper states all of its bounds (``n = N/B`` blocks,
``t = T/B`` output I/Os, and so on).

Blocks whose records are uniform float tuples — point blocks, by far the
most common payload — additionally have a *columnar* representation: one
contiguous ``(n, d)`` float64 matrix.  :func:`as_point_matrix` is the
single detection rule every layer (backends, the store's buffer pool, the
batch scan kernels) shares for a block written as a record list;
:func:`copy_point_matrix` is the gate of the columnar write path, where
the block is a float array from the start and no record is ever looked
at; and :class:`BlockPayload` is the read-only view the store hands to
batch consumers: the matrix when the block is columnar, the plain record
list otherwise.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

import numpy as np

BlockId = int
"""Identifier of a block on the simulated disk (a simple integer address)."""

#: Element type of the columnar representation of point blocks.
POINT_DTYPE = np.float64


def as_point_matrix(records) -> Optional[np.ndarray]:
    """The records as a read-only ``(n, d)`` float64 matrix, or None.

    A block qualifies for the columnar path only when *every* record is a
    non-empty tuple of floats of one common width.  The type check is
    deliberately strict (ints, strings and nested tuples are rejected,
    not coerced): the file backends persist columnar blocks as raw float64
    bytes, so any record that would not round-trip bit-for-bit through
    ``float`` must keep the pickled list path.
    """
    if not records:
        return None
    first = records[0]
    if not isinstance(first, tuple) or not first:
        return None
    width = len(first)
    for record in records:
        if not isinstance(record, tuple) or len(record) != width:
            return None
        for coordinate in record:
            if not isinstance(coordinate, (float, np.floating)):
                return None
    matrix = np.asarray(records, dtype=POINT_DTYPE)
    matrix.setflags(write=False)
    return matrix


def copy_point_matrix(matrix) -> np.ndarray:
    """A private, read-only, C-contiguous float64 copy of an ``(n, d)``
    float array: what the columnar write path stores.

    The array counterpart of :func:`as_point_matrix`, and as strict: a
    2-D array of a floating dtype with at least one column qualifies
    (float32 widens exactly), anything else raises :class:`ValueError`.
    The copy is what lets the caller keep writing to its own array.
    """
    matrix = np.asarray(matrix)
    if (matrix.ndim != 2 or matrix.shape[1] == 0
            or matrix.dtype.kind != "f"):
        raise ValueError("a columnar block is an (n, d) float array with "
                         "d >= 1, got shape %r of %s"
                         % (matrix.shape, matrix.dtype))
    matrix = np.array(matrix, dtype=POINT_DTYPE, order="C")
    matrix.setflags(write=False)
    return matrix


def matrix_to_records(matrix: np.ndarray) -> List[Tuple[float, ...]]:
    """Decode a columnar matrix back into the row-tuple record form."""
    return [tuple(row) for row in np.asarray(matrix, dtype=POINT_DTYPE).tolist()]


class BlockPayload:
    """One block's contents as served to batch consumers.

    Exactly one representation is guaranteed present: :attr:`matrix` (a
    read-only ``(n, d)`` float64 ndarray) for columnar point blocks, the
    record list otherwise.  :meth:`records` always works — a columnar
    payload decodes lazily — but callers on the hot path should use the
    matrix directly.  Payloads may share storage with the store's buffer
    pool: treat both representations as **read-only**.
    """

    __slots__ = ("matrix", "_records")

    def __init__(self, matrix: Optional[np.ndarray] = None,
                 records: Optional[List[Any]] = None):
        if matrix is None and records is None:
            raise ValueError("a payload needs a matrix or a record list")
        self.matrix = matrix
        self._records = records

    @property
    def is_columnar(self) -> bool:
        """True if this payload carries the contiguous float64 matrix."""
        return self.matrix is not None

    def records(self) -> List[Any]:
        """The record-list view (decoded from the matrix on demand)."""
        if self._records is None:
            self._records = matrix_to_records(self.matrix)
        return self._records

    def __len__(self) -> int:
        if self._records is not None:
            return len(self._records)
        return int(self.matrix.shape[0])

    def __repr__(self) -> str:
        kind = "columnar" if self.is_columnar else "records"
        return "BlockPayload(%s, %d records)" % (kind, len(self))


class Block:
    """A single disk block holding at most ``capacity`` records.

    Blocks are created and owned by a :class:`~repro.io.store.BlockStore`;
    user code normally obtains block *contents* (a list of records) from the
    store rather than manipulating :class:`Block` objects directly.
    """

    __slots__ = ("block_id", "capacity", "records")

    def __init__(self, block_id: BlockId, capacity: int,
                 records: Iterable[Any] = ()):
        if capacity <= 0:
            raise ValueError("block capacity must be positive, got %r" % capacity)
        self.block_id = block_id
        self.capacity = capacity
        self.records: List[Any] = list(records)
        if len(self.records) > capacity:
            raise ValueError(
                "block %d overflow: %d records > capacity %d"
                % (block_id, len(self.records), capacity)
            )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    @property
    def is_full(self) -> bool:
        """True if no more records fit in this block."""
        return len(self.records) >= self.capacity

    @property
    def free_slots(self) -> int:
        """Number of additional records this block can hold."""
        return self.capacity - len(self.records)

    def append(self, record: Any) -> None:
        """Add one record, raising :class:`OverflowError` if the block is full."""
        if self.is_full:
            raise OverflowError(
                "block %d is full (capacity %d)" % (self.block_id, self.capacity)
            )
        self.records.append(record)

    def extend(self, records: Iterable[Any]) -> None:
        """Add several records, raising :class:`OverflowError` on overflow."""
        for record in records:
            self.append(record)

    def copy_records(self) -> List[Any]:
        """Return a shallow copy of the records (what a disk read returns)."""
        return list(self.records)

    def matrix(self) -> Optional[np.ndarray]:
        """The records as a contiguous ``(n, d)`` float64 matrix, or None.

        Computed on demand (blocks are mutable, so the result is not
        cached here); the store's buffer pool memoizes conversions per
        cached block version instead.
        """
        return as_point_matrix(self.records)

    def __repr__(self) -> str:
        return "Block(id=%d, %d/%d records)" % (
            self.block_id, len(self.records), self.capacity)
