"""Blocked sequences of records on the simulated disk.

A :class:`DiskArray` is the external-memory analogue of a Python list: a
sequence of records packed ``B`` to a block.  Scanning it costs ⌈N/B⌉ I/Os,
appending fills the last block before allocating a new one, and random
access costs one I/O per touched block.  It is the building material for
conflict lists (Section 4), cluster storage (Section 3) and leaf buckets of
the partition trees (Sections 5–6).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.io.block import BlockId, StoredBlock
from repro.io.store import BlockStore


class DiskArray:
    """A growable sequence of records stored contiguously in disk blocks."""

    def __init__(self, store: BlockStore, records: Optional[Sequence[Any]] = None):
        self._store = store
        self._block_ids: List[BlockId] = []
        self._length = 0
        self._last_block_fill = 0
        if records:
            self.extend(records)

    @classmethod
    def from_matrix(cls, store: BlockStore, matrix: np.ndarray) -> "DiskArray":
        """The array whose records are the rows of an ``(n, d)`` float
        array, written through the columnar path
        (:meth:`BlockStore.allocate_matrix`): block for block and charge
        for charge ``DiskArray(store, rows as tuples)``, no tuple built.
        """
        return cls._packed(store, store.allocate_matrix(matrix), len(matrix))

    @classmethod
    def from_rows(cls, store: BlockStore, rows: np.ndarray,
                  lengths: Sequence[int]) -> List["DiskArray"]:
        """One array per consecutive stretch of ``rows``, ``lengths[i]``
        rows each, all written in one :meth:`BlockStore.allocate_arrays`
        call: array for array :meth:`from_matrix` of each stretch in
        turn.  ``rows`` is a private read-only float64 matrix the caller
        writes no more; the blocks are its row slices."""
        return [cls._packed(store, block_ids, length)
                for block_ids, length in zip(
                    store.allocate_arrays(rows, lengths), lengths)]

    @classmethod
    def _packed(cls, store: BlockStore, block_ids: List[BlockId],
                length: int) -> "DiskArray":
        """The array over ``length`` records just written, packed ``B``
        to a block, into ``block_ids``."""
        array = cls(store)
        array._block_ids = block_ids
        array._length = length
        if length:
            array._last_block_fill = (length - 1) % store.block_size + 1
        return array

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def store(self) -> BlockStore:
        """The block store this array lives on."""
        return self._store

    @property
    def num_blocks(self) -> int:
        """Number of blocks occupied (the array's space usage)."""
        return len(self._block_ids)

    @property
    def block_ids(self) -> List[BlockId]:
        """The block addresses, in order (useful for debugging/tests)."""
        return list(self._block_ids)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, record: Any) -> None:
        """Append one record, allocating a new block when the last is full."""
        B = self._store.block_size
        if not self._block_ids or self._last_block_fill == B:
            self._block_ids.append(self._store.allocate([record]))
            self._last_block_fill = 1
        else:
            last_id = self._block_ids[-1]
            records = self._store.read(last_id)
            records.append(record)
            self._store.write(last_id, records)
            self._last_block_fill += 1
        self._length += 1

    def extend(self, records: Iterable[Any]) -> None:
        """Append many records with blocked writes (1 write I/O per block)."""
        B = self._store.block_size
        pending = list(records)
        if not pending:
            return
        index = 0
        # Fill the trailing partially-full block first.
        if self._block_ids and self._last_block_fill < B:
            last_id = self._block_ids[-1]
            existing = self._store.read(last_id)
            take = min(B - len(existing), len(pending))
            existing.extend(pending[:take])
            self._store.write(last_id, existing)
            self._last_block_fill = len(existing)
            self._length += take
            index = take
        # Then write whole blocks.
        while index < len(pending):
            chunk = pending[index:index + B]
            self._block_ids.append(self._store.allocate(chunk))
            self._last_block_fill = len(chunk)
            self._length += len(chunk)
            index += B

    def clear(self) -> None:
        """Free every block and reset the array to empty."""
        for block_id in self._block_ids:
            self._store.free(block_id)
        self._block_ids = []
        self._length = 0
        self._last_block_fill = 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def scan_batches(self) -> Iterator[StoredBlock]:
        """Yield each block in its stored form, front to back: one read
        or cache hit per block, a point block as its contiguous
        read-only ``(n, d)`` matrix (any other block as its read-only
        record list).  Lazy — block ``i + 1`` is read when the caller
        asks for it; a caller that wants every block anyway uses
        :meth:`BlockStore.read_run`.
        """
        return map(self._store.read_payload, self._block_ids)

    def read_all_array(self) -> Optional[np.ndarray]:
        """Read the whole array as one stacked ``(N, d)`` float64 matrix
        (⌈N/B⌉ reads or pool hits, one per block, in order).  Returns
        None when any block is non-columnar (mixed records, width
        mismatch) or the array is empty.
        """
        matrices = self._store.read_run(self._block_ids)
        if not matrices or not all(isinstance(block, np.ndarray)
                                   for block in matrices):
            return None
        if len(matrices) == 1:
            return matrices[0]
        widths = {matrix.shape[1] for matrix in matrices}
        if len(widths) != 1:
            return None
        return np.concatenate(matrices, axis=0)

    def __getitem__(self, position: int) -> Any:
        """Random access to one record (one block read).  Iterating an
        array goes through here: one block read per record."""
        if position < 0:
            position += self._length
        if not 0 <= position < self._length:
            raise IndexError("DiskArray index %d out of range" % position)
        B = self._store.block_size
        block_index, offset = divmod(position, B)
        return self._store.read(self._block_ids[block_index])[offset]

    def read_range_array(self, start: int, stop: int) -> np.ndarray:
        """Records ``[start, stop)`` of a columnar array as one matrix.

        Only the blocks the range touches, ``last - first + 1`` of them,
        read as one :meth:`BlockStore.read_run`; a view when one block
        holds the range.  ``start < stop``, and every block must be
        columnar.
        """
        B = self._store.block_size
        first_block = start // B
        blocks = self._store.read_run(
            self._block_ids[first_block:(stop - 1) // B + 1])
        matrix = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        return matrix[start - first_block * B:stop - first_block * B]

    def check_invariants(self) -> None:
        """Raise AssertionError unless the records are packed: ⌈len/B⌉
        allocated blocks, each holding ``B`` records but the last, which
        holds ``_last_block_fill``.

        The blocks are read from the backend directly, so no I/O is
        charged and the buffer pool is untouched (a file backend still
        counts the bytes it reads).
        """
        B = self._store.block_size
        backend = self._store.backend
        missing = [i for i in self._block_ids if not backend.contains(i)]
        if missing:
            raise AssertionError("blocks %r are not allocated" % missing)
        sizes = [len(backend.get_payload(i)) for i in self._block_ids]
        packed = [B] * (len(sizes) - 1) + [self._last_block_fill] \
            if sizes else []
        if sizes != packed or sum(sizes) != self._length \
                or len(sizes) != -(-self._length // B):
            raise AssertionError("%d records of B = %d in blocks of %r, "
                                 "last fill %d" % (self._length, B, sizes,
                                                   self._last_block_fill))

    def __repr__(self) -> str:
        return "DiskArray(len=%d, blocks=%d)" % (self._length, self.num_blocks)
