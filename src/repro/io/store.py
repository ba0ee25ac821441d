"""The simulated disk: block allocation, transfers and I/O accounting.

:class:`BlockStore` is the single point through which every data structure
in this repository touches "disk".  It exposes exactly the operations the
external memory model charges for — reading a block and writing a block —
and counts them.  A small LRU buffer pool (``cache_blocks`` blocks, i.e. the
model's ``M/B``) can absorb repeated reads of hot blocks; by default it is
sized to a handful of blocks so that reported counts reflect the structure
of the algorithm rather than incidental caching.

Where the blocks physically live is delegated to a pluggable
:class:`~repro.io.backend.StorageBackend` (an in-memory dict by default, a
real file with :class:`~repro.io.backend.FileBackend`).  Every backend sits
behind the same charging points, so swapping backends changes the medium
without changing any measured I/O count.  The pool holds each resident
block in the one form the backend stored it (the read-only matrix of a
point block, the record list of any other), so a hit hands over the
value a miss would have fetched.

Inside :meth:`BlockStore.write_run` (every index build is one) a write
is charged and pooled at once but reaches the backend with the rest of
the run (up to 256 blocks), in one
:meth:`~repro.io.backend.StorageBackend.put_run`; the run is handed
over first whenever anything asks the backend, so what the backend
holds, and every counter, is as if each block had been written on its
own.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.io.backend import StorageBackend, make_backend, stored_form
from repro.io.block import (POINT_DTYPE, BlockId, StoredBlock, block_records,
                            copy_point_matrix)
from repro.io.cache import LRUCache


@dataclass
class IOStats:
    """Counters of block transfers performed through a :class:`BlockStore`.

    ``reads`` and ``writes`` are the two directions of block transfer; the
    paper's bounds are stated on their sum (``total``).  ``allocations`` and
    ``frees`` track space usage events and are not charged as I/Os.
    """

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    cache_hits: int = 0

    @property
    def total(self) -> int:
        """Total number of I/Os (block reads plus block writes)."""
        return self.reads + self.writes

    def snapshot(self) -> "IOStats":
        """Return a copy of the current counters."""
        return IOStats(self.reads, self.writes, self.allocations,
                       self.frees, self.cache_hits)

    def delta(self, earlier: "IOStats") -> "IOStats":
        """Return counters accumulated since ``earlier`` (a snapshot)."""
        return IOStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            allocations=self.allocations - earlier.allocations,
            frees=self.frees - earlier.frees,
            cache_hits=self.cache_hits - earlier.cache_hits,
        )

    def merge(self, other: "IOStats") -> None:
        """Accumulate another counter set into this one (shard fan-out)."""
        self.reads += other.reads
        self.writes += other.writes
        self.allocations += other.allocations
        self.frees += other.frees
        self.cache_hits += other.cache_hits

    def reset(self) -> None:
        """Zero every counter."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0
        self.cache_hits = 0

    def __repr__(self) -> str:
        return ("IOStats(reads=%d, writes=%d, total=%d, cache_hits=%d)"
                % (self.reads, self.writes, self.total, self.cache_hits))


class BlockStore:
    """A simulated disk made of fixed-capacity blocks.

    Parameters
    ----------
    block_size:
        The paper's ``B`` — number of records per block.
    cache_blocks:
        Size of the LRU buffer pool in blocks (the model's ``M/B``).  A value
        of 0 disables caching.
    backend:
        Where blocks physically live: None / ``"memory"`` (a dict, the
        default), ``"file"`` (a temporary file), or a
        :class:`~repro.io.backend.StorageBackend` instance.
        The I/O accounting is identical for every backend.
    """

    def __init__(self, block_size: int, cache_blocks: int = 4,
                 backend: object = None):
        if block_size <= 0:
            raise ValueError("block_size must be positive, got %r" % block_size)
        self._block_size = block_size
        self._backend: StorageBackend = make_backend(backend)
        self._next_id: BlockId = 0
        for existing in self._backend.block_ids():
            self._next_id = max(self._next_id, existing + 1)
        self._cache: LRUCache[BlockId, StoredBlock] = LRUCache(cache_blocks)
        self.stats = IOStats()
        #: The open write run: blocks written (charged and pooled) but
        #: not yet handed to the backend, in write order, and how many
        #: :meth:`write_run` blocks are open.
        self._run_ids: List[BlockId] = []
        self._run_blocks: List[StoredBlock] = []
        self._runs_open = 0
        #: Writes handed to the backend, each one ``put_run``.
        self.write_runs = 0
        #: Serializes whole queries from multi-threaded executors.  One
        #: store models one disk, which serves one request at a time; the
        #: store's own operations are NOT internally locked, so any driver
        #: running concurrent operations against a shared store must run
        #: each inside :meth:`measured` (the engine does), which holds
        #: this.
        self.lock = threading.Lock()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """The number of records per block (``B``)."""
        return self._block_size

    @property
    def backend(self) -> StorageBackend:
        """The storage backend holding this store's blocks (the open
        write run handed to it first)."""
        return self._flushed()

    @property
    def num_blocks(self) -> int:
        """Number of currently allocated blocks (the space usage in blocks)."""
        return len(self._flushed())

    # ------------------------------------------------------------------
    # write runs
    # ------------------------------------------------------------------
    #: The most blocks a run holds before it is handed over: it bounds
    #: what a pending run keeps in memory (a tree's 1 000-odd leaf blocks
    #: held to the end of its build lifted the peak RSS of a file-backed
    #: registration by about 1 MB).
    _RUN_BLOCKS = 256

    @contextmanager
    def write_run(self) -> Iterator[None]:
        """Hand the blocks written inside the ``with`` block to the
        backend as one run, when the outermost such block exits (or each
        time the run reaches :attr:`_RUN_BLOCKS` blocks).

        Nothing observable moves: each write is charged and pooled when
        it is made, and the run is handed over first whenever anything
        asks the backend (a read miss, :meth:`free`, :meth:`write`,
        :attr:`num_blocks`, :attr:`backend`, :meth:`byte_counters`,
        :meth:`close`), so block ids, :class:`IOStats`, the pool and the
        bytes of a log are those of one backend write per block.
        """
        self._runs_open += 1
        try:
            yield
        finally:
            self._runs_open -= 1
            if not self._runs_open:
                self._flushed()

    def _flushed(self) -> StorageBackend:
        """The backend, the open write run handed to it first."""
        if self._run_ids:
            block_ids, blocks = self._run_ids, self._run_blocks
            self._run_ids, self._run_blocks = [], []
            self._backend.put_run(block_ids, blocks)
            self.write_runs += 1
        return self._backend

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, records: Sequence[Any]) -> BlockId:
        """Allocate a fresh block holding ``records`` and write it.

        The initial write is charged as one write I/O (building a structure
        has to pay for writing it out, as in the paper's preprocessing
        bounds).
        """
        block_id = self._next_id
        self._next_id += 1
        self._put(block_id, records)
        self.stats.allocations += 1
        return block_id

    def allocate_many(self, records: Sequence[Any]) -> List[BlockId]:
        """Write ``records`` contiguously into ⌈len/B⌉ fresh blocks."""
        B = self._block_size
        return [self.allocate(records[start:start + B])
                for start in range(0, len(records), B)]

    def allocate_matrix(self, matrix: np.ndarray) -> List[BlockId]:
        """Write the rows of an ``(n, d)`` float array contiguously into
        ⌈n/B⌉ fresh blocks: :meth:`allocate_arrays` of one private
        read-only copy (:func:`~repro.io.block.copy_point_matrix`, which
        raises :class:`ValueError` for anything but a 2-D float array
        with a column), so the caller may keep writing to its own array.

        :meth:`allocate_many` of the row tuples — the same block ids,
        charges and write-through pool entries, in the same order, and
        the same blocks read back — without a tuple per record.
        """
        return self.allocate_arrays(copy_point_matrix(matrix),
                                    [len(matrix)])[0]

    def allocate_arrays(self, rows: np.ndarray,
                        lengths: Sequence[int]) -> List[List[BlockId]]:
        """Write consecutive stretches of ``rows``, ``lengths[i]`` rows
        each, each into ⌈length/B⌉ fresh blocks, and return each
        stretch's block ids: the columnar write, one call for many arrays.

        ``rows`` is a private read-only C-contiguous float64 matrix (a
        fresh gather or :func:`~repro.io.block.copy_point_matrix`): each
        block is a row slice of it, stored and pooled as it is.  The ids,
        charges, pool entries and write run are those of
        :meth:`allocate_many` of each stretch's row tuples in turn.
        """
        if (rows.ndim != 2 or rows.dtype != POINT_DTYPE
                or rows.flags.writeable or not rows.flags.c_contiguous):
            raise ValueError("a columnar write takes a read-only C-ordered "
                             "(n, d) float64 matrix, got shape %r of %s"
                             % (rows.shape, rows.dtype))
        # Each stretch's blocks start every B rows; a block ends where
        # the next one starts, the last where the rows do.
        starts: List[int] = []
        bounds = [0]
        stop = 0
        for length in lengths:
            starts += range(stop, stop + length, self._block_size)
            stop += length
            bounds.append(len(starts))
        blocks = [rows[start:end]
                  for start, end in zip(starts, starts[1:] + [stop])]
        first = self._next_id
        self._next_id += len(blocks)
        block_ids = list(range(first, self._next_id))
        self._write_blocks(block_ids, blocks)
        self.stats.allocations += len(blocks)
        return [block_ids[start:end]
                for start, end in zip(bounds, bounds[1:])]

    def free(self, block_id: BlockId) -> None:
        """Release a block.  Freeing is bookkeeping only, not an I/O."""
        backend = self._flushed()
        if not backend.contains(block_id):
            raise KeyError("block %r is not allocated" % block_id)
        backend.delete(block_id)
        self._cache.invalidate(block_id)
        self.stats.frees += 1

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def read(self, block_id: BlockId) -> List[Any]:
        """Read a block's records (a fresh list), charging one I/O unless
        the buffer pool holds it."""
        return block_records(self._read_one(block_id))

    def read_payload(self, block_id: BlockId) -> StoredBlock:
        """Read one block in its stored form — ``read_run([block_id])[0]``:
        the read-only matrix of a point block, the record list of any
        other (read-only too: it is the pool's entry).

        Charges what :meth:`read` charges — one read I/O on a buffer-pool
        miss, one cache hit otherwise.
        """
        block = self._cache.get(block_id)
        if block is None:
            return self._fetch(block_id)
        self.stats.cache_hits += 1
        return block

    #: The one-block read behind :meth:`read`, bound here so that
    #: wrapping :meth:`read_payload` sees its own calls alone.
    _read_one = read_payload

    def read_run(self, block_ids: Sequence[BlockId]) -> List[StoredBlock]:
        """Read several blocks in order, each as :meth:`read_payload`
        reads it: the same :class:`IOStats`, pool hits, misses and
        recency order, bytes moved, and the same :class:`KeyError` after
        the same charges.

        One loop over the pool's entries, with no call per block but
        the backend's on a miss: a cell tree reads its whole walk as one
        run, some 60 blocks a query.  The write run is handed over at
        the first miss, as :meth:`read_payload` hands it over at each.
        """
        cache = self._cache
        entries, capacity = cache.entries, cache.capacity
        lookup, touch, evict = entries.get, entries.move_to_end, \
            entries.popitem
        contains = fetch = None
        blocks: List[StoredBlock] = []
        keep = blocks.append
        hits = misses = reads = 0
        try:
            for block_id in block_ids:
                block = lookup(block_id)
                if block is not None:
                    touch(block_id)
                    hits += 1
                    keep(block)
                    continue
                misses += 1
                if contains is None:
                    backend = self._flushed()
                    contains, fetch = backend.contains, backend.get_payload
                if not contains(block_id):
                    raise KeyError("block %r is not allocated" % block_id)
                reads += 1
                block = fetch(block_id)
                if capacity:
                    entries[block_id] = block
                    if len(entries) > capacity:
                        evict(False)
                keep(block)
        finally:
            cache.hits += hits
            cache.misses += misses
            self.stats.cache_hits += hits
            self.stats.reads += reads
        return blocks

    def _fetch(self, block_id: BlockId) -> StoredBlock:
        """Fetch a block from the backend, charge one read, cache it."""
        backend = self._flushed()
        if not backend.contains(block_id):
            raise KeyError("block %r is not allocated" % block_id)
        self.stats.reads += 1
        block = backend.get_payload(block_id)
        self._cache.put(block_id, block)
        return block

    def write(self, block_id: BlockId, records: Sequence[Any]) -> None:
        """Overwrite a block's contents, charging one write I/O."""
        if not self._flushed().contains(block_id):
            raise KeyError("block %r is not allocated" % block_id)
        self._put(block_id, records)

    def _put(self, block_id: BlockId, block: Sequence[Any]) -> None:
        """Write one block (one write I/O) in its stored form."""
        if len(block) > self._block_size:
            raise ValueError("block %d overflow: %d records > capacity %d"
                             % (block_id, len(block), self._block_size))
        self._write_blocks([block_id], [stored_form(block)])

    def _write_blocks(self, block_ids: List[BlockId],
                      blocks: List[StoredBlock]) -> None:
        """Write blocks in their stored forms, one write I/O each, into
        the run — handed to the backend each time it fills, block by
        block when no run is open — and pool them in order."""
        limit = self._RUN_BLOCKS if self._runs_open else 1
        start = 0
        while start < len(blocks):
            stop = start + limit - len(self._run_ids)
            self._run_ids += block_ids[start:stop]
            self._run_blocks += blocks[start:stop]
            start = stop
            if len(self._run_ids) >= limit:
                self._flushed()
        # Of distinct blocks put in order, the pool keeps the last
        # ``capacity``: putting those alone leaves the same entries.
        skip = max(0, len(blocks) - self._cache.capacity)
        for pair in zip(block_ids[skip:], blocks[skip:]):
            self._cache.put(*pair)
        self.stats.writes += len(blocks)

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the I/O counters (space bookkeeping is unaffected)."""
        self.stats.reset()
        self._cache.reset_stats()

    def clear_cache(self) -> None:
        """Empty the buffer pool (e.g. between query batches)."""
        self._cache.clear()

    @contextmanager
    def measured(self, clear_cache: bool = False) -> Iterator[IOStats]:
        """Hold the store for one operation and measure what it transfers.

        The unit every I/O bound is accounted in: the ``with`` body runs
        under :attr:`lock` (so no concurrent operation can race the buffer
        pool or leak its transfers into this window), on an emptied pool
        when ``clear_cache`` asks for the cold cost, and the yielded
        :class:`IOStats` holds the operation's counter delta once the
        block exits.
        """
        with self.lock:
            if clear_cache:
                self.clear_cache()
            window = IOStats()
            before = self.stats.snapshot()
            try:
                yield window
            finally:
                window.merge(self.stats.delta(before))

    @property
    def cache_blocks(self) -> int:
        """Current buffer-pool capacity in blocks (the model's ``M/B``)."""
        return self._cache.capacity

    def resize_cache(self, cache_blocks: int) -> int:
        """Change the buffer-pool capacity; return the previous capacity.

        Batch serving enlarges the pool so blocks read for one query stay
        resident for the next, then restores the old size so per-query
        benchmarks keep measuring the model's small-memory regime.
        """
        previous = self._cache.capacity
        self._cache.resize(cache_blocks)
        return previous

    def check_invariants(self) -> None:
        """Raise AssertionError unless the pool is consistent with the
        disk: at most ``capacity`` entries, each of an allocated block
        (on the backend or in the open run) and in a stored form — a
        read-only 2-D float64 array or a list; a write run is pending
        only while one is open; and the backend's own books hold
        (:meth:`~repro.io.backend.StorageBackend.check_invariants`).
        Charges no I/O and hands no run over."""
        if self._run_ids and not self._runs_open:
            raise AssertionError("%d blocks pending with no write run open"
                                 % len(self._run_ids))
        if len(self._run_ids) != len(self._run_blocks):
            raise AssertionError("the write run has %d ids for %d blocks"
                                 % (len(self._run_ids),
                                    len(self._run_blocks)))
        self._backend.check_invariants()
        pending = set(self._run_ids)
        resident = self._cache.items()
        if len(resident) > self._cache.capacity:
            raise AssertionError("pool holds %d blocks, capacity %d"
                                 % (len(resident), self._cache.capacity))
        for block_id, block in resident:
            if not (block_id in pending
                    or self._backend.contains(block_id)):
                raise AssertionError("block %r is resident but not "
                                     "allocated" % block_id)
            if isinstance(block, np.ndarray):
                stored = (block.ndim == 2 and block.dtype == POINT_DTYPE
                          and not block.flags.writeable)
            else:
                stored = type(block) is list
            if not stored:
                raise AssertionError("pool entry of block %r is not a "
                                     "stored form: %r" % (block_id, block))

    def byte_counters(self) -> Tuple[int, int]:
        """Cumulative (bytes_read, bytes_written) at the physical medium.

        A backend that moves real bytes (the file) counts them; the
        in-memory backend moves references, so both stay 0 there.
        Callers wanting a per-query figure snapshot this before and
        after, like :attr:`stats`.
        """
        backend = self._flushed()
        return (getattr(backend, "bytes_read", 0),
                getattr(backend, "bytes_written", 0))

    def span_attributes(self, delta: IOStats) -> Dict[str, object]:
        """One query's store-level trace-span attributes.

        ``delta`` is the :class:`IOStats` window the caller measured
        around its query (see :meth:`measured`); the store adds the
        static context — block size, backend, pool capacity — so a trace
        span can say not just *how many* transfers happened but against
        what configuration.
        """
        return {
            "blocks_read": delta.reads,
            "blocks_written": delta.writes,
            "cache_hits": delta.cache_hits,
            "block_size": self.block_size,
            "backend": self._backend.name,
            "pool_blocks": self._cache.capacity,
        }

    def blocks_for(self, num_records: int) -> int:
        """⌈num_records / B⌉ — blocks needed to store that many records."""
        return -(-num_records // self.block_size)

    def close(self) -> None:
        """Hand the open write run over, then release the backend's
        resources (file handles, temp files)."""
        self._flushed().close()

    def __repr__(self) -> str:
        return "BlockStore(B=%d, backend=%s, blocks=%d, %r)" % (
            self.block_size, self._backend.name, self.num_blocks, self.stats)
