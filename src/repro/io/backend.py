"""Pluggable storage backends for the simulated disk.

:class:`~repro.io.store.BlockStore` charges I/Os; a :class:`StorageBackend`
is where the blocks actually live.  The store performs every block
materialisation through this interface, so the I/O *accounting* is
identical across backends by construction — swapping the backend changes
where bytes go (a Python dict, a file on a real disk), never how many
block transfers the model charges.  Two implementations ship:

* :class:`MemoryBackend` — blocks in a dict; the original behaviour and
  the default.
* :class:`FileBackend` — blocks serialised to a single append-only file
  read back with ``seek``/``read``.  Writes append a fresh copy of the
  block and update an in-memory offset table (a log-structured layout:
  sequential writes); ``compact()`` rewrites live blocks to reclaim the
  space of superseded versions.  A log lives one backend lifetime: the
  backend starts it empty, and only :meth:`FileBackend.check_invariants`
  reads one back (:func:`_replay`).  Byte counters expose what a real
  disk actually moved, alongside the model's block counts.

A block is stored in one form, fixed by :func:`stored_form` — the one
call of the columnar rule (:func:`~repro.io.block.as_point_matrix`): a
read-only float64 matrix is kept as it is, a record list of uniform
float tuples becomes its ``(n, d)`` matrix, and any other record list
stays a list.  :meth:`StorageBackend.put_run` is the one write: it takes
a run of blocks in that form (a store hands it every block an index
build writes at once; :meth:`~StorageBackend.put` is the one-block run),
and the file backend appends the whole run in one ``write``.
:meth:`~StorageBackend.get_payload` hands a block back in its stored
form, so the store's buffer pool holds exactly what the medium holds.
The memory backend keeps the value itself; the file backend writes a
matrix as a small magic header plus its raw float64 bytes and pickle a
list.  The columnar encoding is what makes the vectorized read path cheap: a
point block comes back as a contiguous read-only ndarray
(``np.frombuffer`` over the bytes read) without the pickle machinery
running over every record.  Backends are *not* shared between stores.
"""

from __future__ import annotations

import abc
import functools
import itertools
import os
import pickle
import struct
import tempfile
import threading
from typing import (Any, BinaryIO, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.io.block import (BlockId, POINT_DTYPE, StoredBlock,
                            as_point_matrix, block_records)

#: Per-block header in the file layout: (block_id, payload_length).
_HEADER = struct.Struct("<qq")

#: Payload prefix marking a columnar (raw float64) point block.  Pickled
#: payloads start with the protocol opcode b"\x80", so the two layouts
#: can never be confused.
_COLUMNAR_MAGIC = b"\x01NPB"

#: Columnar payload header after the magic: (num_rows, num_columns).
_COLUMNAR_SHAPE = struct.Struct("<qq")

_COLUMNAR_HEADER = len(_COLUMNAR_MAGIC) + _COLUMNAR_SHAPE.size

#: A file backend compacts its log once the log holds more than this
#: multiple of what a compacted log would (garbage from superseded block
#: versions); ``0`` disables automatic compaction.
AUTO_COMPACT_RATIO = 4.0


@functools.lru_cache(maxsize=256)
def _layout(shape: Tuple[int, ...]) -> Tuple[np.dtype, np.void]:
    """The log record of a matrix of ``shape`` as one structured dtype —
    the block id, the bytes every such record shares (payload length,
    magic, shape) and the raw float64 rows, unpadded — and those shared
    bytes."""
    layout = np.dtype([("id", "<i8"), ("shared", "V%d" % (
        _HEADER.size - 8 + _COLUMNAR_HEADER)), ("rows", POINT_DTYPE, shape)])
    return layout, np.void(b"".join((
        struct.pack("<q", layout.itemsize - _HEADER.size), _COLUMNAR_MAGIC,
        _COLUMNAR_SHAPE.pack(*shape))))


def _records(block_ids: Sequence[BlockId],
             blocks: Sequence[StoredBlock]) -> np.ndarray:
    """The log records (header, then payload) of a stretch of
    :func:`_stretch_end`, one ``uint8`` row each: the matrices of one
    shape encoded in one numpy pass, as the fields of one structured
    array, or a record list's pickle."""
    first = blocks[0]
    if not isinstance(first, np.ndarray):
        payload = pickle.dumps(first, protocol=pickle.HIGHEST_PROTOCOL)
        return np.frombuffer(_HEADER.pack(block_ids[0], len(payload))
                             + payload, dtype=np.uint8).reshape(1, -1)
    layout, shared = _layout(first.shape)
    records = np.empty(len(blocks), layout)
    records["id"] = block_ids
    records["shared"] = shared
    records["rows"] = np.concatenate(blocks).reshape(-1, *first.shape)
    return records.view(np.uint8).reshape(len(blocks), layout.itemsize)


def _stretch_end(blocks: Sequence[StoredBlock], start: int) -> int:
    """Where the stretch of matrices of ``blocks[start]``'s shape that
    starts there ends (``start + 1`` for a record list)."""
    first = blocks[start]
    stop = start + 1
    if type(first) is np.ndarray:
        for block in itertools.islice(blocks, stop, None):
            if type(block) is not np.ndarray or block.shape != first.shape:
                break
            stop += 1
    return stop


def _decode(payload: bytes) -> StoredBlock:
    """The stored form of one payload; a matrix is a read-only view of
    the payload bytes (no copy)."""
    if payload[:len(_COLUMNAR_MAGIC)] == _COLUMNAR_MAGIC:
        rows, cols = _COLUMNAR_SHAPE.unpack_from(payload, len(_COLUMNAR_MAGIC))
        return np.frombuffer(payload, dtype=POINT_DTYPE, count=rows * cols,
                             offset=_COLUMNAR_HEADER).reshape(rows, cols)
    return pickle.loads(payload)


def stored_form(block: Any) -> StoredBlock:
    """The form a block is stored, pooled and read in.

    ``block`` is a read-only ``(n, d)`` float64 matrix, kept as it is,
    or a record list: its matrix when every record is a float tuple of
    one width (:func:`~repro.io.block.as_point_matrix`), a copy of the
    list otherwise.  Nobody writes to the value returned.
    """
    if isinstance(block, np.ndarray):
        return block
    matrix = as_point_matrix(block)
    return list(block) if matrix is None else matrix


def _replay(handle: BinaryIO, size: int
            ) -> Tuple[Dict[BlockId, Tuple[int, int]], int, int]:
    """Replay a log of ``size`` bytes from byte 0, reading its headers
    only: the offset table of its live blocks, their payload bytes, and
    where its last complete record ends.

    A record whose payload runs past ``size`` (a log cut between a
    header and its payload bytes, or inside a run's one write) ends the
    replay: everything before it is intact, and the end reported is
    where the intact prefix ends.
    """
    index: Dict[BlockId, Tuple[int, int]] = {}
    live_bytes = 0
    position = 0
    handle.seek(0)
    while True:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            break
        block_id, length = _HEADER.unpack(header)
        offset = position + _HEADER.size
        if length < 0 or offset + length > size:
            break
        if block_id >= 0:
            if block_id in index:
                live_bytes -= index[block_id][1]
            index[block_id] = (offset, length)
            live_bytes += length
        else:
            # A tombstone: negative id encodes deletion of ~block_id.
            entry = index.pop(~block_id, None)
            if entry is not None:
                live_bytes -= entry[1]
        position = offset + length
        handle.seek(position)
    return index, live_bytes, position


class StorageBackend(abc.ABC):
    """Where a :class:`~repro.io.store.BlockStore`'s blocks physically live.

    The contract mirrors a dict keyed by :data:`~repro.io.block.BlockId`:
    ``put`` creates or overwrites, ``get``/``get_payload``/``delete`` raise
    :class:`KeyError` for unknown ids, and ``get`` returns a *fresh* list
    the caller may mutate.  Implementations never count I/Os — that is
    the store's job.
    """

    #: Short name used in reprs and benchmark labels.
    name: str = "abstract"

    def put(self, block_id: BlockId, block: Any) -> StoredBlock:
        """Store (create or overwrite) one block — the one-block
        :meth:`put_run` — and return its :func:`stored_form`, which is
        what :meth:`get_payload` gives back."""
        block = stored_form(block)
        self.put_run([block_id], [block])
        return block

    @abc.abstractmethod
    def put_run(self, block_ids: Sequence[BlockId],
                blocks: Sequence[StoredBlock]) -> None:
        """Store (create or overwrite) ``blocks[i]`` under
        ``block_ids[i]``, in order: the one write.  Every block is given
        in its :func:`stored_form`.  The result is that of the one-block
        puts in the same order, down to the bytes of a log."""

    @abc.abstractmethod
    def get_payload(self, block_id: BlockId) -> StoredBlock:
        """One block in the form :meth:`put` stored it: the read-only
        matrix of a point block, the record list of any other (read-only
        too: it may be the stored value itself)."""

    def get(self, block_id: BlockId) -> List[Any]:
        """Return a fresh copy of a block's records (KeyError if missing)."""
        return block_records(self.get_payload(block_id))

    @abc.abstractmethod
    def delete(self, block_id: BlockId) -> None:
        """Forget a block (KeyError if missing)."""

    @abc.abstractmethod
    def contains(self, block_id: BlockId) -> bool:
        """True if the block is currently stored."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored blocks."""

    @abc.abstractmethod
    def block_ids(self) -> Iterator[BlockId]:
        """Iterate over the stored block ids (unspecified order)."""

    def close(self) -> None:
        """Release any resources (file handles, temp files).  Idempotent."""

    def check_invariants(self) -> None:
        """Raise AssertionError unless the medium holds what the backend's
        books say (a dict has no books to check).  Charges no I/O."""

    def __contains__(self, block_id: BlockId) -> bool:
        return self.contains(block_id)

    def info(self) -> Dict[str, object]:
        """Backend-specific metrics (for benchmarks and dashboards)."""
        return {"backend": self.name, "blocks": len(self)}

    def __repr__(self) -> str:
        return "%s(blocks=%d)" % (type(self).__name__, len(self))


class MemoryBackend(StorageBackend):
    """Blocks held in a Python dict — the simulator's original behaviour.

    The dict holds each block's stored form itself (what :meth:`put`
    returned), so a read hands over the very value that was written.
    """

    name = "memory"

    def __init__(self) -> None:
        self._blocks: Dict[BlockId, StoredBlock] = {}

    def put_run(self, block_ids: Sequence[BlockId],
                blocks: Sequence[StoredBlock]) -> None:
        self._blocks.update(zip(block_ids, blocks))

    def get_payload(self, block_id: BlockId) -> StoredBlock:
        return self._blocks[block_id]

    def delete(self, block_id: BlockId) -> None:
        del self._blocks[block_id]

    def contains(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def block_ids(self) -> Iterator[BlockId]:
        return iter(list(self._blocks))


class FileBackend(StorageBackend):
    """Blocks serialised to one append-only file on the real filesystem.

    Parameters
    ----------
    path:
        File to store blocks in.  When omitted a temporary file is created
        and removed again on :meth:`close`.  A file already at ``path`` is
        truncated: the backend starts an empty log, whatever an earlier
        backend left there.

    A write that leaves the log longer than :data:`AUTO_COMPACT_RATIO`
    times its compacted size triggers a :meth:`compact`.
    """

    name = "file"

    def __init__(self, path: Optional[str] = None) -> None:
        self._owns_path = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-blocks-",
                                        suffix=".log")
            os.close(fd)
        self.path = path
        self._lock = threading.Lock()
        # block_id -> (payload offset, payload length) of the live version.
        self._index: Dict[BlockId, Tuple[int, int]] = {}
        self._live_bytes = 0
        self._closed = False
        self.bytes_read = 0
        self.bytes_written = 0
        self.compactions = 0
        #: Size of the log: where the next record goes.
        self._end = 0
        #: Headers and payloads appended but not yet written (empty
        #: whenever the lock is free).
        self._appended: List[bytes] = []
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "w+b")

    # ------------------------------------------------------------------
    # log plumbing
    # ------------------------------------------------------------------
    def _append(self, block_id: BlockId, payload: bytes) -> Tuple[int, int]:
        """Queue one record at the log's end (:meth:`_write_appended`
        writes the queue); return its payload's offset and length."""
        self._appended += (_HEADER.pack(block_id, len(payload)), payload)
        offset = self._end + _HEADER.size
        self._end = offset + len(payload)
        self.bytes_written += _HEADER.size + len(payload)
        return offset, len(payload)

    def _write_appended(self) -> None:
        """Write the queued records, which end at ``_end``, in one
        ``writelines`` (no joined copy of the run is made)."""
        if self._appended:
            self._handle.seek(self._end - sum(map(len, self._appended)))
            self._handle.writelines(self._appended)
            self._appended = []

    def _live_file_bytes(self) -> int:
        """Bytes a freshly-compacted file would occupy (headers included)."""
        return self._live_bytes + len(self._index) * _HEADER.size

    def _maybe_compact_locked(self) -> None:
        if not AUTO_COMPACT_RATIO or not self._index:
            return
        # Compare against what compaction can actually achieve (live
        # payloads *plus* their headers) — comparing to payload bytes
        # alone makes the threshold unsatisfiable for tiny blocks and
        # degenerates into a full rewrite on every put.
        if self._end > AUTO_COMPACT_RATIO * max(
                1, self._live_file_bytes()):
            self._compact_locked()

    def _compact_locked(self) -> None:
        """Rewrite only the live block versions into a fresh log."""
        self._write_appended()
        live: Dict[BlockId, bytes] = {}
        for block_id, (offset, length) in self._index.items():
            self._handle.seek(offset)
            live[block_id] = self._handle.read(length)
        self._handle.seek(0)
        self._handle.truncate()
        self._end = 0
        self._index.clear()
        self._live_bytes = 0
        for block_id, payload in sorted(live.items()):
            self._index[block_id] = self._append(block_id, payload)
            self._live_bytes += len(payload)
        self._write_appended()
        self._handle.flush()
        self.compactions += 1

    # ------------------------------------------------------------------
    # StorageBackend interface
    # ------------------------------------------------------------------
    def put_run(self, block_ids: Sequence[BlockId],
                blocks: Sequence[StoredBlock]) -> None:
        """Append the run's records in one write, each stretch of
        same-shape matrices encoded in one numpy pass.  The compaction
        test still follows every record (in memory), so a run compacts
        the log exactly where its one-block puts would have."""
        with self._lock:
            self._check_open()
            start = 0
            while start < len(blocks):
                stop = _stretch_end(blocks, start)
                self._append_records(block_ids[start:stop],
                                     _records(block_ids[start:stop],
                                              blocks[start:stop]))
                start = stop
            self._write_appended()

    def _append_records(self, block_ids: Sequence[BlockId],
                        records: np.ndarray) -> None:
        """Queue the records of :func:`_records` at the log's end and
        keep the books of their one-block puts, the compaction test after
        each."""
        length = records.shape[1] - _HEADER.size
        for block_id, record in zip(block_ids, records):
            self._appended.append(record)
            offset = self._end + _HEADER.size
            self._end = offset + length
            self.bytes_written += len(record)
            previous = self._index.get(block_id)
            self._index[block_id] = (offset, length)
            self._live_bytes += length
            if previous is not None:
                self._live_bytes -= previous[1]
            self._maybe_compact_locked()

    def _payload_bytes(self, block_id: BlockId) -> bytes:
        """Read one block's raw payload (the single physical fetch)."""
        with self._lock:
            self._check_open()
            offset, length = self._index[block_id]
            self._handle.seek(offset)
            payload = self._handle.read(length)
            self.bytes_read += length
        return payload

    def get_payload(self, block_id: BlockId) -> StoredBlock:
        return _decode(self._payload_bytes(block_id))

    def delete(self, block_id: BlockId) -> None:
        with self._lock:
            self._check_open()
            __, length = self._index.pop(block_id)
            self._live_bytes -= length
            # A tombstone, so a replay of the log forgets the block too.
            self._append(~block_id, b"")
            self._write_appended()

    def contains(self, block_id: BlockId) -> bool:
        with self._lock:
            return block_id in self._index

    def __len__(self) -> int:
        return len(self._index)

    def block_ids(self) -> Iterator[BlockId]:
        with self._lock:
            return iter(list(self._index))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError unless replaying the log's headers from
        byte 0 gives exactly the offset table, the live payload bytes and
        the end offset the backend keeps, with no torn tail and nothing
        left unwritten.  Reads headers only, and counts no byte read."""
        with self._lock:
            self._check_open()
            if self._appended:
                raise AssertionError("%d bytes appended but not written"
                                     % sum(map(len, self._appended)))
            self._handle.seek(0, os.SEEK_END)
            size = self._handle.tell()
            index, live_bytes, end = _replay(self._handle, size)
        if end != size:
            raise AssertionError("the log's records end at %d of its %d "
                                 "bytes" % (end, size))
        if end != self._end:
            raise AssertionError("the log ends at %d, the backend says %d"
                                 % (end, self._end))
        if index != self._index:
            wrong = sorted(set(index.items()) ^ set(self._index.items()))
            raise AssertionError("the log's offset table differs from the "
                                 "backend's at %r" % (wrong[:4],))
        if live_bytes != self._live_bytes:
            raise AssertionError("the log holds %d live payload bytes, the "
                                 "backend says %d"
                                 % (live_bytes, self._live_bytes))

    def compact(self) -> None:
        """Drop superseded block versions from the file."""
        with self._lock:
            self._check_open()
            self._compact_locked()

    def sync(self) -> None:
        """Flush buffered writes to the OS (fsync the log file)."""
        with self._lock:
            self._check_open()
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._handle.close()
            if self._owns_path:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __del__(self) -> None:  # best effort for unclosed temp files
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("backend for %r is closed" % self.path)

    def info(self) -> Dict[str, object]:
        with self._lock:
            file_bytes = 0 if self._closed else self._end
        return {
            "backend": self.name,
            "blocks": len(self),
            "path": self.path,
            "file_bytes": file_bytes,
            "live_bytes": self._live_bytes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:
        return "FileBackend(path=%r, blocks=%d)" % (self.path, len(self))


#: Backend spec strings accepted by :func:`make_backend`.
BACKEND_NAMES = ("memory", "file")


def make_backend(spec: object = None, path: Optional[str] = None
                 ) -> StorageBackend:
    """Resolve a backend spec into a :class:`StorageBackend`.

    ``spec`` may be None / ``"memory"`` (dict-backed), ``"file"``
    (file-backed, optionally at ``path``), or an already-constructed
    backend, returned as is.
    """
    if spec is None or spec == "memory":
        return MemoryBackend()
    if spec == "file":
        return FileBackend(path=path)
    if isinstance(spec, StorageBackend):
        return spec
    raise ValueError("unknown storage backend %r (expected one of %s or a "
                     "StorageBackend)" % (spec, ", ".join(BACKEND_NAMES)))
