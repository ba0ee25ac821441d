"""Batch scan kernels: vectorized block filtering behind the I/O seam.

Every index in this repository reads blocks through the same accounting
seam (:class:`~repro.io.store.BlockStore`), then filters the records it
got with pure-Python point-at-a-time predicates.  This module batches
that second half: a block arrives as one contiguous ``(n, d)`` float64
matrix (:meth:`DiskArray.scan_batches`) and the predicate is evaluated
as a masked numpy expression over the whole matrix.  The I/O counters
are untouched — the kernels consume exactly the block reads the scalar
path would have issued, in the same order.

Parity is guaranteed, not approximate: the batch predicates
(:meth:`LinearConstraint.below_many`, :meth:`Simplex.contains_many`)
replay the scalar accumulation order coefficient by coefficient, so a
point exactly on the boundary hyperplane resolves identically in both
paths.  Blocks that are not columnar (mixed record types, ragged
widths) silently take the scalar fallback per block.

One scan serves one query (:class:`DeferredScan`): a tree walk reads
each leaf when it visits it and the predicate runs once, over all the
rows read, when the walk is over; ``filter_constraint`` and its
siblings are that scan over a single array.

What a kernel selects stays a matrix: the masked sub-matrix of each
scan goes into a :class:`PointRows`, the ordered answer the indexes
return and the engine carries to the socket, and rows become Python
tuples only for a caller that reads individual points.

A process-wide toggle (:func:`set_vectorized`, :func:`scalar_kernels`)
forces the scalar path everywhere; the benchmark uses it to measure the
speedup with identical I/O traces on both sides.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (Any, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.geometry.primitives import LinearConstraint
from repro.geometry.simplex import Simplex
from repro.io.block import POINT_DTYPE
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

_VECTORIZED = True


def set_vectorized(enabled: bool) -> bool:
    """Enable/disable the vectorized kernels; returns the previous value."""
    global _VECTORIZED
    previous = _VECTORIZED
    _VECTORIZED = bool(enabled)
    return previous


def vectorized_enabled() -> bool:
    """True when the batch kernels are active (the default)."""
    return _VECTORIZED


@contextmanager
def scalar_kernels():
    """Context manager forcing the original record-at-a-time loops."""
    previous = set_vectorized(False)
    try:
        yield
    finally:
        set_vectorized(previous)


def matrix_rows(matrix: np.ndarray) -> List[Tuple[float, ...]]:
    """Materialize matrix rows as plain-float tuples.

    ``tolist`` converts to builtin floats in one pass, so results are
    JSON-serializable and compare equal (``==``, ``hash``) to the tuples
    the scalar path returns.
    """
    return [tuple(row) for row in matrix.tolist()]


class PointRows(list):
    """An ordered query answer: a list of point tuples that boxes its
    items only on demand.

    The batch kernels hand over masked ``(k, d)`` float64 sub-matrices
    (:meth:`extend_matrix`), the natively scalar paths single records
    (:meth:`append` / :meth:`extend`); insertion order is the answer's
    order.  :attr:`matrix` is the whole answer as one read-only
    C-contiguous ``(n, d)`` float64 array and is what the engine carries
    from the scan to the socket; ``len()`` counts rows without looking
    at them.  The first caller that does look at individual points —
    iterates, indexes, compares, ``json.dumps`` — has the tuples built
    once, and from then on this is an ordinary ``list`` in every respect
    (it always was one to ``isinstance``).
    """

    __slots__ = ("_parts", "_matrix")

    def __init__(self) -> None:
        super().__init__()
        #: The unboxed answer — ndarray chunks and record lists, in
        #: insertion order — or None once the list holds the tuples.
        self._parts: Optional[List[Any]] = []
        self._matrix: Optional[np.ndarray] = None

    @classmethod
    def of(cls, points: Any) -> "PointRows":
        """``points`` — an ``(n, d)`` matrix or an iterable of records —
        as a :class:`PointRows` (itself, when it already is one)."""
        if isinstance(points, cls):
            return points
        rows = cls()
        if isinstance(points, np.ndarray):
            rows.extend_matrix(points)
        else:
            rows.extend(points)
        return rows

    def _tail(self) -> List[Any]:
        """The chunk new scalar records land in (while unboxed)."""
        if not self._parts or type(self._parts[-1]) is not list:
            self._parts.append([])
        return self._parts[-1]

    def append(self, record: Any) -> None:
        self._matrix = None
        if self._parts is None:
            super().append(record)
        else:
            self._tail().append(record)

    def extend(self, records: Iterable[Any]) -> None:
        parts = records._parts if isinstance(records, PointRows) else None
        if parts is not None:
            for part in parts:
                if type(part) is list:
                    # Copied, never shared: a later append must not
                    # reach into the answer the records came from.
                    self.extend(part)
                else:
                    self.extend_matrix(part)
            return
        self._matrix = None
        if self._parts is None:
            super().extend(records)
        else:
            self._tail().extend(records)

    def extend_matrix(self, matrix: np.ndarray) -> None:
        """Append the rows of an ``(k, d)`` matrix (kept by reference)."""
        if not len(matrix):
            return
        self._matrix = None
        if self._parts is None:
            super().extend(matrix_rows(matrix))
        else:
            self._parts.append(matrix)

    @property
    def matrix(self) -> np.ndarray:
        """The answer as one read-only C-contiguous ``(n, d)`` float64
        array (``(0, 0)`` when empty); no per-point Python objects."""
        if self._matrix is None:
            parts = self._parts if self._parts is not None else [list(self)]
            chunks = [part if type(part) is not list
                      else np.asarray(part, dtype=POINT_DTYPE)
                      for part in parts if len(part)]
            if len(chunks) > 1:
                matrix = np.concatenate(chunks)
            else:
                matrix = chunks[0] if chunks else np.empty((0, 0))
            matrix = np.ascontiguousarray(matrix, dtype=POINT_DTYPE)
            if matrix.flags.writeable:
                matrix = matrix.view()
                matrix.setflags(write=False)
            self._matrix = matrix
            if self._parts is not None:
                # The chunks are spent: hold the answer once, not twice.
                self._parts = [matrix]
        return self._matrix

    def _box(self) -> None:
        """Build the tuples; from here on the list itself is the answer."""
        if self._parts is None:
            return
        if not any(type(part) is list for part in self._parts):
            self.matrix     # outlives the chunks: the tuples are its rows
        parts, self._parts = self._parts, None
        for part in parts:
            super().extend(part if type(part) is list
                           else matrix_rows(part))

    def __len__(self) -> int:
        if self._parts is None:
            return super().__len__()
        return sum(len(part) for part in self._parts)

    def __iter__(self) -> Iterator[Any]:
        self._box()
        return super().__iter__()

    def __radd__(self, other: List[Any]) -> List[Any]:
        return other + list(self)

    def __reduce__(self):
        return list, (list(self),)      # copies and pickles as its items


def _boxed_first(name: str, mutates: bool):
    """``list.<name>`` for :class:`PointRows`: C code reads a list's
    items directly, so they (and an operand's) are boxed before it runs."""
    method = getattr(list, name)

    def call(self, *args, **kwargs):
        for rows in (self,) + args:
            if isinstance(rows, PointRows):
                rows._box()
        if mutates:
            self._matrix = None
        return method(self, *args, **kwargs)
    call.__name__ = name
    return call


for _name in ("__getitem__", "__contains__", "__reversed__", "__repr__",
              "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
              "__add__", "__mul__", "__rmul__", "copy", "count", "index"):
    setattr(PointRows, _name, _boxed_first(_name, mutates=False))
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "clear",
              "insert", "pop", "remove", "reverse", "sort"):
    setattr(PointRows, _name, _boxed_first(_name, mutates=True))


class DeferredScan:
    """One query's leaf scan: blocks are read when visited, the
    predicate runs once when the query ends.

    :meth:`add` / :meth:`add_blocks` fetch their blocks immediately
    — the I/Os and their order are the record-at-a-time path's — and
    only queue the matrices; :meth:`flush` stacks them, evaluates
    ``keep_many`` once (the per-call numpy overhead dominates one-block
    scans), forces the rows queued unfiltered to true and appends one
    masked matrix to ``results``.  Row order is visit order and the
    predicate is row-independent, so the mask is bit for bit the
    per-block one.  A non-columnar block flushes what is pending and is
    filtered record by record in place; a width change starts a new
    stack.  With the kernels switched off (:func:`scalar_kernels`)
    nothing is deferred: ``keep_one`` runs over ``array.scan()`` on the
    spot.
    """

    __slots__ = ("results", "_keep_one", "_keep_many", "_pending", "_kept")

    def __init__(self, results: PointRows, keep_one, keep_many) -> None:
        self.results = results
        self._keep_one = keep_one
        self._keep_many = keep_many
        self._pending: List[np.ndarray] = []
        #: Per pending block: reported unfiltered?
        self._kept: List[bool] = []

    def add(self, array: DiskArray, filtered: bool) -> None:
        """Read ``array`` now; keep its rows that pass the predicate
        (``filtered``) or all of them."""
        block_ids = array.block_ids
        self.add_blocks(array.store, block_ids,
                        [not filtered] * len(block_ids))

    def add_blocks(self, store: BlockStore, block_ids: Sequence[int],
                   kept: Sequence[bool]) -> None:
        """Read the blocks now, as one :meth:`BlockStore.read_run`; keep
        all rows of block ``i`` when ``kept[i]``, else those that pass
        the predicate."""
        if not _VECTORIZED:
            for block_id, keep in zip(block_ids, kept):
                self._extend_scalar(store.read(block_id), not keep)
            return
        blocks = store.read_run(block_ids)
        pending = self._pending
        try:
            widths = {block.shape[1] for block in blocks}
        except AttributeError:          # a record list among them
            widths = set()
        if len(widths) == 1 and (not pending
                                 or pending[0].shape[1] in widths):
            pending += blocks
            self._kept += kept
            return
        for block, keep in zip(blocks, kept):
            columnar = isinstance(block, np.ndarray)
            if not columnar or (pending and block.shape[1]
                                != pending[0].shape[1]):
                self.flush()
                if not columnar:
                    self._extend_scalar(block, not keep)
                    continue
            pending.append(block)
            self._kept.append(keep)

    def _extend_scalar(self, records: Iterable[Any], filtered: bool) -> None:
        self.results.extend([record for record in records
                             if self._keep_one(record)]
                            if filtered else records)

    def extend(self, records: Iterable[Any]) -> None:
        """Append records selected elsewhere, after what is pending."""
        self.flush()
        self.results.extend(records)

    def flush(self) -> PointRows:
        """Evaluate and append everything pending; returns ``results``."""
        pending, kept = self._pending, self._kept
        if not pending:
            return self.results
        if all(kept):
            for matrix in pending:      # handed over as read, no copy
                self.results.extend_matrix(matrix)
        else:
            matrix = pending[0] if len(pending) == 1 \
                else np.concatenate(pending)
            mask = self._keep_many(matrix)
            if any(kept):
                mask |= np.repeat(kept, list(map(len, pending)))
            # compress: the rows of matrix[mask], several times sooner.
            self.results.extend_matrix(matrix.compress(mask, axis=0))
        pending.clear()
        kept.clear()
        return self.results


def filter_constraint(array: DiskArray, constraint: LinearConstraint,
                      out: Optional[PointRows] = None) -> PointRows:
    """All records of ``array`` satisfying ``constraint``.

    The batch analogue of ``[r for r in array.scan() if
    constraint.below(r)]`` with identical I/O charging and identical
    results (order preserved).  Appends into ``out`` when given.
    """
    scan = DeferredScan(out if out is not None else PointRows(),
                        constraint.below, constraint.below_many)
    scan.add(array, filtered=True)
    return scan.flush()


def filter_simplex(array: DiskArray, simplex: Simplex,
                   out: Optional[PointRows] = None) -> PointRows:
    """All records of ``array`` inside ``simplex`` (one batch per scan)."""
    scan = DeferredScan(out if out is not None else PointRows(),
                        simplex.contains, simplex.contains_many)
    scan.add(array, filtered=True)
    return scan.flush()


def collect_records(array: DiskArray,
                    out: Optional[PointRows] = None) -> PointRows:
    """All records of ``array`` (the unfiltered report path).

    Same I/Os as ``list(array.scan())``; columnar blocks are handed
    over as they were read, with no per-record Python loop.
    """
    scan = DeferredScan(out if out is not None else PointRows(), None, None)
    scan.add(array, filtered=False)
    return scan.flush()
