"""One replica's writes: an insertion buffer and a tombstone multiset.

Halfspace reporting is *decomposable*: the answer over a union of point
sets is the union of the answers.  So the paper's recipe for a dynamic
partition tree (Section 5, Remark iii: a static structure, a small
buffer, a periodic rebuild) is true of any static index — the
static-to-dynamic transformation of Bentley and Saxe, "Decomposable
searching problems I", J. Algorithms 1 (1980).  A :class:`WriteOverlay`
is that recipe, kept once per replica beside whatever index suite the
replica built:

* an insert goes to a blocked *buffer* in the replica's store;
* a delete takes a buffered copy, else marks one of the build rows in a
  tombstone *multiset* (stored in its own blocks);
* an answer (:meth:`WriteOverlay.answer`) is the index's rows with the
  tombstoned copies hidden, then the buffer's rows in the query's
  region, in that order — so every kind answers the live multiset, and
  a price is the index's price plus the buffer's blocks
  (:meth:`WriteOverlay.buffer_blocks`), exact where the index's is;
* once the buffer holds more than :data:`BUFFER_FRACTION` of the live
  build rows, or more than :data:`DEAD_FRACTION` of the build rows are
  tombstoned, a rebuild is due (:meth:`WriteOverlay.due`): the replica
  folds the overlay into a fresh suite over its live points
  (:meth:`~repro.engine.catalog.Dataset.rebuild`).

Duplicate points get **multiset semantics**: one ``delete()`` removes
exactly one copy, and a tombstoned value hides exactly its count of the
rows an index reports, the first ones met.  Membership is decided on the
build matrix itself: a value is a build row while its exact row matches
(float ``==``, so ``-0.0`` matches ``0.0``) outnumber its tombstones, and
only the rows whose every coordinate some tombstoned value takes are
boxed to be looked up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

#: A rebuild is due once the buffer holds more than this fraction of the
#: live build rows (so a query's extra cost stays O(εN/B) I/Os).
BUFFER_FRACTION = 0.25

#: A rebuild is due once more than this fraction of the build rows is
#: tombstoned.
DEAD_FRACTION = 0.5


def _distinct(column: np.ndarray) -> np.ndarray:
    """The distinct values of ``column``, ascending: a sort and a
    neighbour mask (``np.unique`` imports ``numpy.ma`` on its first call,
    which a query would pay)."""
    values = np.sort(column)
    fresh = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


class WriteOverlay:
    """The writes a replica took since its suite was built over ``rows``.

    ``rows`` is the ``(n, d)`` matrix every index of the replica was
    built from (tombstoned copies included); the buffer and tombstone
    blocks live in ``store``, the replica's store.
    """

    def __init__(self, store: BlockStore, rows: np.ndarray):
        self._store = store
        #: How many times the replica folded the overlay into a rebuild.
        self.rebuilds = 0
        self.reset(rows)

    def reset(self, rows: np.ndarray) -> None:
        """Start over from ``rows`` with no write: the state after a
        build over them.  The old buffer and tombstone blocks are the
        caller's to free (a rebuild empties the whole store)."""
        self.rows = rows
        self._dimension = rows.shape[1]
        self._buffer_points: List[Tuple[float, ...]] = []
        #: Tombstoned build copies as value -> count.
        self._tombstones: Dict[Tuple[float, ...], int] = {}
        self._num_tombstones = 0
        #: Per coordinate, the sorted values the tombstoned points take
        #: there (None until a query needs them after a change).
        self._dead_columns: Optional[List[np.ndarray]] = None
        self._buffer = DiskArray(self._store)
        self._tombstone_array = DiskArray(self._store)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _copies(self, record: Tuple[float, ...]) -> int:
        """How many build rows equal ``record``, coordinate by coordinate."""
        rows = self.rows
        hits = np.flatnonzero(rows[:, 0] == record[0])
        for column in range(1, self._dimension):
            hits = hits[rows[hits, column] == record[column]]
        return len(hits)

    def _unhidden(self, rows: np.ndarray) -> np.ndarray:
        """Per row, in order: is it live?  A tombstoned value hides
        exactly ``count`` of its copies, the first ones met (multiset
        semantics for duplicates).  Only the rows whose every coordinate
        occurs in some tombstoned value are boxed and looked up."""
        keep = np.ones(len(rows), dtype=bool)
        if not self._tombstones:
            return keep
        if self._dead_columns is None:
            dead = np.array(list(self._tombstones), dtype=float)
            self._dead_columns = [_distinct(column) for column in dead.T]
        suspect = keep.copy()
        for column, values in zip(rows.T, self._dead_columns):
            slots = np.minimum(np.searchsorted(values, column),
                               len(values) - 1)
            suspect &= values[slots] == column
        met: Dict[Tuple[float, ...], int] = {}
        for position, record in zip(np.flatnonzero(suspect).tolist(),
                                    map(tuple, rows[suspect].tolist())):
            seen = met.get(record, 0)
            if seen < self._tombstones.get(record, 0):
                met[record] = seen + 1
                keep[position] = False
        return keep

    def _tombstone(self, record: Tuple[float, ...], change: int) -> None:
        """Add ``change`` (one more or one fewer) to a value's tombstones."""
        count = self._tombstones.get(record, 0) + change
        if count:
            self._tombstones[record] = count
        else:
            del self._tombstones[record]
        self._num_tombstones += change
        self._dead_columns = None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float]) -> None:
        """Buffer one point — or, when a build copy of it is tombstoned,
        drop one tombstone instead (buffering it too would count the
        point twice); the tombstone blocks are then rewritten, so they
        keep holding the multiset."""
        record = tuple(float(c) for c in point)
        if len(record) != self._dimension:
            raise ValueError("point dimension %d does not match replica "
                             "dimension %d" % (len(record), self._dimension))
        if self._tombstones.get(record, 0) > 0:
            self._tombstone(record, -1)
            self._tombstone_array.clear()
            self._tombstone_array.extend(
                value for value, count in self._tombstones.items()
                for __ in range(count))
        else:
            self._buffer.append(record)
            self._buffer_points.append(record)

    def delete(self, point: Sequence[float]) -> bool:
        """Delete one copy of a point; False when none is live.

        Buffered copies go first (the buffer blocks are rewritten,
        O(buffer/B) I/Os), then build copies are tombstoned one count at
        a time.
        """
        record = tuple(float(c) for c in point)
        if record in self._buffer_points:
            self._buffer_points.remove(record)
            self._buffer.clear()
            self._buffer.extend(self._buffer_points)
            return True
        if len(record) != self._dimension or \
                self._copies(record) <= self._tombstones.get(record, 0):
            return False
        self._tombstone(record, 1)
        self._tombstone_array.append(record)
        return True

    def due(self) -> bool:
        """True once the replica should fold the overlay into a rebuild."""
        built = len(self.rows)
        live = max(1, built - self._num_tombstones)
        return (len(self._buffer_points) > BUFFER_FRACTION * live
                or self._num_tombstones > DEAD_FRACTION * max(1, built))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live points (copies of duplicates counted)."""
        return len(self.rows) - self._num_tombstones \
            + len(self._buffer_points)

    @property
    def buffer_blocks(self) -> int:
        """What the buffer adds to a query's cold I/Os (its price)."""
        return self._buffer.num_blocks

    def answer(self, found: np.ndarray, region) -> np.ndarray:
        """An index's answer ``found`` over the build rows as the live
        answer: the tombstoned copies hidden, then the buffer's rows in
        ``region`` (a constraint or a polytope), read now — one read or
        pool hit per buffer block.  ``found`` itself when nothing was
        written."""
        if not (self._tombstones or self._buffer_points):
            return found
        if self._tombstones:
            found = found[self._unhidden(found)]
        return kernels.answer_matrix(
            (found, kernels.filter_constraint(self._buffer, region)),
            self._dimension)

    def live_points(self) -> np.ndarray:
        """Every live point, as a matrix: the build rows, tombstoned
        copies hidden, then the buffer.  From memory: no I/O."""
        rows = self.rows
        if self._tombstones:
            rows = rows[self._unhidden(rows)]
        return np.concatenate((rows, np.array(
            self._buffer_points, dtype=float).reshape(-1, self._dimension)))

    def check_invariants(self) -> None:
        """Raise AssertionError unless the stored overlay is the one its
        bookkeeping describes, as read back from the disk.

        The buffer blocks hold the buffered points in order; the
        tombstone blocks hold the tombstone multiset, whose total is
        ``tombstoned``; every tombstoned value has at least its count of
        copies among the build rows and none in the buffer.  The blocks
        are read from the backend directly, so no I/O is charged and the
        buffer pool is untouched.
        """
        backend = self._store.backend
        d = self._dimension

        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError(message % values)

        def stored(array: DiskArray) -> np.ndarray:
            array.check_invariants()
            return np.concatenate([np.empty((0, d))] + [
                np.asarray(backend.get_payload(block_id),
                           dtype=float).reshape(-1, d)
                for block_id in array.block_ids])

        def sorted_rows(rows: np.ndarray) -> np.ndarray:
            return rows[np.lexsort(rows.T[::-1])]

        check(np.array_equal(stored(self._buffer), np.array(
            self._buffer_points, dtype=float).reshape(-1, d)),
            "the buffer blocks do not hold the %d buffered points in order",
            len(self._buffer_points))
        counts = list(self._tombstones.values())
        dead = np.array([record for record, count in self._tombstones.items()
                         for __ in range(count)], dtype=float).reshape(-1, d)
        check(np.array_equal(sorted_rows(stored(self._tombstone_array)),
                             sorted_rows(dead)),
              "the tombstone blocks do not hold the tombstone multiset")
        check(all(count > 0 for count in counts)
              and self._num_tombstones == sum(counts),
              "%d tombstones counted, the multiset holds %r",
              self._num_tombstones, counts)
        check(self._dead_columns is None or all(
            np.array_equal(cached, _distinct(column))
            for cached, column in zip(self._dead_columns, dead.T)),
            "the cached tombstone columns are stale")
        for record, count in self._tombstones.items():
            copies = self._copies(record)
            check(copies >= count, "%r is tombstoned %d times but has %d "
                  "build copies", record, count, copies)
            check(record not in self._buffer_points,
                  "tombstoned %r is buffered", record)
