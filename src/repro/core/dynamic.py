"""A dynamised partition tree (Section 5, Remark iii).

The paper notes that the linear-size partition tree can be made dynamic
with the standard partial-reconstruction technique, supporting updates in
O((log₂ n) log_B n) amortised I/Os.  ``DynamicPartitionTreeIndex``
implements the practical variant of that idea:

* insertions go to a small blocked *buffer*; once the buffer exceeds a
  fixed fraction of the indexed set, the whole structure is rebuilt;
* deletions mark points in a tombstone *multiset* (stored in its own
  blocks); once half of the indexed points are dead, the structure is
  rebuilt;
* queries — a constraint or a convex polytope, in the tree's one walk —
  combine the main tree (minus tombstones) with a scan of the buffer, so
  answers are always exact and the extra query cost is O(buffer/B) =
  O(εn) I/Os.

Duplicate points get **multiset semantics**: the same point may be
stored several times (the tree built with duplicates, plus buffered
re-inserts), and one ``delete()`` removes exactly *one* copy — the
tombstones carry per-value counts, so ``query()``, ``size`` and
``live_points()`` always agree on how many copies are live.

The tree's points are kept once, as the read-only ``(n, d)`` matrix the
inner :class:`PartitionTreeIndex` was built from; no per-point tuple or
counter shadows it.  Membership is decided on that matrix: a value is in
the tree while its exact row matches (float ``==``, so ``-0.0`` matches
``0.0``) outnumber its tombstones, and a query or rebuild boxes only the
rows whose value may be tombstoned.

Rebuilds are charged to the store like any other construction, so the
amortised update cost is measurable with the usual counters.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.core.partition_tree import PartitionTreeIndex, Partitioner, Region
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


def _distinct(column: np.ndarray) -> np.ndarray:
    """The distinct values of ``column``, ascending: a sort and a
    neighbour mask (``np.unique`` imports ``numpy.ma`` on its first call,
    which a query would pay)."""
    values = np.sort(column)
    fresh = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=fresh[1:])
    return values[fresh]


class DynamicPartitionTreeIndex(ExternalIndex):
    """Insertions and deletions on top of the Section 5 partition tree.

    Parameters
    ----------
    buffer_fraction:
        The insertion buffer may hold up to this fraction of the indexed
        points before a rebuild is triggered (default 25 %).
    Other parameters are forwarded to :class:`PartitionTreeIndex`.
    """

    def __init__(self, points: Sequence[Sequence[float]] = (),
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 dimension: Optional[int] = None,
                 buffer_fraction: float = 0.25,
                 max_fanout: Optional[int] = None,
                 leaf_capacity: Optional[int] = None,
                 partitioner: Optional[Partitioner] = None):
        super().__init__(store, block_size)
        if not 0.0 < buffer_fraction <= 1.0:
            raise ValueError("buffer_fraction must be in (0, 1]")
        initial = np.asarray(points, dtype=float)
        if dimension is None:
            if initial.ndim != 2:
                raise ValueError("dimension is required when starting empty")
            dimension = initial.shape[1]
        self._dimension = dimension
        self._buffer_fraction = buffer_fraction
        self._tree_kwargs = dict(max_fanout=max_fanout,
                                 leaf_capacity=leaf_capacity,
                                 partitioner=partitioner)
        self._rebuilds = 0
        self._pre_mutation_listeners: List[Callable[[], None]] = []
        self._buffer_points: List[Tuple[float, ...]] = []
        #: Tombstoned tree copies as value -> count (multiset semantics:
        #: one delete hides exactly one of a duplicated point's copies).
        self._tombstones: Dict[Tuple[float, ...], int] = {}
        self._num_tombstones = 0
        #: Per coordinate, the sorted values the tombstoned points take
        #: there (None until a query needs them after a change).
        self._dead_columns: Optional[List[np.ndarray]] = None
        with self._building():
            self._buffer = DiskArray(self._store)
            self._tombstone_array = DiskArray(self._store)
            self._build_tree(initial)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _build_tree(self, points: np.ndarray) -> None:
        rows = points.reshape(-1, self._dimension)
        rows.setflags(write=False)
        #: The tree's points, tombstoned copies included: the matrix the
        #: tree was built from (its leaves hold exactly these rows).
        self._tree_rows = rows
        self._tree = PartitionTreeIndex(rows, store=self._store,
                                        block_size=self.block_size,
                                        **self._tree_kwargs)

    def _copies(self, record: Tuple[float, ...]) -> int:
        """How many tree rows equal ``record``, coordinate by coordinate
        (none when its length is not the dimension)."""
        if len(record) != self._dimension:
            return 0
        rows = self._tree_rows
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

    def _live_tree_rows(self) -> np.ndarray:
        """The tree's rows, tombstoned copies hidden, in row order."""
        rows = self._tree_rows
        return rows[self._unhidden(rows)] if self._tombstones else rows

    def _rewrite_tombstone_array(self) -> None:
        """Make the on-disk tombstone blocks match the in-memory multiset.

        Called when a resurrecting insert *removes* a tombstone: leaving
        the dropped record on disk would make the array disagree with the
        set it persists (and its space accounting drift upward forever).
        Costs O(tombstones/B) I/Os, the same class as a buffer rewrite.
        """
        self._tombstone_array.clear()
        self._tombstone_array.extend(
            record for record, count in self._tombstones.items()
            for __ in range(count))

    def _rebuild(self) -> None:
        """Fold the buffer and tombstones back into a fresh tree."""
        live = np.concatenate((
            self._live_tree_rows(),
            np.array(self._buffer_points, dtype=float).reshape(
                -1, self._dimension)))
        self._buffer.clear()
        self._buffer_points = []
        self._tombstones = {}
        self._num_tombstones = 0
        self._dead_columns = None
        self._tombstone_array.clear()
        self._build_tree(live)
        self._rebuilds += 1

    def _maybe_rebuild(self) -> None:
        live_estimate = max(1, len(self._tree_rows) - self._num_tombstones)
        if len(self._buffer_points) > self._buffer_fraction * live_estimate:
            self._rebuild()
        elif self._num_tombstones * 2 > max(1, len(self._tree_rows)):
            self._rebuild()

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def add_pre_mutation_listener(self,
                                  listener: Callable[[], None]) -> None:
        """Register a callback fired *before* a mutation is applied.

        A pre-listener that raises vetoes the mutation: nothing has been
        written yet, so the index is left exactly as it was.  The engine's
        catalog uses this to refuse every write to an index it built that
        does not come through the engine's write path (which keeps the
        replicas, statistics and caches in step) — a post-hoc error would
        leave them silently divergent.  A delete of an absent point
        writes nothing and is never vetoed.
        """
        self._pre_mutation_listeners.append(listener)

    def _check_pre_mutation(self) -> None:
        for listener in self._pre_mutation_listeners:
            listener()

    def insert(self, point: Sequence[float]) -> None:
        """Insert one point (amortised O((log n) log_B n + rebuild/n) I/Os)."""
        record = tuple(float(c) for c in point)
        if len(record) != self._dimension:
            raise ValueError("point dimension %d does not match index dimension %d"
                             % (len(record), self._dimension))
        self._check_pre_mutation()
        if self._tombstones.get(record, 0) > 0:
            # The point has a tombstoned tree copy: dropping one tombstone
            # alone resurrects it.  Buffering it too would duplicate the
            # point in queries, size and live_points().  The on-disk
            # tombstone blocks are rewritten so they keep matching the
            # multiset (a stale record would survive to the next rebuild
            # and leak space meanwhile).
            self._tombstone(record, -1)
            self._rewrite_tombstone_array()
        else:
            self._buffer.append(record)
            self._buffer_points.append(record)
        self._maybe_rebuild()

    def delete(self, point: Sequence[float]) -> bool:
        """Delete one copy of a point; returns False if it was not present.

        Multiset semantics: a point stored k times needs k deletes to
        disappear — buffered copies are removed first (cheap rewrite),
        then tree copies are tombstoned one count at a time.
        """
        record = tuple(float(c) for c in point)
        in_buffer = record in self._buffer_points
        in_tree = not in_buffer and (self._copies(record)
                                     > self._tombstones.get(record, 0))
        if in_buffer or in_tree:
            # Veto only writes that would actually happen: deleting an
            # absent point stays a no-op returning False.
            self._check_pre_mutation()
        if in_buffer:
            self._buffer_points.remove(record)
            # Rewrite the buffer without the record (small, O(buffer/B) I/Os).
            self._buffer.clear()
            self._buffer.extend(self._buffer_points)
            # Both delete paths check the rebuild thresholds: the buffer
            # path skipping it would let a delete-heavy workload sit past
            # the tombstone fraction until an unrelated mutation noticed.
            self._maybe_rebuild()
            return True
        if not in_tree:
            return False
        self._tombstone(record, 1)
        self._tombstone_array.append(record)
        self._maybe_rebuild()
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        """Number of live points (copies of duplicates counted)."""
        return len(self._tree_rows) - self._num_tombstones \
            + len(self._buffer_points)

    @property
    def tombstoned(self) -> int:
        """Tree copies currently hidden by tombstones (multiset total)."""
        return self._num_tombstones

    @property
    def rebuilds(self) -> int:
        """How many full rebuilds have happened so far."""
        return self._rebuilds

    @property
    def buffered(self) -> int:
        """Number of points currently waiting in the insertion buffer."""
        return len(self._buffer_points)

    def check_invariants(self) -> None:
        """Raise AssertionError unless the stored index is the one its
        bookkeeping describes, as read back from the disk.

        The inner tree's checker holds and its leaves store exactly the
        tree matrix's rows (as a multiset); the buffer blocks hold the
        buffered points in order; the tombstone blocks hold the tombstone
        multiset, whose total is ``tombstoned``; every tombstoned value
        has at least its count of copies in the matrix and none in the
        buffer.  The blocks are read from the backend directly, so no I/O
        is charged and the buffer pool is untouched.
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

        leaves = self._tree.check_invariants()
        check(np.array_equal(sorted_rows(leaves),
                             sorted_rows(self._tree_rows)),
              "the tree's leaves store %d rows, not the %d of its matrix",
              len(leaves), len(self._tree_rows))
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
                  "tree copies", record, count, copies)
            check(record not in self._buffer_points,
                  "tombstoned %r is buffered", record)

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Exactly what :meth:`query` reads on a cold pool: its tree's
        price, then every buffer block."""
        return (self._tree.estimated_query_ios(constraint, expected_output)
                + self._buffer.num_blocks)

    def live_points(self) -> List[Tuple[float, ...]]:
        """Every live point (tree minus tombstones, plus the buffer).

        The shard rebalancer collects these to re-split a mutated shard
        at fresh quantiles: the child dataset's build-time array no
        longer reflects the data once inserts and deletes have landed.
        """
        live = list(map(tuple, self._live_tree_rows().tolist()))
        live.extend(self._buffer_points)
        return live

    def query(self, region: Region) -> np.ndarray:
        """Report every live point satisfying the constraint, or inside
        the convex polytope.

        A tombstoned value hides exactly ``count`` of its tree copies, so
        duplicated points report the same multiplicity as ``size`` and
        ``live_points()`` account for.
        """
        # The buffer is scanned with the tree's leaves; it never holds a
        # tombstoned value (insert resurrects one instead, delete takes
        # buffered copies first), so the mask below leaves its rows alone.
        answer = self._tree.query_and_scan(region, (self._buffer,))
        self.last_query = self._tree.last_query
        if not self._tombstones:
            return answer
        return kernels.answer_matrix((answer[self._unhidden(answer)],),
                                     self._dimension)
