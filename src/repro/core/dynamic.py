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
* queries combine the main tree (minus tombstones) with a scan of the
  buffer, so answers are always exact and the extra query cost is
  O(buffer/B) = O(εn) I/Os.

Duplicate points get **multiset semantics**: the same point may be
stored several times (the tree built with duplicates, plus buffered
re-inserts), and one ``delete()`` removes exactly *one* copy — the
tombstones carry per-value counts, so ``query()``, ``size`` and
``live_points()`` always agree on how many copies are live.

Rebuilds are charged to the store like any other construction, so the
amortised update cost is measurable with the usual counters.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.core.partition_tree import PartitionTreeIndex, Partitioner
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


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
        with self._building():
            self._buffer = DiskArray(self._store)
            self._tombstone_array = DiskArray(self._store)
            self._build_tree(initial)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _build_tree(self, points: np.ndarray) -> None:
        array = points.reshape(-1, self._dimension)
        self._tree_points: List[Tuple[float, ...]] = list(
            map(tuple, array.tolist()))
        self._tree_counts = Counter(self._tree_points)
        self._tree = PartitionTreeIndex(array, store=self._store,
                                        block_size=self.block_size,
                                        **self._tree_kwargs)

    def _unhidden(self, records: Iterable[Tuple[float, ...]]) -> List[bool]:
        """Per record, in order: is it live?  A tombstoned value hides
        exactly ``count`` of its copies, the first ones met (multiset
        semantics for duplicates)."""
        remaining = dict(self._tombstones)
        keep: List[bool] = []
        for record in records:
            hidden = remaining.get(record, 0)
            if hidden:
                remaining[record] = hidden - 1
            keep.append(not hidden)
        return keep

    def _live_tree_points(self) -> List[Tuple[float, ...]]:
        """The tree's points, tombstoned copies hidden."""
        return list(compress(self._tree_points,
                             self._unhidden(self._tree_points)))

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
        live = self._live_tree_points()
        live.extend(self._buffer_points)
        self._buffer.clear()
        self._buffer_points = []
        self._tombstones = {}
        self._num_tombstones = 0
        self._tombstone_array.clear()
        self._build_tree(np.array(live, dtype=float))
        self._rebuilds += 1

    def _maybe_rebuild(self) -> None:
        live_estimate = max(1, len(self._tree_points) - self._num_tombstones)
        if len(self._buffer_points) > self._buffer_fraction * live_estimate:
            self._rebuild()
        elif self._num_tombstones * 2 > max(1, len(self._tree_points)):
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
            if self._tombstones[record] == 1:
                del self._tombstones[record]
            else:
                self._tombstones[record] -= 1
            self._num_tombstones -= 1
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
        in_tree = (self._tree_counts.get(record, 0)
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
        self._tombstones[record] = self._tombstones.get(record, 0) + 1
        self._num_tombstones += 1
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
        return len(self._tree_points) - self._num_tombstones \
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
        live = self._live_tree_points()
        live.extend(self._buffer_points)
        return live

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report every live point satisfying the constraint.

        A tombstoned value hides exactly ``count`` of its tree copies, so
        duplicated points report the same multiplicity as ``size`` and
        ``live_points()`` account for.
        """
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match index "
                             "dimension %d" % (constraint.dimension, self._dimension))
        # The buffer is scanned with the tree's leaves; it never holds a
        # tombstoned value (insert resurrects one instead, delete takes
        # buffered copies first), so the mask below leaves its rows alone.
        answer = self._tree.query_and_scan(constraint, (self._buffer,))
        if not self._tombstones:
            return answer
        keep = self._unhidden(map(tuple, answer.tolist()))
        return kernels.answer_matrix((answer.compress(keep, axis=0),),
                                     self._dimension)
