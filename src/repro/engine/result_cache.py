"""The engine's result cache: an answer stays while it is exact.

A query reports the points on or below its region, so a write of a point
``p`` changes the answer of a query ``q`` only when ``q`` admits ``p``.
:class:`ResultCache` keeps each answer — the read-only matrix and the
name of the index that produced it, under the key ``(dataset, query)``
— until one of three causes drops it:

* ``write``: a committed insert or delete of a point a constraint
  admits — its ``below``, run as one
  :func:`~repro.geometry.primitives.below_bound` fold over the resident
  constraints' coefficient table — and every conjunction of the dataset.
  A conjunction is planned by the conjunct the dataset's summed shard
  models rate most selective, so a write anywhere can change the index
  an unwritten shard picks, and with it the answer's index name and row
  order.
* ``flush``: every answer of the dataset, when a write may change the
  routing or the row order of answers it is not in — a shard's first
  write, a write that rebuilt a shard, a write to a shard whose suite
  holds a kind priced from the expected output, a rolled-back fan-out —
  and on a re-split, an index build over the dataset (a new kind can
  be the planner's next pick) or an explicit ``invalidate_dataset``.
* ``capacity``: least recently used first, while more than
  :data:`RESULT_CACHE_ENTRIES` answers or :data:`RESULT_CACHE_BYTES`
  bytes of answer matrices are resident.  An answer larger than the
  byte bound is served and not kept.

A write or flush also bumps the dataset's *generation*.  A query reads
it before it executes, and its answer is kept only if no write or flush
happened meanwhile, so an answer that raced any write is never cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Set,
                    Tuple)

import numpy as np

from repro.geometry.primitives import LinearConstraint, below_bound

if TYPE_CHECKING:       # the catalog and the metrics import much more
    from repro.engine.catalog import Query
    from repro.engine.metrics import EngineStats

#: Answers the result cache holds at most.
RESULT_CACHE_ENTRIES = 256

#: Bytes of answer matrices the result cache holds at most (4 MiB).
RESULT_CACHE_BYTES = 4 << 20

CacheKey = Tuple[str, "Query"]
#: The index that answered, and its read-only answer matrix.
CachedAnswer = Tuple[str, np.ndarray]


class _Regions:
    """One dataset's resident queries as regions to test a point against:
    its constraints stacked in one table — a slot per row, coefficients
    then offset; a free slot's offset is −inf, which no finite point is
    below — and its conjunctions by key."""

    def __init__(self, dimension: int):
        self.table = np.zeros((RESULT_CACHE_ENTRIES, dimension))
        self.table[:, -1] = -np.inf
        self.keys: List[Optional[CacheKey]] = [None] * RESULT_CACHE_ENTRIES
        self.free = list(range(RESULT_CACHE_ENTRIES))
        self.conjunctions: Set[CacheKey] = set()

    def add(self, key: CacheKey) -> Optional[int]:
        """File a key; returns its slot (None for a conjunction)."""
        query: Query = key[1]
        if not isinstance(query, LinearConstraint):
            self.conjunctions.add(key)
            return None
        slot = self.free.pop()
        self.table[slot] = (*query.coeffs, query.offset)
        self.keys[slot] = key
        return slot

    def discard(self, key: CacheKey, slot: Optional[int]) -> None:
        if slot is None:
            self.conjunctions.discard(key)
            return
        self.table[slot, -1] = -np.inf
        self.keys[slot] = None
        self.free.append(slot)

    def written(self, point: Tuple[float, ...]) -> List[CacheKey]:
        """The keys a write of ``point`` evicts: the constraints whose
        answer holds it, and every conjunction.

        The constraints' test is the membership fold with the table's
        columns as coefficients and the point's coordinates as columns,
        so each verdict is ``below``'s bit for bit.
        """
        slots = np.flatnonzero(point[-1] <= below_bound(
            self.table.T[:-1], point[:-1], self.table[:, -1]))
        return [self.keys[slot] for slot in slots.tolist()] \
            + list(self.conjunctions)


class ResultCache:
    """Answers by ``(dataset, query)``, bounded by count and bytes.

    Thread-safe: every method holds the cache's lock.  Each eviction is
    counted on ``stats`` by dataset and cause.
    """

    def __init__(self, stats: "EngineStats"):
        self._stats = stats
        # Least recently used first; each answer with its regions slot.
        self._entries: "OrderedDict[CacheKey, Tuple[str, np.ndarray, " \
            "Optional[int]]]" = OrderedDict()
        self._bytes = 0
        self._regions: Dict[str, _Regions] = {}
        self._generations: Dict[str, int] = {}
        self._lock = threading.Lock()

    def get(self, key: CacheKey) -> Optional[CachedAnswer]:
        """The resident answer, marked most recently used, or None."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            self._entries.move_to_end(key)
            return hit[:2]

    def generation(self, dataset_name: str) -> int:
        """The dataset's generation: read it before executing a query and
        hand it to :meth:`put`."""
        with self._lock:
            return self._generations.get(dataset_name, 0)

    def put(self, key: CacheKey, value: CachedAnswer,
            generation: int) -> None:
        """Keep an answer unless a write or flush of its dataset happened
        since ``generation`` was read, or it alone passes the byte bound;
        least recently used answers make room for it."""
        nbytes = value[1].nbytes
        with self._lock:
            if self._generations.get(key[0], 0) != generation:
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self._forget(key, old)
            if nbytes > RESULT_CACHE_BYTES:
                return
            while len(self._entries) >= RESULT_CACHE_ENTRIES \
                    or self._bytes + nbytes > RESULT_CACHE_BYTES:
                victim, entry = self._entries.popitem(last=False)
                self._forget(victim, entry)
                self._stats.note_result_evictions(victim[0], "capacity", 1)
            regions = self._regions.get(key[0])
            if regions is None:
                regions = self._regions[key[0]] = _Regions(
                    value[1].shape[1])
            self._entries[key] = (*value, regions.add(key))
            self._bytes += nbytes

    def evict_where(self, dataset_name: str,
                    point: Optional[Tuple[float, ...]]) -> int:
        """Drop the dataset's answers a write of ``point`` can change
        (cause ``write``; see :meth:`_Regions.written`), or all of them
        when ``point`` is None (``flush``), and bump its generation;
        returns the answers dropped."""
        with self._lock:
            self._generations[dataset_name] = \
                self._generations.get(dataset_name, 0) + 1
            regions = self._regions.get(dataset_name)
            if regions is None:
                return 0
            doomed = [key for key in self._entries
                      if key[0] == dataset_name] if point is None \
                else regions.written(point)
            for key in doomed:
                self._forget(key, self._entries.pop(key))
        if doomed:
            self._stats.note_result_evictions(
                dataset_name, "flush" if point is None else "write",
                len(doomed))
        return len(doomed)

    def _forget(self, key: CacheKey, entry) -> None:
        """Unbook an answer just taken out of the entries (lock held)."""
        self._bytes -= entry[1].nbytes
        self._regions[key[0]].discard(key, entry[2])

    def size(self) -> Tuple[int, int]:
        """Resident ``(entries, bytes)``."""
        with self._lock:
            return len(self._entries), self._bytes

    def check_invariants(self, datasets: Iterable[str]
                         ) -> List[Tuple[CacheKey, CachedAnswer]]:
        """Raise AssertionError unless the books hold: the resident bytes
        are the answers' bytes and within :data:`RESULT_CACHE_BYTES`, at
        most :data:`RESULT_CACHE_ENTRIES` answers are resident, each is
        in its dataset's regions and nothing else is (a free slot admits
        no point), and every key names one of ``datasets``.  Returns the
        resident entries, least recently used first."""
        with self._lock:
            entries = list(self._entries.items())
            resident = self._bytes
            regions = [key for part in self._regions.values()
                       for key in [*part.keys, *part.conjunctions]
                       if key is not None]
            misfiled = [key for key, (__, __, slot) in entries
                        if slot is not None
                        and self._regions[key[0]].keys[slot] != key] + [
                name for name, part in self._regions.items()
                if not np.isneginf(part.table[part.free, -1]).all()]
        if len(regions) != len(entries) or misfiled \
                or set(regions) != {key for key, __ in entries}:
            raise AssertionError("result cache regions hold %d keys for its "
                                 "%d answers" % (len(regions), len(entries)))
        names = set(datasets)
        held = sum(entry[1].nbytes for __, entry in entries)
        if resident != held:
            raise AssertionError("result cache books %d bytes, its answers "
                                 "hold %d" % (resident, held))
        if resident > RESULT_CACHE_BYTES or len(entries) > RESULT_CACHE_ENTRIES:
            raise AssertionError("result cache holds %d answers, %d bytes: "
                                 "past its bound" % (len(entries), resident))
        for (name, query), __ in entries:
            if name not in names:
                raise AssertionError("result cache holds %r for %r, which is "
                                     "not registered" % (query, name))
        return [(key, entry[:2]) for key, entry in entries]
