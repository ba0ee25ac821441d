"""A least-recently-used buffer pool for the simulated disk.

The external memory model allows an internal memory of ``M`` records, i.e.
``M/B`` blocks.  :class:`LRUCache` models that buffer pool: block reads that
hit the cache are free, everything else costs one I/O.  The paper's query
bounds do not rely on caching (they hold with a single-block buffer), so the
cache defaults to a small size; benchmarks can enlarge it to study the
effect of internal memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A fixed-capacity mapping that evicts the least recently used entry.

    ``capacity == 0`` disables caching entirely (every lookup misses), which
    is convenient for measuring raw I/O counts.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0, got %r" % capacity)
        self.capacity = capacity
        #: The resident entries, least recently used first.  A reader
        #: that keeps to :meth:`get` / :meth:`put`'s rules may work on it
        #: directly (:meth:`~repro.io.store.BlockStore.read_run` does, a
        #: run at a time): a hit moves its key to the end and counts in
        #: :attr:`hits`, a miss counts in :attr:`misses`, and an insert
        #: past ``capacity`` drops the first entry.
        self.entries: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: K) -> bool:
        return key in self.entries

    def get(self, key: K) -> Optional[V]:
        """Return the cached value and mark it most recently used, or None."""
        if self.capacity == 0 or key not in self.entries:
            self.misses += 1
            return None
        self.hits += 1
        self.entries.move_to_end(key)
        return self.entries[key]

    def put(self, key: K, value: V) -> None:
        """Insert or refresh an entry, evicting the LRU entry if needed."""
        if self.capacity == 0:
            return
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting LRU entries if it shrank.

        The engine enlarges the buffer pool while serving a wave of
        queries (cache reuse across queries) and restores the original
        size afterwards, so single-query measurements keep the model's
        small ``M/B``.
        """
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0, got %r" % capacity)
        self.capacity = capacity
        while len(self.entries) > capacity:
            self.entries.popitem(last=False)

    def items(self) -> List[Tuple[K, V]]:
        """The cached ``(key, value)`` pairs, least recently used first
        (recency and hit/miss statistics untouched)."""
        return list(self.entries.items())

    def invalidate(self, key: K) -> None:
        """Drop an entry (used when a block is rewritten or freed)."""
        self.entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry but keep hit/miss statistics."""
        self.entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters."""
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 if no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return "LRUCache(capacity=%d, size=%d, hit_rate=%.2f)" % (
            self.capacity, len(self.entries), self.hit_rate)
