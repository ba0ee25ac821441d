"""The coordinator's write fan-out log: per-shard ordered mutation records.

Every engine-level write that lands on a sharded dataset is appended
here (by the coordinator's :meth:`~repro.engine.cluster.coordinator.
Coordinator.note_write` hook, still under the dataset's write barrier,
so log order *is* apply order) before being broadcast to the shard's
worker processes.  A worker that died — or missed writes while dead —
is caught up by replaying the shard's log on restart: its replica is
rebuilt from the build-time chunk, then every logged ``(seq, op, point)``
is re-applied in order.  Workers treat ``seq`` idempotently (a sequence
number at or below their high-water mark is skipped), so replay and
live broadcast can safely overlap.

The log is bounded by the rebalance cycle, not by time: a re-split
rebuilds every shard's build array from the live points, which absorbs
the logged mutations, so :meth:`clear_dataset` empties the dataset's
log at that moment (the coordinator's rebalance hook does this before
restarting the workers on the new layout).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

#: One logged mutation: (sequence number, "insert"/"delete", point).
LogEntry = Tuple[int, str, Tuple[float, ...]]


class WriteLog:
    """Ordered per-(dataset, shard) mutation records with monotonic seqs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, int], List[LogEntry]] = {}
        self._next_seq: Dict[Tuple[str, int], int] = {}

    def append(self, dataset: str, shard_id: int, op: str,
               point: Tuple[float, ...]) -> int:
        """Record one mutation; returns its (per-shard) sequence number."""
        key = (dataset, shard_id)
        with self._lock:
            seq = self._next_seq.get(key, 0) + 1
            self._next_seq[key] = seq
            self._entries.setdefault(key, []).append((seq, op, point))
            return seq

    def entries(self, dataset: str, shard_id: int) -> List[LogEntry]:
        """Every logged mutation for one shard, in apply order."""
        with self._lock:
            return list(self._entries.get((dataset, shard_id), ()))

    def clear_dataset(self, dataset: str) -> int:
        """Drop a dataset's whole log (a re-split absorbed it); returns
        the number of entries dropped.  Sequence numbers restart from 1 —
        workers are restarted from the new layout at the same moment, so
        their high-water marks restart with them."""
        with self._lock:
            keys = [key for key in self._entries if key[0] == dataset]
            dropped = sum(len(self._entries[key]) for key in keys)
            for key in keys:
                del self._entries[key]
                self._next_seq.pop(key, None)
            return dropped

    def last_seq(self, dataset: str, shard_id: int) -> int:
        """The shard's last logged sequence number (0 before its first)."""
        with self._lock:
            return self._next_seq.get((dataset, shard_id), 0)

    def check_invariants(self) -> None:
        """Raise AssertionError unless each shard's seqs run 1..n with no
        gap and its next-seq counter is the last of them."""
        with self._lock:
            for key in self._entries.keys() | self._next_seq.keys():
                seqs = [seq for seq, __, __ in self._entries.get(key, ())]
                if seqs != list(range(1, len(seqs) + 1)) \
                        or self._next_seq.get(key, 0) != len(seqs):
                    raise AssertionError(
                        "shard %s#%d logs seqs %r, last seq %d"
                        % (*key, seqs[:8], self._next_seq.get(key, 0)))

    def sizes(self) -> Dict[str, int]:
        """Logged-entry counts per ``dataset#shard`` (for ``describe()``)."""
        with self._lock:
            return {"%s#%d" % key: len(entries)
                    for key, entries in sorted(self._entries.items())}
