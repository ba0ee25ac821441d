"""The engine's selectivity estimate: a uniform sample of each shard.

Every planner decision hinges on ``expected_output`` — the paper's bounds
are output-sensitive, so a misestimated T misprices every candidate
index.  The catalog fits one :class:`SelectivityModel` per shard, shared
by its replicas, and a dataset's T is the sum of its shards' estimates,
so planning is priced with shard-local statistics.

The model evaluates the constraint on its :class:`Reservoir`, a uniform
in-memory sample of the shard's live points, with the constraint's own
``below_many`` (the membership rule every index answers by), and scales
the hit fraction by the live size.  It is unbiased on any data and costs
O(sample) arithmetic and zero I/Os; its resolution floor is
``1/len(sample)``, so a selective query on a 512-point sample sees 0–2
hits.  The live size is not the model's: each replica's write overlay
counts its points exactly, and the caller passes that count in.  The
write path feeds the model every committed insert and delete
(``observe_insert`` / ``observe_delete``), so the sample tracks the
data.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.primitives import LinearConstraint


class Reservoir:
    """A uniform sample of a live multiset: the one copy of a model's rows.

    The model that owns it feeds it every committed write, and the
    degraded-answer path reads the same :attr:`rows`, so the two can
    never drift apart.  Below ``capacity`` rows the sample *is* the live
    multiset — an insert appends and a delete removes one matching row
    (Algorithm R's fill phase) — so a dataset registered with few points,
    or a shard built over none, grows its sample with its data.  At
    capacity an insert replaces a uniformly-chosen row with probability
    ``capacity / live_size`` (Algorithm R's replacement step), and a
    delete overwrites the dead rows with copies of uniformly-chosen
    surviving ones: the sample stays full and free of dead points (a
    slight duplication bias, far smaller than estimating against points
    that no longer exist).  A fill or a removal rebinds :attr:`rows`, so
    a concurrent reader sees one array or the other, never a torn one.
    """

    def __init__(self, rows: np.ndarray, capacity: int,
                 seed: Optional[int]):
        self.rows = np.asarray(rows, dtype=float)
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)

    def insert(self, row: np.ndarray, live_size: int) -> None:
        """Fold one inserted row in (``live_size`` counts it already)."""
        if len(self.rows) < self.capacity:
            self.rows = np.concatenate([self.rows, row[None, :]])
        elif len(self.rows):
            slot = int(self._rng.integers(max(live_size, 1)))
            if slot < len(self.rows):
                self.rows[slot] = row

    def evict(self, row: np.ndarray) -> None:
        """Purge one deleted row from the sample."""
        dead = np.flatnonzero(np.all(self.rows == row, axis=1))
        if len(self.rows) < self.capacity:
            if len(dead):
                self.rows = np.delete(self.rows, dead[0], axis=0)
            return
        if len(dead) == 0 or len(dead) == len(self.rows):
            return
        # A mask, not np.setdiff1d: that imports numpy.ma on first use.
        alive = np.ones(len(self.rows), dtype=bool)
        alive[dead] = False
        alive = np.flatnonzero(alive)
        for slot in dead:
            self.rows[slot] = self.rows[int(self._rng.choice(alive))]


class SelectivityModel:
    """Estimates how many of a shard's points satisfy a constraint.

    The estimate is the hit fraction on the model's :class:`Reservoir`
    times the live size its caller passes (the replica overlay's count,
    :attr:`~repro.engine.catalog.Dataset.live_size`); the model feeds
    its sample every observed write.
    """

    def __init__(self, sample: Reservoir):
        #: The model's sample (what the degraded-answer path scans too).
        self.sample = sample

    def estimate_output(self, constraint: LinearConstraint,
                        live_size: int) -> int:
        """Expected number of reported points (the paper's T) among
        ``live_size`` live ones."""
        rows = self.sample.rows
        if constraint.dimension != rows.shape[1]:
            raise ValueError(
                "constraint dimension %d does not match dataset dimension %d"
                % (constraint.dimension, rows.shape[1]))
        if len(rows) == 0:
            return 0
        hits = int(np.count_nonzero(constraint.below_many(rows)))
        return int(round(hits / len(rows) * live_size))

    # ------------------------------------------------------------------
    # mutation feedback (fed by the engine's write path)
    # ------------------------------------------------------------------
    def observe_insert(self, point: Sequence[float], live_size: int) -> None:
        """Fold one inserted point into the sample (``live_size``, the
        count after the write, counts it already)."""
        self.sample.insert(np.asarray(point, dtype=float), live_size)

    def observe_delete(self, point: Sequence[float]) -> None:
        """Fold one deleted point out of the sample."""
        self.sample.evict(np.asarray(point, dtype=float))
