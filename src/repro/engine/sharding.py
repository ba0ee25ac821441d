"""Sharded datasets: partition a point set across several block stores.

One :class:`~repro.io.store.BlockStore` is one disk; past a point a single
disk (and the single buffer pool in front of it) is the bottleneck.  A
:class:`ShardedDataset` partitions a dataset's points across ``K`` shards —
each with its own store, its own backend and its own index suite — so the
executor can fan a query out and the planner can price a plan as
(relevant shards × the per-shard paper bound).

Two routers ship:

* :class:`HashShardRouter` — points are spread by a deterministic hash,
  balancing load but touching every shard on every query;
* :class:`RangeShardRouter` — points are split at quantiles of a *leading
  attribute*, so a constraint that is selective in that attribute misses
  most shards entirely.

Every shard is built with its dataset, whether or not the router gave it
points: a zero-point shard (hash routing of a tiny dataset, a range shard
no build point reached) is an ordinary index suite over ``(0, d)``, and
the first insert routed to it fills it.

Pruning is exact, not heuristic: every shard records the bounding box of
its points, and a shard participates only if some point of that box is
below every conjunct of the query by the conjunct's own membership fold
(its box form, ``classify_boxes_halfspace``, finds the box not ABOVE); a
zero-point shard has no box and is pruned until a write lands.
For range shards and steep leading-attribute constraints this
reproduces classic partition pruning; for hash shards the boxes all span
the data and nothing is pruned — which is exactly the trade-off the two
routers represent.
"""

from __future__ import annotations

import abc
import bisect
import threading
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
    Tuple,
)

import numpy as np

from repro.geometry.primitives import (LinearConstraint,
                                       classify_boxes_halfspace)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (catalog imports us)
    from repro.engine.catalog import Catalog, Dataset, Query, ReplicaRecipe
    from repro.engine.metrics import EngineStats


class ShardRouter(abc.ABC):
    """Maps points to shard ids; built once per sharded dataset."""

    #: Short scheme name ("hash" / "range") used in configs and reprs.
    scheme: str = "abstract"

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1, got %r" % num_shards)
        self.num_shards = num_shards

    @abc.abstractmethod
    def shard_of(self, point: Sequence[float]) -> int:
        """The shard id a point belongs to."""

    def assign(self, points: np.ndarray) -> List[np.ndarray]:
        """Row indices of ``points`` per shard (length ``num_shards``)."""
        buckets: List[List[int]] = [[] for __ in range(self.num_shards)]
        for row, point in enumerate(points):
            buckets[self.shard_of(point)].append(row)
        return [np.asarray(bucket, dtype=int) for bucket in buckets]

    def describe(self) -> Dict[str, object]:
        """JSON-friendly router description (persisted by benchmarks)."""
        return {"scheme": self.scheme, "num_shards": self.num_shards}

    def __repr__(self) -> str:
        return "%s(num_shards=%d)" % (type(self).__name__, self.num_shards)


class HashShardRouter(ShardRouter):
    """Deterministic hash partitioning over the whole point tuple.

    Python's numeric hash is stable across runs (only str/bytes hashing is
    randomised), so the assignment is reproducible.
    """

    scheme = "hash"

    def shard_of(self, point: Sequence[float]) -> int:
        return hash(tuple(float(c) for c in point)) % self.num_shards


class RangeShardRouter(ShardRouter):
    """Quantile range partitioning on one *leading* attribute.

    Boundaries are the ``k/K`` quantiles of ``points[:, attribute]``, so
    shards are balanced on the build distribution; ``shard_of`` bisects the
    boundary list.
    """

    scheme = "range"

    def __init__(self, num_shards: int, boundaries: Sequence[float],
                 attribute: int = 0):
        super().__init__(num_shards)
        if len(boundaries) != num_shards - 1:
            raise ValueError("need %d boundaries for %d shards, got %d"
                             % (num_shards - 1, num_shards, len(boundaries)))
        if list(boundaries) != sorted(boundaries):
            raise ValueError("boundaries must be sorted, got %r"
                             % (list(boundaries),))
        self.attribute = attribute
        self.boundaries = [float(b) for b in boundaries]

    @classmethod
    def from_points(cls, points: np.ndarray, num_shards: int,
                    attribute: int = 0) -> "RangeShardRouter":
        """Choose boundaries as quantiles of the attribute's distribution."""
        points = np.asarray(points, dtype=float)
        if not 0 <= attribute < points.shape[1]:
            raise ValueError("attribute %d out of range for dimension %d"
                             % (attribute, points.shape[1]))
        fractions = np.arange(1, num_shards) / num_shards
        boundaries = np.quantile(points[:, attribute], fractions)
        return cls(num_shards, boundaries.tolist(), attribute=attribute)

    def shard_of(self, point: Sequence[float]) -> int:
        return bisect.bisect_right(self.boundaries,
                                   float(point[self.attribute]))

    def assign(self, points: np.ndarray) -> List[np.ndarray]:
        """Vectorised range routing: one searchsorted over the attribute."""
        points = np.asarray(points, dtype=float)
        shard_ids = np.searchsorted(np.asarray(self.boundaries),
                                    points[:, self.attribute], side="right")
        return [np.flatnonzero(shard_ids == shard)
                for shard in range(self.num_shards)]

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["attribute"] = self.attribute
        payload["boundaries"] = list(self.boundaries)
        return payload


def make_router(scheme: str, points: np.ndarray, num_shards: int,
                attribute: int = 0) -> ShardRouter:
    """Build a router of the given scheme over the dataset's points."""
    if scheme == "hash":
        return HashShardRouter(num_shards)
    if scheme == "range":
        return RangeShardRouter.from_points(points, num_shards,
                                            attribute=attribute)
    raise ValueError("unknown sharding scheme %r (expected 'hash' or "
                     "'range')" % (scheme,))


@dataclass
class Shard:
    """One shard: replicated child datasets plus the pruning bounding box.

    ``replicas`` holds the recipe's N copies of the shard's points, each a
    full child dataset with its own store and index suite; replica 0 is
    the *primary* (:meth:`planning_dataset`).  The executor picks the
    least-loaded replica per query, so concurrent tenants touching the
    same shard overlap their I/O across replicas.

    The bounding box is computed from the build-time points (a shard
    built over zero points has none: ``lows is None``).  Once a write
    commits, the engine's write path
    (:class:`~repro.engine.writes.WritePath`) marks the shard
    ``written``: a write can land outside the box, so it is no longer
    trusted for pruning (the shard always participates, keeping pruning
    exact).  Every index of the suite stays routable: each replica's
    write overlay makes any index's answer the live one.

    The write path also fans every insert/delete out to **all**
    replicas, so the copies stay byte-identical and
    :meth:`replicas_for_query` keeps returning every replica after
    writes — the least-loaded picker's choices stay open.
    """

    shard_id: int
    replicas: List["Dataset"]
    lows: Optional[Tuple[float, ...]] = None
    highs: Optional[Tuple[float, ...]] = None
    written: bool = False

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def size(self) -> int:
        """Build-time point count (the primary's)."""
        return self.replicas[0].size

    def replicas_for_query(self) -> List[int]:
        """Replica ids a query may be served from — always all of them.

        The write path keeps replicas identical (fan-out with rollback),
        so reads stay free to spread over every copy even after
        mutations.
        """
        return list(range(len(self.replicas)))

    def planning_dataset(self) -> "Dataset":
        """The replica dataset the planner should cost candidates against.

        Replicas are identical by construction (the write path fans
        mutations out to all of them), so this is simply the primary.
        """
        return self.replicas[0]


@dataclass
class ShardedDataset:
    """A dataset partitioned across per-shard stores and index suites.

    Every registered name is one of these; ``register_dataset`` builds
    the one-shard, one-replica instance.  The dataset holds no
    selectivity model of its own: each shard's replicas share one, and
    the dataset's live size and expected output (the paper's T) are the
    sums of its shards' — what the planner prices and a degraded answer
    reports.  ``prune`` can be flipped off to force fan-out to every
    shard (benchmarks use this to measure what pruning saves).

    ``generation`` counts re-splits: the :class:`RebalanceManager` bumps
    it when it rebuilds the shard layout, and the executor re-plans any
    query whose plan was made against an older generation.
    """

    name: str
    points: np.ndarray
    router: ShardRouter
    #: Replica settings resolved at registration; every rebuild (re-split,
    #: worker process) reads them here.
    recipe: "ReplicaRecipe"
    shards: List[Shard] = field(default_factory=list)
    prune: bool = True
    #: Index builds performed over every shard — ``{"kind", "index_name",
    #: "params"}`` records kept by the catalog so a re-split can rebuild
    #: the identical suite (same names, same parameters) on new shards.
    suite_builds: List[Dict[str, object]] = field(default_factory=list)
    #: Re-split counter; plans carry the generation they were made against.
    generation: int = 0
    #: The dataset's write barrier: an engine-level mutation holds it
    #: for route, fan-out and effects, and a re-split for its whole
    #: collect-swap-rebuild window — so a write can neither land in
    #: shards that are about to be retired and miss the collected
    #: snapshot (it would be silently lost), nor route against a
    #: half-swapped layout, and two fan-outs never interleave on one
    #: replica set.  Re-entrant so the rebalance manager can hold it
    #: around the catalog re-split *plus* its listeners.
    write_lock: threading.RLock = field(default_factory=threading.RLock,
                                        repr=False, compare=False)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the stored points."""
        return int(self.points.shape[1])

    @property
    def size(self) -> int:
        """Number of stored points across every shard (the paper's N)."""
        return int(self.points.shape[0])

    @property
    def live_size(self) -> int:
        """Current point count across shards, observed mutations included."""
        return sum(self.shard_live_sizes())

    @property
    def num_shards(self) -> int:
        """The configured shard count K."""
        return self.router.num_shards

    def nonempty_shards(self) -> List[Shard]:
        """Every shard: the benchmark's name for :attr:`shards`."""
        return self.shards

    def estimate_output(self, constraint: LinearConstraint) -> int:
        """Expected number of reported points (the paper's T): the sum of
        the relevant shards' estimates, as the planner takes it."""
        return sum(shard.planning_dataset().estimate_output(constraint)
                   for shard in self.relevant_shards(constraint))

    def shard_live_sizes(self) -> List[int]:
        """Current per-shard point counts, mutations included.

        Uses each shard's planning replica and its live size (replicas
        hold identical data), so post-insert skew is visible — the
        build-time ``shards[i].size`` is not.
        """
        return [shard.planning_dataset().live_size for shard in self.shards]

    def relevant_shards(self, query: "Query") -> List[Shard]:
        """The shards a query must visit: unless pruning is disabled,
        every written shard, and every other shard whose bounding box no
        conjunct of the query finds ABOVE its hyperplane (a shard with no
        box and no write holds nothing).

        The boxes are stacked and classified with one
        :func:`~repro.geometry.primitives.classify_boxes_halfspace` call
        per conjunct: the box form of ``below``'s fold, monotone in every
        coordinate, so a shard holding a point some conjunct's ``below``
        admits is never found ABOVE that conjunct.
        """
        if not self.prune:
            return list(self.shards)
        keep = [shard.written for shard in self.shards]
        boxed = [number for number, shard in enumerate(self.shards)
                 if not shard.written and shard.lows is not None]
        if boxed:
            lows = np.array([self.shards[number].lows for number in boxed])
            highs = np.array([self.shards[number].highs for number in boxed])
            codes = zip(*(classify_boxes_halfspace(lows, highs, constraint)
                          .tolist() for constraint in query.constraints))
            for number, relations in zip(boxed, codes):
                keep[number] = all(relations)       # 0: ABOVE, pruned
        return [shard for shard, holds in zip(self.shards, keep) if holds]

    def check_invariants(self) -> None:
        """Raise AssertionError unless the layout is one that writes and
        re-splits can leave behind.

        The router has one slot per shard and sorted range boundaries;
        every shard holds the recipe's number of replicas, each with the
        recorded index suite (each name built, in order, or an alias of
        one built), sharing one selectivity model; replicas
        hold equal live multisets, which their overlays count, and as
        many rebuilds and stored blocks as their primary (a write
        rebuilds every replica or none);
        every live point routes to the shard holding it and, unless the
        shard is written, lies inside its
        box — a shard with no box holds none; no model's sample exceeds
        the recipe's ``sample_size``, and a sample below it is exactly
        its live multiset.  Live points are read from memory under the
        write barrier: no I/O is charged.
        """
        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError("%s: %s" % (self.name,
                                                 message % values))

        capacity = self.recipe.sample_size
        with self.write_lock:
            router = self.router
            check(len(self.shards) == router.num_shards,
                  "%d shards behind a %d-shard router", len(self.shards),
                  router.num_shards)
            boundaries = getattr(router, "boundaries", [])
            check(boundaries == sorted(boundaries),
                  "range boundaries %r are not sorted", boundaries)
            suite = [build["index_name"] for build in self.suite_builds]
            for shard in self.shards:
                check(shard.num_replicas == self.recipe.replicas,
                      "shard %d has %d replicas, its recipe %d",
                      shard.shard_id, shard.num_replicas,
                      self.recipe.replicas)
                primary = shard.replicas[0]
                live = primary.overlay.live_points()
                multiset = sorted(map(tuple, live.tolist()))
                for replica in shard.replicas:
                    names = list(replica.indexes)
                    check(names == [name for name in suite
                                    if name not in replica.aliases]
                          and set(replica.aliases) <= set(suite)
                          and set(replica.aliases.values()) <= set(names),
                          "replica %r holds indexes %r and aliases %r, its "
                          "dataset records %r", replica.name, names,
                          replica.aliases, suite)
                    check(replica.stats is primary.stats,
                          "replica %r has a model of its own", replica.name)
                    check(sorted(map(tuple, replica.overlay.live_points()
                                     .tolist())) == multiset,
                          "replica %r holds other live points than its "
                          "primary", replica.name)
                    check(replica.overlay.size == len(live),
                          "replica %r's overlay counts other than its %d "
                          "live points", replica.name, len(live))
                    check(replica.overlay.rebuilds == primary.overlay.rebuilds
                          and replica.store.num_blocks
                          == primary.store.num_blocks,
                          "replica %r has %d rebuilds and %d blocks, its "
                          "primary %d and %d", replica.name,
                          replica.overlay.rebuilds, replica.store.num_blocks,
                          primary.overlay.rebuilds, primary.store.num_blocks)
                check(len(router.assign(live)[shard.shard_id]) == len(live),
                      "shard %d holds points routed elsewhere",
                      shard.shard_id)
                if shard.lows is None:
                    check(shard.written or len(live) == 0,
                          "shard %d has no box and no write, but holds %d "
                          "live points", shard.shard_id, len(live))
                else:
                    check(shard.written
                          or bool(np.all((shard.lows <= live)
                                         & (live <= shard.highs))),
                          "shard %d holds points outside its unwritten box",
                          shard.shard_id)
                rows = primary.stats.sample.rows
                check(len(rows) <= capacity, "shard %d's sample holds %d "
                      "rows, its recipe at most %d", shard.shard_id,
                      len(rows), capacity)
                check(len(rows) == capacity
                      or sorted(map(tuple, rows.tolist())) == multiset,
                      "shard %d's sample is short of %d rows but not its "
                      "live multiset", shard.shard_id, capacity)

    def describe(self) -> Dict[str, object]:
        """JSON-friendly sharding summary (persisted by benchmarks)."""
        return {
            "name": self.name,
            "router": self.router.describe(),
            "shard_sizes": [shard.size for shard in self.shards],
            "replicas": self.recipe.replicas,
            "generation": self.generation,
        }

    def __repr__(self) -> str:
        return "ShardedDataset(name=%r, N=%d, %r)" % (
            self.name, self.size, self.router)


# ----------------------------------------------------------------------
# rebalancing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RebalanceReport:
    """What one re-split did (recorded in EngineStats and benchmarks)."""

    dataset: str
    #: "manual" (QueryEngine.rebalance) or "auto" (threshold trigger).
    reason: str
    #: The sharded dataset's generation after the re-split.
    generation: int
    old_sizes: Tuple[int, ...]
    new_sizes: Tuple[int, ...]
    imbalance_before: float
    imbalance_after: float

    def summary(self) -> Dict[str, object]:
        """JSON-friendly view (EngineStats keeps these as events)."""
        return {
            "dataset": self.dataset,
            "reason": self.reason,
            "generation": self.generation,
            "old_sizes": list(self.old_sizes),
            "new_sizes": list(self.new_sizes),
            "imbalance_before": self.imbalance_before,
            "imbalance_after": self.imbalance_after,
        }


#: Largest shard's live size over the fair share at which a range-sharded
#: dataset is re-split (1.0 is perfectly balanced).
REBALANCE_THRESHOLD = 2.0

#: Mutations a dataset takes before its skew is looked at.
REBALANCE_MIN_MUTATIONS = 64


class RebalanceManager:
    """Detects shard skew and re-splits range shards at fresh quantiles.

    Range shards are split at *build-time* quantiles; inserts land
    wherever the caller sends them, so the split drifts: one shard bloats
    (its I/O share grows) and its bounding box goes stale, which disables
    pruning for every later query.  The
    manager watches the **size imbalance** — the largest shard's live
    size over the fair share ``N/K`` — fed by the engine's write path.

    When it reaches :data:`REBALANCE_THRESHOLD` (after at least
    :data:`REBALANCE_MIN_MUTATIONS` mutations), :meth:`maybe_rebalance`
    re-splits: live points are
    collected from every shard's planning replica, fresh quantile
    boundaries are computed, per-shard stores / index suites / models are
    rebuilt through the catalog, and the registered listeners run (the
    engine flushes the result cache and restarts worker fleets there).
    Plans made against the old layout are invalidated by the
    dataset's bumped ``generation``.

    Only range-sharded datasets rebalance: hash routing has no
    boundaries to move.
    """

    def __init__(self, catalog: "Catalog", stats: "EngineStats"):
        self._catalog = catalog
        self._stats = stats
        self._mutations: Dict[str, int] = {}
        self._listeners: List[Callable[[str, RebalanceReport], None]] = []

    def add_listener(
            self,
            listener: Callable[[str, RebalanceReport], None]) -> None:
        """Run ``listener(dataset_name, report)`` after every re-split."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # skew signals
    # ------------------------------------------------------------------
    def note_mutation(self, dataset_name: str) -> None:
        """Count one mutation against a dataset (fed by the write path)."""
        self._mutations[dataset_name] = \
            self._mutations.get(dataset_name, 0) + 1

    def mutations(self, dataset_name: str) -> int:
        """Mutations observed since the last re-split (or registration)."""
        return self._mutations.get(dataset_name, 0)

    @staticmethod
    def _imbalance(sizes: Sequence[int]) -> float:
        """Largest shard over the fair share (1.0 = perfectly balanced)."""
        total = sum(sizes)
        if total <= 0 or not sizes:
            return 1.0
        return max(sizes) / (total / len(sizes))

    def skew(self, dataset_name: str) -> Dict[str, float]:
        """The dataset's current skew signals (imbalance, mutations)."""
        sizes = self._catalog.sharded(dataset_name).shard_live_sizes()
        return {
            "imbalance": self._imbalance(sizes),
            "mutations": float(self.mutations(dataset_name)),
        }

    def should_rebalance(self, dataset_name: str) -> bool:
        """True when skew warrants a re-split (cheap; no I/Os)."""
        # Mutation count first: a name the catalog does not know has
        # none, so serving entry points may probe it without a KeyError.
        if self.mutations(dataset_name) < REBALANCE_MIN_MUTATIONS:
            return False
        if self._catalog.sharded(dataset_name).router.scheme != "range":
            return False
        return self.skew(dataset_name)["imbalance"] >= REBALANCE_THRESHOLD

    # ------------------------------------------------------------------
    # the re-split
    # ------------------------------------------------------------------
    def rebalance(self, dataset_name: str,
                  reason: str = "manual") -> RebalanceReport:
        """Re-split a range-sharded dataset at fresh quantiles now.

        Collects live points (mutations included) from every shard's
        planning replica, rebuilds routers / stores / index suites /
        statistics through the catalog, resets the mutation counter, and
        notifies the listeners (cache invalidation, worker restarts).
        """
        before = self.skew(dataset_name)
        sharded = self._catalog.sharded(dataset_name)
        # Hold the dataset's write barrier across the re-split AND the
        # listeners: a write slipping in between the swap and the
        # worker-fleet restart would be broadcast to the old fleet, then
        # cleared with its log, and never reach the new workers.
        # (Re-entrant: the catalog re-split
        # acquires the same lock inside.)
        with sharded.write_lock:
            outcome = self._catalog.resplit_sharded_dataset(dataset_name)
            self._mutations[dataset_name] = 0
            report = RebalanceReport(
                dataset=dataset_name,
                reason=reason,
                generation=int(outcome["generation"]),
                old_sizes=tuple(outcome["old_sizes"]),
                new_sizes=tuple(outcome["new_sizes"]),
                imbalance_before=before["imbalance"],
                imbalance_after=self.skew(dataset_name)["imbalance"],
            )
            for listener in self._listeners:
                listener(dataset_name, report)
        self._stats.note_rebalance(report.summary())
        return report

    def maybe_rebalance(self,
                        dataset_name: str) -> Optional[RebalanceReport]:
        """Re-split iff the skew signals cross the threshold."""
        if self.should_rebalance(dataset_name):
            return self.rebalance(dataset_name, reason="auto")
        return None
