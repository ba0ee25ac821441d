"""The engine-level write path: routed inserts with replica write-fanout.

Reads route through the planner; writes route through the *shard
attribute*.  :class:`WritePath` is the mutation twin of the execution
core and the one place a write takes effect.  Given ``insert(dataset,
point)`` / ``delete(dataset, point)`` it

* **routes** the point to its shard — every shard has its replicas, one
  built over zero points included — via the dataset's current
  :class:`~repro.engine.sharding.ShardRouter`, under the dataset's
  *write barrier* (:attr:`~repro.engine.sharding.ShardedDataset.
  write_lock`), which a re-split holds for its whole collect-swap-rebuild
  window — so a write never sees a layout mid-swap, nor lands in shards
  whose live points were already collected;
* **fans the mutation out to every replica** of the shard through
  :func:`write_overlay`, all or nothing: a failure on a later replica
  rolls the applied ones back via the inverse operation, and a rebuild
  the write made due runs only after every replica took it;
* **applies the committed write's effects**, once, still under the
  barrier (:meth:`WritePath._take_effect`) — the shard's ``written``
  flag, statistics, the write listeners, and the result-cache eviction
  last;
* **accounts** the write in :class:`~repro.engine.metrics.EngineStats`.

A ``register_dataset`` dataset takes this same path (one shard, one
replica), and so does every index suite: a write lands in each replica's
:class:`~repro.engine.overlay.WriteOverlay`, never in an index, so no
index can be written around this path.

Each replica's application happens under that replica's store lock, the
same lock the executors hold around queries, so concurrent reads observe
each replica before or after a mutation — never mid-write.  Writes to
one dataset serialize on its barrier even when they target disjoint
shards: a mutation is a handful of amortised I/Os, cheap next to the
reads it protects.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Tuple

import repro.engine.tracing as tracing
from repro.engine.catalog import Catalog, Dataset
from repro.engine.metrics import EngineStats
from repro.engine.sharding import Shard, ShardedDataset

#: Amortised I/O estimate charged per replica application when admission
#: control prices a write before it runs: one blocked buffer/tombstone
#: append plus its share of the eventual rebuild.  Settled against the
#: observed I/Os afterwards, like read estimates are.
WRITE_IOS_PER_REPLICA = 2.0


def write_overlay(dataset: Dataset, op: str,
                  record: Tuple[float, ...]) -> Tuple[bool, int]:
    """Apply one insert/delete to one replica's write overlay.

    The write-side unit of account, shared by the fan-out, its
    rollback and the shard-worker process (each follows an applied
    write with :func:`rebuild_if_due`); it runs inside the replica's
    :meth:`~repro.io.store.BlockStore.measured` window.  Returns
    ``(applied, ios)`` — ``applied`` is False only for a delete that
    found nothing; ``ios`` counts pool hits as the transfers they stand
    for.
    """
    overlay = dataset.overlay
    with dataset.store.measured() as delta:
        if op == "insert":
            overlay.insert(record)
            applied = True
        elif op == "delete":
            applied = overlay.delete(record)
        else:
            raise ValueError("unknown mutation op %r (expected "
                             "'insert' or 'delete')" % (op,))
    return applied, delta.total + delta.cache_hits


def rebuild_if_due(dataset: Dataset) -> int:
    """Run the rebuild a write made due on one replica
    (:meth:`~repro.engine.catalog.Dataset.rebuild`); returns its I/Os."""
    if not dataset.overlay.due():
        return 0
    with dataset.store.measured() as delta:
        dataset.rebuild()
    return delta.total + delta.cache_hits


@dataclass(frozen=True)
class MutationResult:
    """One applied engine-level mutation (what ``insert``/``delete`` return)."""

    dataset: str
    #: "insert" or "delete".
    op: str
    point: Tuple[float, ...]
    #: False only for a delete of an absent point (a no-op).
    applied: bool
    #: Shard the router chose.
    shard_id: int
    #: Replicas the mutation was applied to.
    replicas: int
    #: Block transfers charged across every replica application.
    ios: int
    latency_s: float
    #: The dataset's re-split generation the write was routed against.
    generation: int


class WritePath:
    """Routes engine-level mutations and fans them out to replicas.

    Parameters
    ----------
    catalog:
        The engine's catalog (owns datasets, shards and their indexes).
    stats:
        The :class:`EngineStats` sink for per-dataset write counters and
        latency percentiles.
    invalidate:
        ``invalidate(dataset_name, point)``, the result cache's
        :meth:`~repro.engine.result_cache.ResultCache.evict_where`: it
        drops the answers the point can change, or every answer of the
        dataset when the point is None.  The last effect of a committed
        write, and the clean-up of an aborted fan-out, whose rollback
        may have raced a concurrent read against an already-mutated
        secondary.
    """

    def __init__(self, catalog: Catalog, stats: EngineStats, invalidate):
        self._catalog = catalog
        self._stats = stats
        self._invalidate = invalidate
        self._write_listeners: List = []

    def add_write_listener(self, listener) -> None:
        """Subscribe ``listener(dataset, shard_id, op, point, applied)``
        to every committed engine-level mutation.

        Fired after the replica fan-out applied and the shard's flag and
        statistics took the write, before the result cache evicts,
        still under the dataset's write barrier — so listeners observe
        mutations in apply order (the cluster coordinator's write log
        depends on that).  Aborted fan-outs (rolled back) do not fire.
        """
        self._write_listeners.append(listener)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def insert(self, dataset_name: str, point) -> MutationResult:
        """Insert one point, routed by shard attribute, on every replica."""
        return self._mutate(dataset_name, point, "insert")

    def delete(self, dataset_name: str, point) -> MutationResult:
        """Delete one point (one copy) everywhere it is replicated.

        Returns a result with ``applied=False`` when the point was not
        present — a no-op.
        """
        return self._mutate(dataset_name, point, "delete")

    def estimate_ios(self, dataset_name: str) -> float:
        """Predicted write cost, for admission control (pure arithmetic):
        every shard has the recipe's replicas, and the write fans out to
        all of them."""
        return WRITE_IOS_PER_REPLICA \
            * self._catalog.sharded(dataset_name).recipe.replicas

    # ------------------------------------------------------------------
    # the mutation
    # ------------------------------------------------------------------
    def _mutate(self, dataset_name: str, point, op: str) -> MutationResult:
        started = time.perf_counter()
        with tracing.span("write.mutate", dataset=dataset_name,
                          op=op) as span:
            result = self._route_and_fan_out(dataset_name, point, op,
                                             started)
            if span.enabled:
                span.set_many({
                    "applied": result.applied,
                    "shard_id": result.shard_id,
                    "replicas": result.replicas,
                    "ios": result.ios,
                    "generation": result.generation,
                })
        self._stats.note_write(result.dataset, result.op,
                               applied=result.applied, ios=result.ios,
                               latency_s=result.latency_s,
                               replicas=result.replicas)
        return result

    def _route_and_fan_out(self, dataset_name: str, point, op: str,
                           started: float) -> MutationResult:
        sharded = self._catalog.sharded(dataset_name)
        record = self._as_record(point, sharded)
        # Route, fan-out and effects under the barrier (module docstring).
        with sharded.write_lock:
            generation = sharded.generation
            shard = sharded.shards[sharded.router.shard_of(record)]
            applied, ios, rebuilt = self._apply_fanout(dataset_name, shard,
                                                       op, record)
            self._take_effect(sharded, shard, op, record, applied, rebuilt)
        return MutationResult(
            dataset=dataset_name, op=op, point=record, applied=applied,
            shard_id=shard.shard_id, replicas=shard.num_replicas,
            ios=ios, latency_s=time.perf_counter() - started,
            generation=generation)

    def _take_effect(self, sharded: ShardedDataset, shard: Shard, op: str,
                     record: Tuple[float, ...], applied: bool,
                     rebuilt: bool) -> None:
        """Every effect of a committed write, in order (barrier held).

        The shard's ``written`` flag, then statistics, then the
        listeners, then the result cache — last, so an answer a worker
        computed before the broadcast cannot be cached under the new
        generation.  The cache drops the answers that hold the point,
        and the dataset's conjunctions (whose plan any write can move);
        it drops the dataset's every answer when the write may have
        changed answers without the point: the shard's first write
        (pruning no longer trusts its box), a write that ``rebuilt`` the
        shard's replicas (their rows are in a new order), and any write
        to a shard whose suite holds a kind priced from the expected
        output (:attr:`~repro.engine.catalog.Dataset.exactly_priced`),
        which the write moves, and with it the plan.
        A no-op delete changed nothing: only the listeners hear it (the
        write log replays it as one).
        """
        first = not shard.written
        if applied:
            shard.written = True
            primary = shard.planning_dataset()
            if op == "insert":
                primary.stats.observe_insert(record, primary.live_size)
            else:
                primary.stats.observe_delete(record)
        for listener in self._write_listeners:
            listener(sharded.name, shard.shard_id, op, record, applied)
        if applied:
            keep = not (first or rebuilt) \
                and shard.planning_dataset().exactly_priced
            self._invalidate(sharded.name, record if keep else None)

    def _apply_fanout(self, dataset_name: str, shard: Shard, op: str,
                      record: Tuple[float, ...]) -> Tuple[bool, int, bool]:
        """Apply one mutation to every replica, or to none; returns
        ``(applied, ios, rebuilt)``, where ``rebuilt`` says the write
        set off a rebuild (the replicas rebuild in step).

        Secondaries first, primary last, each into its overlay; the
        rebuilds the write made due run only once every replica took it,
        so a fan-out that aborts while writing the overlays leaves no
        replica rebuilt and the copies stay equal block for block (a
        rebuild that fails rolls the overlays back too, but the replicas
        it already rebuilt stay rebuilt).  A failure part-way rolls the
        applied replicas back via the inverse operation, flushes the
        dataset's result cache (a concurrent read may have cached an
        answer off an already-mutated secondary), and re-raises the
        original error — annotated with the I/Os the aborted attempt
        really spent, so admission can charge them.  Nothing else of the
        write takes effect: flag, statistics and listeners wait for
        :meth:`_take_effect`.
        """
        order = shard.replicas[1:] + shard.replicas[:1]
        applied: List[Tuple[Dataset, bool]] = []
        total_ios = 0
        fanout_span = tracing.current_span().child(
            "write.fanout", shard_id=shard.shard_id,
            replicas=len(order))
        primary = shard.replicas[0]
        try:
            rebuilds = primary.overlay.rebuilds
            for child in order:
                outcome, ios = write_overlay(child, op, record)
                total_ios += ios
                applied.append((child, outcome))
                fanout_span.child("write.replica", replica=child.name,
                                  ios=ios, applied=outcome).finish()
            if outcome:
                for child in order:
                    ios = rebuild_if_due(child)
                    total_ios += ios
                    if ios:
                        fanout_span.child("write.rebuild",
                                          replica=child.name,
                                          ios=ios).finish()
        except Exception as exc:
            rollback_span = fanout_span.child(
                "write.rollback", replicas_applied=len(applied),
                cause="%s: %s" % (type(exc).__name__, exc))
            ios_before_rollback = total_ios
            total_ios += self._rollback(applied, op, record, exc)
            rollback_span.set("ios", total_ios - ios_before_rollback)
            rollback_span.finish()
            fanout_span.set("error", "aborted")
            fanout_span.finish()
            self._invalidate(dataset_name, None)
            try:
                exc.write_ios_observed = total_ios
            except AttributeError:  # exceptions with __slots__
                pass
            raise
        # Replicas are identical, so the outcomes agree; report the
        # primary's (it ran last).
        fanout_span.set("ios", total_ios)
        fanout_span.finish()
        return (applied[-1][1], total_ios,
                primary.overlay.rebuilds != rebuilds)

    def _rollback(self, applied, op: str, record: Tuple[float, ...],
                  cause: Exception) -> int:
        """Undo partially-applied replicas with the inverse operation,
        in their overlays (a rebuild already run is not undone).

        Returns the block transfers the rollback itself charged (the
        aborted write's admission settlement includes them).
        """
        inverse = "delete" if op == "insert" else "insert"
        total_ios = 0
        for child, outcome in reversed(applied):
            if not outcome:
                continue          # a no-op delete needs no inverse
            try:
                total_ios += write_overlay(child, inverse, record)[1]
            except Exception as rollback_exc:
                raise RuntimeError(
                    "write-fanout rollback failed on replica %r (while "
                    "undoing a fan-out aborted by: %s); its copy may "
                    "have diverged from its siblings"
                    % (child.name, cause)) from rollback_exc
        return total_ios

    @staticmethod
    def _as_record(point, entry) -> Tuple[float, ...]:
        """The one write entry: a finite point of the dataset's dimension.

        A ``nan`` hashes by identity, so the hash router would send an
        insert and the matching delete to different shards (the point
        becomes undeletable), and any non-finite coordinate poisons the
        selectivity sample's arithmetic.
        """
        record = tuple(float(c) for c in point)
        if len(record) != entry.dimension:
            raise ValueError(
                "point dimension %d does not match dataset %r dimension %d"
                % (len(record), entry.name, entry.dimension))
        if not all(math.isfinite(c) for c in record):
            raise ValueError("point coordinates must be finite, got %r"
                             % (record,))
        return record
