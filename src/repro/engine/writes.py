"""The engine-level write path: routed inserts with replica write-fanout.

Reads route through the planner; writes route through the *shard
attribute*.  :class:`WritePath` is the mutation twin of the execution
core: given ``insert(dataset, point)`` / ``delete(dataset, point)`` it

* **routes** the point to its shard via the dataset's
  :class:`~repro.engine.sharding.ShardRouter` — including range shards
  whose boundaries moved under rebalancing: the router object is swapped
  at every re-split, and routing happens under the dataset's *write
  barrier* (:attr:`~repro.engine.sharding.ShardedDataset.write_lock`),
  which a re-split holds for its whole collect-swap-rebuild window, so a
  write always sees a complete layout — never one mid-swap, and never
  one whose live points were already collected (the write would be
  silently dropped from the rebuilt shards);
* **fans the mutation out to every replica** of the target shard, so the
  copies stay byte-identical and reads keep spreading over all of them
  (no replica pinning).  The fan-out is atomic-enough: secondaries are
  written first and the primary last, a pre-mutation veto (or any
  failure) on a later replica **rolls the already-applied replicas back
  via the inverse operation**, and the one-per-logical-mutation hooks —
  statistics reservoir/histogram updates, rebalance skew counters,
  result-cache invalidation, shard-box staleness — are wired to the
  primary alone, so they fire exactly once and only when every replica
  holds the write;
* **accounts** the write: per-replica I/Os are measured off each store,
  and per-dataset write counts and latency percentiles land in
  :class:`~repro.engine.metrics.EngineStats`.

A ``register_dataset`` dataset takes this same path: its trivial router
sends every point to shard 0, whose fan-out is one replica wide.  A
dataset whose suite was built statically (no ``"dynamic"`` kind) rejects
writes with a clear error — the catalog resolves the target index via
:meth:`~repro.engine.catalog.Catalog.mutable_index_of`.

Each replica's application happens under that replica's store lock, the
same lock the executors hold around queries, so concurrent
``serve_async`` reads observe each replica either before or after a
mutation — never mid-write.

Writes to one dataset serialize on its write barrier, even when
they target disjoint shards — a deliberate correctness-first trade-off
(a mutation is a handful of amortised I/Os, so the barrier is cheap
next to the reads it protects).  Sharding the barrier — shared mode for
writers, exclusive for re-splits, with the per-shard fan-out lock doing
the serialization — is the upgrade path if write throughput ever
becomes the bottleneck.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import repro.engine.tracing as tracing
from repro.engine.catalog import Catalog, Dataset
from repro.engine.metrics import EngineStats
from repro.engine.sharding import Shard

#: Amortised I/O estimate charged per replica application when admission
#: control prices a write before it runs: one blocked buffer/tombstone
#: append plus its share of the eventual rebuild.  Settled against the
#: observed I/Os afterwards, like read estimates are.
WRITE_IOS_PER_REPLICA = 2.0


def apply_mutation(dataset: Dataset, op: str,
                   record: Tuple[float, ...]) -> Tuple[bool, int]:
    """Apply one insert/delete to one replica's mutation-capable index.

    The write-side unit of account, shared by the fan-out below, its
    rollback and the shard-worker process: the application runs under
    the replica's store (:meth:`~repro.io.store.BlockStore.measured`, the
    same window queries run in, so a concurrent read sees the replica
    before or after the mutation, never mid-write).  Returns ``(applied,
    ios)`` — ``applied`` is False only for a delete that found nothing;
    ``ios`` counts buffer-pool hits as the transfers they stand for.
    """
    index = Catalog.mutable_index_of(dataset)
    with dataset.store.measured() as delta:
        if op == "insert":
            index.insert(record)
            applied = True
        elif op == "delete":
            applied = bool(index.delete(record))
        else:
            raise ValueError("unknown mutation op %r (expected 'insert' "
                             "or 'delete')" % (op,))
    return applied, delta.total + delta.cache_hits


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
    #: Replicas the mutation was applied to (0: a delete routed to an
    #: empty shard).
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
        Optional :class:`EngineStats` sink for per-dataset write counters
        and latency percentiles.
    invalidate:
        Optional ``invalidate(dataset_name)`` callback (the execution
        core's result-cache flush).  A *successful* mutation invalidates
        through the primary replica's mutation hooks; this callback
        covers the **aborted** fan-out, whose rollback may have raced a
        concurrent read against an already-mutated secondary — the
        cached answer would otherwise serve the rolled-back point
        forever.
    """

    def __init__(self, catalog: Catalog,
                 stats: Optional[EngineStats] = None,
                 invalidate=None):
        self._catalog = catalog
        self._stats = stats
        self._invalidate = invalidate
        self._materialize_listeners: List = []
        self._write_listeners: List = []

    def add_write_listener(self, listener) -> None:
        """Subscribe ``listener(dataset, shard_id, op, point, applied)``
        to every committed engine-level mutation.

        Fired after the replica fan-out applied, still under the
        dataset's write barrier, so listeners observe mutations in apply
        order — the cluster coordinator's write log depends on that.
        Aborted fan-outs (rolled back) do not fire.
        """
        self._write_listeners.append(listener)

    def add_materialize_listener(self, listener) -> None:
        """Subscribe ``listener(dataset_name, shard_id)`` to lazy builds.

        Fired (under the dataset's write barrier) right after an insert
        routed into an empty shard materializes its replicas and index
        suite — the engine facade uses it to wire its mutation hooks onto
        the freshly built indexes before the insert is applied.
        """
        self._materialize_listeners.append(listener)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def insert(self, dataset_name: str, point) -> MutationResult:
        """Insert one point, routed by shard attribute, on every replica."""
        return self._mutate(dataset_name, point, "insert")

    def delete(self, dataset_name: str, point) -> MutationResult:
        """Delete one point (one copy) everywhere it is replicated.

        Returns a result with ``applied=False`` when the point was not
        present — a no-op, mirroring the dynamic index's contract.
        """
        return self._mutate(dataset_name, point, "delete")

    def estimate_ios(self, dataset_name: str, point=None) -> float:
        """Predicted write cost, for admission control (pure arithmetic).

        With a ``point`` the routed shard's actual replica count prices
        the fan-out; without one the dataset's replication factor is the
        (upper-bound) width.
        """
        sharded = self._catalog.sharded(dataset_name)
        if point is not None:
            record = tuple(float(c) for c in point)
            shard = sharded.shards[sharded.router.shard_of(record)]
            if not shard.is_empty:
                return WRITE_IOS_PER_REPLICA * shard.num_replicas
        return WRITE_IOS_PER_REPLICA * max(1, sharded.replicas_per_shard)

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
        if self._stats is not None:
            self._stats.note_write(result.dataset, result.op,
                                   applied=result.applied, ios=result.ios,
                                   latency_s=result.latency_s,
                                   replicas=result.replicas)
        return result

    def _route_and_fan_out(self, dataset_name: str, point, op: str,
                           started: float) -> MutationResult:
        sharded = self._catalog.sharded(dataset_name)
        record = self._as_record(point, sharded)
        # The dataset's write barrier serializes this route+fanout against
        # re-splits (which hold it across their collect-swap-rebuild
        # window): routing always uses the *current* generation's router
        # and shard list, and the write can never land in shards whose
        # live points a concurrent re-split already collected — that
        # write would be missing from the rebuilt layout.
        with sharded.write_lock:
            generation = sharded.generation
            shard = sharded.shards[sharded.router.shard_of(record)]
            if shard.is_empty:
                if op == "delete":
                    # An empty shard holds nothing, so the point is
                    # absent by definition: the documented no-op, not an
                    # error (blind deletes must behave uniformly however
                    # the router placed the key).
                    return MutationResult(
                        dataset=dataset_name, op=op, point=record,
                        applied=False, shard_id=shard.shard_id,
                        replicas=0, ios=0,
                        latency_s=time.perf_counter() - started,
                        generation=generation)
                # Lazy materialization: a range shard that received no
                # build points grows its replicas, stores and index suite
                # on first insert (still under the write barrier), so
                # live ingest into a fresh shard works instead of
                # erroring.  Listeners (the engine's hook wiring) run
                # before the fan-out applies, so statistics and staleness
                # hooks observe this very insert.
                shard = self._catalog.materialize_shard(dataset_name,
                                                        shard.shard_id)
                for listener in self._materialize_listeners:
                    listener(dataset_name, shard.shard_id)
            with shard.write_fanout():
                applied, ios = self._apply_fanout(dataset_name, shard, op,
                                                  record)
            for listener in self._write_listeners:
                listener(dataset_name, shard.shard_id, op, record, applied)
        return MutationResult(
            dataset=dataset_name, op=op, point=record, applied=applied,
            shard_id=shard.shard_id, replicas=shard.num_replicas,
            ios=ios, latency_s=time.perf_counter() - started,
            generation=generation)

    def _apply_fanout(self, dataset_name: str, shard: Shard, op: str,
                      record: Tuple[float, ...]) -> Tuple[bool, int]:
        """Apply one mutation to every replica, or to none.

        Secondaries first, primary last: the primary carries the
        one-per-logical-mutation hooks (statistics, cache invalidation,
        box staleness), so they fire only once every secondary already
        holds the write.  A failure part-way rolls the applied replicas
        back via the inverse operation, restores their ``mutated``
        flags, flushes the dataset's result cache (a concurrent read may
        have cached an answer off an already-mutated secondary), and
        re-raises the original error — annotated with the I/Os the
        aborted attempt really spent, so admission can charge them.
        """
        order = shard.replicas[1:] + shard.replicas[:1]
        mutated_flags = [replica.mutated for replica in shard.replicas]
        applied: List[Tuple[Dataset, bool]] = []
        total_ios = 0
        fanout_span = tracing.current_span().child(
            "write.fanout", shard_id=shard.shard_id,
            replicas=len(order))
        try:
            for child in order:
                outcome, ios = apply_mutation(child, op, record)
                total_ios += ios
                applied.append((child, outcome))
                fanout_span.child("write.replica", replica=child.name,
                                  ios=ios, applied=outcome).finish()
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
            # The apply (and its inverse) flagged secondaries mutated;
            # the data is back to the pre-write state, so the flags are
            # restored too (inverse ops run after this would re-set them).
            for replica, flag in zip(shard.replicas, mutated_flags):
                replica.mutated = flag
            if self._invalidate is not None:
                # The primary's invalidation hook never fired (the
                # primary was never written): flush any answer a
                # concurrent read cached off a mid-fanout secondary.
                self._invalidate(dataset_name)
            try:
                exc.write_ios_observed = total_ios
            except AttributeError:  # exceptions with __slots__
                pass
            raise
        # Replicas are identical, so the outcomes agree; report the
        # primary's (it ran last).
        fanout_span.set("ios", total_ios)
        fanout_span.finish()
        return applied[-1][1], total_ios

    def _rollback(self, applied, op: str, record: Tuple[float, ...],
                  cause: Exception) -> int:
        """Undo partially-applied replicas with the inverse operation.

        Returns the block transfers the rollback itself charged (the
        aborted write's admission settlement includes them).
        """
        inverse = "delete" if op == "insert" else "insert"
        total_ios = 0
        for child, outcome in reversed(applied):
            if not outcome:
                continue          # a no-op delete needs no inverse
            try:
                total_ios += apply_mutation(child, inverse, record)[1]
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
