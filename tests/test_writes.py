"""Tests for the engine-level write path: routed inserts with replica
write-fanout, write metrics, and mutation requests in the async queue."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from conftest import assert_sample_is_live, brute_force_halfspace

from repro import LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.engine.writes import WritePath
from repro.workloads import (
    halfspace_queries_with_selectivity,
    steep_leading_attribute_queries,
    uniform_points,
)

BLOCK_SIZE = 32

EVERYTHING = LinearConstraint(coeffs=(0.0,), offset=1e9)


@pytest.fixture(scope="module")
def points2d():
    return uniform_points(1024, seed=91)


@pytest.fixture(autouse=True)
def invariants_after_every_write(monkeypatch):
    """Every engine-level write in this module, sync or async, is followed
    by its dataset's structural check."""
    for op in ("insert", "delete"):
        def checked(self, dataset_name, point, write=getattr(WritePath, op)):
            result = write(self, dataset_name, point)
            self._catalog.sharded(dataset_name).check_invariants()
            return result
        monkeypatch.setattr(WritePath, op, checked)


def _replica_answers(shard, constraint=EVERYTHING):
    """Each replica's own answer to a constraint (sorted tuples)."""
    return [sorted(tuple(p) for p in replica.run_query(
                "dynamic", constraint)[0])
            for replica in shard.replicas]


# ----------------------------------------------------------------------
# plain datasets
# ----------------------------------------------------------------------
def test_plain_dataset_insert_and_delete(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    inserted = engine.insert("d", (5.0, 5.0))
    assert inserted.applied and inserted.shard_id == 0 \
        and inserted.replicas == 1
    answer = engine.query("d", EVERYTHING)
    assert (5.0, 5.0) in {tuple(p) for p in answer.points}
    assert answer.count == len(points2d) + 1
    deleted = engine.delete("d", (5.0, 5.0))
    assert deleted.applied
    assert engine.delete("d", (5.0, 5.0)).applied is False   # no-op
    assert engine.query("d", EVERYTHING).count == len(points2d)
    engine.close()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_points_are_rejected_before_any_replica(points2d, bad):
    # hash(nan) is identity-based: accepted, an insert and the identical
    # delete would route to different hash shards (an undeletable point),
    # and a non-finite coordinate poisons the selectivity sample.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    engine.register_sharded_dataset("sh", points2d, num_shards=4,
                                    sharding="hash", replicas=2,
                                    kinds=["dynamic", "full_scan"])
    heard = []
    engine.executor.core.writes.add_write_listener(
        lambda *event: heard.append(event))
    for name in ("d", "sh"):
        for write in (engine.insert, engine.delete):
            with pytest.raises(ValueError, match="finite"):
                write(name, (bad, 0.5))
        sharded = engine.catalog.sharded(name)
        assert sharded.live_size == len(points2d)
        assert not any(shard.written for shard in sharded.shards)
        assert engine.query(name, EVERYTHING).count == len(points2d)
    assert heard == [] and engine.summary()["writes"] == {}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_points_are_refused_at_registration(points2d, bad):
    # A NaN used to die in the planar level walk (an IndexError) and an
    # infinity registered silently; both are refused as a write is, before
    # any index is built and without taking the name.
    poisoned = np.array(points2d)
    poisoned[7, 1] = bad
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    with pytest.raises(ValueError, match="finite"):
        engine.register_dataset("d", poisoned)
    with pytest.raises(ValueError, match="finite"):
        engine.register_sharded_dataset("d", poisoned, num_shards=2,
                                        replicas=2)
    engine.register_dataset("d", points2d, kinds=["full_scan"])
    assert engine.query("d", EVERYTHING).count == len(points2d)
    engine.close()
    engine.close()


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def test_insert_routes_by_shard_attribute(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=2)
    engine.register_sharded_dataset("sh", points2d, num_shards=4,
                                    sharding="range",
                                    kinds=["dynamic", "full_scan"])
    sharded = engine.catalog.sharded("sh")
    for point in [(-0.99, 0.3), (0.0, -0.4), (0.99, 0.8)]:
        result = engine.insert("sh", point)
        assert result.shard_id == sharded.router.shard_of(point)
        child = sharded.shards[result.shard_id].replicas[0]
        assert tuple(point) in {
            tuple(p) for p in child.run_query("dynamic", EVERYTHING)[0]}
    engine.close()


def test_routed_insert_uses_rebalanced_boundaries(points2d):
    # After a re-split moved the range boundaries, a writer-visible point
    # must land on the shard the *new* quantiles choose — writers never
    # see the old layout.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=3)
    engine.register_sharded_dataset(
        "sh", points2d, num_shards=4, sharding="range",
        kinds=["partition_tree", "full_scan", "dynamic"])
    sharded = engine.catalog.sharded("sh")
    old_boundaries = list(sharded.router.boundaries)
    # Skew the top shard so the re-split shifts every boundary upward.
    rng = np.random.default_rng(4)
    for x in rng.uniform(old_boundaries[-1], 1.0, size=300):
        engine.insert("sh", (float(x), 0.0))
    engine.rebalance("sh")
    new_boundaries = list(sharded.router.boundaries)
    assert new_boundaries[-1] > old_boundaries[-1]
    # A point between the old and new top boundary routes differently now.
    probe = ((old_boundaries[-1] + new_boundaries[-1]) / 2.0, 0.123)
    old_shard = np.searchsorted(old_boundaries, probe[0], side="right")
    result = engine.insert("sh", probe)
    assert result.generation == 1
    assert result.shard_id == sharded.router.shard_of(probe)
    assert result.shard_id != old_shard
    answer = engine.query("sh", EVERYTHING)
    assert tuple(probe) in {tuple(p) for p in answer.points}
    engine.close()


def _probe_into_empty_shard(sharded, seed=6):
    """A point whose routed shard currently holds no live point."""
    empty_ids = {shard.shard_id for shard in sharded.shards
                 if shard.planning_dataset().live_size == 0}
    assert empty_ids
    rng = np.random.default_rng(seed)
    for __ in range(200):
        probe = tuple(rng.uniform(-1, 1, size=2))
        shard_id = sharded.router.shard_of(probe)
        if shard_id in empty_ids:
            return probe, shard_id
    pytest.fail("no probe point routed to an empty shard")


def test_write_into_an_empty_shard_materializes_it_lazily():
    # Hash-shard a tiny dataset so some shards are built over no point.
    points = uniform_points(3, seed=5)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("tiny", points, num_shards=8,
                                    sharding="hash", kinds=["dynamic"],
                                    replicas=2)
    sharded = engine.catalog.sharded("tiny")
    probe, shard_id = _probe_into_empty_shard(sharded)
    # A delete routed to a zero-point shard stays the documented no-op,
    # fanned out to its replicas like any other write.
    result = engine.delete("tiny", probe)
    assert result.applied is False and result.replicas == 2
    shard = sharded.shards[shard_id]
    assert shard.planning_dataset().live_size == 0
    assert not shard.written
    assert shard not in sharded.relevant_shards(EVERYTHING)
    # The first insert lands on every replica like any other write.
    result = engine.insert("tiny", probe)
    assert result.applied is True
    assert result.shard_id == shard_id
    assert result.replicas == 2
    assert shard.planning_dataset().live_size == 1
    assert len(shard.replicas) == 2
    assert _replica_answers(shard)[0] == _replica_answers(shard)[1]
    # The filled shard serves immediately.
    answer = engine.query("tiny", EVERYTHING)
    assert tuple(probe) in {tuple(p) for p in answer.points}
    # And the point can be deleted again through the same routed path.
    result = engine.delete("tiny", probe)
    assert result.applied is True and result.replicas == 2
    engine.close()


def test_materialized_shard_feeds_stats_exactly_once():
    points = uniform_points(3, seed=5)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("tiny", points, num_shards=8,
                                    sharding="hash", kinds=["dynamic"])
    sharded = engine.catalog.sharded("tiny")
    probe, shard_id = _probe_into_empty_shard(sharded)
    engine.insert("tiny", probe)
    second = (probe[0] * 0.9, probe[1] * 0.9)
    if sharded.router.shard_of(second) == shard_id:
        engine.insert("tiny", second)
        expected = 2
    else:
        expected = 1
    # Each logical insert is observed once, by its shard's model and no
    # other (a double observation would skew selectivity).
    shard_model = sharded.shards[shard_id].replicas[0].stats
    assert len(shard_model.sample.rows) == expected
    assert sum(len(shard.replicas[0].stats.sample.rows)
               for shard in sharded.shards) == len(points) + expected
    for shard in sharded.shards:
        assert_sample_is_live(shard)
    engine.close()


# ----------------------------------------------------------------------
# replica fan-out (the acceptance criterion)
# ----------------------------------------------------------------------
def test_insert_keeps_all_replicas_serving_and_identical(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=7)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=3, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    sharded = engine.catalog.sharded("sh")
    rng = np.random.default_rng(8)
    extra = rng.uniform(-1, 1, size=(40, 2))
    for point in extra:
        result = engine.insert("sh", point)
        assert result.replicas == 3
        shard = sharded.shards[result.shard_id]
        # All replicas stay queryable — no pinning after writes.
        assert shard.replicas_for_query() == [0, 1, 2]
        # ... and they answer identically (byte-identical copies).
        answers = _replica_answers(shard)
        assert answers[0] == answers[1] == answers[2]
    # Deletes fan out the same way.
    for point in extra[:10]:
        result = engine.delete("sh", point)
        assert result.applied and result.replicas == 3
        answers = _replica_answers(sharded.shards[result.shard_id])
        assert answers[0] == answers[1] == answers[2]
    live = np.concatenate([points2d, extra[10:]])
    for constraint in halfspace_queries_with_selectivity(live, 4, 0.1,
                                                         seed=9):
        answer = engine.query("sh", constraint)
        assert {tuple(p) for p in answer.points} == \
            brute_force_halfspace(live, constraint)
    engine.close()


def test_stats_and_counters_observe_one_logical_mutation_per_fanout(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=10, sample_size=1024)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=3, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    sharded = engine.catalog.sharded("sh")
    size_before = sharded.live_size
    rng = np.random.default_rng(11)
    extra = [tuple(p) for p in rng.uniform(-1, 1, size=(20, 2))]
    per_shard = {shard.shard_id: 0 for shard in sharded.shards}
    for point in extra:
        per_shard[engine.insert("sh", point).shard_id] += 1
    # One observation per *logical* insert, not one per replica — on
    # each shard's (replica-shared) model, and the rebalance skew
    # counter.
    assert sharded.live_size == size_before + len(extra)
    for shard in sharded.shards:
        model = shard.replicas[0].stats
        assert len(model.sample.rows) \
            == len(shard.replicas[0].points) + per_shard[shard.shard_id]
        assert_sample_is_live(shard)
        for replica in shard.replicas:        # replicas share one model
            assert replica.stats is model
    assert engine.rebalancer.mutations("sh") == len(extra)
    engine.delete("sh", extra[0])
    assert sum(len(shard.replicas[0].stats.sample.rows)
               for shard in sharded.shards) == size_before + len(extra) - 1
    for shard in sharded.shards:
        assert_sample_is_live(shard)
    assert engine.rebalancer.mutations("sh") == len(extra) + 1
    engine.close()


def test_write_metrics_land_in_summary(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=12)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    engine.insert("sh", (0.1, 0.2))
    engine.insert("sh", (-0.3, 0.4))
    engine.delete("sh", (0.1, 0.2))
    engine.delete("sh", (77.0, 77.0))                # absent: no-op
    writes = engine.summary()["writes"]["sh"]
    assert writes["inserts"] == 2
    assert writes["deletes"] == 1
    assert writes["noop_deletes"] == 1
    assert writes["replica_writes"] == 8             # 4 mutations x 2 replicas
    assert writes["total_ios"] >= 0
    assert writes["latency_s"]["p50"] > 0.0
    assert writes["latency_s"]["p99"] >= writes["latency_s"]["p50"]
    engine.close()


def test_result_cache_invalidates_once_per_logical_write(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=13)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.2,
                                                    seed=14)[0]
    engine.query("sh", constraint)
    assert engine.query("sh", constraint).from_result_cache
    core = engine.executor.core
    generation = core.results.generation("sh")
    inside = (0.0, -2.0)
    assert constraint.below(inside)
    engine.insert("sh", inside)
    # One logical write = one invalidation generation bump, not one per
    # replica — and the stale entry is gone.
    assert core.results.generation("sh") == generation + 1
    fresh = engine.query("sh", constraint)
    assert not fresh.from_result_cache
    assert tuple(inside) in {tuple(p) for p in fresh.points}
    engine.close()


def test_a_write_outside_a_cached_answer_keeps_it(points2d):
    """The non-covering twin: once the shard was written, a write whose
    point the query does not admit still bumps the generation once, and
    the answer stays a hit equal to a fresh query."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=13)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.2,
                                                    seed=14)[0]
    outside, above = (0.0, 5.0), (0.0, 6.0)
    assert not constraint.below(outside) and not constraint.below(above)
    engine.insert("sh", above)        # the shard's first write flushes
    engine.query("sh", constraint)
    assert engine.query("sh", constraint).from_result_cache
    core = engine.executor.core
    generation = core.results.generation("sh")
    assert engine.insert("sh", outside).shard_id \
        == engine.insert("sh", above).shard_id
    assert core.results.generation("sh") == generation + 2
    hit = engine.query("sh", constraint)
    assert hit.from_result_cache
    fresh = engine.query("sh", constraint, clear_cache=True)
    assert (hit.index_name, hit.points.tobytes()) \
        == (fresh.index_name, fresh.points.tobytes())
    assert engine.summary()["result_cache"]["evictions"]["write"] == 0
    engine.close()


# ----------------------------------------------------------------------
# mutations through the async serving path
# ----------------------------------------------------------------------
def test_serve_async_mixes_queries_and_mutations(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=15)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.3,
                                                    seed=16)[0]
    inserted = [(0.0, -2.0), (0.5, -2.0), (-0.5, -2.0)]
    assert all(constraint.below(p) for p in inserted)
    requests = [ServingRequest(tenant="writer", dataset="sh", op="insert",
                               point=point) for point in inserted]
    requests.append(ServingRequest(tenant="reader", dataset="sh",
                                   constraint=constraint))
    result = engine.serve_async(requests, max_concurrency=2)
    assert result.outcomes() == {"served": 4}
    for item in result.requests[:3]:
        assert item.mutation is not None and item.mutation.applied
        assert item.mutation.replicas == 2
        assert item.answer is None
    # The wave's writes are all visible to a fresh query afterwards.
    answer = engine.query("sh", constraint)
    reported = {tuple(p) for p in answer.points}
    assert all(tuple(p) in reported for p in inserted)
    engine.close()


def test_async_writes_obey_admission_budget(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=17)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    cost = engine.executor.core.writes.estimate_ios("d")
    requests = [ServingRequest(tenant="writer", dataset="d", op="insert",
                               point=(float(i), float(i)))
                for i in range(4)]
    budget = TenantBudget(ios_per_s=20.0 * cost, burst=cost,
                          policy="queue")
    result = engine.serve_async(requests, budgets={"writer": budget})
    assert result.outcomes() == {"served": 4}
    # The bucket only holds one write's estimate, so later writes were
    # parked until it refilled — writes obey the same budgets as reads.
    assert sum(item.deferrals for item in result.requests) > 0
    assert engine.summary()["admission"].get("queue", 0) > 0
    assert engine.query("d", EVERYTHING).count == len(points2d) + 4
    engine.close()


def test_async_degrade_policy_rejects_over_budget_writes(points2d):
    # There is no approximate insert: an over-budget write under the
    # "degrade" policy must be rejected (and not applied), never served
    # as a phantom success.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=18)
    engine.register_dataset("d", points2d, kinds=["dynamic", "full_scan"])
    cost = engine.executor.core.writes.estimate_ios("d")
    requests = [ServingRequest(tenant="writer", dataset="d", op="insert",
                               point=(float(i), float(i)))
                for i in range(3)]
    budget = TenantBudget(ios_per_s=1e-6, burst=cost, policy="degrade")
    result = engine.serve_async(requests, budgets={"writer": budget})
    outcomes = result.outcomes()
    assert outcomes.get("served") == 1                # the full bucket
    assert outcomes.get("rejected") == 2              # degrade -> reject
    assert "degraded" not in outcomes
    assert engine.query("d", EVERYTHING).count == len(points2d) + 1
    engine.close()


def test_mutation_requests_validate_their_shape(points2d):
    with pytest.raises(ValueError, match="needs a point"):
        ServingRequest(tenant="t", dataset="d", op="insert")
    with pytest.raises(ValueError, match="needs a constraint"):
        ServingRequest(tenant="t", dataset="d")
    with pytest.raises(ValueError, match="unknown request op"):
        ServingRequest(tenant="t", dataset="d", op="upsert",
                       point=(0.0, 0.0))
    # NaN would sit in the shared priority heap comparing false against
    # every other deadline and never expire.
    with pytest.raises(ValueError, match="deadline_s must not be NaN"):
        ServingRequest(tenant="t", dataset="d", op="insert",
                       point=(0.0, 0.0), deadline_s=float("nan"))


def test_concurrent_writes_during_rebalances_are_never_lost(points2d):
    # Race regression: a re-split collects each shard's live points and
    # rebuilds the layout; a write landing in the retiring shards after
    # collection would silently vanish.  The dataset's write barrier
    # serializes route+fanout against the whole collect-swap-rebuild
    # window, so a writer thread hammering inserts while the main thread
    # re-splits repeatedly must lose nothing.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=22)
    engine.register_sharded_dataset(
        "sh", points2d, num_shards=4, sharding="range", replicas=2,
        kinds=["partition_tree", "full_scan", "dynamic"])
    rng = np.random.default_rng(23)
    inserted = [tuple(p) for p in rng.uniform(-1, 1, size=(150, 2))]
    errors = []

    def writer():
        try:
            for point in inserted:
                engine.insert("sh", point)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    for __ in range(3):
        engine.rebalance("sh")
    thread.join()
    assert not errors
    assert engine.catalog.sharded("sh").generation == 3
    live = np.concatenate([points2d, np.asarray(inserted)])
    final = engine.query("sh", EVERYTHING, clear_cache=True)
    assert final.count == len(live)
    assert sorted(tuple(p) for p in final.points) == \
        sorted(tuple(p) for p in live)
    engine.close()


def test_concurrent_async_reads_during_writes_stay_consistent(points2d):
    # Interleaved queries and routed writes on a replicated shard set:
    # every read must observe a consistent replica state (never a
    # half-applied write), and the final state must be exact.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=19)
    engine.register_sharded_dataset("sh", points2d, num_shards=2,
                                    replicas=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.4,
                                                    seed=20)[0]
    rng = np.random.default_rng(21)
    inserted = [tuple(p) for p in rng.uniform(-1, 1, size=(12, 2))]
    allowed = {tuple(p) for p in points2d} | set(inserted)
    requests = []
    for i, point in enumerate(inserted):
        requests.append(ServingRequest(tenant="w", dataset="sh",
                                       op="insert", point=point))
        requests.append(ServingRequest(tenant="r", dataset="sh",
                                       constraint=constraint))
    result = engine.serve_async(requests, max_concurrency=4)
    assert result.outcomes() == {"served": len(requests)}
    for item in result.requests:
        if item.request.is_mutation:
            continue
        reported = [tuple(p) for p in item.answer.points]
        # Internally consistent: only satisfying, known points, each a
        # whole logical write (registered base data or a full insert).
        assert len(reported) == len(set(reported))
        assert all(constraint.below(p) for p in reported)
        assert set(reported) <= allowed
        assert set(reported) >= {p for p in map(tuple, points2d)
                                 if constraint.below(p)}
    live = np.concatenate([points2d, np.asarray(inserted)])
    final = engine.query("sh", constraint, clear_cache=True)
    assert {tuple(p) for p in final.points} == \
        brute_force_halfspace(live, constraint)
    engine.close()


# ----------------------------------------------------------------------
# one place a write takes effect
# ----------------------------------------------------------------------
BELOW = (0.25, -100.0)                           # under every stored point
FAR_DOWN = LinearConstraint(coeffs=(0.0,), offset=-10.0)     # y <= -10


def _late_dynamic_engine(points, workers, kinds):
    """A two-shard dataset registered static, ``dynamic`` built after."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=24, workers=workers)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range", kinds=kinds)
    engine.catalog.build_sharded_index("sh", "dynamic")
    return engine


@pytest.mark.parametrize("workers", ["inprocess", "process"])
def test_a_write_to_a_late_built_dynamic_index_takes_effect(points2d,
                                                            workers):
    engine = _late_dynamic_engine(points2d, workers,
                                  ["full_scan", "partition_tree"])
    try:
        sharded = engine.catalog.sharded("sh")
        assert engine.query("sh", EVERYTHING).count == len(points2d)
        assert engine.insert("sh", BELOW).applied
        stores = engine.catalog.stores("sh")
        before = [vars(store.stats.snapshot()) for store in stores]
        sharded.check_invariants()
        assert [vars(store.stats.snapshot()) for store in stores] == before
        # (a) the repeat query is not served from the pre-write cache
        repeat = engine.query("sh", EVERYTHING)
        assert not repeat.from_result_cache
        assert BELOW in {tuple(p) for p in repeat.points}
        # (b) the shard's build-time box no longer prunes the point away
        cold = engine.query("sh", FAR_DOWN, clear_cache=True)
        assert [tuple(p) for p in cold.points] == [BELOW]
        # (c) nor does a static index the write never reached serve it
        sharded.prune = False
        unpruned = engine.query("sh", FAR_DOWN, clear_cache=True)
        assert unpruned.index_name == "dynamic"
        assert [tuple(p) for p in unpruned.points] == [BELOW]
    finally:
        engine.close()


def test_process_mode_write_skips_a_worker_spawned_without_the_index(
        points2d):
    # The write commits in the parent and returns; the shard's workers,
    # spawned before "dynamic" existed, are skipped rather than failing
    # the caller, and the log replays the write into a restart.
    engine = _late_dynamic_engine(points2d, "process", ["full_scan"])
    try:
        result = engine.insert("sh", BELOW)
        assert result.applied
        victim = engine.cluster.worker("sh", result.shard_id, 0)
        assert "dynamic" not in victim.indexes
        victim.process.kill()
        victim.process.join()
        engine.cluster.check_workers()
        restarted = engine.cluster.worker("sh", result.shard_id, 0)
        assert "dynamic" in restarted.indexes
        stats = engine.cluster.worker_stats("sh", result.shard_id, 0)
        assert stats["last_seq"] == 1 and stats["writes"] == 1
        served = restarted.served
        answer = engine.query("sh", FAR_DOWN, clear_cache=True)
        assert [tuple(p) for p in answer.points] == [BELOW]
        assert restarted.served == served + 1
    finally:
        engine.close()


