"""Tests for the statistics subsystem: the sample model, rebalancing.

Covers the per-shard sample model (its estimate, its recorded q-error on
the §1.2 diagonal, its sample under mutation), per-shard estimates, the
mutation hooks keeping statistics live, the shard rebalance path
(pruning restored, caches invalidated, pinned replicas handled,
auto-trigger), conformal calibration and the serving satellites
(degraded answers with error bars, caller-held admission across
serve_async calls).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_sample_is_live, brute_force_halfspace

from repro import LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.engine.planner import ShardedPlan
from repro.engine.stats import ConformalCalibrator, Reservoir, SelectivityModel
from repro.engine.metrics import q_error
from repro.engine.serving import AdmissionController
from repro.engine.serving.admission import scaled_count_estimate
from repro.engine.sharding import REBALANCE_THRESHOLD
from repro.workloads import (
    diagonal_points,
    halfspace_queries_with_selectivity,
    rotated_diagonal_query,
    steep_leading_attribute_queries,
    uniform_points,
)

BLOCK_SIZE = 32


def full(rows, seed=None):
    """A reservoir already at its capacity: a copy of ``rows``, never
    grown by an insert."""
    return Reservoir(np.array(rows, dtype=float), len(rows), seed)


# ----------------------------------------------------------------------
# the sample model
# ----------------------------------------------------------------------
def test_uniform_model_matches_sample_scan():
    points = uniform_points(2000, seed=4)
    sample = points[:500].copy()
    model = SelectivityModel(full(sample))
    constraint = LinearConstraint(coeffs=(0.25,), offset=0.1)
    expected = sum(constraint.below(p) for p in sample) / len(sample)
    assert model.estimate_output(constraint, len(points)) \
        == int(round(expected * 2000))


def test_models_check_constraint_dimension():
    points = uniform_points(100, seed=5)
    bad = LinearConstraint(coeffs=(0.1, 0.2), offset=0.0)  # 3-D constraint
    model = SelectivityModel(full(points[:50]))
    with pytest.raises(ValueError):
        model.estimate_output(bad, 100)


def test_the_sample_prices_the_diagonal_at_its_recorded_qerror():
    """The figure a replacement estimator must beat on the §1.2
    diagonal: 24 rotated-diagonal queries over a log-spaced selectivity
    grid, priced from three 256-row draws.  One draw's luck with the
    deep tail decides every estimate at once: mean q-error 1.28 / 1.40 /
    3.99 (mean 2.23), where equi-depth histograms along the diagonal's
    normal priced 1.33."""
    points = np.asarray(diagonal_points(4096, noise=5e-3, seed=2008))
    selectivities = np.exp(np.linspace(np.log(0.002), np.log(0.3), 24))
    rng = np.random.default_rng(2009)
    scoring = []
    for selectivity in selectivities:
        constraint = rotated_diagonal_query(
            points, angle=float(rng.normal(scale=2e-4)),
            selectivity=float(selectivity))
        scoring.append((constraint, int(constraint.below_many(points).sum())))
    errors = []
    for seed in (2010, 2011, 2012):
        rows = np.random.default_rng(seed).choice(len(points), 256,
                                                  replace=False)
        model = SelectivityModel(full(points[rows], seed))
        errors.append(float(np.mean(
            [q_error(model.estimate_output(constraint, len(points)), actual)
             for constraint, actual in scoring])))
    assert np.round(errors, 2).tolist() == [1.28, 1.4, 3.99], errors


def test_observe_delete_evicts_dead_points_from_sample():
    """Deleting a region must not leave its points haunting the sample."""
    rng = np.random.default_rng(27)
    left = np.column_stack([rng.uniform(-1, -0.5, 200),
                            rng.uniform(-1, 1, 200)])
    right = np.column_stack([rng.uniform(0.5, 1, 200),
                             rng.uniform(-1, 1, 200)])
    points = np.concatenate([left, right])
    sample = points.copy()  # full-coverage sample
    model = SelectivityModel(full(sample, 27))
    left_half = LinearConstraint.from_inequality((1.0, 1e-9), -0.5)
    assert model.estimate_output(left_half, len(points)) == 200
    for point in left:
        model.observe_delete(point)
    # The sample stays full: the dead rows became copies of live ones.
    assert len(model.sample.rows) == len(points)
    # The dead region's sample rows were evicted: its estimated
    # selectivity collapses instead of staying at ~50%.
    assert model.estimate_output(left_half, len(right)) < 0.05 * len(right)


def test_model_tracks_live_size_under_mutation_feedback():
    # The live size a model scales by is its replica's overlay count.
    points = uniform_points(400, seed=11)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=11, sample_size=100)
    engine.register_dataset("d", points, kinds=["full_scan"])
    dataset = engine.catalog.dataset("d")
    everything = LinearConstraint(coeffs=(0.0,), offset=10.0)
    assert dataset.estimate_output(everything) == 400
    for __ in range(100):
        engine.insert("d", (0.5, 0.5))
    assert dataset.live_size == 500
    assert dataset.estimate_output(everything) == 500
    engine.delete("d", (0.5, 0.5))
    assert dataset.live_size == 499
    engine.close()


def test_a_short_sample_fills_to_its_capacity_as_the_dataset_grows():
    # A 10-point dataset's sample starts as its 10 points; inserts append
    # until the recipe's 512 rows, then Algorithm R keeps it uniform.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=21)
    engine.register_dataset("d", uniform_points(10, seed=21),
                            kinds=["dynamic"])
    for point in uniform_points(2000, seed=22):
        engine.insert("d", point)
    dataset = engine.catalog.dataset("d")
    assert len(dataset.stats.sample.rows) == 512
    low = LinearConstraint(coeffs=(0.0,), offset=-0.9)
    truth = engine.query("d", low).count
    assert truth / 2 <= dataset.estimate_output(low) <= 2 * truth
    engine.catalog.sharded("d").check_invariants()
    engine.close()


@pytest.mark.parametrize("inserts", [1, 64, 600])
def test_a_zero_point_shard_samples_every_insert_up_to_capacity(inserts):
    # Every build point shares the leading attribute, so range shards
    # 0-2 are built over zero points; inserts left of it land in shard 0.
    build = np.column_stack([np.full(16, 0.5), np.linspace(-1, 1, 16)])
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=23)
    engine.register_sharded_dataset("d", build, num_shards=4,
                                    sharding="range", kinds=["dynamic"])
    shard = engine.catalog.sharded("d").shards[0]
    assert len(shard.planning_dataset().points) == 0
    grown = uniform_points(inserts, low=-1.0, high=0.4, seed=24)
    for point in grown:
        assert engine.insert("d", point).shard_id == 0
    replica = shard.planning_dataset()
    assert len(replica.stats.sample.rows) == min(inserts, 512)
    if inserts <= 512:   # the sample is the shard itself: exact estimates
        low = LinearConstraint(coeffs=(0.5,), offset=0.0)
        assert replica.estimate_output(low) \
            == int(low.below_many(grown).sum())
    engine.catalog.sharded("d").check_invariants()
    engine.close()


# ----------------------------------------------------------------------
# engine integration: per-dataset and per-shard estimates
# ----------------------------------------------------------------------
def test_engine_builds_configured_model_per_dataset_and_shard():
    points = uniform_points(600, seed=12)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=12, sample_size=32)
    engine.register_dataset("plain", points)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range")
    assert len(engine.catalog.dataset("plain").stats.sample.rows) == 32
    sharded = engine.catalog.sharded("sh")
    assert sharded.live_size == len(points)
    for shard in sharded.shards:
        for replica in shard.replicas:
            assert (replica.live_size, len(replica.stats.sample.rows)) \
                == (len(replica.points), 32)
    # summary()["stats"] is each shard's live size (its primary's
    # overlay) and sample size, under its planning replica's name.
    assert engine.summary()["stats"] == {
        shard.planning_dataset().name: {
            "live_size": len(shard.planning_dataset().points),
            "sample_size": 32}
        for name in ("plain", "sh")
        for shard in engine.catalog.sharded(name).shards}
    engine.close()


def test_sharded_plan_uses_shard_local_expected_output():
    """Per-shard models price the fan-out; the plan's expected output is
    the sum of the shard-local estimates over relevant shards."""
    points = uniform_points(2048, seed=13)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=13)
    engine.register_sharded_dataset("sh", points, num_shards=4,
                                    sharding="range")
    constraint = steep_leading_attribute_queries(points, 1, 0.05,
                                                 seed=14)[0]
    plan = engine.explain("sh", constraint)
    assert isinstance(plan, ShardedPlan)
    assert plan.expected_output == sum(
        shard_plan.expected_output for __, shard_plan in plan.shard_plans)
    # Shard-local estimates differ across shards on a steep constraint
    # (only the low-attribute shards see satisfying points).
    per_shard = [shard_plan.expected_output
                 for __, shard_plan in plan.shard_plans]
    truth = len(brute_force_halfspace(points, constraint))
    assert q_error(plan.expected_output, truth) < 2.0
    assert per_shard  # pruning keeps at least one relevant shard
    engine.close()


def test_estimation_qerror_lands_in_summary():
    points = uniform_points(800, seed=15)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=15)
    engine.register_dataset("d", points)
    for constraint in halfspace_queries_with_selectivity(points, 4, 0.1,
                                                         seed=16):
        engine.query("d", constraint)
    summary = engine.summary()["estimation_qerror"]
    assert summary["d"]["plans"] == 4
    assert summary["d"]["p50"] >= 1.0
    assert summary["d"]["max"] >= summary["d"]["p50"]
    engine.close()


def test_insert_hooks_update_dataset_model_and_counters():
    points = uniform_points(512, seed=17)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=17)
    engine.register_dataset("d", points, kinds=["dynamic", "full_scan"])
    dataset = engine.catalog.dataset("d")
    before = dataset.live_size
    engine.insert("d", (2.0, 2.0))
    engine.insert("d", (2.1, 2.1))
    assert dataset.live_size == before + 2
    assert engine.rebalancer.mutations("d") == 2
    # The model's estimate now reflects the inserted points.
    everything = LinearConstraint(coeffs=(0.0,), offset=100.0)
    assert dataset.estimate_output(everything) == before + 2
    engine.delete("d", (2.0, 2.0))
    assert dataset.live_size == before + 1
    engine.close()


# ----------------------------------------------------------------------
# rebalancing
# ----------------------------------------------------------------------
def _skewed_insert_scenario(replicas=1, inserts=400, **kwargs):
    """A K=4 range-sharded engine plus ``inserts`` skewed inserts into
    shard 3 (400 leave it at 1.84x the fair share, 600 at 2.11x)."""
    points = uniform_points(1024, seed=18)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=18, **kwargs)
    engine.register_sharded_dataset(
        "sh", points, num_shards=4, sharding="range", replicas=replicas,
        kinds=["partition_tree", "full_scan", "dynamic"])
    queries = steep_leading_attribute_queries(points, 5, 0.02, seed=19)
    top = engine.catalog.sharded("sh").router.boundaries[-1]
    rng = np.random.default_rng(20)
    extra = np.column_stack([rng.uniform(top, 1.0, size=inserts),
                             rng.uniform(-1.0, 1.0, size=inserts)])
    # Through the write path itself: the facade's insert would re-split
    # (auto_rebalance) before the skew is built up.
    for point in extra:
        assert engine.executor.core.writes.insert("sh", point).shard_id == 3
    return engine, points, extra, queries


def _serve_cold(engine, queries):
    engine.stats.reset()
    ios = sum(engine.query("sh", c, clear_cache=True).total_ios
              for c in queries)
    return ios, engine.stats.shards_pruned


def test_rebalance_restores_pruning_after_skewed_inserts():
    engine, points, extra, queries = _skewed_insert_scenario()
    live = np.concatenate([points, extra])
    skewed_ios, skewed_pruned = _serve_cold(engine, queries)
    # The written shard's box is not trusted: it participates in every
    # query.
    assert skewed_pruned < 3 * len(queries)
    report = engine.rebalance("sh")
    assert report.generation == 1
    assert max(report.new_sizes) < max(report.old_sizes)
    rebalanced_ios, rebalanced_pruned = _serve_cold(engine, queries)
    assert rebalanced_pruned == 3 * len(queries)
    assert rebalanced_ios < skewed_ios
    # Answers stay exact over the live set after the re-split.
    for constraint in queries:
        answer = engine.query("sh", constraint)
        assert {tuple(p) for p in answer.points} == \
            brute_force_halfspace(live, constraint)
    engine.close()


def test_rebalance_invalidates_cached_results():
    engine, points, extra, queries = _skewed_insert_scenario()
    warm = engine.query("sh", queries[0])
    again = engine.query("sh", queries[0])
    assert again.from_result_cache
    engine.rebalance("sh")
    fresh = engine.query("sh", queries[0])
    assert not fresh.from_result_cache
    assert {tuple(p) for p in fresh.points} == \
        {tuple(p) for p in warm.points}
    engine.close()


def test_rebalance_handles_replicated_shards():
    # Replicated shards: skewed writes go through the engine's routed
    # fan-out (direct single-replica inserts are vetoed), the re-split
    # rebuilds every replica, and reads stay exact and unpinned.
    points = uniform_points(1024, seed=18)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=18, sample_size=1024)
    engine.register_sharded_dataset(
        "sh", points, num_shards=4, sharding="range", replicas=2,
        kinds=["partition_tree", "full_scan", "dynamic"])
    queries = steep_leading_attribute_queries(points, 5, 0.02, seed=19)
    sharded = engine.catalog.sharded("sh")
    top = sharded.router.boundaries[-1]
    rng = np.random.default_rng(20)
    extra = np.column_stack([rng.uniform(top, 1.0, size=400),
                             rng.uniform(-1.0, 1.0, size=400)])
    for point in extra:
        assert engine.insert("sh", point).shard_id == 3
    assert sharded.shards[3].written
    # Each insert reached one model: its shard's, once for both replicas.
    for shard in sharded.shards:
        assert_sample_is_live(shard)
    engine.rebalance("sh")
    for shard in sharded.shards:
        assert not shard.written
        assert shard.num_replicas == 2
        assert shard.replicas_for_query() == [0, 1]
    live = np.concatenate([points, extra])
    for constraint in queries:
        answer = engine.query("sh", constraint)
        assert {tuple(p) for p in answer.points} == \
            brute_force_halfspace(live, constraint)
    engine.close()


def test_rebalance_rebuilds_models_and_rewires_insert_hooks():
    engine, points, extra, queries = _skewed_insert_scenario(
        sample_size=1024)
    sharded = engine.catalog.sharded("sh")
    assert_sample_is_live(sharded.shards[3])
    engine.rebalance("sh")
    # Every shard has a fresh model over its re-split points.
    for shard in sharded.shards:
        assert_sample_is_live(shard)
        assert shard.planning_dataset().live_size \
            == len(shard.planning_dataset().points)
    assert engine.rebalancer.mutations("sh") == 0
    # An insert into a *new* shard still updates its rebuilt model and
    # the skew counter.
    child = sharded.shards[0].planning_dataset()
    size_before = child.live_size
    engine.insert("sh", (-5.0, -5.0))
    assert child.live_size == size_before + 1
    assert_sample_is_live(sharded.shards[0])
    assert engine.rebalancer.mutations("sh") == 1
    assert sharded.live_size == len(points) + len(extra) + 1
    engine.close()


def test_rebalance_preserves_custom_index_names_and_params():
    points = uniform_points(512, seed=28)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=28)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range", kinds=["full_scan"])
    engine.catalog.build_sharded_index("sh", "partition_tree",
                                       index_name="pt_wide", max_fanout=4)
    engine.catalog.build_sharded_index("sh", "dynamic")
    sharded = engine.catalog.sharded("sh")
    engine.insert("sh", (0.0, 0.0))
    engine.rebalance("sh")
    for shard in sharded.shards:
        indexes = shard.planning_dataset().indexes
        assert set(indexes) == {"full_scan", "pt_wide", "dynamic"}
        record = shard.planning_dataset().build_records["pt_wide"]
        assert record.params == {"max_fanout": 4}
    # The insert went to an index built after registration; the
    # re-split must still carry it into the new shards.
    assert sharded.size == len(points) + 1
    hit = engine.query("sh", LinearConstraint.from_inequality((1e-9, 1.0),
                                                              0.0))
    assert (0.0, 0.0) in {tuple(p) for p in hit.points}
    engine.close()


def test_rebalance_removes_previous_generation_block_files(tmp_path):
    points = uniform_points(256, seed=29)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=29, backend="file",
                         data_dir=str(tmp_path))
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range",
                                    kinds=["full_scan", "dynamic"])
    engine.insert("sh", (0.0, 0.0))
    files_before = sorted(p.name for p in tmp_path.glob("*.blocks"))
    engine.rebalance("sh")
    files_after = sorted(p.name for p in tmp_path.glob("*.blocks"))
    # Same file count: generation-0 files removed, @g1 files created.
    assert len(files_after) == len(files_before)
    assert all("_000040g1" in name for name in files_after)  # escaped "@g1"
    engine.close()


def test_shard_replicas_share_one_selectivity_model():
    points = uniform_points(512, seed=30)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=30)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range", replicas=3)
    for shard in engine.catalog.sharded("sh").shards:
        models = {id(replica.stats) for replica in shard.replicas}
        assert len(models) == 1
    engine.close()


def test_rebalance_records_event_in_engine_stats():
    engine, __, __, __ = _skewed_insert_scenario()
    engine.rebalance("sh")
    summary = engine.summary()["rebalances"]
    assert summary["count"] == 1
    assert summary["by_dataset"] == {"sh": 1}
    event = summary["events"][0]
    assert event["reason"] == "manual"
    assert event["generation"] == 1
    engine.close()


def test_auto_rebalance_triggers_on_serving_entry():
    engine, points, extra, queries = _skewed_insert_scenario(
        inserts=600, auto_rebalance=True)
    assert engine.rebalancer.skew("sh")["imbalance"] >= REBALANCE_THRESHOLD
    assert engine.rebalancer.should_rebalance("sh")
    engine.query("sh", queries[0])
    summary = engine.summary()["rebalances"]
    assert summary["count"] == 1
    assert summary["events"][0]["reason"] == "auto"
    # Balanced again: no second trigger on the next query.
    engine.query("sh", queries[1])
    assert engine.summary()["rebalances"]["count"] == 1
    engine.close()


def test_reinserting_tombstoned_point_does_not_duplicate():
    from overlaid import OverlaidTree
    points = uniform_points(64, seed=33)
    index = OverlaidTree(points, block_size=BLOCK_SIZE)
    victim = tuple(points[0])
    assert index.delete(victim)
    index.insert(victim)
    assert index.size == len(points)
    everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
    reported = [tuple(p) for p in index.query(everything)]
    assert len(reported) == len(set(reported)) == len(points)
    assert sorted(index.live_points()) == sorted(map(tuple, points))


def test_failed_build_leaves_no_phantom_suite_record():
    points = uniform_points(256, seed=34)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=34)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range",
                                    kinds=["full_scan", "dynamic"])
    with pytest.raises(KeyError):
        engine.catalog.build_sharded_index("sh", "nosuchkind")
    engine.insert("sh", (0.0, 0.0))
    report = engine.rebalance("sh")  # must not replay the failed build
    assert report.generation == 1
    names = {build["index_name"]
             for build in engine.catalog.sharded("sh").suite_builds}
    assert names == {"full_scan", "dynamic"}
    engine.close()


def test_rebalance_rejects_hash_and_unsharded_datasets():
    points = uniform_points(256, seed=21)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=21)
    engine.register_sharded_dataset("hashed", points, num_shards=2,
                                    sharding="hash")
    engine.register_dataset("plain", points)
    with pytest.raises(ValueError):
        engine.rebalance("hashed")
    with pytest.raises(ValueError):      # one hash shard: same refusal
        engine.rebalance("plain")
    assert not engine.rebalancer.should_rebalance("hashed")
    assert not engine.rebalancer.should_rebalance("plain")
    engine.close()


def test_stale_sharded_plan_is_replanned_after_rebalance():
    engine, points, extra, queries = _skewed_insert_scenario()
    live = np.concatenate([points, extra])
    constraint = queries[0]
    stale_plan = engine.planner.plan("sh", constraint)
    engine.rebalance("sh")
    key = ("sh", (constraint.coeffs, constraint.offset))
    answer = engine.executor.core.dispatch("sh", constraint, stale_plan,
                                           key, clear_cache=False)
    assert {tuple(p) for p in answer.points} == \
        brute_force_halfspace(live, constraint)
    engine.close()


# ----------------------------------------------------------------------
# serving satellites
# ----------------------------------------------------------------------
def test_scaled_count_estimate_properties():
    estimate, (low, high) = scaled_count_estimate(10, 100, 1000)
    assert estimate == 100
    assert low <= estimate <= high
    assert low >= 10 and high <= 1000
    # Full-coverage sample is exact.
    assert scaled_count_estimate(7, 50, 50) == (140 * 0 + 7, (7, 7))
    # Zero hits still admit a rule-of-three upper bound.
    __, (zero_low, zero_high) = scaled_count_estimate(0, 100, 1000)
    assert zero_low == 0 and 0 < zero_high <= 1000
    assert scaled_count_estimate(5, 0, 100) == (0, (0, 0))
    # A sample larger than the population cannot push the point estimate
    # below the observed hits (it stays inside its own interval).
    weird_estimate, (weird_low, weird_high) = scaled_count_estimate(3, 7, 5)
    assert weird_low <= weird_estimate <= weird_high
    assert weird_estimate >= 3


def test_degraded_answer_carries_sample_rate_and_interval():
    points = uniform_points(2000, seed=22)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=22, sample_size=400)
    engine.register_dataset("d", points)
    constraints = halfspace_queries_with_selectivity(points, 3, 0.3,
                                                     seed=23)
    plan = engine.explain("d", constraints[0])
    budget = TenantBudget(ios_per_s=0.001, burst=plan.estimated_ios + 1.0,
                          policy="degrade")
    requests = [ServingRequest(tenant="soft", dataset="d", constraint=c)
                for c in constraints]
    result = engine.serve_async(requests, budgets={"soft": budget},
                                max_concurrency=1)
    degraded = [item for item in result.requests
                if item.outcome == "degraded"]
    assert degraded
    for item in degraded:
        answer = item.answer
        assert answer.sample_rate == pytest.approx(400 / 2000)
        low, high = answer.count_interval
        assert low <= answer.estimated_count <= high
        assert answer.estimated_count == int(round(
            answer.count / answer.sample_rate))
        truth = len(brute_force_halfspace(points,
                                          item.request.constraint))
        assert low <= truth <= high
    # Every degraded answer is counted against its tenant.
    assert engine.stats.summary()["tenants"]["soft"]["degraded"] \
        == len(degraded)
    engine.close()


def test_caller_held_admission_persists_across_waves():
    """Budgets that persist across waves live on a long-lived executor
    bound to a caller-held controller."""
    import asyncio
    points = uniform_points(1024, seed=24)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=24)
    engine.register_dataset("d", points)
    constraints = halfspace_queries_with_selectivity(points, 4, 0.2,
                                                     seed=25)
    plan = engine.explain("d", constraints[0])
    budget = TenantBudget(ios_per_s=1.0, burst=plan.estimated_ios * 1.2,
                          policy="reject")
    controller = AdmissionController({"slow": budget})
    executor = engine.serving_executor(admission=controller)
    first = asyncio.run(executor.serve(
        [ServingRequest(tenant="slow", dataset="d",
                        constraint=constraints[0])]))
    assert first.outcomes() == {"served": 1}
    drained = controller.tokens("slow")
    assert drained < budget.burst * 0.5
    # The second wave sees the drained bucket (fresh budgets would not).
    second = asyncio.run(executor.serve(
        [ServingRequest(tenant="slow", dataset="d",
                        constraint=constraints[1])]))
    assert second.outcomes() == {"rejected": 1}
    engine.close()


def test_qerror_helper_is_symmetric_and_clamped():
    assert q_error(10, 10) == 1.0
    assert q_error(0, 0) == 1.0
    assert q_error(50, 5) == 10.0
    assert q_error(5, 50) == 10.0
    assert q_error(0, 8) == 8.0


# ----------------------------------------------------------------------
# conformal calibration (distribution-free error bars)
# ----------------------------------------------------------------------
def test_conformal_cold_start_returns_no_interval():
    calibrator = ConformalCalibrator(coverage=0.95, min_calibration=32)
    assert calibrator.interval("d", 100) is None
    for i in range(31):
        calibrator.observe("d", 100 + i, 100)
    assert calibrator.quantile("d") is None
    assert calibrator.interval("d", 100) is None
    calibrator.observe("d", 100, 100)
    assert calibrator.quantile("d") is not None
    low, high = calibrator.interval("d", 100)
    assert low <= 100 <= high


def test_conformal_interval_monotone_in_nominal_coverage():
    rng = np.random.default_rng(40)
    calibrator = ConformalCalibrator(coverage=0.5, min_calibration=16)
    for __ in range(200):
        actual = int(rng.integers(50, 500))
        estimate = actual + int(rng.normal(scale=30))
        calibrator.observe("d", estimate, actual)
    widths = []
    for coverage in (0.5, 0.7, 0.85, 0.95):
        low, high = calibrator.interval("d", 200, coverage=coverage)
        assert low <= 200 <= high
        widths.append(high - low)
    # Higher nominal coverage can never narrow the interval: the
    # conformity quantile is monotone in its rank.
    assert widths == sorted(widths)
    quantiles = [calibrator.quantile("d", coverage=c)
                 for c in (0.5, 0.7, 0.85, 0.95)]
    assert quantiles == sorted(quantiles)


def test_conformal_interval_respects_population_and_floor():
    calibrator = ConformalCalibrator(coverage=0.9, min_calibration=8)
    for __ in range(20):
        calibrator.observe("d", 10, 40)  # large scaled residuals
    low, high = calibrator.interval("d", 5, population=50)
    assert low >= 0 and high <= 50
    assert low <= 5 <= high


def test_conformal_empirical_coverage_is_prequential():
    """Each pair is scored against the interval built *before* it lands."""
    rng = np.random.default_rng(41)
    calibrator = ConformalCalibrator(coverage=0.9, window=512,
                                     min_calibration=32)
    for __ in range(600):
        actual = int(rng.integers(100, 1000))
        estimate = max(0, actual + int(rng.normal(scale=0.05 * actual)))
        calibrator.observe("d", estimate, actual)
    description = calibrator.describe()["datasets"]["d"]
    assert description["intervals"] > 400
    assert abs(description["empirical_coverage"] - 0.9) < 0.05


def test_conformal_window_keeps_its_sorted_mirror_under_ties_and_eviction():
    """The ascending mirror and the FIFO window hold the same multiset
    after every push, past eviction, across datasets and a reset, and
    the served quantile is the window's rank statistic."""
    import math

    rng = np.random.default_rng(4)
    calibrator = ConformalCalibrator(coverage=0.8, window=16,
                                     min_calibration=4)
    windows = {"a": [], "b": []}
    for step in range(300):
        name = "a" if rng.random() < 0.7 else "b"
        # Few distinct residuals: ties in the window are the rule.
        estimate, actual = 10.0, 10 + int(rng.integers(0, 5))
        calibrator.observe(name, estimate, actual)
        if step % 7 == 0:
            # A non-finite estimate has no score: the window ignores it.
            calibrator.observe(name, (math.inf, math.nan)[step % 2], actual)
        window = windows[name]
        window.append(abs(actual - estimate) / 11.0)
        del window[:-16]
        calibrator.check_invariants()
        expected = None
        rank = math.ceil((len(window) + 1) * 0.8)
        if len(window) >= 4 and rank <= len(window):
            expected = sorted(window)[rank - 1]
        assert calibrator.quantile(name) == expected
        assert calibrator.describe()["datasets"][name]["pairs"] == len(window)
        if step == 200:
            calibrator.reset()
            windows = {"a": [], "b": []}
            calibrator.check_invariants()
            assert calibrator.size("a") == 0
    assert calibrator.size("a") == 16


def _estimate(engine, name, constraint):
    """The degraded answer the SSE path sends first, and its plan."""
    return (engine.serving_executor().estimate(ServingRequest(
        tenant="t", dataset=name, constraint=constraint)),
        engine.explain(name, constraint))


def _summed_bands(engine, name, plan, hits):
    """Every relevant shard's conformal band around its plan's expected
    output, summed and clipped to the sample hits: what a degraded
    answer's conformal ``count_interval`` must be."""
    shards = engine.catalog.sharded(name).shards
    bands = [engine.stats.conformal.interval(
        name, shard_plan.expected_output,
        population=shards[shard_id].planning_dataset().live_size)
        for shard_id, shard_plan in plan.shard_plans]
    low = max(sum(band[0] for band in bands), hits)
    return low, max(sum(band[1] for band in bands), low)


def test_plans_carry_conformal_output_interval_once_warm():
    points = uniform_points(1024, seed=42)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=42)
    engine.register_dataset("d", points)
    constraints = halfspace_queries_with_selectivity(
        np.asarray(points), 40, 0.15, seed=43)
    cold, __ = _estimate(engine, "d", constraints[0])
    assert cold.interval_source == "normal_fallback"  # nothing calibrated
    # DEFAULT_MIN_CALIBRATION (32) pairs and a few more.
    for constraint in constraints[:36]:
        engine.query("d", constraint, clear_cache=True)
    warm, plan = _estimate(engine, "d", constraints[-1])
    assert warm.interval_source == "conformal"
    low, high = warm.count_interval
    assert (low, high) == _summed_bands(engine, "d", plan, warm.count)
    assert low <= warm.estimated_count <= high
    # A plan prices: its text carries T and no band.
    assert "in [" not in plan.explain()
    engine.close()


def test_sharded_plan_interval_sums_shard_bands():
    points = uniform_points(2048, seed=44)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=44)
    engine.register_sharded_dataset("sh", points, num_shards=2,
                                    sharding="range")
    constraints = halfspace_queries_with_selectivity(
        np.asarray(points), 40, 0.2, seed=45)
    for constraint in constraints[:36]:
        engine.query("sh", constraint, clear_cache=True)
    answer, plan = _estimate(engine, "sh", constraints[-1])
    assert isinstance(plan, ShardedPlan) and plan.shards_queried == 2
    assert answer.interval_source == "conformal"
    assert answer.count_interval \
        == _summed_bands(engine, "sh", plan, answer.count)
    engine.close()


#: The layouts a degraded answer is checked on: one shard, and the
#: range and hash shardings whose bands sum their shards'.
SHARDED_LAYOUTS = {"4_range": {"num_shards": 4, "sharding": "range"},
                   "4_hash": {"num_shards": 4, "sharding": "hash"},
                   "8_range": {"num_shards": 8, "sharding": "range"}}


def _register_layout(engine, name, points, layout):
    """``points`` under ``name``, unsharded (``layout`` None) or sharded."""
    if layout is None:
        engine.register_dataset(name, points)
    else:
        engine.register_sharded_dataset(name, points,
                                        **SHARDED_LAYOUTS[layout])


#: Queries that warm every shard's calibration window past
#: DEFAULT_MIN_CALIBRATION (32) pairs.
WARM_UP = 48


def _prefers_conformal_with_normal_fallback(layout):
    points = uniform_points(2000, seed=46)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=46, sample_size=400)
    _register_layout(engine, "d", points, layout)
    constraints = halfspace_queries_with_selectivity(
        np.asarray(points), WARM_UP + 3, 0.25, seed=47)

    def degrade_wave(wave):
        # The first (uncached) request drains the bucket; the rest of
        # the wave exceeds it and degrades.
        plan = engine.explain("d", wave[0])
        budget = TenantBudget(ios_per_s=0.001,
                              burst=plan.estimated_ios + 1.0,
                              policy="degrade")
        result = engine.serve_async(
            [ServingRequest(tenant="probe", dataset="d", constraint=c)
             for c in wave],
            budgets={"probe": budget}, max_concurrency=1)
        return [item.answer for item in result.requests
                if item.outcome == "degraded"]

    # Cold start: no calibration pairs yet, so the interval is the
    # normal approximation and says so.
    cold = degrade_wave(constraints[WARM_UP:])
    assert cold and all(a.interval_source == "normal_fallback"
                        for a in cold)
    for constraint in constraints[:WARM_UP]:
        engine.query("d", constraint, clear_cache=True)
    warm = degrade_wave(halfspace_queries_with_selectivity(
        np.asarray(points), 3, 0.2, seed=48))
    assert warm and all(a.interval_source == "conformal" for a in warm)
    for answer in cold + warm:
        low, high = answer.count_interval
        assert low <= answer.estimated_count <= high
        assert low >= answer.count            # hits are real points
    # The degraded counter labels the interval source too.
    degraded = engine.stats.registry.collect()["counters"][
        "engine_degraded_answers_total"]
    assert {source: count for (*__, source), count in degraded.items()} \
        == {"normal_fallback": len(cold), "conformal": len(warm)}
    engine.close()


def test_degraded_answer_prefers_conformal_with_normal_fallback():
    _prefers_conformal_with_normal_fallback(None)


def test_degraded_answer_on_four_shards_prefers_conformal_too():
    _prefers_conformal_with_normal_fallback("4_range")


def _degraded_coverage(layout, nominal):
    """The share of degraded answers whose interval covers the truth.

    192 served queries warm the dataset's conformal window; 300 fresh
    ones from the same shuffled selectivity mix (exchangeable, the one
    assumption the guarantee needs — and a fine 12-level grid, because
    score ties push coverage above nominal) are then degraded by a
    drained bucket.  Their intervals must all be conformal-sourced: the
    plan's band, calibrated on the residuals of the same shard models
    whose estimates it wraps.
    """
    import asyncio
    from repro.engine.serving import AsyncExecutor
    points = uniform_points(4096, seed=2029)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1998,
                         conformal_coverage=nominal)
    _register_layout(engine, "d", points, layout)
    levels = np.exp(np.linspace(np.log(0.02), np.log(0.4), 12))

    def workload(count, seed):
        per_level = -(-count // len(levels))
        pool = [constraint for offset, level in enumerate(levels)
                for constraint in halfspace_queries_with_selectivity(
                    points, per_level, float(level), seed=seed + offset)]
        order = np.random.default_rng(seed + 9).permutation(len(pool))
        return [pool[index] for index in order[:count]]

    for constraint in workload(192, seed=2030):
        engine.query("d", constraint)
    # A stopped clock: the bucket admits one request and never refills.
    budget = TenantBudget(ios_per_s=1e-6, burst=0.5, policy="degrade")
    executor = AsyncExecutor(engine.executor.core,
                             admission=AdmissionController({"probe": budget}),
                             clock=lambda: 0.0)
    result = asyncio.run(executor.serve(
        [ServingRequest(tenant="probe", dataset="d", constraint=constraint)
         for constraint in workload(300, seed=2031)]))
    engine.close()
    degraded = [item for item in result.requests
                if item.outcome == "degraded"]
    assert len(degraded) >= 200
    assert {item.answer.interval_source for item in degraded} \
        == {"conformal"}
    covered = 0
    for item in degraded:
        low, high = item.answer.count_interval
        actual = int(item.request.constraint.below_many(points).sum())
        covered += low <= actual <= high
    return covered / len(degraded)


def test_degraded_conformal_intervals_cover_at_the_nominal_level():
    """The validity claim end to end, not on the calibrator alone: one
    shard covers within 5 points of the nominal 0.90 (0.903 over 299 at
    these seeds)."""
    assert abs(_degraded_coverage(None, 0.9) - 0.9) <= 0.05


@pytest.mark.parametrize("layout", sorted(SHARDED_LAYOUTS))
def test_degraded_conformal_intervals_cover_on_sharded_layouts(layout):
    """A sharded plan's band sums its shards' conformal bands, so it
    covers at least about the nominal 0.90 — never far below it, as a
    band wrapped around another estimator's count would."""
    assert _degraded_coverage(layout, 0.9) >= 0.85


# ----------------------------------------------------------------------
# worker processes
# ----------------------------------------------------------------------
def test_process_workers_parity_with_shard_stats():
    """REPRO_WORKERS=process must stay bit-parity for a replicated,
    sharded dataset: identical answers and I/O counters."""
    points = uniform_points(1536, seed=56)
    constraints = halfspace_queries_with_selectivity(
        np.asarray(points), 6, 0.1, seed=57)

    def run(mode):
        engine = QueryEngine(block_size=BLOCK_SIZE, seed=56, workers=mode)
        engine.register_sharded_dataset(
            "sh", points, num_shards=2, sharding="range", replicas=2,
            kinds=["dynamic", "full_scan"])
        observed = []
        for constraint in constraints:
            answer = engine.query("sh", constraint, clear_cache=True)
            observed.append((sorted(map(tuple, answer.points)),
                             answer.ios.total, answer.ios.cache_hits))
        engine.insert("sh", (0.01, 0.02))
        answer = engine.query("sh", constraints[0], clear_cache=True)
        observed.append((sorted(map(tuple, answer.points)),
                         answer.ios.total))
        description = engine.cluster.describe() if engine.cluster else None
        engine.close()
        return observed, description

    inprocess, __ = run("inprocess")
    process, description = run("process")
    assert inprocess == process
    # The topology snapshot reports each worker's address, restart count
    # and write-log high-water mark.
    for listing in description["workers"].values():
        for entry in listing:
            assert entry["address"].startswith("127.0.0.1:")
            assert entry["restarts"] == 0
            assert entry["last_seq"] >= 0


def test_worker_spec_carries_its_recipe_and_no_conformal_config():
    from repro.engine.catalog import ReplicaRecipe
    from repro.engine.cluster.worker import ShardWorker
    points = np.asarray(uniform_points(256, seed=58))
    recipe = ReplicaRecipe(
        block_size=BLOCK_SIZE, cache_blocks=4, backend="memory",
        data_dir=None, sample_size=128, seed=58, replicas=1)
    worker = ShardWorker(
        "sh#0", points, recipe,
        [{"kind": "full_scan", "index_name": "full_scan", "params": {}}],
        [])
    assert len(worker.dataset.stats.sample.rows) == 128
    assert worker.dataset.live_size == len(points)
    stats = worker.handle({"op": "ping"})
    assert stats["replica"] == "sh#0"
    # The parent computes every estimate and interval; a worker's
    # replies carry none.
    assert "conformal" not in stats
    # Spawned workers get the recipe their dataset was registered with,
    # for both register_* shapes.
    for sharded in (False, True):
        engine = QueryEngine(block_size=BLOCK_SIZE, seed=58,
                             workers="process")
        try:
            if sharded:
                engine.register_sharded_dataset(
                    "d", points, num_shards=2, kinds=["full_scan"])
            else:
                engine.register_dataset("d", points, kinds=["full_scan"])
                engine.cluster.start_dataset("d")
            for shard in engine.catalog.sharded("d").shards:
                assert engine.cluster.worker_stats(
                    "d", shard.shard_id, 0)["replica"] \
                    == shard.planning_dataset().name
        finally:
            engine.close()
