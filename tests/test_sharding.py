"""Tests for sharded catalogs: routers, pruning, planning and fan-out."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from conftest import (assert_replica_layout, brute_force_halfspace, rows,
                      wave_answers)
from geometry_oracle import filter_points

from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine.catalog import Catalog
from repro.engine.obs.registry import view_to_json
from repro.engine.planner import ShardedPlan
from repro.engine.cluster import ShardWorker
from repro.engine.sharding import (
    HashShardRouter,
    RangeShardRouter,
    make_router,
)
from repro.geometry.primitives import classify_boxes_halfspace
from repro.workloads import (
    halfspace_queries_with_selectivity,
    steep_leading_attribute_queries,
    uniform_points,
)

BLOCK_SIZE = 32


@pytest.fixture(scope="module")
def points2d():
    return uniform_points(2048, seed=31)


@pytest.fixture(scope="module")
def sharded_engine(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=4,
                                    sharding="range")
    return engine


# ----------------------------------------------------------------------
# routers
# ----------------------------------------------------------------------
def test_range_router_balances_shards(points2d):
    router = RangeShardRouter.from_points(points2d, 4)
    assignment = router.assign(points2d)
    sizes = [len(rows) for rows in assignment]
    assert sum(sizes) == len(points2d)
    assert min(sizes) > 0.8 * len(points2d) / 4   # quantile split ≈ balanced

def test_range_router_orders_by_attribute(points2d):
    router = RangeShardRouter.from_points(points2d, 3, attribute=0)
    assignment = router.assign(points2d)
    maxima = [points2d[rows, 0].max() for rows in assignment]
    assert maxima == sorted(maxima)


def test_range_router_validates_boundaries():
    with pytest.raises(ValueError):
        RangeShardRouter(3, [0.5])                 # wrong boundary count
    with pytest.raises(ValueError):
        RangeShardRouter(3, [0.7, 0.2])            # unsorted
    with pytest.raises(ValueError):
        RangeShardRouter.from_points(np.zeros((4, 2)), 2, attribute=5)


def test_hash_router_is_deterministic_and_total(points2d):
    router = HashShardRouter(5)
    first = [router.shard_of(point) for point in points2d[:100]]
    second = [router.shard_of(point) for point in points2d[:100]]
    assert first == second
    assert all(0 <= shard < 5 for shard in first)


def test_make_router_rejects_unknown_scheme(points2d):
    with pytest.raises(ValueError):
        make_router("ring", points2d, 4)
    with pytest.raises(ValueError):
        make_router("range", points2d, 0)


# ----------------------------------------------------------------------
# box pruning
# ----------------------------------------------------------------------
def test_constraint_feasible_over_box_exact_corners():
    # y <= 2x - 1 against the unit square: feasible only where x is large.
    # A shard's box is pruned when the constraint's box fold finds it
    # ABOVE (code 0).
    constraint = LinearConstraint(coeffs=(2.0,), offset=-1.0)
    codes = classify_boxes_halfspace(np.array([(0.6, 0.0), (0.0, 0.6)]),
                                     np.array([(1.0, 1.0), (0.4, 1.0)]),
                                     constraint)
    assert codes[0] > 0
    assert codes[1] == 0
    # A query of another dimension is refused.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    engine.register_sharded_dataset("d", uniform_points(64, seed=2),
                                    num_shards=2)
    with pytest.raises(ValueError):
        engine.query("d", LinearConstraint(coeffs=(1.0, 2.0), offset=0.0))


def test_pruning_never_loses_answers(sharded_engine, points2d):
    sharded = sharded_engine.catalog.sharded("sh")
    for constraint in steep_leading_attribute_queries(points2d, 6, 0.03,
                                                      seed=43):
        relevant = {shard.shard_id
                    for shard in sharded.relevant_shards(constraint)}
        for shard in sharded.shards:
            hits = [p for p in shard.planning_dataset().points
                    if constraint.below(p)]
            if hits:
                assert shard.shard_id in relevant
        assert len(relevant) < sharded.num_shards   # steep queries do prune


def test_prune_flag_disables_pruning(sharded_engine, points2d):
    sharded = sharded_engine.catalog.sharded("sh")
    constraint = steep_leading_attribute_queries(points2d, 1, 0.02,
                                                 seed=47)[0]
    assert len(sharded.relevant_shards(constraint)) < 4
    sharded.prune = False
    try:
        assert len(sharded.relevant_shards(constraint)) == 4
    finally:
        sharded.prune = True


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
def test_catalog_registers_and_builds_sharded_dataset(points2d):
    catalog = Catalog(block_size=BLOCK_SIZE, seed=3)
    sharded = catalog.register_sharded_dataset("sh", points2d, num_shards=4)
    assert catalog.is_sharded("sh")
    assert "sh" in catalog.datasets()
    assert sum(shard.size for shard in sharded.shards) == len(points2d)
    records = catalog.build_suite("sh")
    # default 2-D suite has 3 kinds, built once per shard
    assert len(records) == 3 * 4
    assert len(catalog.stores("sh")) == 4
    assert set(catalog.indexes("sh")) == {
        "%d/%s" % (shard_id, kind)
        for shard_id in range(4)
        for kind in ("halfplane2d", "partition_tree", "full_scan")}
    with pytest.raises(KeyError):
        catalog.dataset("sh")                      # sharded, not plain
    with pytest.raises(ValueError):
        catalog.build_index("sh", "full_scan")     # use build_sharded_index
    with pytest.raises(ValueError):
        catalog.register_dataset("sh", points2d)   # name taken


def test_hash_sharding_tolerates_empty_shards():
    # 3 points over 8 shards: most shards hold no point and must be
    # skipped; each is still built, with no box to prune it by.
    points = uniform_points(3, seed=1)
    catalog = Catalog(block_size=8, seed=3)
    sharded = catalog.register_sharded_dataset("tiny", points, num_shards=8,
                                               sharding="hash")
    catalog.build_suite("tiny", kinds=["full_scan"])
    assert sum(shard.size for shard in sharded.shards) == 3
    holding = {s.shard_id for s in sharded.shards
               if s.planning_dataset().live_size}
    assert len(holding) < 8
    for shard in sharded.shards:
        assert list(shard.planning_dataset().indexes) == ["full_scan"]
        assert (shard.lows is None) == (shard.shard_id not in holding)
    constraint = LinearConstraint(coeffs=(0.0,), offset=1e9)
    relevant = sharded.relevant_shards(constraint)
    assert {s.shard_id for s in relevant} == holding


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def test_sharded_plan_costs_sum_of_relevant_shards(sharded_engine, points2d):
    constraint = halfspace_queries_with_selectivity(points2d, 1, 0.1,
                                                    seed=53)[0]
    plan = sharded_engine.explain("sh", constraint)
    assert isinstance(plan, ShardedPlan)
    assert plan.num_shards == 4
    assert plan.shards_queried + plan.shards_pruned == 4
    assert plan.estimated_ios == pytest.approx(
        sum(shard_plan.estimated_ios for __, shard_plan in plan.shard_plans))
    assert "shards relevant" in plan.explain()


def test_sharded_plan_prunes_on_steep_constraints(sharded_engine, points2d):
    constraint = steep_leading_attribute_queries(points2d, 1, 0.02,
                                                 seed=59)[0]
    plan = sharded_engine.explain("sh", constraint)
    assert plan.shards_pruned >= 2
    # pruning shrinks the predicted cost versus planning with prune off
    sharded = sharded_engine.catalog.sharded("sh")
    sharded.prune = False
    try:
        full = sharded_engine.explain("sh", constraint)
    finally:
        sharded.prune = True
    assert plan.estimated_ios < full.estimated_ios


# ----------------------------------------------------------------------
# executor fan-out
# ----------------------------------------------------------------------
def test_fanout_answers_match_brute_force(sharded_engine, points2d):
    constraints = halfspace_queries_with_selectivity(points2d, 5, 0.08,
                                                     seed=61)
    batch = sharded_engine.serve_batch("sh", constraints)
    for constraint, answer in zip(constraints, wave_answers(batch)):
        assert {tuple(p) for p in answer.points} == brute_force_halfspace(
            points2d, constraint)
        assert answer.shards_queried >= 1
        assert answer.shards_queried + answer.shards_pruned == 4


#: What the plain-dataset path (deleted in PR 14) measured for the
#: inputs of ``test_unsharded_is_the_one_shard_case``: per
#: ``clear_cache`` value and query ``(reads, buffer-pool hits)``, and a
#: CRC of the ordered answer — identical in both worker modes.  Where the
#: planner's own cost models route differently from the calibrated
#: planner the path had (queries 0-3, 5 and 7, now to ``dynamic``), the
#: blocks accessed are no more than they were (8 and 39); only query 0
#: then splits by ``clear_cache`` (a warm pool turns one read into a hit).
#: Query 4 is ``halfplane2d``'s: one hit fewer than the plain path's
#: (7, 1), which read the boundary B-tree's leaf twice.
PLAIN_PATH_IOS = {
    clear_cache: [first, (5, 0), (6, 0), (5, 0), (7, 0), (5, 0)]
    + [(25, 0), (25, 0), (27, 0), (25, 0), (24, 0), (25, 0)]
    + [(64, 0)] * 6
    + [(25, 0), (25, 0), (27, 0), (25, 0), (24, 0), (25, 0)]
    for clear_cache, first in ((True, (7, 0)), (False, (6, 1)))}
PLAIN_PATH_ANSWER_CRCS = [
    1880541781, 2362403529, 560882087, 1235100504, 2516037071, 1235100504,
    728571545, 4065411313, 2958121735, 800632094, 1821895261, 4065411313,
    1141831757, 1141019565, 3722514581, 824364472, 572037296, 3064809956,
    728571545, 4065411313, 2958121735, 800632094, 1821895261, 4065411313]


@pytest.mark.parametrize("workers", ["inprocess", "process"])
@pytest.mark.parametrize("clear_cache", [True, False])
def test_unsharded_is_the_one_shard_case(points2d, workers, clear_cache):
    # The equivalence the single dataset shape rests on: the same points
    # registered plainly, as one range shard or as one hash shard answer
    # with the same ordered points at the same I/O cost — the cost the
    # deleted plain path charged, or less where the planner's own cost
    # models route better — take writes alike, and teach the q-error
    # metrics and the conformal window the same things: one residual per
    # executed constraint plan, none per conjunction.
    constraints = [
        constraint
        for selectivity in (0.01, 0.1, 0.5)
        for constraint in halfspace_queries_with_selectivity(
            points2d, 6, selectivity, seed=int(selectivity * 1000))]
    conjunctions = [ConstraintConjunction.of(first, second)
                    for first, second in zip(constraints[6:12],
                                             constraints[12:])]
    kinds = ["halfplane2d", "partition_tree", "full_scan", "dynamic"]
    new_point = (0.25, -3.0)
    engines = {}
    for layout in ("unsharded", "range", "hash"):
        engine = QueryEngine(block_size=BLOCK_SIZE, seed=5, workers=workers)
        if layout == "unsharded":
            engine.register_dataset("d", points2d, kinds=kinds)
        else:
            engine.register_sharded_dataset("d", points2d, num_shards=1,
                                            sharding=layout, kinds=kinds)
        engines[layout] = engine

    def on_every_layout(call):
        results = {layout: call(engine)
                   for layout, engine in engines.items()}
        return results["unsharded"], results["range"], results["hash"]

    try:
        for position, query in enumerate(constraints + conjunctions):
            plain, *sharded = on_every_layout(
                lambda engine: engine.executor.execute(
                    "d", query, clear_cache=clear_cache))
            assert plain.count > 0
            assert (plain.ios.reads, plain.ios.cache_hits) == \
                PLAIN_PATH_IOS[clear_cache][position]
            assert zlib.crc32(np.asarray(plain.points).tobytes()) == \
                PLAIN_PATH_ANSWER_CRCS[position]
            for answer in (plain, *sharded):
                assert answer.shards_queried == 1
                assert rows(answer) == rows(plain)
                assert answer.ios == plain.ios
                assert answer.index_name == plain.index_name

        def mutation_fields(result):
            return (result.applied, result.shard_id, result.replicas,
                    result.ios, result.generation)

        inserted = on_every_layout(
            lambda engine: mutation_fields(engine.insert("d", new_point)))
        assert set(inserted) == {(True, 0, 1, 1, 0)}
        # After the insert: one per_shard entry, alike on every layout
        # and as at the parent.
        reports = on_every_layout(
            lambda engine: engine.explain("d", constraints[0], analyze=True,
                                          clear_cache=clear_cache))
        for report in reports:
            entry, = report["per_shard"]
            del entry["duration_ms"]
            assert entry == reports[0]["per_shard"][0]
            assert (entry["shard_id"], entry["index"], entry["ios"],
                    entry["reported"]) == (0, "dynamic", 8, 22)
            # The dynamic tree's model is its cold walk plus its buffer.
            assert entry["model_ios"] == entry["observed_cold_ios"]
        deleted = on_every_layout(
            lambda engine: mutation_fields(engine.delete("d", new_point)))
        assert set(deleted) == {(True, 0, 1, 0, 0)}

        plain = engines["unsharded"]
        assert plain.stats.conformal.size("d") == len(constraints) + 1
        expected = plain.stats.summary()["estimation_qerror"]["d"]
        assert expected["plans"] == len(constraints) + 1

        def qerror_buckets(engine):
            histograms = view_to_json(
                engine.stats.registry.collect())["histograms"]
            return histograms['engine_estimation_qerror{dataset="d"}'][
                "buckets"]

        for layout in ("range", "hash"):
            engine = engines[layout]
            # The same q-errors in any order: counts, buckets (hence
            # the interpolated percentiles) and max are equal, the mean
            # is a float sum in a different order.
            assert qerror_buckets(engine) == qerror_buckets(plain)
            estimation = engine.stats.summary()["estimation_qerror"]["d"]
            assert estimation.pop("mean") == pytest.approx(expected["mean"])
            assert estimation == {key: value for key, value
                                  in expected.items() if key != "mean"}
            assert engine.stats.conformal.size("d") == len(constraints) + 1
    finally:
        for engine in engines.values():
            engine.close()


def test_pruned_run_costs_fewer_ios_than_all_shards(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=4,
                                    sharding="range")
    constraints = steep_leading_attribute_queries(points2d, 6, 0.02, seed=71)
    sharded = engine.catalog.sharded("sh")

    pruned_total = sum(engine.query("sh", c, clear_cache=True).total_ios
                       for c in constraints)
    sharded.prune = False
    try:
        full_total = sum(engine.query("sh", c, clear_cache=True).total_ios
                         for c in constraints)
    finally:
        sharded.prune = True
    assert pruned_total < full_total


def test_dynamic_insert_disables_stale_box_pruning(points2d):
    # A point inserted outside a shard's build-time bounding box must not
    # be lost to pruning: the mutation hook marks the shard's box stale.
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=4,
                                    sharding="range", kinds=["dynamic"])
    outlier = (10.0, 0.0)                       # far outside [-1, 1]^2
    last_shard = engine.catalog.sharded("sh").shards[-1]
    engine.insert("sh", outlier)
    assert last_shard.written
    # Satisfied by the outlier alone: y <= 5x - 40.
    constraint = LinearConstraint(coeffs=(5.0,), offset=-40.0)
    assert constraint.below(outlier)
    answer = engine.query("sh", constraint)
    assert tuple(outlier) in {tuple(p) for p in answer.points}


def test_sharded_conjunction_matches_filter(sharded_engine, points2d):
    conjunction = ConstraintConjunction.of(
        LinearConstraint(coeffs=(0.4,), offset=0.2),
        LinearConstraint(coeffs=(-0.3,), offset=0.5),
    )
    answer = sharded_engine.query("sh", conjunction)
    assert sorted(tuple(p) for p in answer.points) == sorted(
        tuple(p) for p in filter_points(conjunction, points2d))


def test_sharded_result_cache_and_stats(points2d):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    engine.register_sharded_dataset("sh", points2d, num_shards=4)
    constraints = steep_leading_attribute_queries(points2d, 3, 0.05, seed=73)
    batch = engine.serve_batch("sh", constraints + constraints)
    assert sum(answer.from_result_cache
               for answer in wave_answers(batch)) == len(constraints)
    summary = engine.summary()
    assert summary["shards_queried"] > 0
    assert summary["shards_pruned"] > 0
    assert 0.0 < summary["shard_prune_rate"] < 1.0


def test_file_backed_sharded_engine_matches_memory(points2d, tmp_path):
    memory_engine = QueryEngine(block_size=BLOCK_SIZE, seed=5)
    file_engine = QueryEngine(block_size=BLOCK_SIZE, seed=5, backend="file",
                              data_dir=str(tmp_path))
    for engine in (memory_engine, file_engine):
        engine.register_sharded_dataset("sh", points2d, num_shards=4)
    constraints = halfspace_queries_with_selectivity(points2d, 4, 0.05,
                                                     seed=83)
    memory_batch = memory_engine.serve_batch("sh", constraints)
    file_batch = file_engine.serve_batch("sh", constraints)
    assert memory_batch.total_ios == file_batch.total_ios
    for first, second in zip(wave_answers(memory_batch),
                             wave_answers(file_batch)):
        assert {tuple(p) for p in first.points} == {
            tuple(p) for p in second.points}
    # "#" is hex-escaped in block file names ("sh#0" -> "sh_0000230.blocks")
    assert (tmp_path / "sh_0000230.blocks").exists()
    file_engine.close()


def test_an_engine_owns_its_data_dir(points2d, tmp_path):
    """A second live engine on a data_dir is refused, in this process or
    another; once the first closes, the next one starts from no block
    file: a stale one is deleted, and its own logs start empty."""
    first = QueryEngine(block_size=BLOCK_SIZE, seed=5, backend="file",
                        data_dir=str(tmp_path))
    first.register_sharded_dataset("sh", points2d, num_shards=2)
    for store in first.catalog.stores("sh"):
        store.backend.sync()
    fresh = sorted((path.name, path.stat().st_size)
                   for path in tmp_path.glob("*.blocks"))
    with pytest.raises(ValueError, match="another live engine"):
        QueryEngine(backend="file", data_dir=str(tmp_path))
    claim = ("from repro import QueryEngine\n"
             "QueryEngine(backend='file', data_dir=%r)" % str(tmp_path))
    other = subprocess.run([sys.executable, "-c", claim], text=True,
                           capture_output=True,
                           env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                               sys.path)))
    assert other.returncode != 0 and "another live engine" in other.stderr
    first.rebalance("sh")               # leaves generation-1 files behind
    first.close()
    (tmp_path / "orphan.blocks").write_bytes(b"\x00" * 64)
    again = QueryEngine(block_size=BLOCK_SIZE, seed=5, backend="file",
                        data_dir=str(tmp_path))
    try:
        assert not list(tmp_path.glob("*.blocks"))
        again.register_sharded_dataset("sh", points2d, num_shards=2)
        for store in again.catalog.stores("sh"):
            store.backend.sync()
        assert sorted((path.name, path.stat().st_size)
                      for path in tmp_path.glob("*.blocks")) == fresh
    finally:
        again.close()
    memory = [QueryEngine(data_dir=str(tmp_path)) for __ in range(2)]
    for engine in memory:               # a memory engine places no file
        engine.close()


def test_block_file_names_cannot_collide():
    # The shard child "sh#0" and a plain dataset "sh_0" must get distinct
    # block files (naive sanitization mapped both to "sh_0.blocks"), and
    # the fixed-width escape keeps high codepoints prefix-free too
    # ("€" must not collide with names whose escape + tail spell the
    # same hex string).
    names = ["sh#0", "sh_0", "sh 0", "sh/0", "sh-0", "sh.0",
             "€", " ac", "_20ac"]
    files = {Catalog._block_file_name(name) for name in names}
    assert len(files) == len(names)


# ----------------------------------------------------------------------
# one replica recipe: every build site leaves the same layout
# ----------------------------------------------------------------------
WRITABLE = ["dynamic", "full_scan"]


def _insert_into_an_empty_shard(engine, count):
    """Register a tiny hash-sharded "d" and insert into one of its
    zero-point shards."""
    engine.register_sharded_dataset(
        "d", [(float(i), float(i)) for i in range(4)], num_shards=4,
        sharding="hash", replicas=2, kinds=WRITABLE)
    sharded = engine.catalog.sharded("d")
    empty = next(shard for shard in sharded.shards
                 if shard.planning_dataset().live_size == 0)
    probes = (tuple(map(float, p)) for p in
              np.random.default_rng(0).uniform(10.0, 20.0, size=(4096, 2)))
    for __ in range(count):
        engine.insert("d", next(p for p in probes if
                                sharded.router.shard_of(p) == empty.shard_id))
    return empty


def _site_register(engine, points):
    engine.register_dataset("d", points, kinds=WRITABLE)


def _site_register_sharded(engine, points):
    engine.register_sharded_dataset("d", points, num_shards=3, replicas=2,
                                    kinds=WRITABLE)
    recipe = engine.catalog.sharded("d").recipe
    assert (recipe.block_size, recipe.cache_blocks, recipe.replicas) \
        == (BLOCK_SIZE, 6, 2)


def _site_rebalance(engine, points):
    _site_register_sharded(engine, points)
    for x in np.linspace(5.0, 6.0, 40):
        engine.insert("d", (float(x), 0.0))
    engine.rebalance("d")
    assert engine.catalog.sharded("d").generation == 1


def _site_materialize(engine, points):
    """The first insert into a zero-point shard, built at registration."""
    shard = _insert_into_an_empty_shard(engine, 1)
    assert shard.written and shard.lows is None
    primary = shard.planning_dataset()
    assert primary.live_size == 1 and len(primary.points) == 0
    assert len(primary.stats.sample.rows) == 1


def _site_upgrade_stats(engine, points):
    """Inserts into a zero-point shard fill the sample its replicas
    share."""
    shard = _insert_into_an_empty_shard(engine, 8)
    assert shard.written and shard.lows is None
    primary = shard.planning_dataset()
    assert primary.live_size == 8 and len(primary.points) == 0
    assert len(primary.stats.sample.rows) == 8
    assert all(replica.stats is primary.stats for replica in shard.replicas)


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("site", [
    _site_register, _site_register_sharded, _site_rebalance,
    _site_materialize, _site_upgrade_stats], ids=lambda site: site.__name__)
def test_every_build_site_leaves_the_same_replica_layout(site, backend,
                                                         tmp_path):
    engine = QueryEngine(block_size=BLOCK_SIZE, cache_blocks=6, seed=17,
                         backend=backend, data_dir=str(tmp_path))
    try:
        site(engine, uniform_points(384, seed=18))
        sharded = engine.catalog.sharded("d")
        assert_replica_layout(sharded)
        assert {type(store.backend).__name__
                for store in engine.catalog.stores("d")} == {
            "FileBackend" if backend == "file" else "MemoryBackend"}
        everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
        assert len(engine.query("d", everything).points) \
            == sum(sharded.shard_live_sizes())
    finally:
        engine.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_worker_rebuild_matches_the_parent_replica(backend, tmp_path):
    """The worker calls the parent's builder with the parent's recipe
    (on the memory backend): same sample, live size and index builds."""
    engine = QueryEngine(block_size=BLOCK_SIZE, cache_blocks=6, seed=19,
                         backend=backend, data_dir=str(tmp_path),
                         sample_size=64)
    try:
        engine.register_sharded_dataset(
            "d", uniform_points(384, seed=20), num_shards=2, replicas=2)
        sharded = engine.catalog.sharded("d")
        recipe = dataclasses.replace(sharded.recipe, backend="memory")
        for shard in sharded.shards:
            for replica in shard.replicas:
                rebuilt = ShardWorker(replica.name, replica.points, recipe,
                                      sharded.suite_builds, []).dataset
                assert rebuilt.store.block_size == replica.store.block_size
                assert rebuilt.store.cache_blocks == 6
                assert np.array_equal(rebuilt.stats.sample.rows,
                                      replica.stats.sample.rows)
                assert rebuilt.live_size == replica.live_size
                assert list(rebuilt.indexes) == list(replica.indexes)
                for name, record in replica.build_records.items():
                    twin = rebuilt.build_records[name]
                    assert twin.space_blocks == record.space_blocks
                    assert twin.build_ios.total == record.build_ios.total
    finally:
        engine.close()


# ----------------------------------------------------------------------
# the one shard shape, as check_invariants() asserts it
# ----------------------------------------------------------------------
def _two_replica_engine():
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=29, sample_size=64)
    engine.register_sharded_dataset(
        "d", uniform_points(256, seed=29), num_shards=2, replicas=2,
        kinds=["dynamic", "full_scan"])
    engine.register_sharded_dataset(
        "tiny", [(0.5, y) for y in (-0.5, 0.0, 0.5)], num_shards=2,
        kinds=["dynamic"])
    for name in ("d", "tiny"):
        engine.catalog.sharded(name).check_invariants()
    return engine


def _drop_a_replica(engine):
    engine.catalog.sharded("d").shards[1].replicas.pop()


def _drop_an_index(engine):
    del engine.catalog.sharded("d").shards[0].replicas[1].indexes[
        "full_scan"]


def _unbox_a_shard_with_points(engine):
    shard = engine.catalog.sharded("d").shards[0]
    shard.lows = shard.highs = None


def _miscount_a_tombstone(engine):
    engine.catalog.sharded("d").shards[0].replicas[1] \
        .overlay._num_tombstones += 1


def _overfill_a_sample(engine):
    sample = engine.catalog.sharded("d").shards[0].replicas[0].stats.sample
    sample.rows = np.concatenate([sample.rows, sample.rows[:1]])


def _forge_a_short_sample_row(engine):
    [sample] = [shard.replicas[0].stats.sample
                for shard in engine.catalog.sharded("tiny").shards
                if len(shard.replicas[0].stats.sample.rows)]
    assert len(sample.rows) < sample.capacity
    sample.rows[0] = (9.0, 9.0)


@pytest.mark.parametrize("corrupt, name, message", [
    (_drop_a_replica, "d", "has 1 replicas, its recipe 2"),
    (_drop_an_index, "d", "holds indexes"),
    (_unbox_a_shard_with_points, "d", "no box and no write"),
    (_miscount_a_tombstone, "d", "counts other than its"),
    (_overfill_a_sample, "d", "its recipe at most 64"),
    (_forge_a_short_sample_row, "tiny", "short of 64 rows"),
], ids=lambda value: getattr(value, "__name__", None))
def test_check_invariants_catches_a_broken_shard_shape(corrupt, name,
                                                       message):
    engine = _two_replica_engine()
    try:
        corrupt(engine)
        with pytest.raises(AssertionError, match=message):
            engine.catalog.sharded(name).check_invariants()
    finally:
        engine.close()


def test_a_zero_point_shard_is_pruned_until_written_and_served_at_once():
    """Every shard is built at registration; one with no point has no box
    and no write, so it is pruned — one insert makes it serve, on every
    replica, and a delete routed to it before then is a no-op."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=30)
    engine.register_sharded_dataset(
        "d", [(0.5, y) for y in np.linspace(-1, 1, 8)], num_shards=3,
        sharding="range", replicas=2, kinds=["dynamic", "full_scan"])
    sharded = engine.catalog.sharded("d")
    zero = sharded.shards[0]
    assert zero.lows is None and len(zero.replicas) == 2
    everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
    assert zero not in sharded.relevant_shards(everything)
    assert engine.query("d", everything).shards_pruned == 2
    missing = engine.delete("d", (-0.5, 0.0))
    assert (missing.applied, missing.shard_id, missing.replicas) \
        == (False, 0, 2)
    assert zero not in sharded.relevant_shards(everything)
    engine.insert("d", (-0.5, 0.0))
    assert zero in sharded.relevant_shards(everything)
    answer = engine.query("d", LinearConstraint(coeffs=(0.0,), offset=0.1),
                          clear_cache=True)
    assert (-0.5, 0.0) in rows(answer)
    assert [rows(replica.run_query("dynamic", everything)[0])
            for replica in zero.replicas] == [[(-0.5, 0.0)]] * 2
    sharded.check_invariants()
    engine.close()
