"""A suite naming ``dynamic`` and ``partition_tree`` builds one tree.

``dynamic`` is the partition tree under a second name (writes are the
replica's write overlay's), so a replica whose suite names both kinds
with the same tree parameters builds the dynamic tree alone, and
``partition_tree`` names it.  In every order of the suite, on both
backends, after a re-split and in a shard worker's rebuild, every
replica holds one tree, and through either name it answers what a
static :class:`PartitionTreeIndex` over the replica's points answers —
the oracle — at the oracle's price and cold I/Os, a conjunction included
(the oracle's polytope walk: the same rows in the same order); the
planner prices that one tree on every shard.  The worker mode is the suite's
(``REPRO_WORKERS``).
"""

from __future__ import annotations

import dataclasses
import itertools
import os

import numpy as np
import pytest

from repro import QueryEngine
from repro.core import ConstraintConjunction, PartitionTreeIndex
from repro.engine.catalog import one_tree_per_replica
from repro.engine.cluster.worker import ShardWorker
from repro.io.store import BlockStore
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

BLOCK_SIZE = 16
ORDERS = list(itertools.permutations(["dynamic", "partition_tree",
                                      "full_scan"]))
POINTS = uniform_points(1500, seed=41)
QUERIES = [query for share in (0.005, 0.05, 0.4)
           for query in halfspace_queries_with_selectivity(
               POINTS, 3, share, seed=int(share * 1000))]
CONJUNCTIONS = [ConstraintConjunction.of(first, second)
                for first, second in zip(QUERIES[:3], QUERIES[6:])]


def multiset(points):
    return sorted(map(tuple, np.asarray(points, dtype=float).tolist()))


def trees_of(replica):
    return [index for index in replica.indexes.values()
            if isinstance(index, PartitionTreeIndex)]


def assert_one_tree(replica, kinds):
    """The replica built every kind but ``partition_tree``, in suite
    order, and holds one tree, which ``partition_tree`` names."""
    built = [kind for kind in kinds if kind != "partition_tree"]
    assert list(replica.indexes) == built
    assert list(replica.build_records) == built
    assert replica.aliases == {"partition_tree": "dynamic"}
    assert len(trees_of(replica)) == 1


def oracle_of(replica):
    """A static partition tree over the replica's points, on a store of
    its own."""
    return PartitionTreeIndex(replica.points,
                              store=BlockStore(block_size=BLOCK_SIZE))


def assert_the_static_tree(replica):
    """Through either name, query by query: the oracle's answer, and its
    price and cold I/Os."""
    oracle = oracle_of(replica)
    assert replica.indexes["dynamic"].space_blocks == oracle.space_blocks
    for query in QUERIES:
        truth = oracle.query_with_stats(query, clear_cache=True)
        assert replica.indexes["dynamic"].estimated_query_ios(query) \
            == oracle.estimated_query_ios(query)
        for name in ("dynamic", "partition_tree"):
            points, ios, __ = replica.run_query(name, query,
                                                clear_cache=True)
            assert multiset(points) == multiset(truth.points)
            assert (ios.reads, ios.writes, ios.cache_hits) == (
                truth.ios.reads, truth.ios.writes, truth.ios.cache_hits)
    for conjunction in CONJUNCTIONS:
        truth = oracle.query_with_stats(conjunction.to_polytope(),
                                        clear_cache=True)
        for name in ("dynamic", "partition_tree"):
            points, ios, __ = replica.run_query(name, conjunction,
                                                clear_cache=True)
            assert np.array_equal(points, truth.points)
            assert (ios.reads, ios.writes, ios.cache_hits) == (
                truth.ios.reads, truth.ios.writes, truth.ios.cache_hits)


def assert_layout(engine, kinds):
    """Every replica of ``d``, and a worker's rebuild of it, holds one
    tree that is the oracle; the engine's plans price that tree alone,
    at each shard's oracle price and cold I/Os, and answer exactly."""
    sharded = engine.catalog.sharded("d")
    assert [build["index_name"] for build in sharded.suite_builds] \
        == list(kinds)
    sharded.check_invariants()
    recipe = dataclasses.replace(sharded.recipe, backend="memory")
    oracles = {}
    for shard in sharded.shards:
        for replica in shard.replicas:
            assert_one_tree(replica, kinds)
            assert_the_static_tree(replica)
            rebuilt = ShardWorker(replica.name, replica.points, recipe,
                                  sharded.suite_builds, []).dataset
            assert_one_tree(rebuilt, kinds)
            assert_the_static_tree(rebuilt)
        oracles[shard.shard_id] = oracle_of(shard.replicas[0])
    live = sharded.points
    for query in QUERIES:
        for __, plan in engine.explain("d", query).shard_plans:
            assert {estimate.index_name for estimate in plan.estimates} \
                == {"dynamic", "full_scan"}
        report = engine.explain("d", query, analyze=True, clear_cache=True)
        assert report["reported"] == int(np.sum(query.below_many(live)))
        assert report["per_shard"]
        for entry in report["per_shard"]:
            oracle = oracles[entry["shard_id"]]
            if entry["index"] == "dynamic":
                price = oracle.estimated_query_ios(query)
                assert entry["model_ios"] == round(price, 2)
                assert entry["observed_cold_ios"] == oracle.query_with_stats(
                    query, clear_cache=True).total_ios


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kinds", ORDERS, ids="-".join)
def test_a_suite_naming_both_trees_builds_one_per_replica(kinds, backend,
                                                          tmp_path):
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=41, backend=backend,
                         data_dir=str(tmp_path))
    try:
        engine.register_sharded_dataset(
            "d", POINTS, num_shards=2, replicas=2, kinds=list(kinds))
        assert_layout(engine, kinds)
        engine.rebalance("d")                       # a re-split, no write
        assert engine.catalog.sharded("d").generation == 1
        assert_layout(engine, kinds)
        if backend == "file":
            assert sorted(os.path.basename(store.backend.path)
                          for store in engine.catalog.stores("d")) \
                == sorted(name for name in os.listdir(tmp_path)
                          if name.endswith(".blocks"))
    finally:
        engine.close()


def test_after_a_write_both_names_answer_the_live_points():
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=41)
    try:
        engine.register_dataset("d", POINTS,
                                kinds=["partition_tree", "dynamic"])
        engine.insert("d", (0.0, -5.0))
        replica = engine.catalog.dataset("d")
        query = QUERIES[0]
        live = np.vstack([POINTS, [(0.0, -5.0)]])
        truth = multiset(live[query.below_many(live)])
        for name in ("dynamic", "partition_tree"):
            assert multiset(replica.run_query(name, query)[0]) == truth
        assert engine.query("d", query).index_name == "dynamic"
    finally:
        engine.close()


def test_a_late_partition_tree_build_names_the_held_dynamic_tree():
    """The resolution is the replica's whole suite's: a ``partition_tree``
    built by a call of its own beside a held dynamic tree names it, so
    the parent's replica, its ``Dataset.rebuild``, a worker built from
    the flat suite and a re-split all hold one tree on the same blocks
    (1 024 points, B = 32, seed 3, one shard: two trees, 98 blocks
    against 65, before aliases were resolved over held builds)."""
    kinds = ["dynamic", "full_scan", "partition_tree"]
    engine = QueryEngine(block_size=32, seed=3)
    try:
        engine.register_sharded_dataset("d", uniform_points(1024, seed=3),
                                        num_shards=1,
                                        kinds=["dynamic", "full_scan"])
        records = engine.catalog.build_sharded_index("d", "partition_tree")
        assert records == []
        sharded = engine.catalog.sharded("d")
        sharded.check_invariants()
        [replica] = sharded.shards[0].replicas
        assert_one_tree(replica, kinds)
        blocks = replica.store.num_blocks
        worker = ShardWorker(replica.name, replica.points, sharded.recipe,
                             sharded.suite_builds, []).dataset
        assert_one_tree(worker, kinds)
        assert worker.store.num_blocks == blocks
        replica.rebuild()
        assert_one_tree(replica, kinds)
        assert replica.store.num_blocks == blocks
        engine.rebalance("d")
        [resplit] = engine.catalog.sharded("d").shards[0].replicas
        assert_one_tree(resplit, kinds)
        assert resplit.store.num_blocks == blocks
        engine.catalog.sharded("d").check_invariants()
        # An unsharded name's build returns the record of the tree it
        # names.
        engine.register_dataset("u", POINTS, kinds=["dynamic"])
        record = engine.catalog.build_index("u", "partition_tree")
        assert record is engine.catalog.dataset("u").build_records["dynamic"]
        assert_one_tree(engine.catalog.dataset("u"),
                        ["dynamic", "partition_tree"])
    finally:
        engine.close()


def build(kind, index_name=None, **params):
    return {"kind": kind, "index_name": index_name or kind,
            "params": params}


@pytest.mark.parametrize("builds, runs, aliases", [
    # Equal tree parameters: one tree, whichever comes first.
    ([build("partition_tree"), build("dynamic")],
     [1], {"partition_tree": "dynamic"}),
    # Other tree parameters: two trees.
    ([build("dynamic"), build("partition_tree", max_fanout=4)], [0, 1], {}),
    # Each static tree names the first dynamic index of its parameters.
    ([build("dynamic", "d4", leaf_capacity=4), build("dynamic"),
      build("partition_tree", "p4", leaf_capacity=4),
      build("partition_tree")],
     [0, 1], {"p4": "d4", "partition_tree": "dynamic"}),
    # No dynamic index: every build runs.
    ([build("partition_tree"), build("full_scan")], [0, 1], {}),
])
def test_the_resolution(builds, runs, aliases):
    ran, named = one_tree_per_replica(builds, {})
    assert ran == [builds[position] for position in runs]
    assert named == aliases


def test_the_resolution_reads_the_held_dynamic_trees():
    """A held dynamic tree names a later static one of its parameters,
    before any dynamic build of the call; a held static tree names
    nothing."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=41)
    try:
        engine.register_dataset("d", POINTS[:200],
                                kinds=["partition_tree", "dynamic"])
        engine.catalog.build_index("d", "dynamic", "d4", leaf_capacity=4)
        held = engine.catalog.dataset("d").build_records
        builds = [build("dynamic", "again"), build("partition_tree", "p"),
                  build("partition_tree", "p4", leaf_capacity=4),
                  build("partition_tree", "p8", leaf_capacity=8)]
        ran, named = one_tree_per_replica(builds, held)
        assert ran == [builds[0], builds[3]]
        assert named == {"p": "dynamic", "p4": "d4"}
    finally:
        engine.close()
