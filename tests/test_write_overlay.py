"""Every kind takes writes: one write overlay per replica.

A replica's inserts and deletes land in its
:class:`~repro.engine.overlay.WriteOverlay` — an insert buffer and a
tombstone multiset over the rows its suite was built from — which
``Dataset.run_query`` applies to whichever index answers, and which a
rebuild folds into a fresh suite over the live points.  So a default
suite takes writes, every kind answers the live multiset and stays
routable, a rebuild frees what it replaces, and a shard worker replaying
the same writes rebuilds at the same writes with the same I/Os.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine.catalog import INDEX_KINDS
from repro.engine.cluster.worker import ShardWorker
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from conftest import rows

BLOCK_SIZE = 16


@pytest.fixture(scope="module")
def points2d():
    return uniform_points(512, seed=21)


def multiset(points):
    return sorted(map(tuple, np.asarray(points, dtype=float).tolist()))


def write_stream(engine, name, points, rng, count):
    """``count`` writes: fresh inserts, duplicates of live points and
    deletes of build points, in a seeded mix; returns the live list."""
    live = [tuple(p) for p in points.tolist()]
    dimension = points.shape[1]
    for step in range(count):
        roll = rng.random()
        if roll < 0.2 and live:
            point = live[rng.integers(len(live))]
            assert engine.delete(name, point).applied
            live.remove(point)
            continue
        point = live[rng.integers(len(live))] if roll < 0.35 and live \
            else tuple(rng.uniform(-1.5, 1.5, dimension).tolist())
        assert engine.insert(name, point).applied
        live.append(tuple(map(float, point)))
    return live


@pytest.mark.parametrize("dimension", [2, 3])
def test_a_default_suite_takes_inserts_and_deletes(dimension):
    points = uniform_points(300, dimension=dimension, seed=dimension)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=3)
    try:
        engine.register_dataset("d", points)
        replica = engine.catalog.dataset("d")
        assert "dynamic" not in replica.indexes
        live = write_stream(engine, "d", points,
                            np.random.default_rng(dimension), 200)
        assert replica.overlay.rebuilds >= 1
        engine.catalog.sharded("d").check_invariants()
        matrix = np.asarray(live)
        for query in halfspace_queries_with_selectivity(
                matrix, 4, 0.1, seed=5):
            answer = engine.query("d", query, clear_cache=True)
            assert multiset(answer.points) == \
                multiset(matrix[query.below_many(matrix)])
    finally:
        engine.close()


def test_a_static_suite_takes_writes(points2d):
    """A two-shard suite without ``dynamic`` takes inserts and deletes on
    every replica, and answers the live points."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    try:
        engine.register_sharded_dataset("frozen_sh", points2d, num_shards=2,
                                        replicas=2,
                                        kinds=["partition_tree", "full_scan"])
        inserted = engine.insert("frozen_sh", (0.0, -5.0))
        assert inserted.applied and inserted.replicas == 2
        deleted = engine.delete("frozen_sh", tuple(points2d[0]))
        assert deleted.applied
        assert not engine.delete("frozen_sh", (9.0, 9.0)).applied
        live = np.vstack([points2d[1:], [(0.0, -5.0)]])
        everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
        answer = engine.query("frozen_sh", everything, clear_cache=True)
        assert multiset(answer.points) == multiset(live)
        engine.catalog.sharded("frozen_sh").check_invariants()
    finally:
        engine.close()


@pytest.mark.parametrize("dimension", [2, 3])
def test_every_kind_answers_the_live_multiset_and_stays_routable(dimension):
    """Every kind the catalog builds in the dimension, after writes that
    buffer, tombstone and duplicate: each answers the live multiset
    through ``run_query`` (a constraint and a conjunction), the planner
    prices every one, and a suite of the kind alone routes to it."""
    kinds = [name for name, kind in INDEX_KINDS.items()
             if kind.supports(dimension)]
    points = uniform_points(160, dimension=dimension, seed=11)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=4)
    try:
        engine.register_dataset("all", points, kinds=kinds)
        live = write_stream(engine, "all", points,
                            np.random.default_rng(7), 30)
        replica = engine.catalog.dataset("all")
        assert replica.overlay._buffer_points and replica.overlay._tombstones
        matrix = np.asarray(live)
        queries = halfspace_queries_with_selectivity(matrix, 3, 0.3, seed=2)
        both = ConstraintConjunction.of(queries[0], queries[1])
        for query, truth in (
                (queries[2], query_mask(queries[2:], matrix)),
                (both, query_mask(both.constraints, matrix))):
            expected = multiset(matrix[truth])
            for name in kinds:
                assert multiset(replica.run_query(name, query)[0]) \
                    == expected, name
            plan = engine.explain("all", query).shard_plans[0][1]
            assert sorted(estimate.index_name
                          for estimate in plan.estimates) \
                == sorted(replica.indexes)
        for kind in kinds:
            engine.register_dataset(kind, points, kinds=[kind])
            write_stream(engine, kind, points, np.random.default_rng(7), 30)
            answer = engine.query(kind, queries[2])
            assert answer.index_name == kind
            assert multiset(answer.points) == \
                multiset(matrix[queries[2].below_many(matrix)])
    finally:
        engine.close()


def query_mask(constraints, matrix):
    return np.logical_and.reduce([c.below_many(matrix) for c in constraints])


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_a_rebuild_frees_what_it_replaces(backend, tmp_path):
    """2 048 uniform points, B = 32, 2 048 inserts: three rebuilds, after
    which the store holds what a fresh build over the rebuilt rows holds
    plus the overlay's own buffer blocks (the old suites are freed)."""
    points = uniform_points(2048, seed=8)
    engine = QueryEngine(block_size=32, seed=2, backend=backend,
                         data_dir=str(tmp_path / "d"))
    fresh = QueryEngine(block_size=32, seed=2, backend=backend,
                        data_dir=str(tmp_path / "fresh"))
    try:
        engine.register_dataset("d", points, kinds=["dynamic"])
        for point in uniform_points(2048, seed=9):
            engine.insert("d", tuple(point))
        replica = engine.catalog.dataset("d")
        overlay = replica.overlay
        assert overlay.rebuilds >= 3
        fresh.register_dataset("d", overlay.rows, kinds=["dynamic"])
        built = fresh.catalog.dataset("d").store.num_blocks
        own = overlay.buffer_blocks + overlay._tombstone_array.num_blocks
        assert replica.store.num_blocks == built + own
        replica.store.check_invariants()
    finally:
        engine.close()
        fresh.close()


def test_a_worker_replaying_the_same_writes_rebuilds_in_step():
    """A shard worker rebuilt from the parent replica's build points and
    fed the same writes rebuilds at the same writes, and then answers
    with the parent's rows and I/Os; a process-mode engine answers every
    query with the in-process engine's rows and I/Os across the
    rebuilds."""
    points = uniform_points(400, seed=12)
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=6)
    try:
        engine.register_sharded_dataset(
            "sh", points, num_shards=2,
            kinds=["halfplane2d", "partition_tree", "full_scan"])
        sharded = engine.catalog.sharded("sh")
        shard = sharded.shards[0]
        parent = shard.replicas[0]
        recipe = dataclasses.replace(sharded.recipe, backend="memory")
        worker = ShardWorker(parent.name, parent.points, recipe,
                             sharded.suite_builds, [])
        rng = np.random.default_rng(3)
        queries = halfspace_queries_with_selectivity(points, 3, 0.2, seed=4)
        seq = 0
        while parent.overlay.rebuilds < 2:
            point = (float(rng.uniform(-1.0, float(shard.highs[0]))),
                     float(rng.uniform(-1.0, 1.0)))
            if sharded.router.shard_of(point) != shard.shard_id:
                continue
            assert engine.insert("sh", point).applied
            seq += 1
            worker.handle({"op": "insert", "seq": seq, "point": list(point)})
            assert worker.dataset.overlay.rebuilds == parent.overlay.rebuilds
        for query in queries:
            for name in parent.indexes:
                mine, mine_ios, __ = parent.run_query(name, query,
                                                      clear_cache=True)
                theirs, their_ios, __ = worker.dataset.run_query(
                    name, query, clear_cache=True)
                assert mine.tobytes() == theirs.tobytes()
                assert (mine_ios.reads, mine_ios.cache_hits) \
                    == (their_ios.reads, their_ios.cache_hits)
    finally:
        engine.close()
    answers = {}
    for workers in ("inprocess", "process"):
        engine = QueryEngine(block_size=BLOCK_SIZE, seed=6, workers=workers)
        try:
            engine.register_sharded_dataset(
                "sh", points, num_shards=2,
                kinds=["halfplane2d", "partition_tree", "full_scan"])
            rng = np.random.default_rng(3)
            seen = []
            for step in range(260):
                point = tuple(rng.uniform(-1.0, 1.0, 2).tolist())
                engine.insert("sh", point)
                if step % 20 == 19:
                    for query in queries:
                        answer = engine.query("sh", query, clear_cache=True)
                        seen.append((answer.index_name, answer.total_ios,
                                     multiset(answer.points)))
            assert sum(shard.replicas[0].overlay.rebuilds for shard in
                       engine.catalog.sharded("sh").shards) >= 2
            answers[workers] = seen
        finally:
            engine.close()
    assert answers["process"] == answers["inprocess"]


def test_the_overlay_hides_one_copy_per_tombstone_on_every_kind():
    """Duplicated build points on the full scan and the planar index: a
    delete hides exactly one copy, whichever index answers."""
    base = uniform_points(60, seed=3)
    points = np.vstack([base, base[:5], base[:5]])
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=1)
    try:
        engine.register_dataset("d", points,
                                kinds=["halfplane2d", "full_scan",
                                       "partition_tree"])
        replica = engine.catalog.dataset("d")
        assert engine.delete("d", tuple(base[0])).applied
        everything = LinearConstraint(coeffs=(0.0,), offset=1e9)
        for name in replica.indexes:
            reported = rows(replica.run_query(name, everything)[0])
            assert reported.count(tuple(base[0])) == 2, name
            assert len(reported) == len(points) - 1, name
    finally:
        engine.close()
