"""The result cache: a write evicts exactly the answers that hold its
point, a hit is what a fresh query returns, and two bounds — answers and
bytes — hold."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine.metrics import EngineStats
from repro.engine.obs import render_prometheus
from repro.engine.result_cache import (RESULT_CACHE_BYTES,
                                       RESULT_CACHE_ENTRIES, ResultCache)
from repro.geometry.primitives import EPS
from repro.workloads import halfspace_queries_with_selectivity, uniform_points


def evictions(engine, cause):
    """``engine_result_cache_evictions_total`` of dataset ``d`` for one
    cause, as scraped from ``/metrics``."""
    prefix = ('engine_result_cache_evictions_total{dataset="d",cause="%s"} '
              % cause)
    lines = [line for line in render_prometheus(
        engine.stats.registry).splitlines() if line.startswith(prefix)]
    return float(lines[0].split(" ")[-1]) if lines else 0.0


def same_as_fresh(engine, query):
    """A hit on ``query`` carries the index name and the answer bytes of
    a ``clear_cache=True`` query."""
    hit = engine.query("d", query)
    fresh = engine.query("d", query, clear_cache=True)
    assert hit.from_result_cache and not fresh.from_result_cache
    assert (hit.index_name, hit.points.tobytes()) \
        == (fresh.index_name, fresh.points.tobytes()), query


def holds(answer, point):
    """Does the answer matrix have a row equal to ``point``?"""
    return bool((answer == np.asarray(point)).all(axis=1).any())


@pytest.fixture
def written():
    """A one-shard dataset ``d`` whose shard was written once, so no
    later write is a first."""
    engine = QueryEngine(block_size=16, seed=5)
    engine.register_dataset("d", uniform_points(512, seed=6),
                            kinds=["dynamic", "full_scan"])
    engine.insert("d", (0.0, 9.0))
    yield engine
    engine.close()


# ----------------------------------------------------------------------
# the cache alone
# ----------------------------------------------------------------------
def answer(rows, dimension=2):
    matrix = np.zeros((rows, dimension))
    matrix.setflags(write=False)
    return ("full_scan", matrix)


def key(dataset, number):
    """A cache key: ``dataset`` and a constraint told apart by
    ``number``."""
    return (dataset, LinearConstraint(coeffs=(0.0,), offset=float(number)))


def test_a_flush_drops_the_named_dataset_only():
    cache = ResultCache(EngineStats())
    for name, number in (("a", 1), ("a", 2), ("b", 1)):
        cache.put(key(name, number), answer(1), 0)
    assert cache.evict_where("a", None) == 2
    assert cache.get(key("b", 1)) is not None
    assert cache.get(key("a", 1)) is None and cache.get(key("a", 2)) is None
    assert cache.generation("a") == 1 and cache.generation("b") == 0
    cache.check_invariants(["a", "b"])


def test_an_answer_past_the_byte_bound_is_served_and_not_kept():
    cache = ResultCache(EngineStats())
    rows = RESULT_CACHE_BYTES // 16
    cache.put(key("d", 1), answer(rows), 0)
    assert cache.size() == (1, RESULT_CACHE_BYTES)
    cache.put(key("d", 2), answer(rows + 1), 0)
    assert cache.get(key("d", 2)) is None
    assert cache.size() == (1, RESULT_CACHE_BYTES)


def test_the_lru_evicts_by_bytes_and_by_count():
    stats = EngineStats()
    cache = ResultCache(stats)
    third = RESULT_CACHE_BYTES // 3 // 16
    for number in range(3):
        cache.put(key("d", number), answer(third), 0)
    cache.get(key("d", 0))                # LRU order: 1, 2, 0
    cache.put(key("d", 3), answer(third), 0)
    assert cache.get(key("d", 1)) is None
    assert [cache.get(key("d", number)) is not None for number in (0, 2, 3)] \
        == [True, True, True]
    assert cache.size() == (3, 3 * third * 16)
    for number in range(4, 4 + RESULT_CACHE_ENTRIES):
        cache.put(key("d", number), answer(1), 0)
    assert cache.size() == (RESULT_CACHE_ENTRIES, RESULT_CACHE_ENTRIES * 16)
    cache.check_invariants(["d"])
    assert stats.summary()["result_cache"]["evictions"]["capacity"] == 4


def test_the_checker_catches_drifted_books():
    cache = ResultCache(EngineStats())
    cache.put(key("d", 1), answer(4), 0)
    with pytest.raises(AssertionError, match="not registered"):
        cache.check_invariants(["e"])
    cache._bytes += 8
    with pytest.raises(AssertionError, match="books"):
        cache.check_invariants(["d"])
    cache._bytes -= 8
    regions = cache._regions["d"]
    slot = cache._entries[key("d", 1)][2]
    regions.discard(key("d", 1), slot)
    with pytest.raises(AssertionError, match="regions"):
        cache.check_invariants(["d"])
    assert regions.add(key("d", 1)) == slot
    cache.check_invariants(["d"])
    regions.table[regions.free[0], -1] = 0.0     # a free slot admits points
    with pytest.raises(AssertionError, match="regions"):
        cache.check_invariants(["d"])


def test_threads_sharing_the_cache_keep_its_books():
    """Puts, hits and evictions from more threads than cores, switching
    as often as the interpreter allows: no byte is lost or counted
    twice."""
    stats = EngineStats()
    cache = ResultCache(stats)
    third = RESULT_CACHE_BYTES // 3 // 16
    barrier = threading.Barrier(8, timeout=30)

    def hammer(seed):
        rng = np.random.default_rng(seed)
        barrier.wait()
        for step in range(400):
            name = "d%d" % rng.integers(2)
            move = rng.integers(12)
            if move == 0:
                cache.evict_where(name, None)
            elif move == 1:
                cache.evict_where(name, (0.0, float(rng.integers(40))))
            elif move < 5:
                cache.put(key(name, rng.integers(40)),
                          answer(third if move == 2 else 1 + step % 7),
                          cache.generation(name))
            else:
                cache.get(key(name, rng.integers(40)))

    threads = [threading.Thread(target=hammer, args=(seed,))
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    cache.check_invariants(["d0", "d1"])
    assert stats.summary()["result_cache"]["evictions"]["capacity"] > 0


# ----------------------------------------------------------------------
# evictions by cause
# ----------------------------------------------------------------------
def test_evictions_are_counted_by_cause(written):
    engine = written
    low = LinearConstraint(coeffs=(0.0,), offset=-0.5)
    engine.query("d", low)
    engine.insert("d", (0.25, 0.75))             # above the plane
    assert evictions(engine, "write") == 0
    same_as_fresh(engine, low)
    engine.insert("d", (0.25, -0.75))            # on its side
    assert evictions(engine, "write") == 1
    assert not engine.query("d", low).from_result_cache
    engine.delete("d", (0.25, 0.75))
    assert evictions(engine, "write") == 1
    same_as_fresh(engine, low)
    engine.delete("d", (0.25, -0.75))
    assert evictions(engine, "write") == 2
    assert evictions(engine, "flush") == 0
    assert engine.summary()["result_cache"]["evictions"] \
        == {"write": 2, "flush": 0, "capacity": 0}


def test_a_write_that_moves_an_estimate_leaves_no_stale_plan():
    """``halfplane2d`` is priced from the expected output T, which a write
    moves even when the written point is in no cached answer: 97 deletes
    outside a 1 % constraint's region flip its plan from the partition
    tree to ``halfplane2d``.  Such a write flushes the dataset, so every
    resident answer is, index name and bytes, what a fresh query of it
    returns after every write."""
    points = uniform_points(1024, seed=4)
    engine = QueryEngine(block_size=16, seed=3, sample_size=64)
    engine.register_dataset("d", points)
    assert not engine.catalog.dataset("d").exactly_priced
    query = halfspace_queries_with_selectivity(points, 60, 0.01, seed=6)[23]
    first = engine.explain("d", query).index_name
    core = engine.executor.core
    for point in points[~query.below_many(points)][:97]:
        engine.query("d", query)
        assert engine.delete("d", tuple(point)).applied
        for (name, cached), (index_name, matrix) in core.check_invariants():
            fresh = engine.query(name, cached, clear_cache=True)
            assert (fresh.index_name, fresh.points.tobytes()) \
                == (index_name, matrix.tobytes())
    assert engine.explain("d", query).index_name != first
    engine.close()


def test_a_first_write_a_rebuild_and_a_resplit_flush():
    engine = QueryEngine(block_size=16, seed=7)
    engine.register_sharded_dataset("d", uniform_points(256, seed=8),
                                    num_shards=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    low = LinearConstraint(coeffs=(0.0,), offset=-5.0)
    engine.query("d", low)
    engine.insert("d", (0.0, 9.0))               # the shard's first write
    assert evictions(engine, "flush") == 1
    assert not engine.query("d", low).from_result_cache
    sharded = engine.catalog.sharded("d")
    tree = sharded.shards[
        sharded.router.shard_of((0.0, 9.0))].replicas[0].overlay
    before = tree.rebuilds
    while tree.rebuilds == before:
        engine.query("d", low)
        engine.insert("d", (0.0, 9.0))
        assert engine.query("d", low).from_result_cache \
            == (tree.rebuilds == before)
    assert evictions(engine, "flush") == 2 and evictions(engine, "write") == 0
    engine.rebalance("d")
    assert evictions(engine, "flush") == 3
    assert not engine.query("d", low).from_result_cache
    engine.close()


@pytest.mark.parametrize("sharded", [False, True])
def test_a_late_build_flushes_the_dataset(sharded):
    """A kind built after registration can be the planner's next pick:
    the answers cached before it are dropped, and the next query is the
    answer a fresh one gives."""
    engine = QueryEngine(block_size=16, seed=3)
    engine.register_dataset("d", uniform_points(4096, seed=2),
                            kinds=["full_scan"])
    query = LinearConstraint((0.2,), -0.9)
    assert engine.query("d", query).index_name == "full_scan"
    assert engine.query("d", query).from_result_cache
    build = engine.catalog.build_sharded_index if sharded \
        else engine.catalog.build_index
    build("d", "partition_tree")
    assert evictions(engine, "flush") == 1
    assert not engine.query("d", query).from_result_cache
    same_as_fresh(engine, query)
    assert engine.query("d", query).index_name == "partition_tree"
    engine.close()


def test_any_write_evicts_a_conjunction_whose_plan_it_can_move():
    """Two shards, one written: inserts into it outside a conjunction
    raise the estimate of one conjunct until it no longer leads, and the
    unwritten shard, priced by the other, trades ``dynamic`` for
    ``full_scan``.  Every answer on the way is a fresh query's."""
    engine = QueryEngine(block_size=16, seed=5, sample_size=4096)
    engine.register_sharded_dataset("d", uniform_points(512, seed=6),
                                    num_shards=2, sharding="range",
                                    kinds=["dynamic", "full_scan"])
    both = ConstraintConjunction.of(
        LinearConstraint(coeffs=(3.0,), offset=0.2),
        LinearConstraint(coeffs=(-2.0,), offset=-0.5))
    outside = (-0.9, 0.0)                        # under the second only
    assert not both.to_polytope().contains(outside)
    engine.insert("d", outside)                  # shard 0's first write
    planned = engine.explain("d", both).index_name
    assert planned == "dynamic"
    engine.query("d", both)
    for step in range(200):
        engine.insert("d", outside)
        assert evictions(engine, "write") + evictions(engine, "flush") \
            == step + 1                          # a flush when it rebuilt
        answer = engine.query("d", both)
        assert not answer.from_result_cache
        same_as_fresh(engine, both)
        if engine.explain("d", both).index_name != planned:
            break
    assert answer.index_name == "mixed(dynamic+full_scan)"
    engine.close()


# ----------------------------------------------------------------------
# races
# ----------------------------------------------------------------------
@pytest.mark.parametrize("point", [(0.25, -0.75), (0.25, 0.75)],
                         ids=["covering", "non_covering"])
def test_a_query_that_raced_a_write_is_not_cached(written, monkeypatch,
                                                  point):
    """The write lands after the query read its shards, before its answer
    is cached: the answer is not kept, whether or not it holds the
    point, and the next one is."""
    engine = written
    low = LinearConstraint(coeffs=(0.0,), offset=-0.5)
    core = engine.executor.core
    merge = core._merge

    def racing(*args):
        monkeypatch.setattr(core, "_merge", merge)
        engine.insert("d", point)
        return merge(*args)

    monkeypatch.setattr(core, "_merge", racing)
    raced = engine.query("d", low)
    assert not holds(raced.points, point)
    after = engine.query("d", low)
    assert not after.from_result_cache
    assert holds(after.points, point) == low.below(point)
    same_as_fresh(engine, low)


# ----------------------------------------------------------------------
# exactness
# ----------------------------------------------------------------------
GRID = [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]
#: Grid values keep every fold exact; other floats round, which the fold
#: must do as ``below`` does.
VALUES = st.sampled_from(GRID) | st.floats(-1, 1)


def vectors(length):
    return st.lists(VALUES, min_size=length, max_size=length).map(tuple)


@st.composite
def constraints(draw, dimension):
    return LinearConstraint(coeffs=draw(vectors(dimension - 1)),
                            offset=draw(VALUES))


@st.composite
def queries(draw, dimension):
    """A constraint, or a conjunction of one with others — some lifted
    far enough to admit every point near the first one's plane."""
    first = draw(constraints(dimension))
    if draw(st.booleans()):
        return first
    others = draw(st.lists(st.tuples(constraints(dimension), st.booleans()),
                           min_size=1, max_size=2))
    return ConstraintConjunction.of(first, *(
        LinearConstraint(other.coeffs, other.offset + 5.0) if lifted
        else other for other, lifted in others))


def boundary_point(draw, query, dimension):
    """A point on one of the query's boundaries — the plane itself, or
    where ``below`` (a constraint's, or a conjunct's) turns, ``EPS``
    above it — moved a few ulps either way."""
    constraint = draw(st.sampled_from(query.constraints))
    head = draw(vectors(dimension - 1))
    height = sum(c * x for c, x in zip(constraint.coeffs, head)) \
        + constraint.offset
    if draw(st.booleans()):
        height += EPS
    ulps = draw(st.integers(-3, 3))
    for __ in range(abs(ulps)):
        height = math.nextafter(height, math.copysign(math.inf, ulps))
    return head + (height,)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dimension=st.sampled_from([2, 3, 4]))
def test_the_fold_is_each_querys_own_test(data, dimension):
    """The one fold over the stacked constraints gives, query by query,
    the verdict of the constraint's scalar ``below`` on boundary points;
    every conjunction goes."""
    asked = data.draw(st.lists(queries(dimension), min_size=1, max_size=8))
    point = boundary_point(data.draw, data.draw(st.sampled_from(asked)),
                           dimension)
    cache = ResultCache(EngineStats())
    for query in asked:
        cache.put(("d", query), answer(1, dimension), 0)
    cache.evict_where("d", point)
    assert {query for (__, query), __ in cache.check_invariants(["d"])} \
        == {query for query in asked
            if isinstance(query, LinearConstraint) and not query.below(point)}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dimension=st.sampled_from([2, 3]))
def test_a_write_evicts_exactly_the_answers_that_hold_its_point(
        data, dimension):
    """After each insert or delete of a point on (or an ulp off) a cached
    boundary, the resident answers are exactly the constraints' that do
    not hold the point — read off the answers themselves: a fresh one
    after an insert, the cached one before a delete — and every hit is
    what a fresh query returns."""
    engine = QueryEngine(block_size=8, seed=11)
    engine.register_dataset(
        "d", np.random.default_rng(dimension).uniform(-1, 1, (96, dimension)),
        kinds=["dynamic", "full_scan"])
    core = engine.executor.core
    tree = engine.catalog.dataset("d").overlay
    engine.insert("d", (0.0,) * dimension)       # the shard's first write
    asked = data.draw(st.lists(queries(dimension), min_size=1, max_size=6))
    inserted = []
    try:
        for __ in range(data.draw(st.integers(1, 8))):
            for query in asked:
                engine.query("d", query)
            before = dict(core.check_invariants())
            if inserted and data.draw(st.booleans()):
                op, point = "delete", data.draw(st.sampled_from(inserted))
                inserted.remove(point)
            else:
                op, point = "insert", boundary_point(
                    data.draw, data.draw(st.sampled_from(asked)), dimension)
                inserted.append(point)
            rebuilds = tree.rebuilds
            assert getattr(engine, op)("d", point).applied
            resident = dict(core.check_invariants())
            if tree.rebuilds != rebuilds:
                assert not resident
                continue
            kept = set()
            for key, (index_name, matrix) in before.items():
                fresh = engine.query(*key, clear_cache=True)
                if isinstance(key[1], LinearConstraint) and not holds(fresh.points if op == "insert" else matrix,
                             point):
                    kept.add(key)
            assert set(resident) == kept, (op, point)
            for key in kept:
                fresh = engine.query(*key, clear_cache=True)
                assert resident[key] == (fresh.index_name, resident[key][1])
                assert resident[key][1].tobytes() == fresh.points.tobytes()
    finally:
        engine.close()
