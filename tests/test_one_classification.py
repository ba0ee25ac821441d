"""A planned cell-tree query classifies its tree's boxes once.

The planner prices a query's lead constraint on its planning replica
(``estimated_query_ios``: one ``classify_boxes`` call over every node's
box), and the walk of that very constraint object on that very index
reads the price's masks instead of classifying again.  Every other walk
— a conjunction's polytope, another replica, a worker process — misses
and classifies.  Either way the answer, its reads and pool hits, the
pool's recency order and ``last_query`` are the unpriced walk's; the
cell tree's checker holds the remembered masks to a fresh
classification.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryEngine
from repro.core import ConstraintConjunction, PartitionTreeIndex
from repro.geometry.primitives import LinearConstraint
from repro.io.store import BlockStore
from repro.workloads import halfspace_queries_with_selectivity, uniform_points
from test_one_walk import KINDS, make_points, make_queries, replay

POINTS = uniform_points(4096, seed=7)
QUERIES = [query for share in (0.002, 0.01, 0.05)
           for query in halfspace_queries_with_selectivity(
               POINTS, 3, share, seed=int(share * 1000))]


def counted_classifications(monkeypatch):
    """How many times a constraint classifies boxes, from now on."""
    calls = []
    classify = LinearConstraint.classify_boxes

    def counted(self, lowers, uppers):
        calls.append(self)
        return classify(self, lowers, uppers)

    monkeypatch.setattr(LinearConstraint, "classify_boxes", counted)
    return calls


def test_a_planned_query_classifies_its_tree_once(monkeypatch):
    engine = QueryEngine(block_size=32, seed=7, workers="inprocess")
    try:
        engine.register_dataset("d", POINTS,
                                kinds=["partition_tree", "full_scan"])
        calls = counted_classifications(monkeypatch)
        for query in QUERIES:
            del calls[:]
            answer = engine.query("d", query)
            assert answer.index_name == "partition_tree"
            assert not answer.from_result_cache
            assert calls == [query]
            truth = POINTS[query.below_many(POINTS)]
            assert sorted(map(tuple, answer.points.tolist())) \
                == sorted(map(tuple, truth.tolist()))
        engine.catalog.dataset("d").indexes["partition_tree"] \
            .check_invariants()
    finally:
        engine.close()


def served(engine, stream):
    """Each query of ``stream`` cold: its index, answer bytes, reads,
    pool hits and the accounts its shards published."""
    accounts = []
    note = engine.stats.note_account

    def noted(dataset, index, account):
        accounts.append((index, dict(account)))
        note(dataset, index, account)

    engine.stats.note_account = noted
    seen = []
    for query in stream:
        del accounts[:]
        answer = engine.query("d", query, clear_cache=True)
        seen.append((answer.index_name, answer.points.tobytes(),
                     answer.ios.reads, answer.ios.cache_hits,
                     answer.estimated_ios, list(accounts)))
    return seen


@pytest.mark.parametrize("replicas, workers", [(2, "inprocess"),
                                               (1, "process")])
def test_every_replica_and_worker_answers_as_the_planning_replica(
        replicas, workers):
    """The planning replica walks with the price's masks; a second
    replica and a worker process classify again.  Each query, repeated
    and in a conjunction too, comes out the same."""
    stream = QUERIES + QUERIES[:3] + [
        ConstraintConjunction.of(first, second)
        for first, second in zip(QUERIES[:3], QUERIES[6:])]
    outcomes = []
    for shape in ((1, "inprocess"), (replicas, workers)):
        engine = QueryEngine(block_size=32, seed=7, workers=shape[1])
        try:
            engine.register_sharded_dataset(
                "d", POINTS, num_shards=1, replicas=shape[0],
                kinds=["partition_tree", "full_scan"])
            outcomes.append(served(engine, stream))
        finally:
            engine.close()
    planned, other = outcomes
    assert {entry[0] for entry in planned} == {"partition_tree"}
    assert other == planned


def test_the_checker_holds_the_remembered_reach_to_its_region():
    store = BlockStore(block_size=16)
    tree = PartitionTreeIndex(POINTS[:1500], store=store)
    other = PartitionTreeIndex(POINTS[1500:3000], store=store)
    query = QUERIES[4]
    tree.estimated_query_ios(query)
    region, costs, masks = tree._priced
    assert region is query and costs is tree._costs
    tree.check_invariants()

    def fails(record, message):
        tree._priced = record
        with pytest.raises(AssertionError, match=message):
            tree.check_invariants()

    for position in range(3):
        for slot in (0, len(masks[position]) - 1):
            flipped = [mask.copy() for mask in masks]
            flipped[position][slot] ^= True
            for mask in flipped:
                mask.setflags(write=False)
            fails((query, costs, tuple(flipped)), "not its region's")
    fails((query, other._costs, masks), "other tables")
    fails((query, costs, tuple(mask.copy() for mask in masks)), "writeable")
    tree._priced = (query, costs, masks)
    tree.check_invariants()


def test_threads_pricing_while_others_walk_only_miss():
    """Pricing threads replace the remembered reach while walking threads
    (each under the store lock, as the engine walks) read it: every walk
    still answers and accounts as its query does alone, whether it hit
    a record, missed one or read one made by another thread."""
    store = BlockStore(block_size=16, cache_blocks=0)
    tree = PartitionTreeIndex(POINTS, store=store)
    truth = {}
    for query in QUERIES:
        answer = tree.query(query)
        truth[id(query)] = (answer.tobytes(), dict(tree.last_query))
    stop = threading.Event()
    failures = []

    def price(offset):
        number = offset
        while not stop.is_set():
            tree.estimated_query_ios(QUERIES[number % len(QUERIES)])
            number += 1

    def walk(offset):
        for number in range(offset, offset + 120):
            query = QUERIES[number % len(QUERIES)]
            tree.estimated_query_ios(query)
            with store.measured():
                answer = tree.query(query)
                account = dict(tree.last_query)
            if (answer.tobytes(), account) != truth[id(query)]:
                failures.append(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pricers = [threading.Thread(target=price, args=(number,))
                   for number in range(4)]
        walkers = [threading.Thread(target=walk, args=(number,))
                   for number in range(3)]
        for thread in pricers + walkers:
            thread.start()
        for thread in walkers:
            thread.join(timeout=60)
        stop.set()
        for thread in pricers:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
    assert not any(thread.is_alive() for thread in pricers + walkers)
    assert failures == []
    tree.check_invariants()


class PricedBetweenReads(PartitionTreeIndex):
    """A tree on which another pricing lands right after every read of
    the remembered reach: a walk that read the record twice would take
    the other constraint's masks."""

    rival = None

    @property
    def _priced(self):
        record = self.__dict__["_priced"]
        if self.rival is not None:
            self.__dict__["_priced"] = self.rival
        return record

    @_priced.setter
    def _priced(self, record):
        self.__dict__["_priced"] = record


def test_a_walk_reads_the_remembered_reach_once():
    store = BlockStore(block_size=16)
    tree = PricedBetweenReads(POINTS, store=store)
    query, other = QUERIES[2], QUERIES[7]
    expected = tree.query(query).tobytes()
    tree.estimated_query_ios(other)
    tree.rival = tree.__dict__["_priced"]
    tree.estimated_query_ios(query)
    assert tree.query(query).tobytes() == expected


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       shape=st.sampled_from(["uniform", "diagonal", "collinear",
                              "duplicates"]),
       pool=st.sampled_from([0, 1, 4]), block_size=st.sampled_from([4, 8]),
       wide=st.booleans(),
       count=st.one_of(st.integers(1, 40), st.integers(120, 240)),
       dimension=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
def test_a_priced_walk_is_the_unpriced_walk(kind, shape, pool, block_size,
                                            wide, count, dimension, seed):
    """On every box-tree kind, a run of queries each priced just before
    its walk answers, charges, leaves the pool and accounts as the same
    run unpriced; a polytope walked after its lead's price classifies
    anew."""
    build, (lowest, highest) = KINDS[kind]
    dimension = min(max(dimension, lowest), highest)
    rng = np.random.default_rng(seed)
    points = make_points(shape, count, dimension, rng)
    regions = make_queries(points, shape, rng)
    store = BlockStore(block_size=block_size, cache_blocks=pool)
    try:
        index = build(points, store, wide)
        unpriced = replay(index, regions)
        query = index.query

        def priced_query(region):
            index.estimated_query_ios(region if isinstance(
                region, LinearConstraint) else regions[0])
            return query(region)

        index.query = priced_query
        assert replay(index, regions) == unpriced
        index.check_invariants()
    finally:
        store.close()
