"""Tests for constraint conjunctions (polytope queries) and the partition
tree under its replica's write overlay."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import (
    ConstraintConjunction,
    HalfplaneIndex2D,
    LinearConstraint,
    PartitionTreeIndex,
    query_conjunction,
)
from repro.baselines import FullScanIndex
from repro.engine import overlay as overlay_module
from repro.engine.overlay import WriteOverlay
from repro.io.store import BlockStore
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from conftest import assert_answer, brute_force_halfspace, rows
from geometry_oracle import filter_points
from overlaid import OverlaidTree
from scan_oracle import read_all, scalar_kernels


class TestConstraintConjunction:
    def build_conjunction(self):
        # A wedge: y <= 0.8 x + 0.5  AND  y <= -0.6 x + 0.4  AND  x >= -0.5.
        return ConstraintConjunction.of(
            LinearConstraint((0.8,), 0.5),
            LinearConstraint((-0.6,), 0.4),
        ).and_halfspace((-1.0, 0.0), 0.5)

    def test_requires_at_least_one_constraint(self):
        with pytest.raises(ValueError):
            ConstraintConjunction.of()

    def test_requires_matching_dimensions(self):
        with pytest.raises(ValueError):
            ConstraintConjunction.of(LinearConstraint((1.0,), 0.0),
                                     LinearConstraint((1.0, 2.0), 0.0))

    def test_satisfied_by_matches_manual_evaluation(self):
        polytope = self.build_conjunction().to_polytope()
        assert polytope.contains((0.0, 0.0))
        assert not polytope.contains((0.0, 0.45))    # violates 2nd constraint
        assert not polytope.contains((-0.8, -0.5))   # violates x >= -0.5

    def test_polytope_agrees_with_satisfied_by(self):
        """The polytope holds a point iff every conjunct's ``below`` and
        every raw halfspace's ``contains`` do: its facets are they."""
        conjunction = self.build_conjunction()
        polytope = conjunction.to_polytope()
        assert polytope.halfspaces[:2] == conjunction.constraints
        rng = np.random.default_rng(1)
        for point in rng.uniform(-1, 1, size=(200, 2)):
            assert polytope.contains(point) == (
                all(c.below(point) for c in conjunction.constraints)
                and all(h.contains(point)
                        for h in conjunction.extra_halfspaces))

    def test_query_on_partition_tree_matches_filter(self):
        points = uniform_points(1500, seed=2)
        tree = PartitionTreeIndex(points, block_size=32)
        conjunction = self.build_conjunction()
        expected = {tuple(p) for p in filter_points(conjunction, points)}
        assert {tuple(p) for p in query_conjunction(tree, conjunction)} == expected

    def test_query_on_non_tree_index_matches_filter(self):
        points = uniform_points(1200, seed=3)
        index = HalfplaneIndex2D(points, block_size=32, seed=4)
        conjunction = self.build_conjunction()
        expected = {tuple(p) for p in filter_points(conjunction, points)}
        assert {tuple(p) for p in query_conjunction(index, conjunction)} == expected

    def test_query_with_stats_counts_ios(self):
        points = uniform_points(1000, seed=5)
        tree = PartitionTreeIndex(points, block_size=32)
        with tree.store.measured(clear_cache=True) as ios:
            answer = query_conjunction(tree, self.build_conjunction())
        assert ios.total > 0
        assert len(answer) == len(filter_points(self.build_conjunction(),
                                                points))

    def test_dimension_mismatch_rejected(self):
        points = uniform_points(200, dimension=3, seed=6)
        tree = PartitionTreeIndex(points, block_size=32)
        with pytest.raises(ValueError):
            query_conjunction(tree, self.build_conjunction())

    def test_filter_reference_helper(self):
        conjunction = self.build_conjunction()
        points = [(0.0, 0.0), (0.0, 0.45)]
        assert filter_points(conjunction, points) == [(0.0, 0.0)]


class TestDynamicPartitionTree:
    def test_requires_dimension_when_empty(self):
        with pytest.raises(ValueError):
            OverlaidTree([], block_size=32)

    def test_insert_then_query(self):
        index = OverlaidTree([], dimension=2, block_size=32)
        rng = np.random.default_rng(7)
        points = rng.uniform(-1, 1, size=(300, 2))
        for point in points:
            index.insert(point)
        assert index.size == 300
        constraint = LinearConstraint((0.3,), 0.1)
        expected = brute_force_halfspace(points, constraint)
        assert {tuple(p) for p in index.query(constraint)} == expected

    def test_bulk_build_then_incremental_updates(self):
        rng = np.random.default_rng(8)
        initial = rng.uniform(-1, 1, size=(800, 2))
        index = OverlaidTree(initial, block_size=32)
        extra = rng.uniform(-1, 1, size=(200, 2))
        for point in extra:
            index.insert(point)
        removed = [tuple(p) for p in initial[:100]]
        for point in removed:
            assert index.delete(point)
        live = [tuple(p) for p in initial[100:]] + [tuple(p) for p in extra]
        constraint = LinearConstraint((-0.4,), 0.2)
        expected = {p for p in live if constraint.below(p)}
        assert {tuple(p) for p in index.query(constraint)} == expected
        assert index.size == len(live)

    def test_delete_missing_point_returns_false(self):
        index = OverlaidTree(uniform_points(50, seed=9), block_size=32)
        assert not index.delete((123.0, 456.0))

    def test_rebuild_happens_after_many_inserts(self):
        index = OverlaidTree(uniform_points(200, seed=10), block_size=32)
        rng = np.random.default_rng(11)
        with mock.patch.object(overlay_module, "BUFFER_FRACTION", 0.1):
            for point in rng.uniform(-1, 1, size=(100, 2)):
                index.insert(point)
        assert index.rebuilds >= 1
        assert index.buffered <= 0.1 * index.size + 1

    def test_rebuild_happens_after_many_deletes(self):
        points = uniform_points(300, seed=12)
        index = OverlaidTree(points, block_size=32)
        for point in points[:200]:
            index.delete(tuple(point))
        assert index.rebuilds >= 1
        assert index.size == 100

    def test_insert_dimension_checked(self):
        index = OverlaidTree(uniform_points(20, seed=13), block_size=32)
        with pytest.raises(ValueError):
            index.insert((1.0, 2.0, 3.0))

    def test_reinserting_deleted_point_resurrects_it(self):
        points = uniform_points(100, seed=14)
        index = OverlaidTree(points, block_size=32)
        victim = tuple(points[0])
        index.delete(victim)
        index.insert(victim)
        constraint = LinearConstraint((0.0,), 2.0)   # everything
        assert victim in {tuple(p) for p in index.query(constraint)}

    def test_duplicate_points_have_multiset_semantics(self):
        # Regression: tombstones used to be a *set*, so one delete of a
        # duplicated point hid every tree copy from query()/live_points()
        # while size decremented by only 1 — the three disagreed.
        base = uniform_points(40, seed=21)
        dup = tuple(base[0])
        index = OverlaidTree(np.vstack([base, [dup]]), block_size=32)
        everything = LinearConstraint((0.0,), 1e9)

        def copies():
            reported = [tuple(p) for p in index.query(everything)]
            live = [tuple(p) for p in index.live_points()]
            assert len(reported) == len(live) == index.size
            assert reported.count(dup) == live.count(dup)
            return reported.count(dup)

        assert index.size == 41 and copies() == 2
        assert index.delete(dup)                 # hides exactly ONE copy
        assert index.size == 40 and copies() == 1
        assert index.delete(dup)
        assert index.size == 39 and copies() == 0
        assert index.delete(dup) is False        # multiset exhausted
        index.insert(dup)
        index.insert(dup)                        # resurrect + fresh copy
        assert index.size == 41 and copies() == 2
        index._rebuild()                         # rebuild keeps the count
        assert index.size == 41 and copies() == 2

    def test_resurrecting_insert_rewrites_tombstone_blocks(self):
        # Regression: the resurrect path dropped the tombstone from the
        # in-memory set but left the record in the on-disk tombstone
        # array, so disk state disagreed with the set and the array's
        # space never came back.
        points = uniform_points(60, seed=22)
        index = OverlaidTree(points, block_size=32)
        victims = [tuple(p) for p in points[:3]]
        for victim in victims:
            assert index.delete(victim)
        assert len(index._tombstone_array) == 3 == index.tombstoned
        index.insert(victims[0])                 # resurrects a tree copy
        assert index.tombstoned == 2
        assert len(index._tombstone_array) == 2  # disk matches the set
        assert sorted(read_all(index._tombstone_array)) == \
            sorted(victims[1:])
        index.insert(victims[1])
        index.insert(victims[2])
        assert index.tombstoned == 0
        assert len(index._tombstone_array) == 0
        assert index._tombstone_array.num_blocks == 0   # space released

    def test_buffer_path_delete_checks_rebuild_threshold(self):
        # Regression: a delete served from the insertion buffer skipped
        # the rebuild check, so only tree-path deletes could trigger the
        # tombstone-fraction rebuild — the two paths must stay aligned.
        class Counting(WriteOverlay):
            rebuild_checks = 0

            def due(self):
                self.rebuild_checks += 1
                return super().due()

        index = OverlaidTree(uniform_points(64, seed=23), block_size=32,
                             overlay=Counting)
        with mock.patch.object(overlay_module, "BUFFER_FRACTION", 1.0):
            index.insert((5.0, 5.0))             # lands in the buffer
            checks = index.rebuild_checks
            assert index.delete((5.0, 5.0))      # buffer-path delete
        assert index.rebuild_checks == checks + 1
        # Public invariant across a delete-heavy mix: the tombstone
        # fraction can never sit past the rebuild threshold.
        points = uniform_points(80, seed=24)
        index = OverlaidTree(points, block_size=32)
        for point in points[:60]:
            index.delete(tuple(point))
            tree_size = index.size - index.buffered + index.tombstoned
            assert index.tombstoned * 2 <= max(1, tree_size)

    def test_agrees_with_static_tree_after_updates(self):
        rng = np.random.default_rng(15)
        base = rng.uniform(-1, 1, size=(500, 2))
        index = OverlaidTree(base, block_size=32)
        additions = rng.uniform(-1, 1, size=(120, 2))
        for point in additions:
            index.insert(point)
        for point in base[:60]:
            index.delete(tuple(point))
        live = np.vstack([base[60:], additions])
        static = PartitionTreeIndex(live, block_size=32)
        for constraint in halfspace_queries_with_selectivity(live, 4, 0.2, seed=16):
            assert {tuple(p) for p in index.query(constraint)} == \
                {tuple(p) for p in static.query(constraint)}


# ----------------------------------------------------------------------
# generated scripts against a multiset oracle
# ----------------------------------------------------------------------
#: Coordinates on a coarse grid: duplicates are common and many points
#: sit exactly on a query's hyperplane.
GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


@st.composite
def dynamic_scripts(draw):
    dimension = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(GRID)] * dimension),
                         min_size=1, max_size=6))
    picks = st.integers(0, len(pool) - 1)
    queries = st.builds(LinearConstraint,
                        st.tuples(*[st.sampled_from(GRID)] * (dimension - 1)),
                        st.sampled_from(GRID + (-9.0, 9.0)))
    initial = draw(st.lists(picks, max_size=24))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("insert"), picks),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("query"), queries)), min_size=1, max_size=40))
    return dimension, pool, initial, steps


def answer_and_reads(index, constraint):
    store = index.store
    store.clear_cache()
    store.reset_stats()
    answer = index.query(constraint)
    return answer, (store.stats.reads, store.stats.cache_hits)


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=150, deadline=None)
@given(script=dynamic_scripts())
def test_dynamic_index_is_its_multiset_under_generated_scripts(backend,
                                                                script):
    """Inserts, deletes (one copy each) and queries over duplicated
    points, across buffer and tombstone rebuilds: every answer is the
    oracle's live multiset below the constraint, the same rows in the
    same order and the same reads under both kernel modes, and ``size``
    and ``live_points()`` agree with it."""
    dimension, pool, initial, steps = script
    store = BlockStore(4, cache_blocks=2, backend=backend)
    try:
        index = OverlaidTree(
            np.asarray([pool[i] for i in initial]).reshape(-1, dimension),
            store=store, dimension=dimension, leaf_capacity=3)
        oracle = Counter(pool[i] for i in initial)
        for step in steps:
            if step[0] == "insert":
                index.insert(pool[step[1]])
                oracle[pool[step[1]]] += 1
            elif step[0] == "delete":
                point = pool[step[1]]
                assert index.delete(point) == (oracle[point] > 0)
                oracle -= Counter({point: 1})
            else:
                constraint = step[1]
                vector, vector_reads = answer_and_reads(index, constraint)
                with scalar_kernels():
                    scalar, scalar_reads = answer_and_reads(index, constraint)
                assert_answer(vector, dimension)
                assert Counter(rows(vector)) == Counter(
                    {point: count for point, count in oracle.items()
                     if constraint.below(point)})
                assert vector.tobytes() == scalar.tobytes()
                assert vector_reads == scalar_reads
            assert index.size == sum(oracle.values())
            assert Counter(index.live_points()) == oracle
        event("rebuilds: %d" % min(index.rebuilds, 2))
    finally:
        store.close()


def test_a_script_crosses_both_rebuild_thresholds():
    """The buffer fills past its fraction, then half the tree is
    tombstoned: two rebuilds, answers exact after each."""
    pool = [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0)]
    index = OverlaidTree(np.asarray(pool * 4), block_size=4)
    everything = LinearConstraint((0.0,), 9.0)
    for point in pool * 2:
        index.insert(point)
    assert index.rebuilds == 1 and index.size == 18
    for point in pool * 4:
        assert index.delete(point)
    assert index.rebuilds == 2 and index.size == 6
    assert Counter(rows(index.query(everything))) == Counter(pool * 2)
