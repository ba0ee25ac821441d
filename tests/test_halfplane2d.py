"""Tests for the optimal 2-D structure of Section 3 (Theorem 3.5)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.halfplane2d import HalfplaneIndex2D, default_beta
from repro.geometry.primitives import LinearConstraint
from repro.workloads import (
    clustered_points,
    diagonal_points,
    halfspace_queries_with_selectivity,
    random_halfspace_queries,
    uniform_points,
)

from conftest import assert_answer, brute_force_halfspace, rows
from scan_oracle import scalar_kernels


def built(*args, **kwargs):
    """A HalfplaneIndex2D whose structure passed its check."""
    index = HalfplaneIndex2D(*args, **kwargs)
    index.check_invariants()
    return index


@pytest.fixture(scope="module")
def uniform_index():
    points = uniform_points(3000, seed=1)
    return points, built(points, block_size=32, seed=2)


class TestConstruction:
    def test_default_beta_at_least_block_size(self):
        assert default_beta(10, 64) >= 64
        assert default_beta(100_000, 64) >= 64

    def test_empty_index(self):
        index = built([], block_size=16)
        assert index.size == 0
        assert rows(index.query(LinearConstraint((1.0,), 0.0))) == []

    def test_single_point(self):
        index = built([(0.5, 0.5)], block_size=16)
        hit = LinearConstraint((0.0,), 1.0)
        miss = LinearConstraint((0.0,), 0.0)
        assert rows(index.query(hit)) == [(0.5, 0.5)]
        assert rows(index.query(miss)) == []

    def test_clusters_are_columnar_and_answers_are_matrices(self, uniform_index):
        """A cluster record is five floats, the point number included, so
        every cluster block is a matrix in the pool; the answer is a
        read-only (n, 2) float64 matrix, also from an empty index."""
        points, index = uniform_index
        for layer in index._layers:
            for cluster in layer.clusters:
                matrix = cluster.read_all_array()
                assert matrix is not None and matrix.shape[1] == 5
                assert np.array_equal(matrix[:, 3:],
                                      points[matrix[:, 0].astype(int)])
        constraint = LinearConstraint((0.3,), 0.1)
        answer = index.query(constraint)
        assert_answer(answer, 2)
        assert len(answer) > 100
        assert {tuple(p) for p in answer} == brute_force_halfspace(points, constraint)
        empty = built([], block_size=16).query(constraint)
        assert_answer(empty, 2)
        assert len(empty) == 0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            HalfplaneIndex2D(np.zeros((5, 3)), block_size=16)

    def test_rejects_bad_cluster_width_factor(self):
        with pytest.raises(ValueError):
            HalfplaneIndex2D(uniform_points(10, seed=0), cluster_width_factor=0)

    def test_space_is_linear(self, uniform_index):
        points, index = uniform_index
        blocks = math.ceil(len(points) / index.block_size)
        assert index.space_blocks <= 6 * blocks

    def test_number_of_layers_bounded(self, uniform_index):
        points, index = uniform_index
        assert 1 <= index.num_layers <= max(1, len(points) // index.beta) + 1


class TestCorrectness:
    def test_matches_ground_truth_on_uniform_points(self, uniform_index):
        points, index = uniform_index
        queries = halfspace_queries_with_selectivity(points, 10, 0.05, seed=3)
        queries += halfspace_queries_with_selectivity(points, 5, 0.4, seed=4)
        for constraint in queries:
            expected = brute_force_halfspace(points, constraint)
            actual = {tuple(p) for p in index.query(constraint)}
            assert actual == expected

    def test_no_duplicates_reported(self, uniform_index):
        points, index = uniform_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.3, seed=5)[0]
        reported = index.query(constraint)
        assert len(reported) == len(set(map(tuple, reported)))

    def test_empty_result_query(self, uniform_index):
        points, index = uniform_index
        constraint = LinearConstraint((0.0,), -10.0)
        assert rows(index.query(constraint)) == []

    def test_all_points_query(self, uniform_index):
        points, index = uniform_index
        constraint = LinearConstraint((0.0,), 10.0)
        assert len(index.query(constraint)) == len(points)

    def test_matches_ground_truth_on_clustered_points(self):
        points = clustered_points(1500, seed=6)
        index = built(points, block_size=32, seed=7)
        for constraint in random_halfspace_queries(8, seed=8):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}

    def test_matches_ground_truth_on_adversarial_diagonal(self):
        points = diagonal_points(1200, seed=9)
        index = built(points, block_size=32, seed=10)
        queries = halfspace_queries_with_selectivity(points, 6, 0.1, seed=11)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}

    def test_rejects_wrong_dimension_query(self, uniform_index):
        __, index = uniform_index
        with pytest.raises(ValueError):
            index.query(LinearConstraint((1.0, 1.0), 0.0))

    def test_cluster_width_factor_two_still_correct(self):
        points = uniform_points(800, seed=12)
        index = built(points, block_size=32, seed=13,
                      cluster_width_factor=2)
        for constraint in random_halfspace_queries(6, seed=14):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}


class TestQueryCost:
    def test_small_output_query_uses_few_ios(self, uniform_index):
        points, index = uniform_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.01, seed=15)[0]
        result = index.query_with_stats(constraint)
        t = max(1, math.ceil(result.count / index.block_size))
        n = math.ceil(len(points) / index.block_size)
        # Far below a full scan, and within a modest factor of log_B n + t.
        assert result.total_ios < n / 2
        assert result.total_ios <= 30 * (math.log(n, index.block_size) + t)

    def test_large_output_query_is_output_dominated(self, uniform_index):
        points, index = uniform_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.5, seed=16)[0]
        result = index.query_with_stats(constraint)
        t = math.ceil(result.count / index.block_size)
        assert result.total_ios <= 8 * t

    def test_queries_do_not_write(self, uniform_index):
        points, index = uniform_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.1, seed=17)[0]
        result = index.query_with_stats(constraint)
        assert result.ios.writes == 0

    def test_layers_probed_grows_with_output(self, uniform_index):
        points, index = uniform_index
        small = halfspace_queries_with_selectivity(points, 1, 0.01, seed=18)[0]
        large = halfspace_queries_with_selectivity(points, 1, 0.6, seed=19)[0]
        index.query(small)
        probed_small = index.last_query["layers_probed"]
        index.query(large)
        probed_large = index.last_query["layers_probed"]
        assert probed_small <= probed_large

    def test_adversarial_query_stays_output_sensitive(self):
        """The Section 1.2 scenario: the paper's structure does not degrade."""
        points = diagonal_points(2000, seed=20)
        index = built(points, block_size=32, seed=21)
        from repro.workloads import rotated_diagonal_query
        constraint = rotated_diagonal_query(points, angle=1e-3, selectivity=0.05)
        result = index.query_with_stats(constraint)
        n = math.ceil(len(points) / index.block_size)
        assert {tuple(p) for p in result.points} == \
            brute_force_halfspace(points, constraint)
        assert result.total_ios < n


class TestCheckInvariants:
    def test_the_check_reads_no_block(self, uniform_index):
        __, index = uniform_index
        index.store.reset_stats()
        index.check_invariants()
        assert index.store.stats.total == 0

    def test_a_narrow_cluster_width_and_a_lone_layer_pass(self):
        built(uniform_points(800, seed=12), block_size=32, seed=13,
              cluster_width_factor=1)
        built(uniform_points(40, seed=1), block_size=32, seed=1)

    @pytest.mark.parametrize("relation", [
        "slopes do not ascend", "outside", "num_lines", "boundary tree",
        "partition", "Lemma 3.1"])
    def test_a_broken_relation_raises(self, relation):
        index = built(uniform_points(1500, seed=3), block_size=32, seed=4)
        first, last = index._layers[0], index._layers[-1]
        assert first is not last
        backend = index.store.backend
        block_id = first.clusters[0].block_ids[0]
        if relation == "slopes do not ascend":
            backend.put(block_id, backend.get(block_id)[::-1])
        elif relation == "outside":
            first.lam = 3 * index.beta
        elif relation == "num_lines":
            first.num_lines += 1
        elif relation == "boundary tree":
            first.bounds[1] += 1e-9
        elif relation == "Lemma 3.1":
            # The line lowest just left of the first boundary is below the
            # level there, so its relevant cluster must hold it: move it
            # to the last layer.
            x = first.bounds[1] - 1e-6
            __, number = min((record[1] * x + record[2], record[0])
                             for block in first.clusters[0].block_ids
                             for record in backend.get(block))
            move_lines(index, [number], first, last)
        else:   # a point number of the first layer reappears in the last
            stolen = backend.get(block_id)[0][0]
            block_id = last.clusters[0].block_ids[0]
            records = backend.get(block_id)
            records[0] = (stolen, *records[0][1:])
            backend.put(block_id, records)
        with pytest.raises(AssertionError, match=relation):
            index.check_invariants()

    def test_the_reproducers_layers_before_the_fix_fail_lemma_3_1(self):
        """At the parent commit the first layer lacked the two copies of
        (0.5, 0.25) that rank below the λ-level on its edge, so a query
        through them stopped there with 4 < λ = 6 lines on or below it."""
        index = built(REPRODUCER, block_size=4, seed=1)
        first, last = index._layers
        assert first.lam == 6 and len(first.clusters) == 1
        move_lines(index, [4, 5], first, last)
        with pytest.raises(AssertionError, match="Lemma 3.1"):
            index.check_invariants()


def move_lines(index, numbers, source, target):
    """Move the records of point ``numbers`` out of every cluster of layer
    ``source`` into the one cluster of layer ``target``, slopes still
    ascending, so the layers still partition the points."""
    backend = index.store.backend
    moved = {}
    for cluster in source.clusters:
        for block in cluster.block_ids:
            records = backend.get(block)
            kept = [record for record in records if record[0] not in numbers]
            moved.update((record[0], record) for record in records
                         if record[0] in numbers)
            source.num_lines -= len(records) - len(kept)
            backend.put(block, kept)
    [cluster] = target.clusters
    *blocks, tail = cluster.block_ids
    records = sorted([record for block in cluster.block_ids
                      for record in backend.get(block)] + list(moved.values()),
                     key=lambda record: record[1])
    for block in blocks:
        size = len(backend.get(block))
        backend.put(block, records[:size])
        records = records[size:]
    backend.put(tail, records)
    target.num_lines += len(moved)


#: ROADMAP item 1's reproducer: three groups of duplicated points on one
#: line, so their dual lines are concurrent copies.
REPRODUCER = [(0.25, 0.0)] * 4 + [(0.5, 0.25)] * 3 + [(1.0, 0.75)] * 6

#: Dyadic values: heights of lines through stored points stay exact.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
SLOPES = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


class TestPointsOnTheQueryLine:
    def test_the_reproducer_reports_the_points_on_the_line(self):
        index = built(REPRODUCER, block_size=4, seed=1)
        answer = index.query(LinearConstraint(coeffs=(-1.0,), offset=0.75))
        assert len(answer) == 7
        assert sorted(rows(answer)) == [(0.25, 0.0)] * 4 + [(0.5, 0.25)] * 3

    @settings(max_examples=300, deadline=None)
    @given(shape=st.sampled_from(
               ["grid", "duplicates", "collinear", "concurrent"]),
           count=st.integers(1, 120), block_size=st.sampled_from([4, 8]),
           seed=st.integers(0, 2 ** 16))
    # A cluster closed at a vertex three or more dual lines meet, and a
    # level edge on a line with copies ranked below it.
    @example(shape="grid", count=66, block_size=4, seed=11)
    @example(shape="duplicates", count=21, block_size=4, seed=0)
    def test_degenerate_point_sets_answer_exactly(self, shape, count,
                                                  block_size, seed):
        """Grid, duplicated, collinear and concurrent-dual-line point sets,
        queried with lines through stored points, in both kernel modes:
        the answer is the numpy filter's, and the layers hold Lemma
        3.1's relation."""
        rng = np.random.default_rng(seed)
        if shape == "grid":
            points = rng.choice(GRID, size=(count, 2))
        elif shape == "duplicates":
            points = rng.choice(GRID, size=(3, 2))[rng.integers(0, 3, count)]
        elif shape == "collinear":
            # On two lines, one of them vertical (parallel dual lines).
            xs = rng.choice(GRID, size=count)
            points = np.column_stack([xs, 0.5 * xs + 0.25])
            points[::3, 0] = 0.5
        else:
            # Groups of copies of points on one line: concurrent duals.
            distinct = np.column_stack([GRID, np.asarray(GRID) - 0.25])
            points = distinct[rng.integers(0, len(GRID), count)]
        index = built(points, block_size=block_size, seed=seed)
        for __ in range(6):
            x, y = points[rng.integers(0, count)]
            slope = float(rng.choice(SLOPES))
            constraint = LinearConstraint((slope,), float(y - slope * x))
            expected = sorted(map(tuple, points[
                points[:, 1] <= slope * points[:, 0] + constraint.offset]
                .tolist()))
            assert sorted(rows(index.query(constraint))) == expected
            with scalar_kernels():
                assert sorted(rows(index.query(constraint))) == expected
