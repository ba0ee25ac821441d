"""Tests for the workload generators and the experiment harness."""

import numpy as np
import pytest

from repro.core.halfplane2d import HalfplaneIndex2D
from repro.experiments.harness import (
    ExperimentResult,
    QueryCostSummary,
    format_table,
    log_fit_exponent,
    run_query_workload,
)
from repro.geometry.primitives import LinearConstraint
from repro.workloads import (
    clustered_points,
    diagonal_points,
    gaussian_points,
    halfspace_queries_with_selectivity,
    random_halfspace_queries,
    rotated_diagonal_query,
    uniform_points,
    uniform_points_ball,
)
from repro.workloads.distributions import company_table
from repro.workloads.queries import knn_query_points


class TestDistributions:
    def test_uniform_points_shape_and_range(self):
        points = uniform_points(100, dimension=3, low=-2, high=2, seed=1)
        assert points.shape == (100, 3)
        assert points.min() >= -2 and points.max() <= 2

    def test_uniform_ball_radius(self):
        points = uniform_points_ball(200, dimension=3, radius=1.5, seed=2)
        assert np.all(np.linalg.norm(points, axis=1) <= 1.5 + 1e-9)

    def test_gaussian_points_shape(self):
        assert gaussian_points(50, dimension=4, seed=3).shape == (50, 4)

    def test_clustered_points_are_clustered(self):
        points = clustered_points(500, clusters=5, spread=0.01, seed=4)
        # Tight clusters: the std of the nearest-cluster distances is small.
        assert points.shape == (500, 2)

    def test_diagonal_points_hug_the_diagonal(self):
        points = diagonal_points(300, noise=1e-5, seed=5)
        assert np.max(np.abs(points[:, 1] - points[:, 0])) < 1e-3

    def test_company_table_schema(self):
        table = company_table(10, seed=6)
        assert len(table) == 10
        name, price, earnings = table[0]
        assert isinstance(name, str) and price > 0 and earnings > 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_points(-1)

    def test_seeds_are_reproducible(self):
        assert np.array_equal(uniform_points(20, seed=7), uniform_points(20, seed=7))


class TestQueries:
    def test_selectivity_is_respected(self):
        points = uniform_points(2000, seed=8)
        for selectivity in (0.01, 0.1, 0.5):
            constraint = halfspace_queries_with_selectivity(
                points, 1, selectivity, seed=9)[0]
            fraction = sum(constraint.below(p) for p in points) / len(points)
            assert abs(fraction - selectivity) < 0.02

    def test_selectivity_bounds_validated(self):
        points = uniform_points(10, seed=10)
        with pytest.raises(ValueError):
            halfspace_queries_with_selectivity(points, 1, 1.5)

    def test_random_queries_dimension(self):
        queries = random_halfspace_queries(5, dimension=4, seed=11)
        assert all(q.dimension == 4 for q in queries)

    def test_rotated_diagonal_query_selectivity(self):
        points = diagonal_points(1000, seed=12)
        constraint = rotated_diagonal_query(points, angle=1e-3, selectivity=0.25)
        fraction = sum(constraint.below(p) for p in points) / len(points)
        assert abs(fraction - 0.25) < 0.05

    def test_knn_query_points_shape(self):
        assert knn_query_points(7, seed=13).shape == (7, 2)


class TestHarness:
    @pytest.fixture(scope="class")
    def small_index(self):
        points = uniform_points(600, seed=14)
        return points, HalfplaneIndex2D(points, block_size=32, seed=15)

    def test_run_query_workload_aggregates(self, small_index):
        points, index = small_index
        queries = halfspace_queries_with_selectivity(points, 5, 0.1, seed=16)
        summary = run_query_workload(index, queries, label="2d")
        assert summary.num_queries == 5
        assert summary.total_ios > 0
        assert summary.max_ios <= summary.total_ios
        assert summary.mean_ios == pytest.approx(summary.total_ios / 5)
        assert summary.mean_output_blocks > 0

    def test_overhead_metric_positive(self, small_index):
        points, index = small_index
        queries = halfspace_queries_with_selectivity(points, 2, 0.05, seed=17)
        summary = run_query_workload(index, queries, label="2d")
        assert summary.overhead_per_output_block > 0

    def test_experiment_result_table_rendering(self, small_index):
        points, index = small_index
        queries = halfspace_queries_with_selectivity(points, 2, 0.05, seed=18)
        result = ExperimentResult("T1-2D", "halfplane reporting")
        result.add(run_query_workload(index, queries, label="N=600"))
        table = result.to_table()
        assert "T1-2D" in table and "N=600" in table and "mean I/Os" in table

    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_log_fit_exponent_recovers_power_law(self):
        sizes = [100, 200, 400, 800, 1600]
        costs = [size ** 0.66 for size in sizes]
        assert log_fit_exponent(sizes, costs) == pytest.approx(0.66, abs=0.01)

    def test_log_fit_exponent_flat_series(self):
        sizes = [100, 200, 400]
        costs = [5.0, 5.0, 5.0]
        assert abs(log_fit_exponent(sizes, costs)) < 1e-9

    def test_log_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            log_fit_exponent([10], [1])

    def test_query_cost_summary_row_format(self):
        summary = QueryCostSummary(label="x", num_queries=2, total_ios=10,
                                   max_ios=7, total_reported=64, block_size=32,
                                   space_blocks=5)
        row = summary.row()
        assert row[0] == "x" and row[-1] == "5"
