"""Tests for the 3-D structures of Section 4: k-lowest planes, halfspace, k-NN."""

import math

import numpy as np
import pytest

from repro.core.halfspace3d import HalfspaceIndex3D
from repro.core.knn import KNNIndex
from repro.core.lowest_planes import LowestPlanesIndex
from repro.geometry.primitives import LinearConstraint, Plane3
from repro.workloads.queries import knn_query_points
from repro.workloads import (
    halfspace_queries_with_selectivity,
    uniform_points,
    uniform_points_ball,
)

from conftest import assert_answer, brute_force_halfspace, rows


def nearest_with_distances(index, query, k):
    """``index.nearest`` paired with the true Euclidean distances."""
    qx, qy = float(query[0]), float(query[1])
    return [(point, math.hypot(point[0] - qx, point[1] - qy))
            for point in index.nearest(query, k)]


def random_planes(count, seed):
    rng = np.random.default_rng(seed)
    return [Plane3(*row) for row in rng.uniform(-1, 1, size=(count, 3))]


@pytest.fixture(scope="module")
def planes_index():
    planes = random_planes(800, seed=1)
    return planes, LowestPlanesIndex(planes, block_size=32, seed=2)


@pytest.fixture(scope="module")
def halfspace_index():
    points = uniform_points_ball(1200, dimension=3, seed=3)
    return points, HalfspaceIndex3D(points, block_size=32, seed=4)


@pytest.fixture(scope="module")
def knn_index():
    points = uniform_points(1000, seed=5)
    return points, KNNIndex(points, block_size=32, seed=6)


class TestLowestPlanes:
    def test_k_lowest_matches_brute_force(self, planes_index):
        planes, index = planes_index
        rng = np.random.default_rng(7)
        for __ in range(10):
            x, y = rng.uniform(-1, 1, size=2)
            k = int(rng.integers(1, 60))
            result = index.k_lowest(float(x), float(y), k)
            heights = sorted((p.z_at(x, y), i) for i, p in enumerate(planes))
            expected = [i for __, i in heights[:k]]
            assert [i for i, __ in result] == expected

    def test_k_zero_and_negative(self, planes_index):
        __, index = planes_index
        assert index.k_lowest(0.0, 0.0, 0) == []
        assert index.k_lowest(0.0, 0.0, -3) == []

    def test_k_larger_than_n_is_clamped(self, planes_index):
        planes, index = planes_index
        result = index.k_lowest(0.1, 0.2, len(planes) + 50)
        assert len(result) == len(planes)

    def test_result_heights_are_sorted(self, planes_index):
        __, index = planes_index
        result = index.k_lowest(0.3, -0.4, 25)
        heights = [h for __, h in result]
        assert heights == sorted(heights)

    def test_planes_below_point_matches_brute_force(self, planes_index):
        planes, index = planes_index
        rng = np.random.default_rng(8)
        for __ in range(8):
            x, y, z = rng.uniform(-1, 1, size=3)
            expected = {i for i, p in enumerate(planes)
                        if p.z_at(x, y) <= z + 1e-9}
            assert set(index.planes_below_point(float(x), float(y), float(z))) == expected

    def test_empty_index(self):
        index = LowestPlanesIndex([], block_size=16)
        assert index.k_lowest(0.0, 0.0, 5) == []
        assert index.planes_below_point(0.0, 0.0, 0.0) == []

    def test_space_is_near_linear(self, planes_index):
        planes, index = planes_index
        n = math.ceil(len(planes) / 32)
        log_factor = max(1.0, math.log2(n))
        # O(n log2 n) with a moderate constant (conflict-list duplication).
        assert index.space_blocks <= 16 * n * log_factor

    def test_copies_rejects_zero(self):
        with pytest.raises(ValueError):
            LowestPlanesIndex(random_planes(10, seed=9), copies=0)

    def test_query_outside_domain_falls_back_but_stays_correct(self, planes_index):
        planes, index = planes_index
        x, y = 50.0, -75.0    # far outside the default domain
        result = index.k_lowest(x, y, 5)
        heights = sorted((p.z_at(x, y), i) for i, p in enumerate(planes))
        assert [i for i, __ in result] == [i for __, i in heights[:5]]


class TestHalfspace3D:
    def test_matches_ground_truth(self, halfspace_index):
        points, index = halfspace_index
        queries = halfspace_queries_with_selectivity(points, 6, 0.05, seed=10)
        queries += halfspace_queries_with_selectivity(points, 4, 0.3, seed=11)
        for constraint in queries:
            expected = brute_force_halfspace(points, constraint)
            actual = {tuple(p) for p in index.query(constraint)}
            assert actual == expected

    def test_empty_and_full_queries(self, halfspace_index):
        points, index = halfspace_index
        nothing = LinearConstraint((0.0, 0.0), -10.0)
        everything = LinearConstraint((0.0, 0.0), 10.0)
        assert rows(index.query(nothing)) == []
        assert len(index.query(everything)) == len(points)

    def test_rejects_wrong_dimension(self, halfspace_index):
        __, index = halfspace_index
        with pytest.raises(ValueError):
            index.query(LinearConstraint((1.0,), 0.0))

    def test_rejects_wrong_shape_points(self):
        with pytest.raises(ValueError):
            HalfspaceIndex3D(np.zeros((4, 2)))

    def test_small_query_beats_full_scan(self, halfspace_index):
        points, index = halfspace_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.01, seed=12)[0]
        result = index.query_with_stats(constraint)
        n = math.ceil(len(points) / index.block_size)
        assert result.total_ios < n

    def test_queries_do_not_write(self, halfspace_index):
        points, index = halfspace_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.1, seed=13)[0]
        assert index.query_with_stats(constraint).ios.writes == 0

    def test_empty_index(self):
        index = HalfspaceIndex3D(np.zeros((0, 3)), block_size=16)
        assert rows(index.query(LinearConstraint((0.0, 0.0), 0.0))) == []

    def test_answers_are_read_only_matrices(self, halfspace_index):
        """One result representation: a read-only (n, 3) float64 matrix
        of the stored rows, also when nothing qualifies or nothing is
        stored."""
        points, index = halfspace_index
        constraint = halfspace_queries_with_selectivity(points, 1, 0.1, seed=17)[0]
        answer = index.query(constraint)
        assert_answer(answer, 3)
        assert len(answer) > 10
        assert {tuple(p) for p in answer} == brute_force_halfspace(points, constraint)
        for nothing in (index.query(LinearConstraint((0.0, 0.0), -10.0)),
                        HalfspaceIndex3D(np.zeros((0, 3)), block_size=16)
                        .query(constraint)):
            assert_answer(nothing, 3)
            assert len(nothing) == 0

    def test_estimate_is_the_bound_the_query_honours(self, halfspace_index):
        """min(scan, probes + one list): a dual point outside the
        envelopes' domain is priced as the scan it is, a small answer far
        below it, and no answer above the scan plus the probes."""
        points, index = halfspace_index
        scan = math.ceil(len(points) / index.block_size)
        outside = LinearConstraint((50.0, 0.0), 0.1)
        assert index.estimated_query_ios(outside, 10) == scan
        index.query(outside)
        assert index.last_query == {"layer": None, "probes": 0,
                                    "list_blocks": 0,
                                    "scanned": "outside_domain"}
        inside = LinearConstraint((0.3, -0.2), 0.1)
        estimates = [index.estimated_query_ios(inside, expected)
                     for expected in (0, 5, 40, 200, len(points))]
        assert estimates == sorted(estimates)
        assert estimates[0] < scan / 2 and scan <= estimates[-1] <= scan + 16
        # Within a small factor of what small queries cost on average.
        queries = halfspace_queries_with_selectivity(points, 30, 0.02, seed=21)
        observed = sum(index.query_with_stats(q).total_ios for q in queries)
        modelled = sum(index.estimated_query_ios(
            q, len(brute_force_halfspace(points, q))) for q in queries)
        assert 0.4 <= modelled / observed <= 2.5

    def test_three_copies_still_correct(self):
        points = uniform_points_ball(400, dimension=3, seed=14)
        index = HalfspaceIndex3D(points, block_size=32, copies=3, seed=15)
        constraint = halfspace_queries_with_selectivity(points, 1, 0.2, seed=16)[0]
        assert {tuple(p) for p in index.query(constraint)} == \
            brute_force_halfspace(points, constraint)


class TestKNN:
    def brute_nearest(self, points, query, k):
        d = np.hypot(points[:, 0] - query[0], points[:, 1] - query[1])
        return [tuple(points[i]) for i in np.argsort(d)[:k]]

    def test_nearest_matches_brute_force(self, knn_index):
        points, index = knn_index
        rng = np.random.default_rng(17)
        for __ in range(10):
            query = tuple(rng.uniform(-1, 1, size=2))
            k = int(rng.integers(1, 40))
            assert index.nearest(query, k) == self.brute_nearest(points, query, k)

    def test_nearest_with_distances_sorted(self, knn_index):
        points, index = knn_index
        pairs = nearest_with_distances(index, (0.2, 0.3), 15)
        distances = [d for __, d in pairs]
        assert distances == sorted(distances)

    def test_k_zero(self, knn_index):
        __, index = knn_index
        assert index.nearest((0.0, 0.0), 0) == []

    def test_k_exceeds_n(self, knn_index):
        points, index = knn_index
        assert len(index.nearest((0.0, 0.0), len(points) + 10)) == len(points)

    def test_io_cost_grows_with_k_but_stays_blocked(self, knn_index):
        points, index = knn_index
        __, small = index.nearest_with_stats((0.1, 0.1), 1)
        __, large = index.nearest_with_stats((0.1, 0.1), 256)
        n = math.ceil(len(points) / index.block_size)
        assert small.total <= large.total
        assert large.total <= 4 * n    # never much worse than a couple of scans

    def test_most_attempts_succeed_and_none_costs_two_scans(self):
        """``benchmarks/bench_knn.py``'s shape.  The sample is rounded
        down, a failure moves to the next coarser layer, a call's reads
        are capped at the scan's before it scans: at most half of the
        TryLowestPlanes attempts fail (0.83 of them did when the sample
        was rounded up and a retry re-read the nested sample)."""
        points = uniform_points(4096, seed=1)
        index = KNNIndex(points, block_size=32, copies=3, seed=2)
        planes_index = index.planes_index
        scan_blocks = math.ceil(len(points) / 32)
        attempts = failed = 0
        for k in (1, 8, 32, 128, 512):
            for query in knn_query_points(12, seed=3):
                found, ios = index.nearest_with_stats(tuple(query), k)
                assert found == self.brute_nearest(points, query, k)
                assert ios.total <= 2 * scan_blocks + 3 * planes_index.MAX_FAILURES
                account = planes_index.last_query
                attempts += account["attempts"]
                failed += account["attempts"] - (
                    account["attempts"] > account["fallbacks"])
        assert attempts > 50
        assert failed <= attempts / 2

    def test_empty_index(self):
        index = KNNIndex(np.zeros((0, 2)), block_size=16)
        assert index.nearest((0.0, 0.0), 3) == []

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            KNNIndex(np.zeros((5, 3)))

    def test_query_point_coincides_with_data_point(self, knn_index):
        points, index = knn_index
        query = tuple(points[17])
        nearest = index.nearest(query, 1)
        assert nearest[0] == pytest.approx(query)
