"""Integration tests: every index answers the same workload identically.

The structures of Sections 3–6 and all baselines implement the same query
semantics, so on any shared workload their answers must coincide exactly;
only their I/O and space profiles may differ.  These tests exercise that
end-to-end contract, including mixed block sizes, shared stores and the
public package API.
"""

import math

import numpy as np
import pytest

import repro
from repro import (
    BlockStore,
    HalfplaneIndex2D,
    HalfspaceIndex3D,
    HybridIndex3D,
    LinearConstraint,
    PartitionTreeIndex,
    ShallowPartitionTreeIndex,
)
from repro.baselines import FullScanIndex, KDBTreeIndex, QuadTreeIndex, RTreeIndex
from repro.workloads import (
    halfspace_queries_with_selectivity,
    uniform_points,
    uniform_points_ball,
)

from conftest import brute_force_halfspace
from geometry_oracle import validate_against_scan


class TestCrossStructureAgreement2D:
    @pytest.fixture(scope="class")
    def workload(self):
        points = uniform_points(1600, seed=1)
        queries = halfspace_queries_with_selectivity(points, 3, 0.05, seed=2)
        queries += halfspace_queries_with_selectivity(points, 2, 0.3, seed=3)
        return points, queries

    @pytest.mark.parametrize("index_class", [
        HalfplaneIndex2D, PartitionTreeIndex, FullScanIndex, QuadTreeIndex,
        RTreeIndex, KDBTreeIndex,
    ])
    def test_all_structures_agree_with_ground_truth(self, index_class, workload):
        points, queries = workload
        index = index_class(points, block_size=32)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}


class TestCrossStructureAgreement3D:
    @pytest.fixture(scope="class")
    def workload(self):
        points = uniform_points_ball(900, dimension=3, seed=4)
        queries = halfspace_queries_with_selectivity(points, 2, 0.05, seed=5)
        queries += halfspace_queries_with_selectivity(points, 2, 0.25, seed=6)
        return points, queries

    @pytest.mark.parametrize("index_factory", [
        lambda pts: HalfspaceIndex3D(pts, block_size=32, seed=7),
        lambda pts: PartitionTreeIndex(pts, block_size=32),
        lambda pts: ShallowPartitionTreeIndex(pts, block_size=32),
        lambda pts: HybridIndex3D(pts, block_size=32, seed=8),
        lambda pts: RTreeIndex(pts, block_size=32),
    ])
    def test_all_structures_agree_with_ground_truth(self, index_factory, workload):
        points, queries = workload
        index = index_factory(points)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}


class TestSharedStoreAndBlockSizes:
    def test_two_indexes_share_one_store(self):
        points = uniform_points(800, seed=9)
        store = BlockStore(block_size=32)
        first = HalfplaneIndex2D(points, store=store, seed=10)
        second = PartitionTreeIndex(points, store=store)
        assert first.space_blocks + second.space_blocks <= store.num_blocks
        constraint = halfspace_queries_with_selectivity(points, 1, 0.1, seed=11)[0]
        assert {tuple(p) for p in first.query(constraint)} == \
            {tuple(p) for p in second.query(constraint)}

    @pytest.mark.parametrize("block_size", [8, 32, 128])
    def test_block_size_changes_cost_not_answers(self, block_size):
        points = uniform_points(900, seed=12)
        index = HalfplaneIndex2D(points, block_size=block_size, seed=13)
        constraint = halfspace_queries_with_selectivity(points, 1, 0.2, seed=14)[0]
        assert brute_force_halfspace(points, constraint) == \
            {tuple(p) for p in index.query(constraint)}

    def test_larger_blocks_mean_fewer_ios(self):
        points = uniform_points(3000, seed=15)
        constraint = halfspace_queries_with_selectivity(points, 1, 0.3, seed=16)[0]
        small = HalfplaneIndex2D(points, block_size=16, seed=17)
        large = HalfplaneIndex2D(points, block_size=128, seed=17)
        cost_small = small.query_with_stats(constraint).total_ios
        cost_large = large.query_with_stats(constraint).total_ios
        assert cost_large < cost_small

    def test_validate_against_scan_helper(self):
        points = uniform_points(500, seed=18)
        index = HalfplaneIndex2D(points, block_size=32, seed=19)
        constraint = halfspace_queries_with_selectivity(points, 1, 0.15, seed=20)[0]
        assert validate_against_scan(index, constraint,
                                     [tuple(p) for p in points])


class TestPackageAPI:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_quickstart_snippet_runs(self):
        points = np.random.default_rng(0).uniform(-1, 1, size=(500, 2))
        index = repro.HalfplaneIndex2D(points, block_size=64)
        query = repro.LinearConstraint(coeffs=(0.5,), offset=0.1)
        result = index.query_with_stats(query)
        assert result.count == sum(query.below(p) for p in points)
        assert result.total_ios > 0

    def test_from_inequality_round_trip_on_index(self):
        points = uniform_points(400, seed=21)
        index = HalfplaneIndex2D(points, block_size=32, seed=22)
        # "y - 0.3 x <= 0.2" in general-inequality form.
        constraint = LinearConstraint.from_inequality((-0.3, 1.0), 0.2)
        assert brute_force_halfspace(points, constraint) == \
            {tuple(p) for p in index.query(constraint)}

    def test_build_ios_recorded(self):
        points = uniform_points(600, seed=23)
        index = HalfplaneIndex2D(points, block_size=32, seed=24)
        assert index.build_ios is not None
        assert index.build_ios.writes > 0
