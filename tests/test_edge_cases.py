"""Edge-case and failure-injection tests across the library."""

import math

import numpy as np
import pytest

from repro import (
    BlockStore,
    HalfplaneIndex2D,
    LinearConstraint,
    PartitionTreeIndex,
)
from repro.geometry.arrangement2d import compute_level
from repro.geometry.boxes import Box
from repro.geometry.envelope3d import compute_lower_envelope, conflict_lists
from repro.geometry.primitives import Hyperplane, Line2, Plane3
from repro.geometry.simplex import Halfspace, Simplex
from repro.io.disk_array import DiskArray
from repro.workloads import uniform_points

from conftest import rows
from geometry_oracle import (certainly_disjoint_from_box, corners, volume,
                             widest_axis)
from level_oracle import line_at, y_at


class TestCacheBehaviour:
    def test_warm_cache_queries_cost_less(self):
        points = uniform_points(1500, seed=1)
        store = BlockStore(block_size=32, cache_blocks=256)
        index = HalfplaneIndex2D(points, store=store, seed=2)
        constraint = LinearConstraint((0.4,), 0.0)
        cold = index.query_with_stats(constraint, clear_cache=True)
        warm = index.query_with_stats(constraint, clear_cache=False)
        assert warm.total_ios <= cold.total_ios
        assert {tuple(p) for p in warm.points} == {tuple(p) for p in cold.points}

    def test_zero_cache_store_still_correct(self):
        points = uniform_points(600, seed=3)
        store = BlockStore(block_size=16, cache_blocks=0)
        index = PartitionTreeIndex(points, store=store)
        constraint = LinearConstraint((0.2,), 0.1)
        expected = {tuple(p) for p in points if constraint.below(p)}
        assert {tuple(p) for p in index.query(constraint)} == expected


class TestDegenerateGeometry:
    def test_level_of_parallel_lines_has_no_vertices(self):
        lines = [Line2(1.0, float(i)) for i in range(6)]
        level = compute_level(lines, 3)
        assert level.complexity == 0
        assert line_at(level, 0.0) == 3   # the 4th lowest parallel line

    def test_level_with_two_lines(self):
        lines = [Line2(1.0, 0.0), Line2(-1.0, 0.0)]
        lower = compute_level(lines, 0)
        upper = compute_level(lines, 1)
        assert lower.complexity == 1
        assert upper.complexity == 1
        assert y_at(lower, 5.0) == pytest.approx(-5.0)
        assert y_at(upper, 5.0) == pytest.approx(5.0)

    def test_duplicate_points_in_2d_index(self):
        points = [(0.25, 0.25)] * 40 + [(-0.5, 0.75)] * 10
        index = HalfplaneIndex2D(points, block_size=16, seed=4)
        constraint = LinearConstraint((0.0,), 0.5)
        result = index.query(constraint)
        assert len(result) == 40

    def test_collinear_points_partition_tree(self):
        xs = np.linspace(-1, 1, 200)
        points = np.column_stack([xs, 2 * xs + 0.1])
        tree = PartitionTreeIndex(points, block_size=16)
        constraint = LinearConstraint((2.0,), 0.1)   # the line itself: inclusive
        assert len(tree.query(constraint)) == 200
        below = LinearConstraint((2.0,), 0.0)
        assert rows(tree.query(below)) == []

    def test_envelope_of_parallel_planes(self):
        planes = [Plane3(0.2, -0.1, float(c)) for c in range(5)]
        envelope = compute_lower_envelope(planes, (-4, 4, -4, 4))
        # Only the lowest plane appears, and since every other plane lies
        # strictly above it everywhere, no plane conflicts with the envelope.
        assert {t.plane_index for t in envelope.triangles} == {0}
        lists = conflict_lists(planes, [0], envelope)
        for found in lists:
            assert found == []

    def test_single_point_every_structure(self):
        constraint_hit = LinearConstraint((0.0,), 1.0)
        constraint_miss = LinearConstraint((0.0,), -1.0)
        for cls in (HalfplaneIndex2D, PartitionTreeIndex):
            index = cls([(0.0, 0.0)], block_size=8)
            assert rows(index.query(constraint_hit)) == [(0.0, 0.0)]
            assert rows(index.query(constraint_miss)) == []


class TestIOAccountingInvariants:
    def test_build_charges_at_least_output_writes(self):
        points = uniform_points(800, seed=5)
        index = HalfplaneIndex2D(points, block_size=32, seed=6)
        assert index.build_ios.writes >= math.ceil(800 / 32)

    def test_query_reads_bounded_by_space(self):
        points = uniform_points(900, seed=7)
        index = PartitionTreeIndex(points, block_size=32)
        constraint = LinearConstraint((0.0,), 10.0)     # everything
        result = index.query_with_stats(constraint)
        # Reporting everything can touch each block only a bounded number of
        # times (tree nodes + leaf blocks).
        assert result.ios.reads <= 2 * index.space_blocks

    def test_disk_array_random_access_costs_one_read(self):
        store = BlockStore(block_size=8, cache_blocks=0)
        array = DiskArray(store, list(range(64)))
        store.reset_stats()
        array[17]
        assert store.stats.reads == 1


class TestBoxHelpers:
    def test_disjoint_from_halfspaces_certificate(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        outside = Simplex((Halfspace((0.0, 1.0), -2.0),))  # y <= -2 excludes
        overlapping = Simplex((Halfspace((0.0, 1.0), 0.5),))
        assert certainly_disjoint_from_box(outside, box)
        assert not certainly_disjoint_from_box(overlapping, box)

    def test_volume_and_corners_in_3d(self):
        box = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert volume(box) == pytest.approx(6.0)
        assert len(corners(box)) == 8
        assert widest_axis(box) == 2
