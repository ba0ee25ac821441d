"""Tests for the baseline structures and the Section 1.2 degradation story."""

import math
from contextlib import nullcontext

import numpy as np
import pytest

from repro.baselines import (
    FullScanIndex,
    KDBTreeIndex,
    PagedDualIndex2D,
    QuadTreeIndex,
    RTreeIndex,
)
from repro.baselines.paged_cgl import convex_layers
from repro.core.halfplane2d import HalfplaneIndex2D
from repro.geometry.primitives import LinearConstraint
from repro.workloads import (
    diagonal_points,
    halfspace_queries_with_selectivity,
    random_halfspace_queries,
    rotated_diagonal_query,
    uniform_points,
)

from conftest import brute_force_halfspace, rows
from scan_oracle import scalar_kernels

ALL_2D_BASELINES = [FullScanIndex, QuadTreeIndex, RTreeIndex, KDBTreeIndex,
                    PagedDualIndex2D]

#: The box trees' summed cold I/Os over 40 queries of selectivity 0.02
#: (plus the rotated diagonal query on the diagonal input) and their
#: space, 6 000 points at B = 32: what their own per-record walks read,
#: which the shared cell-tree descent must keep.
PINNED = {(RTreeIndex, "uniform"): (457, 195),
          (RTreeIndex, "diagonal"): (517, 195),
          (QuadTreeIndex, "uniform"): (725, 365),
          (QuadTreeIndex, "diagonal"): (1660, 594)}


def checked(index):
    """``index``, its stored structure checked if it has a checker (the
    box trees do)."""
    check = getattr(index, "check_invariants", None)
    if check is not None:
        check()
    return index


@pytest.fixture(scope="module")
def uniform_cloud():
    return uniform_points(2000, seed=1)


class TestCorrectness:
    @pytest.mark.parametrize("index_class", ALL_2D_BASELINES)
    def test_matches_ground_truth_uniform(self, index_class, uniform_cloud):
        index = checked(index_class(uniform_cloud, block_size=32))
        queries = halfspace_queries_with_selectivity(uniform_cloud, 4, 0.1, seed=2)
        for constraint in queries:
            assert brute_force_halfspace(uniform_cloud, constraint) == \
                {tuple(p) for p in index.query(constraint)}

    @pytest.mark.parametrize("index_class", ALL_2D_BASELINES)
    def test_matches_ground_truth_diagonal(self, index_class):
        points = diagonal_points(800, seed=3)
        index = checked(index_class(points, block_size=32))
        constraint = rotated_diagonal_query(points, angle=1e-3, selectivity=0.2)
        assert brute_force_halfspace(points, constraint) == \
            {tuple(p) for p in index.query(constraint)}

    @pytest.mark.parametrize("index_class", ALL_2D_BASELINES)
    def test_empty_index(self, index_class):
        index = checked(index_class(np.zeros((0, 2)), block_size=16))
        assert rows(index.query(LinearConstraint((0.0,), 0.0))) == []

    @pytest.mark.parametrize("index_class", ALL_2D_BASELINES)
    def test_empty_and_full_queries(self, index_class, uniform_cloud):
        index = checked(index_class(uniform_cloud, block_size=32))
        assert rows(index.query(LinearConstraint((0.0,), -100.0))) == []
        assert len(index.query(LinearConstraint((0.0,), 100.0))) == len(uniform_cloud)

    def test_rtree_handles_higher_dimensions(self):
        points = uniform_points(600, dimension=3, seed=4)
        index = checked(RTreeIndex(points, block_size=32))
        for constraint in random_halfspace_queries(4, dimension=3, seed=5):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}

    def test_kdb_handles_higher_dimensions(self):
        points = uniform_points(600, dimension=3, seed=6)
        index = checked(KDBTreeIndex(points, block_size=32))
        for constraint in random_halfspace_queries(4, dimension=3, seed=7):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in index.query(constraint)}

    @pytest.mark.parametrize("corruption", ["shrunk_box", "forward_child"])
    def test_a_broken_kdb_tree_fails_the_invariants(self, corruption):
        index = checked(KDBTreeIndex(uniform_points(300, seed=8),
                                     block_size=8))
        root = index._read_node(index._root)
        # The root's box, or its left child's (an internal node) left
        # child id, rewritten in the stored block.
        node_id = index._root if corruption == "shrunk_box" else root[1]
        block_index, slot = index._node_position[node_id]
        block_id = index._node_block_ids[block_index]
        records = index._store.backend.get(block_id)
        kind, left, right, lower, upper = records[slot]
        if corruption == "shrunk_box":
            lower = (lower[0] + 0.25 * (upper[0] - lower[0]),) + lower[1:]
        else:
            left = index._root
        records[slot] = (kind, left, right, lower, upper)
        index._store.write(block_id, records)
        message = "does not hold" if corruption == "shrunk_box" \
            else "lists child %d" % index._root
        with pytest.raises(AssertionError, match=message):
            index.check_invariants()

    @pytest.mark.parametrize("corruption, message", [
        ("swapped_vertices", "layer 0 is no strictly convex"),
        ("reversed_layer", "layer 1 is no strictly convex"),
        ("swapped_layers", "layer 1 leaves the hull of layer 0"),
        ("dropped_layer", "once each"),
    ])
    def test_a_broken_paged_cgl_fails_the_invariants(self, corruption,
                                                     message):
        index = checked(PagedDualIndex2D(uniform_points(300, seed=8),
                                         block_size=8))
        layers = index._layers
        assert index.num_layers > 3 and len(layers[1]) > 3
        if corruption in ("swapped_vertices", "reversed_layer"):
            # A layer's first block rewritten in the stored order.
            block_id = layers[corruption == "reversed_layer"].block_ids[0]
            records = index._store.backend.get(block_id)
            if corruption == "swapped_vertices":
                records[0], records[1] = records[1], records[0]
            else:
                records.reverse()
            index._store.write(block_id, records)
        elif corruption == "swapped_layers":
            layers[0], layers[1] = layers[1], layers[0]
        else:
            layers.pop()
        with pytest.raises(AssertionError, match=message):
            index.check_invariants()


class TestCosts:
    def test_full_scan_costs_n_blocks(self, uniform_cloud):
        index = FullScanIndex(uniform_cloud, block_size=32)
        n = math.ceil(len(uniform_cloud) / 32)
        result = index.query_with_stats(LinearConstraint((0.0,), -100.0))
        assert result.total_ios == n

    def test_spatial_trees_beat_scan_on_uniform_small_queries(self, uniform_cloud):
        constraint = halfspace_queries_with_selectivity(uniform_cloud, 1, 0.02,
                                                        seed=8)[0]
        n = math.ceil(len(uniform_cloud) / 32)
        for index_class in (QuadTreeIndex, RTreeIndex, KDBTreeIndex):
            index = index_class(uniform_cloud, block_size=32)
            result = index.query_with_stats(constraint)
            assert result.total_ios < n

    def test_degradation_on_diagonal_input(self):
        """Section 1.2: heuristics degrade toward Ω(n); the paper's structure does not."""
        points = diagonal_points(3000, seed=9)
        constraint = rotated_diagonal_query(points, angle=5e-4, selectivity=0.02)
        n = math.ceil(len(points) / 32)
        quad = QuadTreeIndex(points, block_size=32)
        quad_cost = quad.query_with_stats(constraint).total_ios
        ours = HalfplaneIndex2D(points, block_size=32, seed=10)
        ours_cost = ours.query_with_stats(constraint).total_ios
        # The quad-tree visits a constant fraction of its nodes, the optimal
        # structure stays close to the output bound.
        assert quad_cost > n / 2
        assert ours_cost < quad_cost

    @pytest.mark.parametrize("mode", ["vectorized", "scalar"])
    @pytest.mark.parametrize("index_class, which", list(PINNED),
                             ids=["rtree-uniform", "rtree-diagonal",
                                  "quadtree-uniform", "quadtree-diagonal"])
    def test_box_trees_keep_their_pinned_costs(self, index_class, which,
                                               mode):
        points = uniform_points(6000, seed=2) if which == "uniform" \
            else diagonal_points(6000, seed=1)
        queries = halfspace_queries_with_selectivity(points, 40, 0.02, seed=3)
        if which == "diagonal":
            queries.append(rotated_diagonal_query(points, angle=5e-4,
                                                  selectivity=0.02))
        index = checked(index_class(points, block_size=32))
        total = 0
        with scalar_kernels() if mode == "scalar" else nullcontext():
            for constraint in queries:
                cold = index.query_with_stats(constraint, clear_cache=True)
                assert sorted(rows(cold)) == sorted(map(tuple, points[
                    constraint.below_many(points)].tolist()))
                assert index.estimated_query_ios(constraint) \
                    == cold.total_ios
                total += cold.total_ios
        assert (total, index.space_blocks) == PINNED[index_class, which]

    def test_paged_structure_pays_per_point_probes(self):
        points = uniform_points(1500, seed=11)
        index = PagedDualIndex2D(points, block_size=32)
        constraint = halfspace_queries_with_selectivity(points, 1, 0.3, seed=12)[0]
        result = index.query_with_stats(constraint)
        t = math.ceil(result.count / 32)
        # Unblocked probing: the cost tracks T, not T/B.
        assert result.total_ios > 2 * t


class TestConvexLayers:
    def test_layers_partition_the_points(self):
        points = uniform_points(500, seed=13)
        layers = convex_layers(points)
        counts = sum(len(layer) for layer in layers)
        assert counts == len(points)
        all_indices = np.concatenate(layers)
        assert len(set(all_indices.tolist())) == len(points)

    def test_layers_are_nested(self):
        points = uniform_points(400, seed=14)
        layers = convex_layers(points)
        assert len(layers) >= 2
        # Outer layer's hull contains every inner point: the layer lists
        # its corners counter-clockwise, so nothing lies right of an edge.
        outer = points[layers[0]]
        edges = np.roll(outer, -1, axis=0) - outer
        inner = points[np.concatenate(layers[1:])]
        offsets = inner[:, None, :] - outer[None, :, :]
        assert np.all(edges[:, 0] * offsets[:, :, 1]
                      - edges[:, 1] * offsets[:, :, 0] >= -1e-9)

    def test_tiny_input(self):
        points = uniform_points(3, seed=15)
        layers = convex_layers(points)
        assert sum(len(layer) for layer in layers) == 3
