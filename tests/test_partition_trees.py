"""Tests for the partition-tree family (Sections 5 and 6)."""

import math

import numpy as np
import pytest

from repro.core.hybrid3d import HybridIndex3D
from repro.core.partition_tree import PartitionTreeIndex
from repro.core.shallow_tree import ShallowPartitionTreeIndex
from repro.geometry.boxes import Box
from repro.geometry.hamsandwich import ham_sandwich_partition
from repro.geometry.partitions import PartitionCell
from repro.geometry.primitives import LinearConstraint
from repro.geometry.simplex import Simplex
from repro.workloads import (
    clustered_points,
    halfspace_queries_with_selectivity,
    random_halfspace_queries,
    uniform_points,
    uniform_points_ball,
)

from conftest import assert_answer, brute_force_halfspace, rows


def checked(tree):
    """``tree``, once its stored structure has passed its invariants."""
    tree.check_invariants()
    return tree


@pytest.fixture(scope="module")
def tree_2d():
    points = uniform_points(2500, seed=1)
    return points, checked(PartitionTreeIndex(points, block_size=32))


@pytest.fixture(scope="module")
def tree_4d():
    points = uniform_points(1500, dimension=4, seed=2)
    return points, checked(PartitionTreeIndex(points, block_size=32))


class TestPartitionTree:
    def test_matches_ground_truth_2d(self, tree_2d):
        points, tree = tree_2d
        queries = halfspace_queries_with_selectivity(points, 8, 0.05, seed=3)
        queries += halfspace_queries_with_selectivity(points, 4, 0.5, seed=4)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    def test_matches_ground_truth_4d(self, tree_4d):
        points, tree = tree_4d
        for constraint in random_halfspace_queries(6, dimension=4, seed=5):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    def test_matches_ground_truth_3d_clustered(self):
        points = clustered_points(1200, dimension=3, seed=6)
        tree = checked(PartitionTreeIndex(points, block_size=32))
        for constraint in random_halfspace_queries(6, dimension=3, seed=7):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    def test_space_is_linear(self, tree_2d):
        points, tree = tree_2d
        n = math.ceil(len(points) / tree.block_size)
        assert tree.space_blocks <= 6 * n

    def test_query_io_sublinear_for_small_output(self, tree_2d):
        points, tree = tree_2d
        constraint = halfspace_queries_with_selectivity(points, 1, 0.02, seed=8)[0]
        result = tree.query_with_stats(constraint)
        n = math.ceil(len(points) / tree.block_size)
        assert result.total_ios < n

    def test_empty_index(self):
        tree = checked(PartitionTreeIndex(np.zeros((0, 2)), block_size=16))
        assert rows(tree.query(LinearConstraint((0.0,), 0.0))) == []

    def test_dimension_mismatch_rejected(self, tree_2d):
        __, tree = tree_2d
        with pytest.raises(ValueError):
            tree.query(LinearConstraint((1.0, 1.0), 0.0))

    def test_simplex_query_matches_filter(self, tree_2d):
        points, tree = tree_2d
        triangle = Simplex.from_vertices_2d([(-0.5, -0.5), (0.7, -0.3), (0.0, 0.8)])
        expected = {tuple(p) for p in points if triangle.contains(p)}
        actual = {tuple(p) for p in tree.query(triangle)}
        assert actual == expected

    def test_simplex_query_empty_region(self, tree_2d):
        points, tree = tree_2d
        far_triangle = Simplex.from_vertices_2d([(10, 10), (11, 10), (10, 11)])
        assert rows(tree.query(far_triangle)) == []

    def test_simplex_query_counts_its_own_nodes(self, tree_2d):
        points, tree = tree_2d
        tree.query(halfspace_queries_with_selectivity(points, 1, 0.5, seed=4)[0])
        after_halfspace = tree.last_query["nodes_crossed"]
        far_triangle = Simplex.from_vertices_2d([(10, 10), (11, 10), (10, 11)])
        tree.query(far_triangle)
        assert tree.last_query["nodes_crossed"] == 1 < after_halfspace   # the root only
        triangle = Simplex.from_vertices_2d([(-0.5, -0.5), (0.7, -0.3), (0.0, 0.8)])
        tree.query(triangle)
        assert 1 < tree.last_query["nodes_crossed"] <= tree.num_nodes

    def test_ham_sandwich_partitioner_variant_correct(self):
        points = uniform_points(900, seed=9)
        tree = checked(PartitionTreeIndex(points, block_size=32,
                                          partitioner=ham_sandwich_partition))
        for constraint in random_halfspace_queries(5, seed=10):
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    @pytest.mark.parametrize("kind", [PartitionTreeIndex,
                                      ShallowPartitionTreeIndex])
    @pytest.mark.parametrize("capacity", [0, -3])
    def test_leaf_capacity_below_one_rejected(self, kind, capacity):
        # A one-point node would partition into itself forever.
        with pytest.raises(ValueError, match="leaf_capacity"):
            kind(uniform_points(20, seed=24), block_size=4,
                 leaf_capacity=capacity)

    def test_a_partitioner_that_cannot_divide_is_refused(self):
        def one_cell(points, r, indices):
            return [PartitionCell(indices, Box.of_points(points[indices]))]
        with pytest.raises(ValueError, match="undivided"):
            PartitionTreeIndex(uniform_points(100, seed=26), block_size=8,
                               partitioner=one_cell)

    def test_a_broken_box_fails_the_invariants(self):
        tree = checked(PartitionTreeIndex(uniform_points(300, seed=25),
                                          block_size=8))
        root = tree._nodes[-1]
        table = tree._store.backend.get_payload(root.child_table.block_ids[0])
        shrunk = table.copy()
        shrunk[0, 1] += 0.25 * (shrunk[0, 3] - shrunk[0, 1])   # lower x up
        shrunk.setflags(write=False)
        tree._store.write(root.child_table.block_ids[0], shrunk)
        with pytest.raises(AssertionError, match="does not hold"):
            tree.check_invariants()

    @pytest.mark.parametrize("corrupt", ["box", "order"])
    def test_what_the_walk_reads_in_memory_is_held_to_the_disk(self,
                                                               corrupt):
        """The walk reads boxes and the read order from memory: one box
        nudged by an ulp, or two blocks of the order swapped, and the
        stored tables refuse them."""
        tree = checked(PartitionTreeIndex(uniform_points(300, seed=25),
                                          block_size=8))
        if corrupt == "box":
            lowers = tree._costs.lowers
            lowers[5, 0] = np.nextafter(lowers[5, 0], -np.inf)
            match = "in memory is not its table row"
        else:
            blocks = tree._order.blocks
            blocks[[3, 4]] = blocks[[4, 3]]
            match = "read order"
        with pytest.raises(AssertionError, match=match):
            tree.check_invariants()

    def test_nodes_visited_smaller_than_node_count(self, tree_2d):
        points, tree = tree_2d
        constraint = halfspace_queries_with_selectivity(points, 1, 0.05, seed=11)[0]
        tree.query(constraint)
        assert 0 < tree.last_query["nodes_crossed"] <= tree.num_nodes


class TestShallowTree:
    @pytest.fixture(scope="class")
    def shallow_3d(self):
        points = uniform_points_ball(1200, dimension=3, seed=12)
        return points, checked(ShallowPartitionTreeIndex(points,
                                                         block_size=32))

    def test_matches_ground_truth(self, shallow_3d):
        points, tree = shallow_3d
        queries = halfspace_queries_with_selectivity(points, 5, 0.03, seed=13)
        queries += halfspace_queries_with_selectivity(points, 3, 0.4, seed=14)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    def test_space_within_log_factor(self, shallow_3d):
        points, tree = shallow_3d
        n = math.ceil(len(points) / tree.block_size)
        log_factor = max(1.0, math.log(n) / math.log(tree.block_size)) + 1
        assert tree.space_blocks <= 12 * n * log_factor

    def test_shallow_query_uses_few_ios(self, shallow_3d):
        points, tree = shallow_3d
        constraint = halfspace_queries_with_selectivity(points, 1, 0.01, seed=15)[0]
        result = tree.query_with_stats(constraint)
        n = math.ceil(len(points) / tree.block_size)
        assert result.total_ios < n

    def test_deep_query_falls_back_to_secondary(self, shallow_3d):
        points, tree = shallow_3d
        constraint = halfspace_queries_with_selectivity(points, 1, 0.6, seed=16)[0]
        tree.query(constraint)
        # Large outputs are allowed to use the secondary structures; the
        # counter merely has to be consistent (>= 0).
        assert tree.last_query["secondary_walks"] >= 0

    def test_a_secondary_walk_counts_into_the_query_account(self):
        """At d = 4 the root hands every one of these halfspaces to its
        secondary tree.  The query's crossed nodes are the root and all
        of that walk's: one account, however deep the walks nest."""
        points = uniform_points(16384, dimension=4, seed=2000)
        tree = ShallowPartitionTreeIndex(points, block_size=32)
        secondary = tree._nodes[tree._root].secondary
        for constraint in random_halfspace_queries(40, 4, seed=8):
            tree.query(constraint)
            account = tree.last_query
            secondary.query(constraint)
            assert account["secondary_walks"] == 1
            assert account["nodes_crossed"] \
                == 1 + secondary.last_query["nodes_crossed"] > 100

    def test_empty_index(self):
        tree = checked(ShallowPartitionTreeIndex(np.zeros((0, 3)),
                                                 block_size=16))
        assert rows(tree.query(LinearConstraint((0.0, 0.0), 0.0))) == []

    def test_dimension_mismatch_rejected(self, shallow_3d):
        __, tree = shallow_3d
        with pytest.raises(ValueError):
            tree.query(LinearConstraint((1.0,), 0.0))


class TestHybrid3D:
    @pytest.fixture(scope="class")
    def hybrid(self):
        points = uniform_points_ball(1500, dimension=3, seed=17)
        return points, checked(HybridIndex3D(points, block_size=32,
                                             leaf_exponent=1.5, seed=18))

    def test_matches_ground_truth(self, hybrid):
        points, tree = hybrid
        queries = halfspace_queries_with_selectivity(points, 5, 0.05, seed=19)
        queries += halfspace_queries_with_selectivity(points, 3, 0.35, seed=20)
        for constraint in queries:
            assert brute_force_halfspace(points, constraint) == \
                {tuple(p) for p in tree.query(constraint)}

    def test_leaf_threshold_respects_exponent(self, hybrid):
        # The recursion stops at subsets of at most B^a points: no leaf
        # holds more, and the largest holds more than a B-point cap allows.
        points, tree = hybrid
        sizes = [node.size for node in tree._nodes if node.is_leaf]
        assert sum(sizes) == len(points)
        assert tree.block_size < max(sizes) <= round(tree.block_size ** 1.5)

    def test_leaf_exponent_must_exceed_one(self):
        with pytest.raises(ValueError):
            HybridIndex3D(uniform_points_ball(100, seed=21), leaf_exponent=1.0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            HybridIndex3D(np.zeros((10, 2)))

    def test_small_query_beats_full_scan(self, hybrid):
        points, tree = hybrid
        constraint = halfspace_queries_with_selectivity(points, 1, 0.01, seed=22)[0]
        result = tree.query_with_stats(constraint)
        n = math.ceil(len(points) / tree.block_size)
        assert result.total_ios < n

    def test_answers_are_read_only_matrices_reported_by_the_block(self, hybrid):
        """BELOW subtrees hand over whole payload matrices; the answer is
        a read-only (n, 3) float64 matrix, the empty one (0, 3), as for
        the other trees."""
        points, tree = hybrid
        everything = tree.query(LinearConstraint((0.0, 0.0), 10.0))
        assert_answer(everything, 3)
        assert everything.shape == (len(points), 3)
        assert tree.last_query["leaves_queried"] == 0
        nothing = tree.query(LinearConstraint((0.0, 0.0), -10.0))
        assert_answer(nothing, 3)
        assert nothing.shape == (0, 3)

    def test_leaves_queried_counter(self, hybrid):
        points, tree = hybrid
        constraint = halfspace_queries_with_selectivity(points, 1, 0.05, seed=23)[0]
        tree.query(constraint)
        assert tree.last_query["leaves_queried"] >= 0
        assert tree.last_query["leaf_scans"] \
            <= tree.last_query["leaves_queried"]

    def test_empty_index(self):
        tree = checked(HybridIndex3D(np.zeros((0, 3)), block_size=16))
        assert rows(tree.query(LinearConstraint((0.0, 0.0), 0.0))) == []
