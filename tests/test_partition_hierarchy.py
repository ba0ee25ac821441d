"""Median cuts in vectorised rounds make exactly the per-split recursion's
partitions, and the cell trees built on them are the same trees.

``median_cut_partition`` and a cell tree's ``median_cut_hierarchy`` halve
every piece of one split depth in one round over presorted columns; the
one-split-at-a-time recursion they replaced lives on in
``partition_oracle.py`` as the reference.  Parity is field by field: cells
in order, each cell's indices in order, every box; and for
``PartitionTreeIndex``, ``ShallowPartitionTreeIndex`` (secondary trees
included) and ``HybridIndex3D`` the node count, every stored table and leaf
block, ``build_ios``, ``space_blocks`` and ordered answers with their I/Os.
Boxes are compared as numbers: where a coordinate is both 0.0 and -0.0 the
sign of a box's zero is not specified, and no comparison can tell.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import partition_tree
from repro.core.hybrid3d import HybridIndex3D
from repro.core.partition_tree import PartitionTreeIndex
from repro.core.shallow_tree import ShallowPartitionTreeIndex
from repro.geometry.partitions import median_cut_partition
from repro.geometry.primitives import LinearConstraint

from conftest import rows
from partition_oracle import (oracle_median_cut_hierarchy,
                              oracle_median_cut_partition)


# ----------------------------------------------------------------------
# generated inputs: the tie families the rounds' lexsort exists for
# ----------------------------------------------------------------------
_unit = st.floats(-1.0, 1.0, allow_nan=False, width=32)


@st.composite
def grid_points(draw, dimension):
    """Integer-grid points: every column full of repeats."""
    cell = st.tuples(*[st.integers(-3, 3)] * dimension)
    return draw(st.lists(cell, max_size=120))


@st.composite
def duplicated_points(draw, dimension):
    """A few distinct points, each repeated."""
    pool = draw(st.lists(st.tuples(*[_unit] * dimension), min_size=1,
                         max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=120))
    return [pool[pick] for pick in picks]


@st.composite
def collinear_points(draw, dimension):
    """Points on one line through the cube, plus a few strays."""
    direction = draw(st.tuples(*[_unit] * dimension))
    steps = draw(st.lists(_unit, max_size=100))
    strays = draw(st.lists(st.tuples(*[_unit] * dimension), max_size=10))
    return [tuple(t * c for c in direction) for t in steps] + strays


@st.composite
def scattered_points(draw, dimension):
    return draw(st.lists(st.tuples(*[_unit] * dimension), max_size=150))


@st.composite
def point_sets(draw, dimensions=(1, 2, 3, 4, 5)):
    dimension = draw(st.sampled_from(dimensions))
    family = draw(st.sampled_from([grid_points, duplicated_points,
                                   collinear_points, scattered_points]))
    points = draw(family(dimension))
    return np.array(points, dtype=float).reshape(-1, dimension)


def assert_same_cells(cells, expected):
    assert len(cells) == len(expected)
    for cell, wanted in zip(cells, expected):
        assert cell.indices.tolist() == wanted.indices.tolist()
        assert cell.cell == wanted.cell


class TestRoundsMatchTheRecursion:
    @settings(max_examples=200, deadline=None)
    @given(point_sets(), st.integers(1, 70), st.data())
    def test_partition_equal_cell_by_cell(self, points, r, data):
        assert_same_cells(median_cut_partition(points, r),
                          oracle_median_cut_partition(points, r))
        # An index subset, in any order: a node's partition in a tree.
        subset = np.array(data.draw(st.permutations(range(len(points))))
                          [:data.draw(st.integers(0, len(points)))],
                          dtype=np.intp)
        assert_same_cells(median_cut_partition(points, r, subset),
                          oracle_median_cut_partition(points, r, subset))

    def test_a_partition_of_nothing_is_empty(self):
        assert median_cut_partition(np.zeros((5, 2)), 3,
                                    np.zeros(0, dtype=np.intp)) == []


# ----------------------------------------------------------------------
# the trees: built on the rounds and on the per-node recursion
# ----------------------------------------------------------------------
def stored(tree, array):
    backend = tree._store.backend
    return [backend.get_payload(block_id) for block_id in array.block_ids]


def assert_same_tree(tree, expected):
    assert tree.num_nodes == expected.num_nodes
    assert tree.build_ios == expected.build_ios
    assert tree.space_blocks == expected.space_blocks
    for node, twin in zip(tree._nodes, expected._nodes):
        assert (node.is_leaf, node.size) == (twin.is_leaf, twin.size)
        array, twin_array = ((node.points_array, twin.points_array)
                             if node.is_leaf else
                             (node.child_table, twin.child_table))
        assert array.block_ids == twin_array.block_ids
        for block, wanted in zip(stored(tree, array),
                                 stored(expected, twin_array)):
            assert block.shape == wanted.shape
            assert np.array_equal(block, wanted)
        if node.secondary is not None:
            assert_same_tree(node.secondary, twin.secondary)


def constraints_for(points):
    """A few constraints cutting through the data (any, when empty)."""
    dimension = points.shape[1]
    rng = np.random.default_rng(len(points))
    middle = float(np.median(points[:, -1])) if len(points) else 0.0
    return [LinearConstraint(tuple(rng.uniform(-1, 1, dimension - 1)),
                             middle + shift) for shift in (-0.3, 0.0, 0.4)]


def build_both_ways(make):
    """``make()`` on the rounds, then on the per-node recursion."""
    tree = make()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partition_tree, "median_cut_hierarchy",
                      oracle_median_cut_hierarchy)
        expected = make()
    tree.check_invariants()
    expected.check_invariants()
    return tree, expected


def assert_same_answers(tree, expected, points):
    for constraint in constraints_for(points):
        answer = tree.query_with_stats(constraint)
        wanted = expected.query_with_stats(constraint)
        assert rows(answer) == rows(wanted)
        assert answer.ios == wanted.ios


_shapes = st.tuples(st.sampled_from([2, 3, 4, 8]),           # block size
                    st.sampled_from([None, 2, 3, 5, 16]),    # max fanout
                    st.sampled_from([None, 1, 2, 5]))        # leaf capacity


class TestTreesMatchTheRecursion:
    @settings(max_examples=120, deadline=None)
    @given(point_sets(), _shapes)
    def test_partition_tree_equal_field_by_field(self, points, shape):
        block_size, max_fanout, leaf_capacity = shape
        tree, expected = build_both_ways(lambda: PartitionTreeIndex(
            points, block_size=block_size, max_fanout=max_fanout,
            leaf_capacity=leaf_capacity))
        assert_same_tree(tree, expected)
        assert_same_answers(tree, expected, points)

    @settings(max_examples=60, deadline=None)
    @given(point_sets(), _shapes)
    def test_shallow_tree_equal_field_by_field(self, points, shape):
        block_size, max_fanout, leaf_capacity = shape
        tree, expected = build_both_ways(lambda: ShallowPartitionTreeIndex(
            points, block_size=block_size, max_fanout=max_fanout,
            leaf_capacity=leaf_capacity))
        assert_same_tree(tree, expected)
        assert_same_answers(tree, expected, points)

    @settings(max_examples=30, deadline=None)
    @given(point_sets(dimensions=(3,)), st.sampled_from([2, 3, 4]),
           st.sampled_from([None, 2, 5]))
    def test_hybrid_equal_field_by_field(self, points, block_size,
                                         max_fanout):
        tree, expected = build_both_ways(lambda: HybridIndex3D(
            points, block_size=block_size, max_fanout=max_fanout, seed=3))
        assert_same_tree(tree, expected)
        assert_same_answers(tree, expected, points)

    def test_a_large_uniform_tree_is_the_same(self):
        points = np.random.default_rng(1998).uniform(-1, 1, (5000, 2))
        tree, expected = build_both_ways(
            lambda: PartitionTreeIndex(points, block_size=16))
        assert tree.num_nodes > 300
        assert_same_tree(tree, expected)
        assert_same_answers(tree, expected, points)
