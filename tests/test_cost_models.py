"""Every paper index prices the query it would run, without a block read.

A cell tree's ``estimated_query_ios`` replays its descent on an in-memory
copy of its cell tables, so it must *equal* what
``query_with_stats(c, clear_cache=True)`` charges: for the partition
tree, the R-tree and the quad-tree (down to leaves at its depth limit),
on any point set (duplicates, collinear grids, N < B, N = 0, d from 1 to
5; the R-tree from 2, the quad-tree at 2 only), under both kernel modes,
on the memory and file backends — and for the dynamic tree after inserts
and deletes that fill its buffer, tombstone its points and rebuild it.
``conftest.EXACTLY_PRICED`` names these kinds.  ``halfplane2d`` prices
the layers its query reads; a query answered from its first layer is
priced exactly.
"""

from __future__ import annotations

import contextlib
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import QuadTreeIndex, RTreeIndex
from repro.core import (HalfplaneIndex2D,
                        PartitionTreeIndex, ShallowPartitionTreeIndex)
from repro.geometry.primitives import LinearConstraint
from repro.io.backend import FileBackend
from repro.io.store import BlockStore
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from overlaid import OverlaidTree
from scan_oracle import scalar_kernels

SHAPES = ["uniform", "duplicates", "collinear", "grid", "below_b", "empty"]
#: The static cell trees of ``conftest.EXACTLY_PRICED``: each kind's
#: class and the dimensions it indexes.
CELL_TREES = {"partition_tree": (PartitionTreeIndex, 1, 5),
              "rtree": (RTreeIndex, 2, 5),
              "quadtree": (QuadTreeIndex, 2, 2)}


@st.composite
def point_sets(draw, lowest=1, highest=5):
    """``(block_size, points)``: the degenerate shapes beside uniform."""
    dimension = draw(st.integers(lowest, highest))
    block_size = draw(st.sampled_from([2, 3, 8]))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    count = {"empty": 0,
             "below_b": draw(st.integers(1, block_size - 1))}.get(
                 shape, draw(st.integers(block_size, 160)))
    if shape == "duplicates":
        points = rng.choice([0.0, 0.5, 1.0], size=(count, dimension))
    elif shape == "collinear":
        steps = rng.integers(0, 6, size=(count, 1)).astype(float)
        points = steps * rng.normal(size=dimension) + rng.random(dimension)
    elif shape == "grid":
        points = rng.integers(0, 4, size=(count, dimension)).astype(float)
    else:
        points = rng.random((count, dimension))
    return block_size, points


def constraints(rng, points, dimension, count=6):
    """Random directions, half of them through a stored point."""
    out = []
    for number in range(count):
        coeffs = tuple(rng.normal(size=dimension - 1).round(2))
        if number % 2 and len(points):
            point = points[rng.integers(0, len(points))]
            offset = float(point[-1] - np.dot(coeffs, point[:-1]))
        else:
            offset = float(rng.normal())
        out.append(LinearConstraint(coeffs=coeffs, offset=offset))
    return out


@contextlib.contextmanager
def kernel_mode(mode):
    if mode == "scalar":
        with scalar_kernels():
            yield
    else:
        yield


@contextlib.contextmanager
def opened_store(backend, block_size):
    with tempfile.TemporaryDirectory() as directory:
        medium = "memory" if backend == "memory" else FileBackend(
            os.path.join(directory, "blocks.log"))
        store = BlockStore(block_size, cache_blocks=4, backend=medium)
        try:
            yield store
        finally:
            store.close()


def assert_priced_exactly(index, queries):
    for constraint in queries:
        estimate = index.estimated_query_ios(constraint, 1)
        cold = index.query_with_stats(constraint, clear_cache=True)
        assert estimate == cold.total_ios, (constraint, estimate, cold.ios)


@pytest.mark.parametrize("mode", ["vectorized", "scalar"])
@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=90, deadline=None)
@given(kind=st.sampled_from(sorted(CELL_TREES)), data=st.data(),
       seed=st.integers(0, 2 ** 16))
def test_partition_tree_prices_its_cold_query_exactly(mode, backend, kind,
                                                      data, seed):
    """Each static cell tree; a quad-tree is also drawn with a depth
    limit of 3, where uniform points overfill its deepest leaves (as
    duplicates do at any limit)."""
    factory, lowest, highest = CELL_TREES[kind]
    block_size, points = data.draw(point_sets(lowest, highest))
    params = {"max_depth": data.draw(st.sampled_from([3, 32]))} \
        if kind == "quadtree" else {}
    dimension = points.shape[1]
    queries = constraints(np.random.default_rng(seed), points, dimension)
    with opened_store(backend, block_size) as store, kernel_mode(mode):
        tree = factory(points, store=store, **params)
        tree.check_invariants()
        assert_priced_exactly(tree, queries)


@pytest.mark.parametrize("mode", ["vectorized", "scalar"])
@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=30, deadline=None)
@given(drawn=point_sets(), seed=st.integers(0, 2 ** 16),
       ops=st.lists(st.tuples(st.sampled_from(["insert", "duplicate",
                                               "delete"]),
                              st.integers(0, 2 ** 16)),
                    max_size=40))
def test_dynamic_tree_prices_its_cold_query_exactly(mode, backend, drawn,
                                                    seed, ops):
    """After inserts (fresh and duplicated points), deletes of buffered
    and of tree copies, the buffer and tombstone rebuilds they set off:
    the tree's price plus the buffer's blocks."""
    block_size, points = drawn
    dimension = points.shape[1]
    rng = np.random.default_rng(seed)
    queries = constraints(rng, points, dimension)
    with opened_store(backend, block_size) as store, kernel_mode(mode):
        index = OverlaidTree(points, store=store, dimension=dimension)
        live = [tuple(point) for point in points.tolist()]
        for op, pick in ops:
            if op == "delete" and live:
                assert index.delete(live.pop(pick % len(live)))
                continue
            point = tuple(rng.random(dimension).tolist()) \
                if op == "insert" or not live else live[pick % len(live)]
            index.insert(point)
            live.append(point)
        assert index.size == len(live)
        assert_priced_exactly(index, queries)


@pytest.mark.parametrize("mode", ["vectorized", "scalar"])
def test_shallow_tree_prices_its_secondary_switches(mode):
    """Shallow trees hand a query crossing too many cells to a secondary
    tree; the price takes the same turn."""
    points = uniform_points(3000, dimension=3, seed=5)
    tree = ShallowPartitionTreeIndex(points, block_size=8,
                                     shallow_factor=0.5)
    switched = 0
    with kernel_mode(mode):
        for selectivity in (0.01, 0.2, 0.6):
            queries = halfspace_queries_with_selectivity(
                points, 8, selectivity, seed=int(selectivity * 100))
            assert_priced_exactly(tree, queries)
            for constraint in queries:
                tree.query(constraint)
                switched += tree.last_query["secondary_walks"]
    assert switched


def test_halfplane2d_prices_a_first_layer_answer_exactly():
    """Below λ_1 points to report, the query reads the first layer's
    boundary tree and relevant cluster and stops: so does its price."""
    points = uniform_points(4096, seed=11)
    index = HalfplaneIndex2D(points, block_size=32, seed=3)
    first = index._layers[0].lam
    priced = 0
    for selectivity in (0.002, 0.006, 0.012):
        for constraint in halfspace_queries_with_selectivity(
                points, 12, selectivity, seed=int(selectivity * 1e4)):
            cold = index.query_with_stats(constraint, clear_cache=True)
            if cold.count >= first:
                continue
            assert index.estimated_query_ios(constraint, cold.count) \
                == cold.total_ios
            priced += 1
    assert priced >= 12
