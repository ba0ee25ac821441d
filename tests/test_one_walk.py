"""A cell tree's one-call walk is the recursive walk it replaced.

A query classifies every node's box in one call, picks its blocks —
tables and leaves — out of the tree's read order and reads them in one
run; a delegated node (a shallow tree's secondary walk, a hybrid leaf's
structure) answers at its place in that order.  The oracle is the walk
it replaced: the recursion over the stored tables, a record at a time
(``scan_oracle.walk`` under ``scalar_kernels()``).  On every box-tree
kind, pools of 0, 1 and 4 blocks, a constraint and a 2-conjunct polytope,
a run of queries must match the oracle's in answer bytes and row order,
reads and pool hits, the pool's contents in recency order and
``last_query``; on the exactly priced kinds, a cold query reads what
``estimated_query_ios`` prices.  The explicit examples are Section 1.2's
near-diagonal query on diagonal points and collinear runs.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.baselines import QuadTreeIndex, RTreeIndex
from repro.core import (ConstraintConjunction, HybridIndex3D,
                        PartitionTreeIndex, ShallowPartitionTreeIndex)
from repro.geometry.primitives import LinearConstraint
from repro.io.store import BlockStore

from conftest import EXACTLY_PRICED
from scan_oracle import scalar_kernels

#: Each kind's build on a store, a block size and a "wide" switch (child
#: tables of several blocks where the kind takes a fanout), and the
#: dimensions it indexes.
KINDS = {
    "partition_tree": (lambda points, store, wide: PartitionTreeIndex(
        points, store=store, max_fanout=3 * store.block_size if wide
        else None), (2, 4)),
    "rtree": (lambda points, store, wide: RTreeIndex(
        points, store=store, fanout=3 * store.block_size if wide
        else None), (2, 4)),
    "quadtree": (lambda points, store, wide: QuadTreeIndex(
        points, store=store), (2, 2)),
    "shallow_tree": (lambda points, store, wide: ShallowPartitionTreeIndex(
        points, store=store, max_fanout=3 * store.block_size if wide
        else None, shallow_factor=1.0), (2, 4)),
    "hybrid3d": (lambda points, store, wide: HybridIndex3D(
        points, store=store, leaf_exponent=1.2, seed=5), (3, 3)),
}


def make_points(shape: str, count: int, dimension: int,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform points, or Section 1.2's jittered diagonal, or collinear
    runs (a few points repeated along one direction), or duplicates."""
    if shape == "diagonal":
        along = np.sort(rng.uniform(-1.0, 1.0, count))[:, None]
        return along + rng.normal(scale=1e-4, size=(count, dimension))
    if shape == "collinear":
        steps = rng.integers(0, 6, size=(count, 1)).astype(float)
        return steps * rng.normal(size=dimension) + rng.random(dimension)
    if shape == "duplicates":
        return rng.choice([0.0, 0.5, 1.0], size=(count, dimension))
    return rng.random((count, dimension))


def make_queries(points: np.ndarray, shape: str,
                 rng: np.random.Generator):
    """Three constraints — on the diagonal, bounded by the diagonal
    turned by 1e-3 radians — two of them through a stored point, and two
    polytopes of two of them each."""
    dimension = points.shape[1]
    constraints = []
    for number in range(3):
        if shape == "diagonal":
            coeffs = (math.tan(math.pi / 4 + 1e-3),) + (0.0,) * (dimension - 2)
        else:
            coeffs = tuple(rng.normal(size=dimension - 1).round(2))
        point = points[rng.integers(0, len(points))]
        offset = float(point[-1] - np.dot(coeffs, point[:-1]))
        if number == 1:
            offset += float(rng.normal(scale=0.1))
        constraints.append(LinearConstraint(coeffs=coeffs, offset=offset))
    return constraints + [ConstraintConjunction.of(first, second)
                          .to_polytope() for first, second in (
                              constraints[:2], constraints[1:])]


def replay(index, regions):
    """Each query in turn on a cold pool: the answer bytes and shape,
    the reads and pool hits it charged, the pool's ids in recency order
    after it, and its account."""
    store = index.store
    store.clear_cache()
    store.reset_stats()
    seen = []
    for region in regions:
        reads, hits = store.stats.reads, store.stats.cache_hits
        answer = index.query(region)
        seen.append((answer.tobytes(), answer.shape,
                     store.stats.reads - reads,
                     store.stats.cache_hits - hits,
                     [key for key, __ in store._cache.items()],
                     dict(index.last_query)))
    return seen


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       shape=st.sampled_from(["uniform", "diagonal", "collinear",
                              "duplicates"]),
       pool=st.sampled_from([0, 1, 4]), block_size=st.sampled_from([4, 8]),
       wide=st.booleans(),
       count=st.one_of(st.integers(1, 40), st.integers(120, 240)),
       dimension=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
@example(kind="partition_tree", shape="diagonal", pool=4, block_size=8,
         wide=False, count=240, dimension=2, seed=1)
@example(kind="quadtree", shape="diagonal", pool=1, block_size=4,
         wide=False, count=240, dimension=2, seed=2)
@example(kind="rtree", shape="diagonal", pool=0, block_size=4, wide=True,
         count=200, dimension=2, seed=3)
@example(kind="shallow_tree", shape="diagonal", pool=4, block_size=4,
         wide=True, count=240, dimension=2, seed=4)
@example(kind="shallow_tree", shape="uniform", pool=4, block_size=4,
         wide=True, count=240, dimension=2, seed=0)
@example(kind="hybrid3d", shape="diagonal", pool=4, block_size=4,
         wide=False, count=200, dimension=3, seed=5)
@example(kind="partition_tree", shape="collinear", pool=1, block_size=4,
         wide=True, count=200, dimension=3, seed=6)
@example(kind="shallow_tree", shape="collinear", pool=0, block_size=4,
         wide=False, count=200, dimension=2, seed=7)
@example(kind="hybrid3d", shape="collinear", pool=1, block_size=4,
         wide=False, count=160, dimension=3, seed=8)
def test_the_one_call_walk_is_the_record_walk(kind, shape, pool, block_size,
                                              wide, count, dimension, seed):
    build, (lowest, highest) = KINDS[kind]
    dimension = min(max(dimension, lowest), highest)
    rng = np.random.default_rng(seed)
    points = make_points(shape, count, dimension, rng)
    regions = make_queries(points, shape, rng)
    store = BlockStore(block_size=block_size, cache_blocks=pool)
    try:
        index = build(points, store, wide)
        index.check_invariants()
        walked = replay(index, regions)
        with scalar_kernels():
            recorded = replay(index, regions)
        for region, one, oracle in zip(regions, walked, recorded):
            assert one == oracle, (kind, region)
        if kind in EXACTLY_PRICED:
            for constraint in regions[:3]:
                cold = index.query_with_stats(constraint, clear_cache=True)
                assert index.estimated_query_ios(constraint, 1) \
                    == cold.total_ios, constraint
    finally:
        store.close()
