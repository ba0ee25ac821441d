"""Experiments T1-3D-LINEAR and T1-dD — Table 1, rows 5–7: linear-size trees.

Paper claim: with O(n) blocks, a d-dimensional halfspace query costs
O(n^{1-1/d+eps} + t) I/Os.  The benchmark measures, for d = 2, 3, 4, the
query I/Os of the partition tree on growing inputs with small outputs and
fits the growth exponent, which should be close to (and not much above)
1 - 1/d; it also verifies the linear space bound and the simplex-query
variant (Remark i).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import PartitionTreeIndex
from repro.experiments import ExperimentResult, log_fit_exponent, run_query_workload
from repro.geometry.simplex import Simplex
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from .conftest import blocks, print_experiment

BLOCK_SIZE = 32
SIZES = [2048, 4096, 8192, 16384]
DIMENSIONS = [2, 3, 4]
NUM_QUERIES = 6

_cache = {}


def build(num_points, dimension):
    key = (num_points, dimension)
    if key not in _cache:
        points = uniform_points(num_points, dimension=dimension, seed=num_points + dimension)
        index = PartitionTreeIndex(points, block_size=BLOCK_SIZE)
        _cache[key] = (points, index)
    return _cache[key]


def small_output_queries(points, seed):
    return halfspace_queries_with_selectivity(points, NUM_QUERIES,
                                               64.0 / len(points), seed=seed)


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_t1_partition_query_ios(benchmark, dimension):
    """Query I/Os of the linear-size partition tree (largest size, small output)."""
    num_points = SIZES[-1]
    points, index = build(num_points, dimension)
    queries = small_output_queries(points, seed=10 + dimension)
    summary = run_query_workload(index, queries, label="warmup")
    benchmark(lambda: [index.query(q) for q in queries])
    benchmark.extra_info["mean_ios"] = summary.mean_ios
    benchmark.extra_info["dimension"] = dimension
    benchmark.extra_info["space_blocks"] = index.space_blocks


@pytest.mark.parametrize("dimension", DIMENSIONS)
def test_t1_partition_growth_exponent(benchmark, dimension):
    """Fit the I/O growth exponent and compare against 1 - 1/d."""
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    result = ExperimentResult(
        "T1-dD (d=%d)" % dimension,
        "linear-size partition tree: O(n) space, O(n^{1-1/d+eps} + t) I/Os")
    costs = []
    for num_points in SIZES:
        points, index = build(num_points, dimension)
        queries = small_output_queries(points, seed=20 + dimension)
        summary = run_query_workload(index, queries, label="N=%d" % num_points)
        costs.append(summary.mean_ios)
        result.add(summary)
    print_experiment(result)
    exponent = log_fit_exponent(SIZES, costs)
    target = 1.0 - 1.0 / dimension
    print("d=%d measured exponent %.3f (paper: %.3f + eps)"
          % (dimension, exponent, target))
    # The measured growth should be sublinear and in the neighbourhood of
    # the paper's exponent (generously bounded: small inputs, additive t).
    assert exponent < 1.0
    assert exponent < target + 0.35
    # Linear space.
    for num_points in SIZES:
        __, index = build(num_points, dimension)
        assert index.space_blocks <= 8 * blocks(num_points, BLOCK_SIZE)


def test_t1_partition_simplex_queries(benchmark):
    """Remark i: the same walk answers simplex queries output-sensitively."""
    points, index = build(SIZES[-2], 2)
    triangle = Simplex.from_vertices_2d([(-0.4, -0.4), (0.5, -0.2), (0.0, 0.6)])
    expected = {tuple(p) for p in points if triangle.contains(p)}

    def run():
        return index.query(triangle)

    reported = benchmark(run)
    assert {tuple(p) for p in reported} == expected
    store = index.store
    store.clear_cache()
    before = store.stats.snapshot()
    index.query(triangle)
    ios = store.stats.delta(before).total
    benchmark.extra_info["simplex_ios"] = ios
    n = blocks(len(points), BLOCK_SIZE)
    print("simplex query: %d I/Os, T=%d, n=%d" % (ios, len(expected), n))
    assert ios < n
