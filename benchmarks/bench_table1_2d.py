"""Experiment T1-2D — Table 1, row 1: the optimal 2-D structure.

Paper claim: O(n) blocks of space and O(log_B n + t) I/Os per query, in the
worst case.  The benchmark builds the structure for increasing N, runs
query batches with (a) a fixed output size and (b) a fixed selectivity, and
prints measured I/Os, output sizes and space.  The shape to verify:

* at fixed output size the mean I/Os stay essentially flat as N grows
  (the additive log_B n term moves by < a couple of I/Os over a 8x range);
* at fixed selectivity the mean I/Os grow linearly with t;
* space stays within a small constant of n = ⌈N/B⌉.

The report test persists the ``table1_2d`` section of ``BENCH_table1.json``:
per N the worst and mean I/Os at fixed output, space over n and the
build's level-walk counts (vertices, band cuts, lines looked at, lock
steps), with the fixed-output growth exponents beside the theorem's.
"""

from __future__ import annotations

import math

import pytest

from repro import HalfplaneIndex2D
from repro.baselines import FullScanIndex
from repro.experiments import ExperimentResult, log_fit_exponent, run_query_workload
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from .conftest import blocks, persist_table1, print_experiment

BLOCK_SIZE = 32
SIZES = [2048, 4096, 8192, 16384]
FIXED_OUTPUT = 256           # records per query for the "fixed T" batch
NUM_QUERIES = 8
#: Theorem 3.5's query bound is O(log_B n + t): at fixed output the cost
#: grows with N by no power of it.
THEOREM_EXPONENT = 0.0

_cache = {}


def build(num_points):
    if num_points not in _cache:
        points = uniform_points(num_points, seed=num_points)
        index = HalfplaneIndex2D(points, block_size=BLOCK_SIZE, seed=1)
        _cache[num_points] = (points, index)
    return _cache[num_points]


def run_fixed_output(num_points):
    points, index = build(num_points)
    selectivity = FIXED_OUTPUT / num_points
    queries = halfspace_queries_with_selectivity(points, NUM_QUERIES,
                                                 selectivity, seed=2)
    return run_query_workload(index, queries, label="N=%d fixed-T" % num_points)


def run_fixed_selectivity(num_points, selectivity):
    points, index = build(num_points)
    queries = halfspace_queries_with_selectivity(points, NUM_QUERIES,
                                                 selectivity, seed=3)
    return run_query_workload(index, queries,
                              label="N=%d sel=%g" % (num_points, selectivity))


@pytest.mark.parametrize("num_points", SIZES)
def test_t1_2d_query_ios(benchmark, num_points):
    """Query I/Os of the 2-D structure at a fixed output size."""
    points, index = build(num_points)
    selectivity = FIXED_OUTPUT / num_points
    queries = halfspace_queries_with_selectivity(points, NUM_QUERIES,
                                                 selectivity, seed=2)
    summary = run_query_workload(index, queries, label="warmup")
    benchmark(lambda: [index.query(q) for q in queries])
    benchmark.extra_info["mean_ios"] = summary.mean_ios
    benchmark.extra_info["mean_t"] = summary.mean_output_blocks
    benchmark.extra_info["space_blocks"] = index.space_blocks
    benchmark.extra_info["n_blocks"] = blocks(num_points, BLOCK_SIZE)


def test_t1_2d_report_table(benchmark):
    """Print the full Table-1-row-1 evidence table and check its shape."""
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    result = ExperimentResult(
        "T1-2D", "2-D halfplane queries: O(n) space, O(log_B n + t) I/Os")
    fixed_costs, worst_costs, per_size = [], [], {}
    for num_points in SIZES:
        summary = run_fixed_output(num_points)
        fixed_costs.append(summary.mean_ios)
        worst_costs.append(summary.max_ios)
        result.add(summary)
        __, index = build(num_points)
        walks = index.layer_builds
        per_size[str(num_points)] = {
            "worst_ios": summary.max_ios,
            "mean_ios": round(summary.mean_ios, 2),
            "space_over_n": round(
                index.space_blocks / blocks(num_points, BLOCK_SIZE), 3),
            "walk": {name: sum(getattr(layer, name) for layer in walks)
                     for name in ("vertices", "band_cuts", "work",
                                  "lock_steps")},
        }
    for selectivity in (0.01, 0.1):
        for num_points in (SIZES[0], SIZES[-1]):
            result.add(run_fixed_selectivity(num_points, selectivity))
    # Baseline for scale: a full scan at the largest size.
    points, __ = build(SIZES[-1])
    scan = FullScanIndex(points, block_size=BLOCK_SIZE)
    queries = halfspace_queries_with_selectivity(points, 2,
                                                 FIXED_OUTPUT / SIZES[-1], seed=2)
    result.add(run_query_workload(scan, queries, label="full-scan N=%d" % SIZES[-1]))
    print_experiment(result)

    # Shape check: with T fixed, quadrupling N should barely move the cost.
    growth = log_fit_exponent(SIZES, fixed_costs)
    worst_growth = log_fit_exponent(SIZES, worst_costs)
    print("fixed-output growth exponent (want << 1):", round(growth, 3),
          "worst:", round(worst_growth, 3))
    persist_table1("table1_2d", {
        "block_size": BLOCK_SIZE, "fixed_output": FIXED_OUTPUT,
        "queries": NUM_QUERIES, "sizes": per_size,
        "mean_growth_exponent": round(growth, 3),
        "worst_growth_exponent": round(worst_growth, 3),
        "theorem_exponent": THEOREM_EXPONENT,
    })
    assert growth < 0.35
    # Space: linear with a small constant.
    for num_points in SIZES:
        __, index = build(num_points)
        assert index.space_blocks <= 8 * blocks(num_points, BLOCK_SIZE)


def test_t1_2d_space_scaling(benchmark):
    """Space in blocks versus n (should be a constant multiple)."""
    def measure():
        return {n: build(n)[1].space_blocks for n in SIZES}
    space = benchmark(measure)
    ratios = [space[n] / blocks(n, BLOCK_SIZE) for n in SIZES]
    benchmark.extra_info["space_over_n"] = ratios
    assert max(ratios) / min(ratios) < 2.0
