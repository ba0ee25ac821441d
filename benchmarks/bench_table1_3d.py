"""Experiment T1-3D-OPT — Table 1, row 2: the 3-D random-sampling structure.

Paper claim: O(n log2 n) expected blocks of space and O(log_B n + t)
expected query I/Os.  The benchmark measures space against n log2 n and
query I/Os at a fixed output size as N grows (the additive term should stay
nearly flat), plus I/Os as a function of the output size at fixed N (should
be linear in t).  Two shapes: points in a ball answered from three
independent copies, as the paper prescribes for the optimal expectation, and
the engine's own — a uniform cube and one copy, where a sample's few
envelope planes are low over whole octants of directions and one permutation
cannot be lucky for all of them.  The space rows use one copy.  The fitted
numbers of both shapes go into the committed ``BENCH_table1.json``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import HalfspaceIndex3D
from repro.experiments import ExperimentResult, log_fit_exponent, run_query_workload
from repro.workloads import (halfspace_queries_with_selectivity,
                             uniform_points, uniform_points_ball)

from .conftest import blocks, persist_table1, print_experiment

BLOCK_SIZE = 32
SIZES = [1024, 2048, 4096]
FIXED_OUTPUT = 128
NUM_QUERIES = 6
#: (points, copies the query batches use) per shape.
SHAPES = {"ball": (uniform_points_ball, 3),
          "cube": (lambda count, **keywords: uniform_points(
              count, dimension=3, **keywords), 1)}

_cache = {}


def build(num_points, copies=3, shape="ball"):
    key = (num_points, copies, shape)
    if key not in _cache:
        points = SHAPES[shape][0](num_points, seed=num_points)
        index = HalfspaceIndex3D(points, block_size=BLOCK_SIZE, copies=copies,
                                 seed=7)
        _cache[key] = (points, index)
    return _cache[key]


@pytest.mark.parametrize("num_points", SIZES)
def test_t1_3d_query_ios(benchmark, num_points):
    """Query I/Os of the 3-D structure at a fixed output size."""
    points, index = build(num_points)
    selectivity = FIXED_OUTPUT / num_points
    queries = halfspace_queries_with_selectivity(points, NUM_QUERIES,
                                                 selectivity, seed=8)
    summary = run_query_workload(index, queries, label="warmup")
    benchmark(lambda: [index.query(q) for q in queries])
    benchmark.extra_info["mean_ios"] = summary.mean_ios
    benchmark.extra_info["mean_t"] = summary.mean_output_blocks
    benchmark.extra_info["space_blocks"] = index.space_blocks


def test_t1_3d_report_table(benchmark):
    """Print the Table-1-row-2 evidence, check the shape of both bounds
    and persist the fitted numbers."""
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = {}
    for shape, (__, copies) in SHAPES.items():
        result = ExperimentResult(
            "T1-3D-OPT-" + shape,
            "3-D halfspace queries, %s, %d cop%s: O(n log2 n) space, "
            "O(log_B n + t) expected I/Os"
            % (shape, copies, "y" if copies == 1 else "ies"))
        fixed_costs = []
        for num_points in SIZES:
            points, index = build(num_points, copies, shape)
            selectivity = FIXED_OUTPUT / num_points
            queries = halfspace_queries_with_selectivity(
                points, NUM_QUERIES, selectivity, seed=8)
            summary = run_query_workload(index, queries,
                                         label="N=%d fixed-T" % num_points)
            fixed_costs.append(summary.mean_ios)
            result.add(summary)
        # Output-size sweep at the largest N.
        points, index = build(SIZES[-1], copies, shape)
        sweep = []
        for selectivity in (0.01, 0.05, 0.2):
            queries = halfspace_queries_with_selectivity(
                points, NUM_QUERIES, selectivity, seed=9)
            summary = run_query_workload(
                index, queries, label="N=%d sel=%g" % (SIZES[-1], selectivity))
            sweep.append((summary.mean_output_blocks, summary.mean_ios))
            result.add(summary)
        print_experiment(result)

        growth = log_fit_exponent(SIZES, fixed_costs)
        print("%s: fixed-output growth exponent (want << 2/3): %.3f"
              % (shape, growth))
        # One copy can be unlucky for a whole octant of directions, where
        # it scans: the exponent is then reported, and bounded by the scan's.
        assert growth < (0.55 if copies > 1 else 1.0)
        slope = float(np.polyfit(*zip(*sweep), 1)[0])
        print("%s: I/Os per output block over the sweep: %.2f" % (shape, slope))
        # No sweep point above the scan and the probes that precede it.
        assert max(ios for __, ios in sweep) \
            <= blocks(SIZES[-1], BLOCK_SIZE) + 16 * copies

        # Space: within a moderate constant of n log2 n (single copy).
        space = {}
        for num_points in SIZES:
            __, single = build(num_points, 1, shape)
            n = blocks(num_points, BLOCK_SIZE)
            print("%s: space N=%d: %d blocks (n log2 n = %d)"
                  % (shape, num_points, single.space_blocks,
                     int(n * math.log2(n))))
            assert single.space_blocks <= 8 * n * max(1.0, math.log2(n))
            space[str(num_points)] = round(
                single.space_blocks / (n * math.log2(n)), 3)
        table[shape] = {
            "copies": copies, "block_size": BLOCK_SIZE, "sizes": SIZES,
            "fixed_output": FIXED_OUTPUT,
            "fixed_output_mean_ios": [round(cost, 2) for cost in fixed_costs],
            "fixed_output_growth_exponent": round(growth, 3),
            "sweep_output_blocks_and_mean_ios": [
                [round(t, 2), round(ios, 2)] for t, ios in sweep],
            "ios_per_output_block_slope": round(slope, 3),
            "space_blocks_over_n_log2_n": space,
        }
    persist_table1("table1_3d", table)


def test_t1_3d_space_scaling(benchmark):
    """Space of the single-copy structure versus n log2 n."""
    def measure():
        return {n: build(n, copies=1)[1].space_blocks for n in SIZES}
    space = benchmark(measure)
    ratios = [space[n] / (blocks(n, BLOCK_SIZE) * max(1.0, math.log2(blocks(n, BLOCK_SIZE))))
              for n in SIZES]
    benchmark.extra_info["space_over_nlogn"] = ratios
    assert max(ratios) / min(ratios) < 3.0
