"""Experiment SEC1.2-DEGRADE — the motivating comparison of Section 1.2.

Paper claim: practical heuristics (quad-trees, R-trees, k-d-B-trees) can be
forced to Ω(n) I/Os by N points on a diagonal line queried with a halfplane
bounded by a slight rotation of that line, even when the output is small,
while the paper's structure keeps its O(log_B n + t) guarantee.  The
benchmark measures exactly that workload for every baseline and for the
optimal 2-D structure, and additionally shows the same structures on a
uniform input where the heuristics do fine (so the contrast is attributable
to the adversarial input, not to a generally bad baseline implementation).
The table's rows go into the ``baseline_degradation`` section of the
committed ``BENCH_table1.json``.
"""

from __future__ import annotations

import math

import pytest

from repro import HalfplaneIndex2D
from repro.baselines import FullScanIndex, KDBTreeIndex, QuadTreeIndex, RTreeIndex
from repro.experiments import ExperimentResult, run_query_workload
from repro.workloads import (
    diagonal_points,
    halfspace_queries_with_selectivity,
    rotated_diagonal_query,
    uniform_points,
)

from .conftest import blocks, persist_table1, print_experiment

BLOCK_SIZE = 32
NUM_POINTS = 6000
SELECTIVITY = 0.02

_cache = {}

STRUCTURES = {
    "quad-tree": QuadTreeIndex,
    "R-tree": RTreeIndex,
    "k-d-B-tree": KDBTreeIndex,
    "full scan": FullScanIndex,
    "HalfplaneIndex2D (Section 3)": lambda pts, block_size: HalfplaneIndex2D(
        pts, block_size=block_size, seed=11),
}


def datasets():
    if "diag" not in _cache:
        _cache["diag"] = diagonal_points(NUM_POINTS, seed=1)
        _cache["uniform"] = uniform_points(NUM_POINTS, seed=2)
    return _cache["diag"], _cache["uniform"]


def build(name, which):
    key = (name, which)
    if key not in _cache:
        diag, uniform = datasets()
        points = diag if which == "diag" else uniform
        factory = STRUCTURES[name]
        _cache[key] = factory(points, block_size=BLOCK_SIZE)
    return _cache[key]


@pytest.mark.parametrize("name", list(STRUCTURES))
def test_degradation_adversarial_query(benchmark, name):
    """Adversarial diagonal workload: cost of each structure."""
    diag, __ = datasets()
    index = build(name, "diag")
    constraint = rotated_diagonal_query(diag, angle=5e-4, selectivity=SELECTIVITY)
    result = index.query_with_stats(constraint)
    benchmark(lambda: index.query(constraint))
    benchmark.extra_info["ios"] = result.total_ios
    benchmark.extra_info["reported"] = result.count


def test_degradation_table(benchmark):
    """Print the Section 1.2 comparison table and check the contrast."""
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    diag, uniform = datasets()
    adversarial = [rotated_diagonal_query(diag, angle=5e-4,
                                          selectivity=SELECTIVITY)]
    benign = halfspace_queries_with_selectivity(uniform, 4, SELECTIVITY, seed=3)
    result = ExperimentResult(
        "SEC1.2-DEGRADE",
        "adversarial diagonal input (rotated query) versus uniform input")
    costs = {}
    rows = {name: {} for name in STRUCTURES}
    for which, queries in (("diagonal", adversarial), ("uniform", benign)):
        for name in STRUCTURES:
            index = build(name, "diag" if which == "diagonal" else which)
            summary = run_query_workload(index, queries,
                                         label="%s / %s" % (name, which))
            if which == "diagonal":
                costs[name] = summary.mean_ios
            result.add(summary)
            rows[name][which] = {
                "queries": summary.num_queries,
                "mean_ios": round(summary.mean_ios, 2),
                "max_ios": summary.max_ios,
                "mean_output_blocks": round(summary.mean_output_blocks, 2),
                "space_blocks": summary.space_blocks}
    print_experiment(result)
    persist_table1("baseline_degradation", {
        "block_size": BLOCK_SIZE, "num_points": NUM_POINTS,
        "selectivity": SELECTIVITY, "rows": rows})

    n = blocks(NUM_POINTS, BLOCK_SIZE)
    ours = costs["HalfplaneIndex2D (Section 3)"]
    # The heuristics blow up to a constant fraction of n; ours stays far
    # below them and below a full scan.
    assert costs["quad-tree"] > n / 2
    assert costs["k-d-B-tree"] > n / 3
    assert ours < costs["quad-tree"] / 2
    assert ours < n
