"""Ablation experiments ABL-PART and ABL-CLUSTER ("Substitutions" in README.md).

* ABL-PART — the partition tree of Section 5 is built once with the default
  median-cut partitioner and once with the 2-D ham-sandwich partitioner
  (Willard-style); both satisfy the Theorem 5.1 interface, so correctness is
  identical and only the I/O profile differs.
* ABL-CLUSTER — the greedy clustering of Section 3 uses a cluster capacity
  of 3k in the paper; the ablation varies the factor (2k, 3k, 6k) and
  reports the resulting space and query cost of the full 2-D structure.
"""

from __future__ import annotations

import pytest

from repro import HalfplaneIndex2D, PartitionTreeIndex
from repro.experiments import ExperimentResult, run_query_workload
from repro.geometry.hamsandwich import ham_sandwich_partition
from repro.workloads import halfspace_queries_with_selectivity, uniform_points

from .conftest import print_experiment

BLOCK_SIZE = 32
NUM_POINTS = 4096
NUM_QUERIES = 6
SELECTIVITY = 0.02

_cache = {}


def dataset():
    if "points" not in _cache:
        _cache["points"] = uniform_points(NUM_POINTS, seed=1)
        _cache["queries"] = halfspace_queries_with_selectivity(
            _cache["points"], NUM_QUERIES, SELECTIVITY, seed=2)
    return _cache["points"], _cache["queries"]


PARTITIONERS = {
    "median-cut (default)": None,
    "ham-sandwich (Willard)": ham_sandwich_partition,
}


@pytest.mark.parametrize("name", list(PARTITIONERS))
def test_ablation_partitioner(benchmark, name):
    """ABL-PART: partition tree query cost under the two partitioners."""
    points, queries = dataset()
    key = ("part", name)
    if key not in _cache:
        _cache[key] = PartitionTreeIndex(points, block_size=BLOCK_SIZE,
                                         partitioner=PARTITIONERS[name])
    index = _cache[key]
    summary = run_query_workload(index, queries, label=name)
    benchmark(lambda: [index.query(q) for q in queries])
    benchmark.extra_info["mean_ios"] = summary.mean_ios
    benchmark.extra_info["space_blocks"] = index.space_blocks


def test_ablation_partitioner_table(benchmark):
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    points, queries = dataset()
    result = ExperimentResult("ABL-PART",
                              "partition tree: median-cut vs ham-sandwich cells")
    expected = None
    for name, partitioner in PARTITIONERS.items():
        key = ("part", name)
        if key not in _cache:
            _cache[key] = PartitionTreeIndex(points, block_size=BLOCK_SIZE,
                                             partitioner=partitioner)
        index = _cache[key]
        answers = [frozenset(map(tuple, index.query(q))) for q in queries]
        if expected is None:
            expected = answers
        else:
            assert answers == expected   # ablation changes cost, never answers
        result.add(run_query_workload(index, queries, label=name))
    print_experiment(result)


CLUSTER_FACTORS = [2, 3, 6]


@pytest.mark.parametrize("factor", CLUSTER_FACTORS)
def test_ablation_cluster_width(benchmark, factor):
    """ABL-CLUSTER: 2-D structure with cluster capacities 2k / 3k / 6k."""
    points, queries = dataset()
    key = ("width", factor)
    if key not in _cache:
        _cache[key] = HalfplaneIndex2D(points, block_size=BLOCK_SIZE,
                                       cluster_width_factor=factor, seed=3)
    index = _cache[key]
    summary = run_query_workload(index, queries, label="width=%dk" % factor)
    benchmark(lambda: [index.query(q) for q in queries])
    benchmark.extra_info["mean_ios"] = summary.mean_ios
    benchmark.extra_info["space_blocks"] = index.space_blocks


def test_ablation_cluster_width_table(benchmark):
    # Register with pytest-benchmark so this evidence test also runs
    # under --benchmark-only (it measures I/Os, not wall-clock time).
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    points, queries = dataset()
    result = ExperimentResult("ABL-CLUSTER",
                              "2-D structure: cluster capacity factor (paper uses 3)")
    expected = {tuple(sorted(map(tuple, [p for p in points if q.below(p)])))
                for q in queries}
    for factor in CLUSTER_FACTORS:
        key = ("width", factor)
        if key not in _cache:
            _cache[key] = HalfplaneIndex2D(points, block_size=BLOCK_SIZE,
                                           cluster_width_factor=factor, seed=3)
        index = _cache[key]
        answers = {tuple(sorted(map(tuple, index.query(q)))) for q in queries}
        assert answers == expected
        result.add(run_query_workload(index, queries, label="width=%dk" % factor))
    print_experiment(result)
