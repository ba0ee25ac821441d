"""Experiment PLANNER-REGRET — does every default kind earn its blocks?

A default suite (``catalog.default_suite``) is what a registration builds
when the caller names no kinds, so every kind in it costs blocks and
build time on every dataset.  This matrix runs each query of a cell cold
on every kind of the suite (``Dataset.run_query(kind, q,
clear_cache=True)``) and records, per kind, its space, its mean and
max cold I/Os, and how often it is *strictly* the cheapest (a strict
win) or ties for cheapest.  It also records what the engine's planner
picked on a registration of the default suite alone: a *misroute* is a
pick that read more than the cheapest default kind, and *regret* is the
summed excess.  The shallow tree (Theorem 6.3, d >= 3) and the hybrid
tree (Theorem 6.1, d = 3) are measured beside the suite as non-default
rows, with the strict wins they would have had; the hybrid rows carry
their leaves' stored layers and how many leaf queries scanned.

Inputs: uniform points and the Section 1.2 diagonal with rotated-diagonal
queries at d = 2, the ball and the cube at d = 3, uniform points at
d = 4 and 5; selectivities from 0.05 to 30 %; seeds 1998 and 2000 (the
seed draws the points and the queries and seeds the engine).

The gate: at every dimension, each default kind but the full scan (the
always-correct floor) is strictly cheapest on at least one query.
``test_planner_regret_small`` runs it at a small size (CI);
``test_planner_regret_matrix`` runs the committed size and writes the
``planner_regret`` section of ``BENCH_table1.json``:

    python -m pytest -q benchmarks/bench_planner_regret.py
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import QueryEngine
from repro.engine.catalog import default_suite
from repro.workloads import (diagonal_points,
                             halfspace_queries_with_selectivity,
                             rotated_diagonal_query, uniform_points,
                             uniform_points_ball)

from .conftest import persist_table1

BLOCK_SIZE = 32
SEEDS = (1998, 2000)
SELECTIVITIES = (0.0005, 0.002, 0.01, 0.05, 0.3)
#: (points, queries per selectivity): the committed matrix, the CI run.
FULL = (16384, 40)
SMALL = (2048, 8)
#: Kinds measured beside the default suite, by dimension.
NON_DEFAULT = {3: ("shallow_tree", "hybrid3d"), 4: ("shallow_tree",),
               5: ("shallow_tree",)}


def _random_family(points, count, selectivity, seed):
    return halfspace_queries_with_selectivity(points, count, selectivity,
                                              seed=seed)


def _diagonal_family(points, count, selectivity, seed):
    """Rotated-diagonal queries (Section 1.2): the diagonal turned by a
    signed angle of 1e-4 to 1e-2 radians, log-uniform."""
    rng = np.random.default_rng(seed)
    angles = rng.choice((-1.0, 1.0), count) * 10.0 ** rng.uniform(-4, -2,
                                                                   count)
    return [rotated_diagonal_query(points, angle=float(angle),
                                   selectivity=selectivity)
            for angle in angles]


#: name -> (dimension, points(count, seed), queries(points, count,
#: selectivity, seed)).
INPUTS = {
    "uniform2d": (2, lambda n, seed: uniform_points(n, 2, seed=seed),
                  _random_family),
    "diagonal2d": (2, lambda n, seed: diagonal_points(n, seed=seed),
                   _diagonal_family),
    "ball3d": (3, lambda n, seed: uniform_points_ball(n, 3, seed=seed),
               _random_family),
    "cube3d": (3, lambda n, seed: uniform_points(n, 3, seed=seed),
               _random_family),
    "uniform4d": (4, lambda n, seed: uniform_points(n, 4, seed=seed),
                  _random_family),
    "uniform5d": (5, lambda n, seed: uniform_points(n, 5, seed=seed),
                  _random_family),
}


def _hybrid_leaves(index) -> Dict[str, object]:
    """What a hybrid tree's leaves store: their count, mean points and
    the Section 4 layers their structures hold in all."""
    leaves = [node for node in index._nodes if node.is_leaf]
    return {"leaves": len(leaves),
            "leaf_points_mean": round(float(np.mean(
                [node.size for node in leaves])), 1),
            "leaf_layers": sum(node.leaf_index.planes_index.num_layers
                               for node in leaves)}


def measure_input(name: str, seed: int, num_points: int,
                  per_selectivity: int) -> List[Dict[str, object]]:
    """One cell per selectivity of ``name`` at ``seed``."""
    dimension, make_points, make_queries = INPUTS[name]
    points = make_points(num_points, seed)
    suite = default_suite(dimension)
    extra = list(NON_DEFAULT.get(dimension, ()))
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=seed)
    engine.register_dataset("default", points)
    if extra:
        engine.register_dataset("extra", points, kinds=extra)
    replicas = {kind: engine.catalog.dataset("default") for kind in suite}
    replicas.update({kind: engine.catalog.dataset("extra") for kind in extra})
    space = {kind: replica.build_records[kind].space_blocks
             for kind, replica in replicas.items()}
    leaves = _hybrid_leaves(replicas["hybrid3d"].indexes["hybrid3d"]) \
        if "hybrid3d" in extra else None
    cells = []
    for position, selectivity in enumerate(SELECTIVITIES):
        queries = make_queries(points, per_selectivity, selectivity,
                               seed * 100 + position)
        reads = {kind: [] for kind in suite + extra}
        picks = {kind: 0 for kind in suite}
        steps = {"leaves_queried": 0, "leaf_scans": 0}
        outputs, misroutes, regret = [], 0, 0
        for query in queries:
            counts = set()
            for kind, replica in replicas.items():
                answer, ios, detail = replica.run_query(kind, query,
                                                        clear_cache=True)
                reads[kind].append(ios.reads)
                counts.add(len(answer))
                if kind == "hybrid3d":
                    for step in steps:
                        steps[step] += detail[step]
            assert len(counts) == 1, "kinds disagree on %r" % (query,)
            outputs.append(counts.pop())
            pick = engine.explain("default", query).index_name
            picks[pick] += 1
            cheapest = min(reads[kind][-1] for kind in suite)
            excess = reads[pick][-1] - cheapest
            misroutes += excess > 0
            regret += excess
        floor = np.min([reads[kind] for kind in suite], axis=0)
        rows = {}
        for kind in suite + extra:
            mine = np.asarray(reads[kind])
            if kind in suite:
                others = np.min([reads[other] for other in suite
                                 if other != kind], axis=0)
                wins, ties = mine < others, mine == floor
                ties &= ~wins
            else:
                wins, ties = mine < floor, mine == floor
            rows[kind] = {"default": kind in suite,
                          "space_blocks": space[kind],
                          "mean_ios": round(float(mine.mean()), 2),
                          "max_ios": int(mine.max()),
                          "strict_wins": int(wins.sum()),
                          "ties": int(ties.sum())}
        if leaves is not None:
            rows["hybrid3d"].update(leaves, **steps)
        cells.append({"input": name, "dimension": dimension, "seed": seed,
                      "selectivity": selectivity, "queries": len(queries),
                      "mean_output": round(float(np.mean(outputs)), 1),
                      "kinds": rows,
                      "planner": {"picks": picks, "misroutes": int(misroutes),
                                  "regret_ios": int(regret)}})
    engine.close()
    return cells


def run_matrix(num_points: int, per_selectivity: int) -> Dict[str, object]:
    """Every cell, and the matrix summed by dimension and kind."""
    cells = [cell for name in INPUTS for seed in SEEDS
             for cell in measure_input(name, seed, num_points,
                                       per_selectivity)]
    by_dimension: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        total = by_dimension.setdefault(str(cell["dimension"]), {
            "default_suite": default_suite(cell["dimension"]),
            "queries": 0, "misroutes": 0, "regret_ios": 0, "kinds": {}})
        total["queries"] += cell["queries"]
        total["misroutes"] += cell["planner"]["misroutes"]
        total["regret_ios"] += cell["planner"]["regret_ios"]
        for kind, row in cell["kinds"].items():
            summed = total["kinds"].setdefault(kind, {
                "default": row["default"], "strict_wins": 0, "ties": 0,
                "picks": 0})
            summed["strict_wins"] += row["strict_wins"]
            summed["ties"] += row["ties"]
            summed["picks"] += cell["planner"]["picks"].get(kind, 0)
    return {"block_size": BLOCK_SIZE, "num_points": num_points,
            "queries_per_selectivity": per_selectivity,
            "selectivities": list(SELECTIVITIES), "seeds": list(SEEDS),
            "by_dimension": by_dimension, "cells": cells}


def losers(matrix: Dict[str, object]) -> List[str]:
    """The default kinds, full scan aside, that no query of their
    dimension finds strictly cheapest."""
    return ["d=%s %s" % (dimension, kind)
            for dimension, total in matrix["by_dimension"].items()
            for kind, row in total["kinds"].items()
            if row["default"] and kind != "full_scan"
            and row["strict_wins"] == 0]


def _report(matrix: Dict[str, object]) -> None:
    for dimension, total in matrix["by_dimension"].items():
        print("d=%s: %d queries, %d misroutes, regret %d I/Os"
              % (dimension, total["queries"], total["misroutes"],
                 total["regret_ios"]))
        for kind, row in total["kinds"].items():
            print("  %-15s %-11s strict wins %4d  ties %4d  picks %4d"
                  % (kind, "default" if row["default"] else "non-default",
                     row["strict_wins"], row["ties"], row["picks"]))


def test_planner_regret_small():
    """The gate at a small size: every default kind wins somewhere."""
    matrix = run_matrix(*SMALL)
    _report(matrix)
    assert losers(matrix) == []


def test_planner_regret_matrix():
    """The committed matrix: persisted as measured, then gated."""
    matrix = run_matrix(*FULL)
    _report(matrix)
    persist_table1("planner_regret", matrix)
    assert losers(matrix) == []
