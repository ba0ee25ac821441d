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

The written pass (``planner_regret_written``) then writes N/64 inserts
(fresh points of the input's distribution) and N/256 deletes (build
points) into each registration — every kind takes them through its
replica's write overlay — and reruns the same queries: per cell, each
kind's mean and max cold I/Os beside its unwritten twin's, and the
planner's picks, misroutes and regret.

The gates: at every dimension, each default kind but the full scan (the
always-correct floor) is strictly cheapest on at least one query; no
kind of a written cell reads more than twice its unwritten twin on
average (the overlay's buffer and tombstones at this write volume); and
``halfplane2d`` is still picked on the written diagonal.
``test_planner_regret_small`` runs them at a small size (CI);
``test_planner_regret_matrix`` runs the committed size and writes the
``planner_regret`` and ``planner_regret_written`` sections of
``BENCH_table1.json``:

    python -m pytest -q benchmarks/bench_planner_regret.py
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
#: The written pass: N / INSERTS_PER inserts and N / DELETES_PER deletes.
INSERTS_PER, DELETES_PER = 64, 256
#: The most a written cell's kind may read, as a multiple of its
#: unwritten twin's mean cold I/Os.
WRITTEN_BOUND = 2.0


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


def _measure(engine, replicas, suite, queries
             ) -> Tuple[Dict[str, List[int]], Dict[str, object]]:
    """Every query of a cell cold on every kind: each kind's reads, and
    the outputs, the planner's picks, misroutes and regret, and the
    hybrid tree's leaf steps."""
    reads = {kind: [] for kind in replicas}
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
    return reads, {"outputs": outputs, "steps": steps,
                   "planner": {"picks": picks, "misroutes": int(misroutes),
                               "regret_ios": int(regret)}}


def _write(engine, names, points, make_points, seed) -> None:
    """N / INSERTS_PER fresh points of the input's distribution and
    N / DELETES_PER of its build points, into every dataset of
    ``names``."""
    count = len(points)
    inserts = make_points(count // INSERTS_PER, seed + 1)
    rng = np.random.default_rng(seed)
    deletes = points[rng.choice(count, count // DELETES_PER, replace=False)]
    for name in names:
        for point in inserts:
            engine.insert(name, tuple(point))
        for point in deletes:
            assert engine.delete(name, tuple(point)).applied


def measure_input(name: str, seed: int, num_points: int,
                  per_selectivity: int
                  ) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """One cell per selectivity of ``name`` at ``seed``, unwritten, then
    the same queries after the written pass."""
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
    families = [make_queries(points, per_selectivity, selectivity,
                             seed * 100 + position)
                for position, selectivity in enumerate(SELECTIVITIES)]
    measured = [_measure(engine, replicas, suite, queries)
                for queries in families]
    cells = []
    for selectivity, queries, (reads, seen) in zip(SELECTIVITIES, families,
                                                  measured):
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
            rows["hybrid3d"].update(leaves, **seen["steps"])
        cells.append({"input": name, "dimension": dimension, "seed": seed,
                      "selectivity": selectivity, "queries": len(queries),
                      "mean_output": round(float(np.mean(seen["outputs"])),
                                           1),
                      "kinds": rows, "planner": seen["planner"]})
    _write(engine, ["default"] + (["extra"] if extra else []), points,
           make_points, seed)
    written = []
    for cell, queries in zip(cells, families):
        reads, seen = _measure(engine, replicas, suite, queries)
        rows = {}
        for kind, twin in cell["kinds"].items():
            mine = np.asarray(reads[kind])
            rows[kind] = {"default": twin["default"],
                          "mean_ios": round(float(mine.mean()), 2),
                          "max_ios": int(mine.max()),
                          "unwritten_mean_ios": twin["mean_ios"],
                          "unwritten_max_ios": twin["max_ios"]}
        written.append({key: cell[key] for key in
                        ("input", "dimension", "seed", "selectivity",
                         "queries")})
        written[-1].update({
            "mean_output": round(float(np.mean(seen["outputs"])), 1),
            "kinds": rows, "planner": seen["planner"],
            "unwritten_planner": cell["planner"]})
    engine.close()
    return cells, written


def run_matrix(num_points: int, per_selectivity: int
               ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Every cell, and the matrix summed by dimension and kind; then the
    written pass's cells."""
    cells, written = [], []
    for name in INPUTS:
        for seed in SEEDS:
            before, after = measure_input(name, seed, num_points,
                                          per_selectivity)
            cells += before
            written += after
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
    settings = {"block_size": BLOCK_SIZE, "num_points": num_points,
                "queries_per_selectivity": per_selectivity,
                "selectivities": list(SELECTIVITIES), "seeds": list(SEEDS)}
    return (dict(settings, by_dimension=by_dimension, cells=cells),
            dict(settings, inserts=num_points // INSERTS_PER,
                 deletes=num_points // DELETES_PER, cells=written))


def losers(matrix: Dict[str, object]) -> List[str]:
    """The default kinds, full scan aside, that no query of their
    dimension finds strictly cheapest."""
    return ["d=%s %s" % (dimension, kind)
            for dimension, total in matrix["by_dimension"].items()
            for kind, row in total["kinds"].items()
            if row["default"] and kind != "full_scan"
            and row["strict_wins"] == 0]


def overdrawn(written: Dict[str, object]) -> List[str]:
    """The written cells' kinds whose mean cold I/Os exceed
    :data:`WRITTEN_BOUND` times their unwritten twin's."""
    return ["%s seed %d at %g: %s %.2f against %.2f"
            % (cell["input"], cell["seed"], cell["selectivity"], kind,
               row["mean_ios"], row["unwritten_mean_ios"])
            for cell in written["cells"]
            for kind, row in cell["kinds"].items()
            if row["mean_ios"] > WRITTEN_BOUND * row["unwritten_mean_ios"]]


def diagonal_picks(written: Dict[str, object]) -> int:
    """How often the planner picked ``halfplane2d`` on the written
    diagonal."""
    return sum(cell["planner"]["picks"]["halfplane2d"]
               for cell in written["cells"] if cell["input"] == "diagonal2d")


def _report_written(written: Dict[str, object]) -> None:
    print("written: %d inserts, %d deletes a registration"
          % (written["inserts"], written["deletes"]))
    for cell in written["cells"]:
        print("  %-10s %d %-7g %s misroutes %d (unwritten %d)" % (
            cell["input"], cell["seed"], cell["selectivity"],
            " ".join("%s %.1f/%.1f" % (kind, row["mean_ios"],
                                       row["unwritten_mean_ios"])
                     for kind, row in cell["kinds"].items()),
            cell["planner"]["misroutes"],
            cell["unwritten_planner"]["misroutes"]))


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
    """The gates at a small size: every default kind wins somewhere, and
    the written pass stays within its bound, the planar kind picked."""
    matrix, written = run_matrix(*SMALL)
    _report(matrix)
    _report_written(written)
    assert losers(matrix) == []
    assert overdrawn(written) == []
    assert diagonal_picks(written) > 0


def test_planner_regret_matrix():
    """The committed matrix: persisted as measured, then gated."""
    matrix, written = run_matrix(*FULL)
    _report(matrix)
    _report_written(written)
    persist_table1("planner_regret", matrix)
    persist_table1("planner_regret_written", written)
    assert losers(matrix) == []
    assert overdrawn(written) == []
    assert diagonal_picks(written) > 0
