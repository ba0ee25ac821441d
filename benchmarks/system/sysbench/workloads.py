"""The four workloads: what each serves, and how its inputs are made.

Every input -- points, constraints, inserted points, the order of
operations -- comes from ``numpy.random.default_rng`` streams keyed by
``--seed``, never from :mod:`repro.workloads`, so a later change to the
program cannot change what the benchmark feeds it.

A constraint of target selectivity ``s`` is a random unit direction whose
offset sits midway between the two adjacent residuals at the
``s``-quantile: no point lies on (or within rounding of) the hyperplane,
so the expected count does not depend on summation order or on the
program's epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Fixed for every workload; every other ``QueryEngine`` option stays at
#: its shipped default (tracing on, 256-entry result cache, 4-block pool,
#: 64-block warm pool) because that is what a user gets.
BLOCK_SIZE = 32
#: Share of each request stream that warms buffer pools, the calibration
#: EWMA and the conformal window, and is excluded from every metric.
WARMUP_SHARE = 0.1
#: ... and never fewer operations than this.  The result cache holds 256
#: answers: until that many were served the process still grows (about
#: 100 MB of 4096-point answers on ``http_bulk_process``) and requests
#: run 20-30% slower than they do for the rest of the server's life.
MIN_WARMUP_OPS = 288
#: No point, inserted ones included, lies closer than this to a query
#: hyperplane (the program's own epsilon is 1e-9).
MARGIN = 1e-7
#: A delete targets a point inserted at least this many operations
#: earlier, so that it has left the newest corner of the structure.
DELETE_LAG_OPS = 80
#: The key the launcher's server accepts and the generator sends.
API_KEY = "sysbench"
DEFAULT_SEED = 1998
#: Seed reserved for checking a later claim on inputs not used while the
#: change was written.
HELD_OUT_SEED = 2000

_POINT_STREAM, _REQUEST_STREAM = 0, 1


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    dimension: int
    num_points: int
    #: ``register_sharded_dataset`` keywords; None registers the dataset
    #: unsharded with the dimension's default suite.
    layout: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    datasets: Tuple[DatasetSpec, ...]
    #: ``QueryEngine`` keywords beyond block size and seed.
    engine_options: Dict[str, object]
    #: "http" drives a served engine from the parent; "embedded" calls
    #: ``engine.query`` from a single caller inside the child.
    entry: str
    #: Operations per second of ``--seconds``, sized so that the
    #: measured phase takes about ``--seconds`` on the reference host at
    #: the commit that defined the benchmark; the count, not the
    #: duration, is what stays fixed.
    ops_per_s: float
    selectivity: Tuple[float, float]
    hot_set: int = 0
    repeat_share: float = 0.0
    insert_share: float = 0.0
    delete_share: float = 0.0
    #: Requests replayed at every rung of the traced run.
    trace_sample: int = 300


_HTTP_LAYOUT = {"num_shards": 4, "sharding": "range",
                "kinds": ["partition_tree", "full_scan", "dynamic"]}

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="http_selective",
        why="Small answers over HTTP: parse, scheduler hop, planning and "
            "tree descent are nearly all of the latency; scans, encoding "
            "and the result cache are idle.",
        datasets=(DatasetSpec("points2d", 2, 16384, _HTTP_LAYOUT),),
        engine_options={}, entry="http", ops_per_s=400.0,
        selectivity=(0.002, 0.02)),
    WorkloadSpec(
        name="http_bulk_process",
        why="4096-point answers through worker processes: result "
            "materialisation, the RPC codec, JSON encoding and scan "
            "kernels dominate; descent and planning vanish.",
        datasets=(DatasetSpec("points2d", 2, 16384, _HTTP_LAYOUT),),
        engine_options={"workers": "process"}, entry="http",
        ops_per_s=25.0, selectivity=(0.25, 0.25), trace_sample=60),
    WorkloadSpec(
        name="http_mixed_rw_file",
        why="Writes among reads on file-backed replicas: replica "
            "fan-out, tombstones, appends and cache invalidation; a read "
            "gain bought at write cost, or the reverse, shows only here.",
        datasets=(DatasetSpec("points2d", 2, 65536, {
            "num_shards": 2, "sharding": "range", "replicas": 2,
            "kinds": ["dynamic", "partition_tree", "full_scan"]}),),
        engine_options={"backend": "file"}, entry="http",
        ops_per_s=300.0, selectivity=(0.005, 0.005), hot_set=32,
        repeat_share=0.35, insert_share=0.15, delete_share=0.05),
    WorkloadSpec(
        name="embedded_suite",
        why="The paper's library use, one caller and a 4-block pool: "
            "index, kernel, planner and cache changes show undiluted, "
            "and an HTTP, scheduler or RPC change must show nothing.",
        datasets=(DatasetSpec("points2d", 2, 16384),
                  DatasetSpec("points3d", 3, 8192)),
        engine_options={}, entry="embedded",
        ops_per_s=560.0, selectivity=(0.002, 0.2), hot_set=64,
        repeat_share=0.35),
)

BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in WORKLOADS}


@dataclass(frozen=True)
class Sizing:
    """How large one run is.  ``--smoke`` shrinks points and counts."""

    seconds: float
    points_scale: float = 1.0
    setup_reps: int = 5
    sample_scale: float = 1.0
    min_warmup_ops: int = MIN_WARMUP_OPS

    def num_points(self, dataset: DatasetSpec) -> int:
        return max(512, int(dataset.num_points * self.points_scale))

    def measured_ops(self, spec: WorkloadSpec) -> int:
        return max(20, int(round(spec.ops_per_s * self.seconds)))

    def warmup_ops(self, spec: WorkloadSpec) -> int:
        measured = self.measured_ops(spec)
        return max(self.min_warmup_ops,
                   int(round(measured * WARMUP_SHARE
                             / (1.0 - WARMUP_SHARE))))

    def trace_sample(self, spec: WorkloadSpec) -> int:
        return max(30, int(spec.trace_sample * self.sample_scale))


SMOKE = Sizing(seconds=0.3, points_scale=0.125, setup_reps=1,
               sample_scale=0.1, min_warmup_ops=2)


@dataclass
class Op:
    """One operation of a request stream."""

    kind: str                       # "query", "insert" or "delete"
    dataset: str
    coeffs: Tuple[float, ...] = ()
    offset: float = 0.0
    point: Tuple[float, ...] = ()
    #: Queries: how many of the dataset's *initial* points satisfy it.
    expected: int = 0
    #: Deletes: stream position of the insert that put the point there.
    target: int = -1


@dataclass
class Stream:
    """Everything one run feeds the program."""

    spec: WorkloadSpec
    seed: int
    points: Dict[str, np.ndarray]
    ops: List[Op]
    warmup: int


def make_points(seed: int, dataset: DatasetSpec, sizing: Sizing) -> np.ndarray:
    """The dataset's initial points: uniform in the unit cube.

    Keyed by (seed, dimension, size) only, so two workloads that name the
    same dataset shape serve the very same points.
    """
    count = sizing.num_points(dataset)
    rng = np.random.default_rng(
        [seed, _POINT_STREAM, dataset.dimension, count])
    return rng.random((count, dataset.dimension))


def all_points(spec: WorkloadSpec, seed: int,
               sizing: Sizing) -> Dict[str, np.ndarray]:
    """The initial points of each of a workload's datasets, by name."""
    return {dataset.name: make_points(seed, dataset, sizing)
            for dataset in spec.datasets}


def residuals(points: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """``x_d - sum_i a_i x_i`` for each (point, constraint) pair.

    A constraint ``x_d <= a_0 + sum a_i x_i`` holds where the residual is
    at most ``a_0``.  ``coeffs`` is ``(m, d-1)``; the result ``(m, n)``,
    one contiguous row per constraint.
    """
    return points[:, -1][None, :] - coeffs @ points[:, :-1].T


def make_constraints(points: np.ndarray, selectivities: np.ndarray,
                     rng: np.random.Generator
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random-direction constraints hitting the given selectivities.

    Returns ``(coeffs (m, d-1), offsets (m,), counts (m,))`` where
    ``counts`` is how many of ``points`` satisfy each constraint.
    """
    count, dimension = points.shape
    wanted = len(selectivities)
    directions = np.empty((0, dimension))
    while len(directions) < wanted:
        draw = rng.standard_normal((wanted, dimension))
        draw /= np.linalg.norm(draw, axis=1, keepdims=True)
        # The query form isolates x_d with a positive coefficient; a
        # direction nearly parallel to the x_d = const planes would turn
        # into huge slopes, so it is redrawn.
        draw[:, -1] = np.abs(draw[:, -1])
        directions = np.concatenate(
            [directions, draw[draw[:, -1] >= 0.05]])
    directions = directions[:wanted]
    coeffs = -directions[:, :-1] / directions[:, -1:]
    offsets = np.empty(wanted)
    counts = np.empty(wanted, dtype=np.int64)
    ranks = np.clip(np.rint(selectivities * count).astype(np.int64),
                    1, count - 1)
    chunk = max(1, (1 << 22) // count)
    for start in range(0, wanted, chunk):
        stop = min(wanted, start + chunk)
        block = residuals(points, coeffs[start:stop])
        for row, values in enumerate(block, start):
            rank = int(ranks[row])
            while True:
                ordered = np.partition(values, (rank - 1, rank))
                below, above = ordered[rank - 1], ordered[rank]
                # Move up past ties and gaps too narrow to sit inside.
                if above - below >= 4 * MARGIN or rank >= count - 1:
                    break
                rank += 1
            offsets[row] = 0.5 * (below + above)
            counts[row] = int(np.count_nonzero(values <= offsets[row]))
    return coeffs, offsets, counts


def _log_uniform(rng: np.random.Generator, bounds: Tuple[float, float],
                 size: int) -> np.ndarray:
    low, high = bounds
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def _safe_inserts(rng: np.random.Generator, dimension: int, size: int,
                  coeffs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Uniform points, none within ``MARGIN`` of a query hyperplane."""
    points = rng.random((size, dimension))
    while size:
        gaps = np.abs(residuals(points, coeffs) - offsets[:, None])
        close = np.flatnonzero(gaps.min(axis=0) < MARGIN) \
            if len(offsets) else np.empty(0, dtype=np.int64)
        if not len(close):
            break
        points[close] = rng.random((len(close), dimension))
    return points


def build_stream(spec: WorkloadSpec, seed: int, sizing: Sizing) -> Stream:
    """The points and the ordered operations of one run."""
    index = WORKLOADS.index(spec)
    rng = np.random.default_rng([seed, _REQUEST_STREAM, index])
    points = all_points(spec, seed, sizing)
    warmup = sizing.warmup_ops(spec)
    total = warmup + sizing.measured_ops(spec)
    names = [dataset.name for dataset in spec.datasets]

    # Pass 1: the kind of every operation (pure bookkeeping, so the
    # number of constraints each dataset needs is known before any is
    # drawn).
    mix = rng.random(total)
    repeat = rng.random(total) < spec.repeat_share
    hot_pick = rng.integers(0, max(1, spec.hot_set // len(names)), total)
    kinds: List[str] = []
    targets: Dict[int, int] = {}
    inserted: List[int] = []
    for position in range(total):
        kind = "query"
        if mix[position] < spec.insert_share:
            kind = "insert"
            inserted.append(position)
        elif mix[position] < spec.insert_share + spec.delete_share:
            eligible = [at for at in inserted
                        if at <= position - DELETE_LAG_OPS]
            if eligible:
                kind = "delete"
                chosen = eligible[int(rng.integers(0, len(eligible)))]
                inserted.remove(chosen)
                targets[position] = chosen
        kinds.append(kind)

    # Pass 2: constraints, per dataset (operations alternate datasets).
    ops: List[Optional[Op]] = [None] * total
    hot_per_dataset = spec.hot_set // len(names)
    for slot, dataset in enumerate(spec.datasets):
        mine = [position for position in range(slot, total, len(names))
                if kinds[position] == "query"]
        fresh = [position for position in mine
                 if not (hot_per_dataset and repeat[position])]
        wanted = hot_per_dataset + len(fresh)
        coeffs, offsets, counts = make_constraints(
            points[dataset.name],
            _log_uniform(rng, spec.selectivity, wanted), rng)
        column_of = {position: hot_per_dataset + order
                     for order, position in enumerate(fresh)}
        for position in mine:
            column = column_of.get(position, int(hot_pick[position]))
            ops[position] = Op(
                kind="query", dataset=dataset.name,
                coeffs=tuple(float(c) for c in coeffs[column]),
                offset=float(offsets[column]),
                expected=int(counts[column]))
        writes = [position for position in range(slot, total, len(names))
                  if kinds[position] == "insert"]
        fresh_points = _safe_inserts(rng, dataset.dimension, len(writes),
                                     coeffs, offsets)
        for position, point in zip(writes, fresh_points):
            ops[position] = Op(kind="insert", dataset=dataset.name,
                               point=tuple(float(c) for c in point))
    for position, chosen in targets.items():
        ops[position] = Op(kind="delete", dataset=ops[chosen].dataset,
                           point=ops[chosen].point, target=chosen)
    return Stream(spec=spec, seed=seed, points=points,
                  ops=[op for op in ops if op is not None], warmup=warmup)


def trace_sample(stream: Stream, size: int) -> List[int]:
    """Evenly spaced positions of measured queries, for the traced run."""
    queries = [position for position in range(stream.warmup,
                                              len(stream.ops))
               if stream.ops[position].kind == "query"]
    if len(queries) <= size:
        return queries
    step = len(queries) / float(size)
    return [queries[int(order * step)] for order in range(size)]


def satisfied(points: np.ndarray, op: Op) -> np.ndarray:
    """The oracle: which rows of ``points`` satisfy a query operation."""
    coeffs = np.asarray(op.coeffs, dtype=np.float64)
    return points[:, -1] - points[:, :-1] @ coeffs <= op.offset


def full_range_query(dataset: DatasetSpec) -> Tuple[Tuple[float, ...], float]:
    """A constraint every point of the unit cube satisfies."""
    return (0.0,) * (dataset.dimension - 1), 2.0


def register(engine, datasets: Sequence[DatasetSpec],
             points: Dict[str, np.ndarray]) -> None:
    """Register datasets exactly as their specs lay them out."""
    for dataset in datasets:
        if dataset.layout is None:
            engine.register_dataset(dataset.name, points[dataset.name])
        else:
            engine.register_sharded_dataset(
                dataset.name, points[dataset.name], **dataset.layout)


def engine_keywords(options: Dict[str, object], seed: int,
                    data_dir: Optional[str]) -> Dict[str, object]:
    """``QueryEngine`` keywords for a workload's ``engine_options``.

    The engine's ``seed`` (sampling, randomised builds) is an input the
    run's seed determines, so that I/O counts repeat exactly.
    """
    keywords: Dict[str, object] = {"block_size": BLOCK_SIZE, "seed": seed}
    keywords.update(options)
    if keywords.get("backend") == "file":
        keywords["data_dir"] = data_dir
    return keywords
