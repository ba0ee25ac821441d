"""The optimal two-dimensional structure (Section 3).

``HalfplaneIndex2D`` stores N planar points in O(n) disk blocks and answers
a linear-constraint (halfplane) query in O(log_B n + t) I/Os in the worst
case.  It works in the dual: each point becomes a line, and the query asks
for the lines lying below the dual point of the query constraint.

Construction (Section 3.2).  The lines are peeled into layers
``L_1, L_2, ...``: layer ``i`` picks a random level ``λ_i`` between
``β = B log_B n`` and ``2β`` of the remaining lines ``H_i``, walks that
level, and compresses it into the greedy ``3λ_i``-clustering of Lemma 3.2.
The layer stores each cluster contiguously on disk (sorted by slope) plus a
B-tree over the clusters' boundary abscissae; the lines appearing in the
layer are removed and the process repeats.

Query (Section 3.3).  Layers are probed in order.  In each layer the B-tree
finds the *relevant* cluster of the query's x-coordinate; if fewer than
``λ_i`` of its lines pass below the query point, Lemma 3.1 guarantees that
every remaining line below the query is in that cluster, so the query
reports them and stops.  Otherwise the query walks clusters left and right
(stopping by the Lemma 3.4 rule), reports everything below the point, and
moves on to the next layer.  The early exit bounds the number of probed
layers by O(1 + t / log_B n), giving the O(log_B n + t) total.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels
from repro.core.clustering import Cluster, clustering_union, greedy_clustering
from repro.core.interface import ExternalIndex
from repro.geometry.arrangement2d import LineArrays, compute_level
from repro.geometry.duality import dual_point_of_hyperplane
from repro.geometry.primitives import EPS, LinearConstraint
from repro.io.btree import BTree
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


@dataclass
class _Layer:
    """One clustering Γ_i: its threshold λ_i, cluster storage and boundary
    tree, and — for pricing only — the boundary abscissae the tree holds."""

    lam: int
    clusters: List[DiskArray]
    boundary_tree: BTree
    num_lines: int
    bounds: List[float]


class LayerBuild(NamedTuple):
    """What building one layer took: the lines still unassigned, λ_i, the
    level's vertices (``run_vertices`` of them from the walk's checked
    runs, ``exact_steps`` from its exact step), its band cuts, the walk's
    seconds and the clusters it compressed into.  The trivial last layer
    walks nothing."""

    lines: int
    lam: int
    vertices: int
    run_vertices: int
    exact_steps: int
    band_cuts: int
    walk_s: float
    clusters: int


def default_beta(num_points: int, block_size: int) -> int:
    """The paper's layer threshold ``β = B * log_B n`` (at least B)."""
    blocks = max(2, -(-num_points // block_size))
    log_term = max(1.0, math.log(blocks) / math.log(max(2, block_size)))
    return max(block_size, int(round(block_size * log_term)))


class HalfplaneIndex2D(ExternalIndex):
    """Linear-space, optimal-query halfplane reporting index (Theorem 3.5).

    Parameters
    ----------
    points:
        Array-like of shape (N, 2): the points to index.
    store:
        Optional shared :class:`BlockStore`; a private one with the given
        ``block_size`` is created when omitted.
    block_size:
        The block size B when a private store is created.
    beta:
        Override for the layer threshold β (defaults to ``B log_B n``).
    cluster_width_factor:
        The cluster capacity as a multiple of λ_i (the paper proves 3; the
        ablation benchmark varies it).
    seed:
        Seed for the random level choices.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 beta: Optional[int] = None,
                 cluster_width_factor: int = 3,
                 seed: Optional[int] = None):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size and (points.ndim != 2 or points.shape[1] != 2):
            raise ValueError("HalfplaneIndex2D expects points of shape (N, 2)")
        self._points = points.reshape(-1, 2)
        self._num_points = len(self._points)
        if cluster_width_factor < 1:
            raise ValueError("cluster_width_factor must be >= 1")
        self._cluster_width_factor = cluster_width_factor
        self._beta = beta if beta is not None else default_beta(
            self._num_points, self.block_size)
        self._rng = np.random.default_rng(seed)
        self._layers: List[_Layer] = []
        #: One :class:`LayerBuild` per layer, in layer order.
        self.layer_builds: List[LayerBuild] = []
        self._last_layers_probed = 0
        self._begin_space_accounting()
        self._build()
        self._end_space_accounting()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        # The dual lines y = -a1 * x + a2 of the points (a1, a2), as arrays:
        # each layer walks a level of the sub-family still unassigned.
        lines = LineArrays(-self._points[:, 0], self._points[:, 1])
        # What a cluster stores of a point: its number, its dual line, itself
        # (one row per point, gathered by the clusters the line is in) — all
        # floats, the number too, so a cluster block is columnar.
        records = np.column_stack((
            np.arange(self._num_points, dtype=float), lines.slopes,
            lines.intercepts, self._points))
        remaining = np.arange(self._num_points)
        while len(remaining):
            lam = int(self._rng.integers(self._beta, 2 * self._beta + 1))
            if len(remaining) <= 2 * lam:
                self._append_trivial_layer(lines, records, remaining, lam)
                break
            started = time.perf_counter()
            level = compute_level(lines[remaining], lam)
            walk_s = time.perf_counter() - started
            width = self._cluster_width_factor * lam
            clusters = greedy_clustering(level, width)
            layer_local_lines = clustering_union(clusters)
            if not layer_local_lines:
                # Defensive: should not happen (every point of the level has
                # λ lines below it); fall back to a trivial final layer.
                self._append_trivial_layer(lines, records, remaining, lam)
                break
            self.layer_builds.append(LayerBuild(
                len(remaining), lam, level.complexity, level.run_vertices,
                level.complexity - level.run_vertices, level.band_cuts,
                walk_s, len(clusters)))
            self._append_layer(lines, records, remaining, lam, clusters)
            remaining = np.delete(remaining, layer_local_lines)

    def _append_trivial_layer(self, lines: LineArrays, records: np.ndarray,
                              remaining: np.ndarray, lam: int) -> None:
        """Store the last few lines as a single cluster covering all of R."""
        cluster = Cluster(lines=list(range(len(remaining))),
                          x_from=-math.inf, x_to=math.inf)
        self.layer_builds.append(
            LayerBuild(len(remaining), lam, 0, 0, 0, 0, 0.0, 1))
        self._append_layer(lines, records, remaining, lam, [cluster])

    def _append_layer(self, lines: LineArrays, records: np.ndarray,
                      remaining: np.ndarray, lam: int,
                      clusters: List[Cluster]) -> None:
        """Write a layer's clusters and boundary B-tree to disk.

        ``remaining[local]`` is the point whose dual line the layer's level
        numbered ``local``; ``records[point]`` is what a cluster stores of it.
        """
        cluster_arrays: List[DiskArray] = []
        boundary_entries: List[Tuple[float, int]] = []
        total_lines = 0
        for cluster_index, cluster in enumerate(clusters):
            members = remaining[cluster.lines]
            members = members[np.argsort(lines.slopes[members], kind="stable")]
            cluster_arrays.append(DiskArray.from_matrix(self._store,
                                                        records[members]))
            boundary_entries.append((cluster.x_from, cluster_index))
            total_lines += len(members)
        boundary_tree = BTree(self._store)
        boundary_tree.bulk_load(boundary_entries)
        self._layers.append(_Layer(
            lam=lam, clusters=cluster_arrays, boundary_tree=boundary_tree,
            num_lines=total_lines,
            bounds=[x_from for x_from, __ in boundary_entries]))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return 2

    @property
    def size(self) -> int:
        return self._num_points

    @property
    def num_layers(self) -> int:
        """Number of clusterings Γ_i (at most N / β)."""
        return len(self._layers)

    @property
    def beta(self) -> int:
        """The layer threshold β used by this index."""
        return self._beta

    @property
    def last_layers_probed(self) -> int:
        """How many layers the most recent query visited (diagnostics)."""
        return self._last_layers_probed

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """The layers :meth:`query` reads for an expected output of T
        points, priced from memory (Theorem 3.5's O(log_B n + t)).

        A probed layer costs its boundary tree's height and its relevant
        cluster, found from the dual point's x as the tree's predecessor
        search finds it.  The query stops at the first layer whose λ_i
        exceeds the count still to report (Lemma 3.1).  A layer it walks
        also reads the relevant cluster's neighbours (the Lemma 3.4 rule
        ends a direction after about one cluster) and reports at least
        the λ_i points below the query point in the relevant cluster —
        the share priced, so no more layers are probed than the lemma
        lets the query reach.
        """
        if expected_output is None:
            expected_output = min(self.size, self.block_size)
        query_x = constraint.coeffs[0]      # the dual point's x
        remaining, cost = expected_output, 0
        for layer in self._layers:
            clusters = layer.clusters
            relevant = max(0, bisect_right(layer.bounds, query_x) - 1)
            cost += layer.boundary_tree.height + clusters[relevant].num_blocks
            if remaining < layer.lam:
                break
            if relevant > 0:
                cost += clusters[relevant - 1].num_blocks
            if relevant + 1 < len(clusters):
                cost += clusters[relevant + 1].num_blocks
            remaining -= layer.lam
        return float(cost)

    def check_invariants(self) -> None:
        """Raise AssertionError unless every layer is what Section 3.2
        builds, as read back from the disk.

        Per layer: β ≤ λ_i ≤ 2β; the boundary abscissae ascend from −inf
        and are the keys of the boundary tree (which passes its own
        check), each naming its cluster; slopes ascend within each
        cluster; a cluster holds at most ``cluster_width_factor · λ_i``
        lines, except in the trivial last layer; ``num_lines`` is the sum
        of the cluster sizes.  The layers' point numbers partition
        ``0..N−1``.  Blocks are read from the backend directly, so no I/O
        is charged and the buffer pool is untouched.
        """
        backend = self._store.backend
        numbers = []
        for depth, layer in enumerate(self._layers):
            def check(holds: bool, message: str, *values) -> None:
                if not holds:
                    raise AssertionError("layer %d: " % depth
                                         + message % values)

            check(self._beta <= layer.lam <= 2 * self._beta,
                  "λ = %d outside [β, 2β] for β = %d", layer.lam, self._beta)
            bounds = layer.bounds
            check(bounds[0] == -math.inf and bounds == sorted(bounds),
                  "boundaries %r do not ascend from -inf", bounds[:4])
            check(layer.boundary_tree.check_invariants()
                  == list(zip(bounds, range(len(layer.clusters)))),
                  "the boundary tree does not hold the boundaries")
            trivial = len(layer.clusters) == 1 and layer is self._layers[-1]
            width = self._cluster_width_factor * layer.lam
            sizes, in_layer = [], []
            for position, cluster in enumerate(layer.clusters):
                rows = np.concatenate([np.empty((0, 5))] + [
                    np.asarray(backend.get_payload(block_id), dtype=float)
                    for block_id in cluster.block_ids])
                check(np.all(np.diff(rows[:, 1]) >= 0),
                      "slopes do not ascend in cluster %d", position)
                check(trivial or len(rows) <= width,
                      "cluster %d holds %d lines, more than %d",
                      position, len(rows), width)
                sizes.append(len(rows))
                in_layer.append(rows[:, 0])
            check(layer.num_lines == sum(sizes),
                  "num_lines %d, clusters hold %d", layer.num_lines,
                  sum(sizes))
            # A line may lie in several clusters of its layer, but in no
            # other layer.
            numbers.append(np.unique(np.concatenate(in_layer)))
        stored = np.sort(np.concatenate(numbers)) if numbers else []
        if not np.array_equal(stored, np.arange(self._num_points)):
            raise AssertionError("the layers' point numbers do not "
                                 "partition 0..%d" % (self._num_points - 1))

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report every stored point satisfying the linear constraint."""
        if constraint.dimension != 2:
            raise ValueError("expected a 2-D constraint, got dimension %d"
                             % constraint.dimension)
        if self._num_points == 0:
            return kernels.answer_matrix((), 2)
        query_x, query_y = dual_point_of_hyperplane(constraint.hyperplane)
        reported = _Reported()
        self._last_layers_probed = 0
        for layer in self._layers:
            self._last_layers_probed += 1
            finished = self._query_layer(layer, query_x, query_y, reported)
            if finished:
                break
        return reported.points()

    def _query_layer(self, layer: _Layer, query_x: float, query_y: float,
                     reported: "_Reported") -> bool:
        """Probe one clustering; return True if the whole query is answered."""
        entry = layer.boundary_tree.predecessor(query_x)
        relevant = entry[1] if entry is not None else 0
        below_relevant, above_relevant = self._scan_cluster(
            layer, relevant, query_x, query_y, reported)
        if below_relevant < layer.lam or len(layer.clusters) == 1:
            # Lemma 3.1: every remaining line below the query point lives in
            # the relevant cluster, which we just reported.
            return below_relevant < layer.lam
        # Otherwise report the rest of this layer by walking outwards
        # (Lemma 3.4 gives the stopping rule), then move to the next layer.
        self._walk_direction(layer, relevant + 1, +1, query_x, query_y, reported)
        self._walk_direction(layer, relevant - 1, -1, query_x, query_y, reported)
        return False

    def _walk_direction(self, layer: _Layer, start: int, step: int,
                        query_x: float, query_y: float,
                        reported: "_Reported") -> None:
        distinct_above: Set[float] = set()
        index = start
        while 0 <= index < len(layer.clusters):
            __, above = self._scan_cluster(layer, index, query_x, query_y,
                                           reported, distinct_above)
            if len(distinct_above) > layer.lam:
                break
            index += step

    def _scan_cluster(self, layer: _Layer, cluster_index: int, query_x: float,
                      query_y: float, reported: "_Reported",
                      above_set: Optional[Set[float]] = None) -> Tuple[int, int]:
        """Read one cluster, report its below-lines, count above-lines."""
        cluster = layer.clusters[cluster_index]
        if not kernels.vectorized_enabled():
            below = 0
            above = 0
            for record in cluster.scan():
                global_index, slope, intercept, __, __ = record
                height = slope * query_x + intercept
                if height <= query_y + EPS:
                    below += 1
                    reported.records.append(record)
                else:
                    above += 1
                    if above_set is not None:
                        above_set.add(global_index)
            return below, above
        # The cluster as one (n, 5) matrix; the height in the record
        # loop's two roundings, product then sum.
        matrix = cluster.read_all_array()
        heights = matrix[:, 1] * query_x
        heights += matrix[:, 2]
        is_below = heights <= query_y + EPS
        below = int(np.count_nonzero(is_below))
        if below:
            reported.matrices.append(matrix.compress(is_below, axis=0))
        if above_set is not None:
            above_set.update(matrix[:, 0].compress(~is_below).tolist())
        return below, len(matrix) - below


class _Reported:
    """The cluster records below one query's point, in the order read:
    record tuples from the scalar loop, compressed matrices from the
    vector scan.  A line lies in several clusters of its layer, so the
    answer keeps the first record of each point number."""

    __slots__ = ("records", "matrices")

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.matrices: List[np.ndarray] = []

    def points(self) -> np.ndarray:
        """The distinct points, in first-seen order, as the answer."""
        first_seen: dict = {}
        for record in self.records:
            first_seen.setdefault(record[0], record[3:])
        parts = [list(first_seen.values())]
        if self.matrices:
            matrix = np.concatenate(self.matrices)
            __, first = np.unique(matrix[:, 0], return_index=True)
            if len(first) < len(matrix):
                first.sort()
                matrix = matrix[first]
            # Copied out: the answer does not pin the number, slope and
            # intercept columns beside the two point columns.
            parts.append(matrix[:, 3:])
        return kernels.answer_matrix(parts, 2)
