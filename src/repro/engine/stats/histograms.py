"""Equi-depth histograms of directional projections.

A linear constraint in this library is ``x_d - a . x_{1..d-1} <= a_0``:
its residual is a *projection* of the point onto the direction
``w = (-a_1, ..., -a_{d-1}, 1)``, so estimating a constraint's
selectivity is estimating the CDF of a one-dimensional projection of the
point set.  This module holds the two pieces
:class:`~repro.engine.stats.models.HistogramModel` composes:

* :class:`EquiDepthHistogram` — bucket boundaries at quantiles of one
  direction's projections, so every bucket holds the same number of
  points at build time.  The CDF estimate interpolates inside a single
  bucket, bounding the absolute error by one bucket's share — and unlike
  a uniform sample, the boundaries are computed from *every* stored
  point, so the deep tail (selectivity well below 1/sample_size, where a
  sample reports zero hits) stays resolvable.
* direction helpers — a *canonical* direction set to pre-project onto:
  the coordinate axis ``e_d`` (pure ``x_d`` thresholds), the principal
  directions of the point cloud (for data concentrated along a lower
  dimensional flat, like the §1.2 diagonal, the least-variance principal
  direction is exactly the residual direction of the adversarial
  queries), and a spread of fill directions over the half-sphere of
  feasible residual directions (last coordinate positive).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.primitives import LinearConstraint


class EquiDepthHistogram:
    """Equi-depth histogram over one direction's projection values.

    Parameters
    ----------
    values:
        The projections of every stored point onto the direction.
    num_buckets:
        Bucket count B; boundaries are the ``i/B`` quantiles (clamped to
        the number of distinct values available).
    """

    def __init__(self, values: Sequence[float], num_buckets: int = 64):
        values = np.sort(np.asarray(values, dtype=float).ravel())
        if len(values) == 0:
            raise ValueError("cannot build a histogram over zero values")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1, got %r" % num_buckets)
        buckets = int(min(num_buckets, len(values)))
        self.edges = np.quantile(values, np.linspace(0.0, 1.0, buckets + 1))
        # Exact per-bucket counts (duplicates can make quantile edges
        # coincide, leaving uneven buckets; searchsorted charges each
        # value to the last bucket whose upper edge covers it).
        positions = np.searchsorted(values, self.edges, side="right")
        positions[0] = 0
        self.counts = np.diff(positions).astype(float)
        self.total = float(len(values))
        # Lazily rebuilt prefix sums so cumulative() answers with one
        # searchsorted + lookup instead of summing a count slice.  Counts
        # are integral floats (< 2^53), so the cached cumsum is exact.
        self._cumsum: Optional[np.ndarray] = None
        # Skew at build time (1.0 for distinct values; can exceed it when
        # duplicate-valued data collapses edges).  drift() reports growth
        # relative to this baseline, so duplicate-heavy builds do not
        # read as pre-drifted.
        self._built_skew = self.skew()

    @property
    def num_buckets(self) -> int:
        return len(self.counts)

    def _prefix_counts(self) -> np.ndarray:
        """Prefix sums of ``counts`` with a leading 0 (cached until mutated)."""
        if self._cumsum is None or len(self._cumsum) != self.num_buckets + 1:
            self._cumsum = np.concatenate(([0.0], np.cumsum(self.counts)))
        return self._cumsum

    def cumulative(self, threshold: float) -> float:
        """Estimated number of values ``<= threshold``.

        Exact at bucket boundaries; linear interpolation inside the one
        bucket the threshold falls in.  Answered via ``searchsorted``
        against the edges plus a cached prefix-sum lookup.
        """
        edges = self.edges
        if threshold < edges[0]:
            return 0.0
        if threshold >= edges[-1]:
            return self.total
        bucket = int(np.searchsorted(edges, threshold, side="right")) - 1
        bucket = min(max(bucket, 0), self.num_buckets - 1)
        below = float(self._prefix_counts()[bucket])
        width = edges[bucket + 1] - edges[bucket]
        fraction = 1.0 if width <= 0 else (threshold - edges[bucket]) / width
        return below + float(self.counts[bucket]) * fraction

    def selectivity(self, threshold: float) -> float:
        """Estimated fraction of values ``<= threshold``."""
        if self.total <= 0:
            return 0.0
        return min(1.0, self.cumulative(threshold) / self.total)

    # ------------------------------------------------------------------
    # incremental maintenance (dynamic inserts/deletes)
    # ------------------------------------------------------------------
    def _bucket_of(self, value: float) -> int:
        bucket = int(np.searchsorted(self.edges, value, side="right")) - 1
        return min(max(bucket, 0), self.num_buckets - 1)

    def insert(self, value: float) -> None:
        """Count one new projection (stretching the edge buckets if needed)."""
        value = float(value)
        if value < self.edges[0]:
            self.edges[0] = value
        elif value > self.edges[-1]:
            self.edges[-1] = value
        self.counts[self._bucket_of(value)] += 1.0
        self.total += 1.0
        self._cumsum = None

    def delete(self, value: float) -> None:
        """Uncount one projection (no-op below zero, e.g. absent points)."""
        bucket = self._bucket_of(float(value))
        if self.counts[bucket] > 0:
            self.counts[bucket] -= 1.0
            self.total = max(0.0, self.total - 1.0)
            self._cumsum = None

    # ------------------------------------------------------------------
    # drift
    # ------------------------------------------------------------------
    def skew(self) -> float:
        """Largest bucket's share relative to the equi-depth fair share.

        1.0 means perfectly balanced (the build-time state for distinct
        values); K means one bucket holds K times its fair share.
        """
        if self.total <= 0 or self.num_buckets == 0:
            return 1.0
        fair = self.total / self.num_buckets
        return float(self.counts.max()) / fair

    def drift(self) -> float:
        """Current skew relative to the build-time skew (1.0 = unchanged).

        Equi-depth buckets start balanced, so a stream of inserts
        concentrated in one region drives exactly one bucket's count up —
        this ratio is the histogram's skew signal for shard rebalancing.
        """
        return self.skew() / max(self._built_skew, 1e-12)


# ----------------------------------------------------------------------
# canonical directions
# ----------------------------------------------------------------------
def normalize_direction(direction: Sequence[float]) -> np.ndarray:
    """Unit vector with a canonical sign (last non-zero coordinate > 0).

    Residual directions of feasible constraints always have a positive
    last coordinate, so flipping keeps every canonical direction on the
    same half-sphere the queries live on.
    """
    array = np.asarray(direction, dtype=float).ravel()
    norm = float(np.linalg.norm(array))
    if norm <= 0:
        raise ValueError("direction must be non-zero")
    array = array / norm
    for coordinate in array[::-1]:
        if coordinate != 0:
            if coordinate < 0:
                array = -array
            break
    return array


def constraint_direction(constraint: LinearConstraint
                         ) -> Tuple[np.ndarray, float]:
    """The unit residual direction of a constraint, plus its scale.

    The constraint ``x_d - a . x_{1..d-1} <= a_0`` holds iff
    ``w . x <= a_0`` for ``w = (-a, 1)``; dividing by ``|w|`` gives the
    unit direction and the matching threshold ``a_0 / |w|``.
    """
    raw = np.append(-np.asarray(constraint.coeffs, dtype=float), 1.0)
    norm = float(np.linalg.norm(raw))
    return raw / norm, norm


def principal_directions(points: np.ndarray) -> List[np.ndarray]:
    """Principal (eigen) directions of the centered point cloud.

    For data concentrated near a lower-dimensional flat — the paper's
    §1.2 diagonal — the least-variance principal direction is the
    residual direction of the adversarial queries, which is exactly the
    direction a histogram must cover to resolve their selectivity.
    """
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        return []
    centered = points - points.mean(axis=0)
    covariance = centered.T @ centered / len(points)
    __, vectors = np.linalg.eigh(covariance)
    return [normalize_direction(vectors[:, column])
            for column in range(vectors.shape[1])]


def canonical_directions(points: np.ndarray, num_directions: int = 16,
                         seed: Optional[int] = None) -> np.ndarray:
    """The default direction set for a dataset's histograms.

    Always includes the axis ``e_d`` (pure ``x_d`` thresholds) and the
    point cloud's principal directions (data-adaptive coverage); the
    remainder are fill directions — evenly spaced over the upper
    half-circle in 2-D, seeded-random on the upper half-sphere above —
    deduplicated so near-identical directions do not waste histograms.
    """
    points = np.asarray(points, dtype=float)
    dimension = int(points.shape[1])
    axis = np.zeros(dimension)
    axis[-1] = 1.0
    candidates: List[np.ndarray] = [axis]
    candidates.extend(principal_directions(points))
    fill = max(0, num_directions - len(candidates))
    if dimension == 2:
        angles = (np.arange(fill) + 0.5) / max(fill, 1) * np.pi
        candidates.extend(normalize_direction((np.cos(a), np.sin(a)))
                          for a in angles[:fill])
    elif fill:
        generator = np.random.default_rng(seed)
        raw = generator.normal(size=(fill, dimension))
        candidates.extend(normalize_direction(row) for row in raw)
    chosen: List[np.ndarray] = []
    for direction in candidates:
        if all(abs(float(direction @ kept)) < 1.0 - 1e-9 for kept in chosen):
            chosen.append(direction)
    return np.asarray(chosen)

