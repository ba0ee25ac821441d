"""Pluggable selectivity models: the engine's estimation seam.

Every planner decision hinges on ``expected_output`` — the paper's bounds
are output-sensitive, so a misestimated T misprices every candidate
index.  :class:`SelectivityModel` is the seam that estimate comes
through; the catalog builds one model per shard, and a dataset's T is
the sum of its shards' estimates, so planning is priced with shard-local
statistics.

Three models ship:

* :class:`UniformSampleModel` — the engine's original estimator,
  relocated: evaluate the constraint on a uniform in-memory sample.
  Unbiased on any data, but its resolution floor is ``1/len(sample)`` —
  a selective query on a 512-point sample reports 0–2 hits and the
  estimate is mostly noise.
* :class:`HistogramModel` — equi-depth histograms of the points'
  projections onto a set of canonical directions (axis, principal
  directions of the cloud, fill directions).  A constraint is answered
  by projecting onto the *nearest* canonical direction, which resolves
  the deep tail from all N points instead of a sample — exactly what the
  §1.2 diagonal workload needs, where every adversarial query shares
  (almost) one residual direction.  When no canonical direction is close
  enough to the query's, the model falls back to the sample estimate, so
  it is never much worse than the uniform baseline.
* :class:`EnsembleModel` — both of the above side by side, aggregated
  with e-value-style weights updated online from each member's own
  per-query q-error (PAPERS.md's aggregation-of-conformal-predictors
  line).  On workloads where one member is mis-specified the other's
  weight takes over within tens of queries, so the ensemble tracks the
  better member without anyone choosing it up front.

Every model accepts ``observe_insert`` / ``observe_delete`` feedback
from the engine's write path, so estimates track mutated datasets: the
model's :class:`Reservoir` sample fills and refreshes, histograms are
incremented, and the live size used to scale selectivity into an output
count stays current.
"""

from __future__ import annotations

import abc
import math
from collections import deque
from typing import Dict, Optional, Sequence

import numpy as np

from repro.engine.sharding import selectivity_on_sample
from repro.engine.stats.histograms import (
    EquiDepthHistogram,
    canonical_directions,
    constraint_direction,
    normalize_direction,
)
from repro.geometry.primitives import LinearConstraint

#: The model kinds :func:`make_model` accepts by name.
MODEL_KINDS = ("uniform", "histogram", "ensemble")

#: Cosine similarity below which HistogramModel distrusts its nearest
#: canonical direction and falls back to the sample estimate (~5.7°).
DEFAULT_MIN_COSINE = 0.995


class Reservoir:
    """A uniform sample of a live multiset: the one copy of a model's rows.

    The model that owns it feeds it every committed write, and the
    degraded-answer path reads the same :attr:`rows`, so the two can
    never drift apart.  Below ``capacity`` rows the sample *is* the live
    multiset — an insert appends and a delete removes one matching row
    (Algorithm R's fill phase) — so a dataset registered with few points,
    or a shard built over none, grows its sample with its data.  At
    capacity an insert replaces a uniformly-chosen row with probability
    ``capacity / live_size`` (Algorithm R's replacement step), and a
    delete overwrites the dead rows with copies of uniformly-chosen
    surviving ones: the sample stays full and free of dead points (a
    slight duplication bias, far smaller than estimating against points
    that no longer exist).  A fill or a removal rebinds :attr:`rows`, so
    a concurrent reader sees one array or the other, never a torn one.
    """

    def __init__(self, rows: np.ndarray, capacity: int,
                 seed: Optional[int]):
        self.rows = np.asarray(rows, dtype=float)
        self.capacity = int(capacity)
        self._rng = np.random.default_rng(seed)

    def insert(self, row: np.ndarray, live_size: int) -> None:
        """Fold one inserted row in (``live_size`` counts it already)."""
        if len(self.rows) < self.capacity:
            self.rows = np.concatenate([self.rows, row[None, :]])
        elif len(self.rows):
            slot = int(self._rng.integers(max(live_size, 1)))
            if slot < len(self.rows):
                self.rows[slot] = row

    def evict(self, row: np.ndarray) -> None:
        """Purge one deleted row from the sample."""
        dead = np.flatnonzero(np.all(self.rows == row, axis=1))
        if len(self.rows) < self.capacity:
            if len(dead):
                self.rows = np.delete(self.rows, dead[0], axis=0)
            return
        if len(dead) == 0 or len(dead) == len(self.rows):
            return
        alive = np.setdiff1d(np.arange(len(self.rows)), dead)
        for slot in dead:
            self.rows[slot] = self.rows[int(self._rng.choice(alive))]


class SelectivityModel(abc.ABC):
    """Estimates what fraction of a dataset satisfies a constraint.

    Subclasses implement :meth:`estimate_selectivity`; the base class
    turns it into an output-count estimate against the *live* size
    (build size plus observed inserts minus deletes), owns the model's
    :class:`Reservoir` sample and feeds it every observed write, and
    provides the no-op structure/drift hooks.
    """

    #: Short kind name ("uniform" / "histogram") used in configs.
    name = "abstract"

    def __init__(self, dimension: int, size: int, sample: Reservoir):
        self._dimension = int(dimension)
        self._size = int(size)
        self._observed_inserts = 0
        self._observed_deletes = 0
        #: The model's sample (what the degraded-answer path scans too).
        self.sample = sample

    @property
    def dimension(self) -> int:
        """Ambient dimension of the modelled points."""
        return self._dimension

    @property
    def size(self) -> int:
        """Live number of modelled points (tracks observed mutations)."""
        return self._size

    def _check_dimension(self, constraint: LinearConstraint) -> None:
        if constraint.dimension != self._dimension:
            raise ValueError(
                "constraint dimension %d does not match dataset dimension %d"
                % (constraint.dimension, self._dimension))

    @abc.abstractmethod
    def estimate_selectivity(self, constraint: LinearConstraint) -> float:
        """Fraction of points expected to satisfy ``constraint``."""

    def estimate_output(self, constraint: LinearConstraint) -> int:
        """Expected number of reported points (the paper's T)."""
        return int(round(self.estimate_selectivity(constraint) * self._size))

    # ------------------------------------------------------------------
    # mutation feedback (fed by the engine's write path)
    # ------------------------------------------------------------------
    def observe_insert(self, point: Sequence[float]) -> None:
        """Fold one inserted point into the statistics and the sample."""
        row = np.asarray(point, dtype=float)
        self._take(row, 1)
        self.sample.insert(row, self._size)

    def observe_delete(self, point: Sequence[float]) -> None:
        """Fold one deleted point out of the statistics and the sample."""
        row = np.asarray(point, dtype=float)
        self._take(row, -1)
        self.sample.evict(row)

    def _take(self, row: np.ndarray, sign: int) -> None:
        """Count one write (``sign`` +1: insert, -1: delete) and fold it
        into the model's own structure — everything but the sample, which
        the public hooks feed once however many members share it."""
        if sign > 0:
            self._size += 1
            self._observed_inserts += 1
        else:
            self._size = max(0, self._size - 1)
            self._observed_deletes += 1

    def note_estimation_feedback(self, constraint: LinearConstraint,
                                 expected: float, actual: int) -> None:
        """Post-execution q-error feedback for one served constraint.

        The executor reports every (estimated, observed) output pair
        back through this hook.  The base models ignore it; adaptive
        models (:class:`HistogramModel` with ``adapt_after`` set) fold
        it into their structure — e.g. re-aiming histogram directions at
        the workload actually being served.
        """

    @property
    def observed_inserts(self) -> int:
        """Inserts this model has observed (one per *logical* mutation).

        The write path feeds a committed write to the shard's model
        once, so a write fanned out to N replicas must land here exactly once —
        the counter is how tests (and dashboards) verify that.
        """
        return self._observed_inserts

    @property
    def observed_deletes(self) -> int:
        """Deletes this model has observed (one per logical mutation)."""
        return self._observed_deletes

    def drift(self) -> float:
        """How far mutations have skewed the statistics (1.0 = none).

        Models without a drift signal return 0.0 so they never trip a
        drift-based rebalance trigger on their own.
        """
        return 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-friendly model summary (benchmarks persist these)."""
        return {"model": self.name, "size": self._size,
                "observed_inserts": self._observed_inserts,
                "observed_deletes": self._observed_deletes}


class UniformSampleModel(SelectivityModel):
    """The original sample-scan estimator, relocated behind the seam.

    Evaluates the constraint on the model's :class:`Reservoir`, which the
    write path keeps uniform over the live set.
    """

    name = "uniform"

    def __init__(self, sample: Reservoir, dimension: int, size: int):
        super().__init__(dimension, size, sample)

    def estimate_selectivity(self, constraint: LinearConstraint) -> float:
        rows = self.sample.rows
        if len(rows):
            self._check_dimension(constraint)
        return selectivity_on_sample(rows, self._dimension, constraint)

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["sample_size"] = int(len(self.sample.rows))
        return payload


class HistogramModel(SelectivityModel):
    """Directional equi-depth histograms with nearest-direction answering.

    Parameters
    ----------
    points:
        The dataset's points (projections are computed once at build).
    dimension:
        Ambient dimension (defaults to ``points.shape[1]``).
    directions:
        Canonical directions to histogram; defaults to
        :func:`~repro.engine.stats.histograms.canonical_directions`
        (axis + principal directions + fill).  Rows are normalised.
    num_buckets:
        Buckets per histogram (each holds ``N/num_buckets`` points).
    min_cosine:
        A query whose residual direction is farther than this cosine from
        every canonical direction falls back to the sample estimate (set
        to -1 to force histogram answers; requires a sample otherwise).
    sample:
        The dataset's :class:`Reservoir`, used for the fallback (none: an
        empty one, which ``min_cosine=-1`` requires).
    adapt_after / adapt_qerror:
        Workload adaptation knobs.  With ``adapt_after > 0``, q-error
        feedback from the executor accumulates per direction; once a
        direction has priced ``adapt_after`` queries with a geometric-
        mean q-error of at least ``adapt_qerror``, it is dropped and a
        replacement — the most recent query direction the set failed to
        cover, or a re-fit of the same direction — is fitted from the
        sample reservoir.  ``adapt_after=0`` (default) disables
        adaptation entirely.
    """

    name = "histogram"

    def __init__(self, points: np.ndarray,
                 dimension: Optional[int] = None,
                 directions: Optional[Sequence[Sequence[float]]] = None,
                 num_buckets: int = 64,
                 min_cosine: float = DEFAULT_MIN_COSINE,
                 sample: Optional[Reservoir] = None,
                 seed: Optional[int] = None,
                 adapt_after: int = 0,
                 adapt_qerror: float = 4.0):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must have shape (N >= 1, d), got %r"
                             % (points.shape,))
        dimension = dimension if dimension is not None else points.shape[1]
        super().__init__(dimension, len(points), sample if sample is not None
                         else Reservoir(np.empty((0, dimension)), 0, seed))
        if directions is None:
            self._directions = canonical_directions(points, seed=seed)
        else:
            self._directions = np.asarray(
                [normalize_direction(row) for row in directions])
        if len(self._directions) == 0:
            raise ValueError("need at least one canonical direction")
        if self._directions.shape[1] != self._dimension:
            raise ValueError("direction dimension %d does not match dataset "
                             "dimension %d" % (self._directions.shape[1],
                                               self._dimension))
        self._min_cosine = float(min_cosine)
        self._num_buckets = int(num_buckets)
        # One matmul projects the whole dataset onto every canonical
        # direction at once; column k feeds direction k's histogram.
        projections = points @ self._directions.T
        self._histograms = [EquiDepthHistogram(projections[:, column],
                                               num_buckets=num_buckets)
                            for column in range(self._directions.shape[0])]
        # Workload adaptation state: per-direction feedback counts and
        # accumulated log q-error, plus the most recent query directions
        # the canonical set failed to cover (replacement candidates).
        self._adapt_after = int(adapt_after)
        self._adapt_qerror = float(adapt_qerror)
        self._dir_observations = np.zeros(len(self._directions), dtype=int)
        self._dir_log_qerror = np.zeros(len(self._directions), dtype=float)
        self._missed_directions = deque(maxlen=16)
        self._adaptations = 0
        if len(self.sample.rows) == 0 and self._min_cosine > -1.0:
            # Without a fallback, an off-direction query would be priced
            # from a badly-mismatched histogram with no signal at all.
            raise ValueError(
                "HistogramModel needs a fallback sample while min_cosine "
                "> -1; pass sample=..., or set min_cosine=-1 to accept "
                "nearest-direction answers unconditionally")
        self._fallbacks = 0

    @property
    def num_directions(self) -> int:
        return len(self._directions)

    @property
    def fallbacks(self) -> int:
        """How many estimates fell back to the sample (poor direction fit)."""
        return self._fallbacks

    def estimate_selectivity(self, constraint: LinearConstraint) -> float:
        self._check_dimension(constraint)
        unit, scale = constraint_direction(constraint)
        cosines = self._directions @ unit
        best = int(np.argmax(cosines))
        if cosines[best] < self._min_cosine:
            self._fallbacks += 1
            return selectivity_on_sample(self.sample.rows, self._dimension,
                                         constraint)
        return self._histograms[best].selectivity(constraint.offset / scale)

    # ------------------------------------------------------------------
    # mutation feedback
    # ------------------------------------------------------------------
    def _take(self, row: np.ndarray, sign: int) -> None:
        super()._take(row, sign)
        values = self._directions @ row   # one matvec for every direction
        for value, histogram in zip(values, self._histograms):
            if sign > 0:
                histogram.insert(float(value))
            else:
                histogram.delete(float(value))

    # ------------------------------------------------------------------
    # workload adaptation (q-error feedback)
    # ------------------------------------------------------------------
    def note_estimation_feedback(self, constraint: LinearConstraint,
                                 expected: float, actual: int) -> None:
        """Accumulate one query's q-error against the direction that
        priced it; adapt the direction set when one goes persistently
        bad (see the ``adapt_after`` / ``adapt_qerror`` knobs)."""
        if self._adapt_after <= 0:
            return
        if constraint.dimension != self._dimension:
            return
        error = max((float(expected) + 1.0) / (actual + 1.0),
                    (actual + 1.0) / (float(expected) + 1.0))
        unit, __ = constraint_direction(constraint)
        cosines = self._directions @ unit
        best = int(np.argmax(cosines))
        if cosines[best] < self._min_cosine:
            # The set failed to cover this query at all: remember its
            # direction as a replacement candidate rather than blaming
            # the (unused) nearest histogram.
            self._missed_directions.append(np.asarray(unit, dtype=float))
            return
        self._dir_observations[best] += 1
        self._dir_log_qerror[best] += math.log(error)
        self._maybe_adapt()

    def _maybe_adapt(self) -> None:
        """Drop the worst direction and re-fit a replacement in place.

        Eligible directions have at least ``adapt_after`` feedback
        pairs; the worst one's *geometric-mean* q-error must reach
        ``adapt_qerror``.  The replacement histogram is fitted from the
        sample reservoir (the only point set the model still holds), and
        the swap rebinds copied arrays atomically so concurrent
        estimators read either the old set or the new one, never a
        half-updated row."""
        rows = self.sample.rows
        if len(rows) == 0:
            return
        eligible = np.flatnonzero(self._dir_observations
                                  >= self._adapt_after)
        if len(eligible) == 0:
            return
        means = np.exp(self._dir_log_qerror[eligible]
                       / self._dir_observations[eligible])
        worst_at = int(np.argmax(means))
        if means[worst_at] < self._adapt_qerror:
            return
        worst = int(eligible[worst_at])
        replacement = self._replacement_direction(worst)
        directions = self._directions.copy()
        directions[worst] = replacement
        histograms = list(self._histograms)
        histograms[worst] = EquiDepthHistogram(
            rows @ replacement, num_buckets=self._num_buckets)
        self._directions = directions
        self._histograms = histograms
        self._dir_observations[worst] = 0
        self._dir_log_qerror[worst] = 0.0
        self._adaptations += 1

    def _replacement_direction(self, worst: int) -> np.ndarray:
        """The direction replacing a dropped one: the newest missed
        query direction not already covered by a *surviving* direction,
        else a re-fit of the dropped direction itself (its histogram is
        rebuilt from the current reservoir, which tracked mutations the
        original build never saw)."""
        keep = np.delete(np.arange(len(self._directions)), worst)
        for position in range(len(self._missed_directions) - 1, -1, -1):
            candidate = self._missed_directions[position]
            if len(keep) == 0 or np.max(
                    self._directions[keep] @ candidate) < self._min_cosine:
                del self._missed_directions[position]
                return normalize_direction(candidate)
        return self._directions[worst]

    @property
    def adaptations(self) -> int:
        """How many directions workload feedback has replaced."""
        return self._adaptations

    def direction_qerror(self) -> list:
        """Per-direction feedback counts and geometric-mean q-error.

        One entry per canonical direction (index order), with the number
        of queries that direction has priced since its last replacement
        and the geometric mean of their q-errors (``None`` before any
        feedback).  This is the internal signal :meth:`_maybe_adapt`
        acts on, surfaced for ``EngineStats.summary()["stats"]`` and the
        ``/metrics`` gauges.
        """
        out = []
        for position in range(len(self._directions)):
            count = int(self._dir_observations[position])
            out.append({
                "direction": position,
                "observations": count,
                "qerror": None if count == 0 else float(
                    math.exp(self._dir_log_qerror[position] / count)),
            })
        return out

    def drift(self) -> float:
        """Worst per-direction bucket skew relative to build time.

        Inserts concentrated in one region of one direction drive a
        single equi-depth bucket far above its fair share; the maximum
        over directions is the signal the rebalance trigger compares
        against its threshold.
        """
        return max(histogram.drift() for histogram in self._histograms)

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["directions"] = self.num_directions
        payload["buckets"] = self._histograms[0].num_buckets
        payload["fallbacks"] = self._fallbacks
        payload["adaptations"] = self._adaptations
        return payload


class EnsembleModel(SelectivityModel):
    """Uniform-sample and histogram models aggregated by e-weights.

    Runs a :class:`UniformSampleModel` and a :class:`HistogramModel`
    over the same points and one shared :class:`Reservoir`, answering with the
    weight-averaged selectivity.  Weights are updated online in the
    e-value style: after every served query each member is scored by its
    *own* estimate's q-error against the actual count, and its weight is
    multiplied by ``qerror ** -learning_rate`` (a per-query e-factor —
    small for members that keep mispricing, ~1 for members that track
    the workload).  Products of those factors are exactly what the
    weights hold, kept in log space and renormalised so they never
    over/underflow.

    The point of the construction: nobody has to choose between the
    members up front.  On smooth data the uniform sample is unbiased and
    cheap; on the paper's adversarial diagonal the histogram resolves
    the deep tail the sample can't — the ensemble starts at an even
    split and converges onto whichever member the live workload proves
    out, while the loser's weight decays geometrically.

    Parameters
    ----------
    points / sample / dimension / seed:
        As for the member models; both members read the ensemble's one
        ``sample``, which the ensemble feeds once per write.
    learning_rate:
        Exponent on each per-query e-factor.  1.0 bets the full
        observed q-error each query (fast convergence, twitchy under
        noise); the 0.5 default halves the log-loss per step — a
        mis-specified member still loses ~30% of its weight every
        doubling of q-error.
    uniform_params / histogram_params:
        Extra constructor kwargs forwarded to the respective member
        (e.g. ``histogram_params={"adapt_after": 32}``).
    """

    name = "ensemble"

    #: Member order is part of the model's contract: weights, q-error
    #: summaries, and worker rebuilds all index members by this tuple.
    MEMBER_NAMES = ("uniform", "histogram")

    def __init__(self, points: np.ndarray,
                 sample: Optional[Reservoir] = None,
                 dimension: Optional[int] = None,
                 seed: Optional[int] = None,
                 learning_rate: float = 0.5,
                 uniform_params: Optional[Dict[str, object]] = None,
                 histogram_params: Optional[Dict[str, object]] = None):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must have shape (N >= 1, d), got %r"
                             % (points.shape,))
        dimension = dimension if dimension is not None else points.shape[1]
        super().__init__(dimension, len(points), sample if sample is not None
                         else Reservoir(np.empty((0, dimension)), 0, seed))
        if learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0, got %r"
                             % learning_rate)
        self._learning_rate = float(learning_rate)
        uniform_params = dict(uniform_params or {})
        histogram_params = dict(histogram_params or {})
        self._members = (
            UniformSampleModel(self.sample, dimension=self._dimension,
                               size=len(points), **uniform_params),
            HistogramModel(points, dimension=self._dimension,
                           sample=self.sample, seed=seed,
                           **histogram_params),
        )
        self._log_weights = np.zeros(len(self._members))
        self._member_observations = np.zeros(len(self._members), dtype=int)
        self._member_log_qerror = np.zeros(len(self._members))
        self._feedback = 0

    @property
    def members(self) -> Sequence[SelectivityModel]:
        """The member models, in :attr:`MEMBER_NAMES` order."""
        return self._members

    @property
    def weights(self) -> Dict[str, float]:
        """Current normalised member weights by member name."""
        raw = np.exp(self._log_weights - np.max(self._log_weights))
        normalised = raw / raw.sum()
        return {name: float(weight)
                for name, weight in zip(self.MEMBER_NAMES, normalised)}

    def member_qerror(self) -> Dict[str, Optional[float]]:
        """Each member's geometric-mean q-error over its own estimates."""
        summary: Dict[str, Optional[float]] = {}
        for position, name in enumerate(self.MEMBER_NAMES):
            count = int(self._member_observations[position])
            summary[name] = None if count == 0 else float(
                math.exp(self._member_log_qerror[position] / count))
        return summary

    def estimate_selectivity(self, constraint: LinearConstraint) -> float:
        self._check_dimension(constraint)
        raw = np.exp(self._log_weights - np.max(self._log_weights))
        estimates = np.array([member.estimate_selectivity(constraint)
                              for member in self._members])
        return float(np.dot(raw / raw.sum(), estimates))

    # ------------------------------------------------------------------
    # mutation feedback — forwarded so member sizes/structures track; the
    # members read the ensemble's sample, which the public hooks feed once.
    # ------------------------------------------------------------------
    def _take(self, row: np.ndarray, sign: int) -> None:
        super()._take(row, sign)
        for member in self._members:
            member._take(row, sign)

    # ------------------------------------------------------------------
    # q-error feedback — the e-weight update
    # ------------------------------------------------------------------
    def note_estimation_feedback(self, constraint: LinearConstraint,
                                 expected: float, actual: int) -> None:
        """Score every member on its own estimate and reweight.

        ``expected`` (the ensemble's aggregate estimate, already scored
        by the engine's q-error stats) is deliberately unused: each
        member is judged by what *it* would have answered, which is the
        signal that separates them.  Members receive their own-estimate
        feedback too, so an adaptive histogram member re-aims its
        directions exactly as it would standalone.
        """
        if constraint.dimension != self._dimension:
            return
        for position, member in enumerate(self._members):
            member_expected = member.estimate_output(constraint)
            error = math.log(
                max((member_expected + 1.0) / (actual + 1.0),
                    (actual + 1.0) / (member_expected + 1.0)))
            self._member_observations[position] += 1
            self._member_log_qerror[position] += error
            self._log_weights[position] -= self._learning_rate * error
            member.note_estimation_feedback(
                constraint, member_expected, actual)
        # Renormalise in log space; only weight *ratios* matter.
        self._log_weights -= np.max(self._log_weights)
        self._feedback += 1

    def drift(self) -> float:
        """Worst member drift (either member can trip a rebalance)."""
        return max(member.drift() for member in self._members)

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["weights"] = self.weights
        payload["member_qerror"] = self.member_qerror()
        payload["feedback"] = self._feedback
        payload["members"] = {name: member.describe()
                              for name, member
                              in zip(self.MEMBER_NAMES, self._members)}
        return payload


def make_model(spec: object, points: np.ndarray, sample: Reservoir,
               seed: Optional[int] = None, **params) -> SelectivityModel:
    """Build a selectivity model over ``points`` that owns ``sample``.

    ``spec`` is a kind name (``"uniform"`` / ``"histogram"`` /
    ``"ensemble"``), a callable ``f(points, sample, seed, **params) ->
    SelectivityModel`` for custom models, or ``None`` (the uniform
    default).  ``params`` are forwarded to the model constructor (e.g.
    ``num_buckets`` / ``directions`` / ``min_cosine`` for histograms,
    ``learning_rate`` / ``histogram_params`` for the ensemble).
    """
    points = np.asarray(points, dtype=float)
    if spec is None:
        spec = "uniform"
    if callable(spec):
        return spec(points=points, sample=sample, seed=seed, **params)
    if spec == "uniform":
        return UniformSampleModel(sample, dimension=points.shape[1],
                                  size=len(points), **params)
    if spec == "histogram":
        return HistogramModel(points, sample=sample, seed=seed, **params)
    if spec == "ensemble":
        return EnsembleModel(points, sample=sample, seed=seed, **params)
    raise ValueError("unknown selectivity model %r (expected one of %s, or "
                     "a callable)" % (spec, ", ".join(MODEL_KINDS)))
