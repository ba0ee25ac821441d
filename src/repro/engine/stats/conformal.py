"""Distribution-free conformal intervals on the engine's count estimates.

Every layer of the engine used to invent its own uncertainty story: the
degraded-answer path carried an ad-hoc ~95% normal approximation
(:func:`repro.engine.serving.admission.scaled_count_estimate`), planner
estimates carried none at all.  This module is the one shared story —
split-conformal prediction over the executor's existing
``(estimate, actual)`` feedback pairs, following the conformal
e-prediction line in PAPERS.md.

The construction is the textbook one, adapted to counts:

* every served query already reports its estimated and actual output
  size back through :meth:`EngineStats.note_estimation`; each pair
  contributes one *conformity score* — the absolute residual scaled by
  the estimate's magnitude (:func:`scaled_residual`), so a single
  quantile works across selectivities spanning orders of magnitude;
* scores accumulate in a bounded FIFO per dataset (a sliding
  calibration window, so the intervals track drifting workloads);
* an interval around a fresh estimate is the estimate ± the
  finite-sample-corrected ``ceil((n+1)·coverage)``-th smallest score,
  rescaled back into count units.  Under exchangeability the interval
  covers the true count with probability at least ``coverage`` — no
  distributional assumption on the data or the estimator.

Cold start is explicit: until a dataset's calibration set holds
``min_calibration`` pairs (and enough of them to certify the requested
coverage at all — ``ceil((n+1)·coverage) ≤ n``), :meth:`interval`
returns ``None`` and callers fall back to the normal approximation,
labelling the answer ``interval_source="normal_fallback"`` instead of
``"conformal"``.

The calibrator also tracks *prequential* empirical coverage: before a
new pair is folded in, the interval the calibrator would have produced
for it is checked against the actual count.  Those counters are what
``EngineStats.summary()`` reports; the ±5-point coverage test in
``tests/test_stats.py`` measures the served intervals themselves.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Default nominal coverage (matches the ~95% normal approximation the
#: conformal intervals replace).
DEFAULT_COVERAGE = 0.95

#: Default bound on each per-dataset calibration set.  256 pairs keep
#: the quantile responsive to workload drift while giving the 95% level
#: a comfortable finite-sample margin (needs ``n >= 19``).
DEFAULT_WINDOW = 256

#: Pairs required before conformal intervals are served at all — below
#: this the quantile is noise and callers use the normal fallback.
DEFAULT_MIN_CALIBRATION = 32


def scaled_residual(estimate: float, actual: float) -> float:
    """The conformity score for one ``(estimate, actual)`` pair.

    The absolute residual divided by ``|estimate| + 1``: a query
    estimated at 10 that returned 20 scores the same as one estimated at
    1000 that returned 2000, so one calibration quantile prices the
    whole selectivity range instead of being dominated by the largest
    counts.  The ``+1`` keeps zero estimates finite.
    """
    estimate = float(estimate)
    return abs(float(actual) - estimate) / (abs(estimate) + 1.0)


class _Calibration:
    """One dataset's bounded score window plus coverage counters.

    ``scores`` is the window in arrival order (what FIFO eviction needs),
    ``ordered`` the same multiset ascending (what a rank statistic
    needs): :meth:`push` keeps the two equal, so a quantile is an index,
    not a sort of the window per request.
    """

    __slots__ = ("scores", "ordered", "intervals", "covered")

    def __init__(self, window: int):
        self.scores: Deque[float] = deque(maxlen=window)
        self.ordered: List[float] = []
        self.intervals = 0
        self.covered = 0

    def push(self, score: float) -> None:
        """Append ``score``, evicting the oldest from a full window."""
        if len(self.scores) == self.scores.maxlen:
            del self.ordered[bisect_left(self.ordered, self.scores[0])]
        self.scores.append(score)
        insort(self.ordered, score)


class ConformalCalibrator:
    """Per-dataset split-conformal calibration over count residuals.

    Thread-safe (the executor feeds it from worker threads while the
    serving path reads intervals from the event loop).  One calibrator
    serves every dataset in an engine; sets are keyed by dataset name
    and created lazily on first feedback.

    Parameters
    ----------
    coverage:
        Nominal coverage of the intervals (the knob: 0.95 means "the
        true count falls inside at least 95% of the time").  Higher
        coverage needs more calibration pairs before intervals can be
        certified at all: ``ceil((n+1)·coverage)`` must be ≤ ``n``, so
        0.95 needs 19+ pairs, 0.99 needs 99+.
    window:
        Bound on each per-dataset calibration set (FIFO eviction).
    min_calibration:
        Pairs required before :meth:`interval` stops returning ``None``.
    """

    def __init__(self, coverage: float = DEFAULT_COVERAGE,
                 window: int = DEFAULT_WINDOW,
                 min_calibration: int = DEFAULT_MIN_CALIBRATION):
        if not 0.0 < coverage < 1.0:
            raise ValueError("coverage must be in (0, 1), got %r" % coverage)
        if int(window) < 1:
            raise ValueError("window must be >= 1, got %r" % window)
        self._coverage = float(coverage)
        self._window = int(window)
        self._min_calibration = max(1, int(min_calibration))
        self._sets: Dict[str, _Calibration] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> float:
        """Nominal coverage of the served intervals."""
        return self._coverage

    @property
    def window(self) -> int:
        """Bound on each per-dataset calibration set."""
        return self._window

    @property
    def min_calibration(self) -> int:
        """Pairs required before intervals are served."""
        return self._min_calibration

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def observe(self, dataset: str, estimate: float, actual: int) -> None:
        """Fold one served query's ``(estimate, actual)`` pair in.

        Before the pair joins the window it is *scored against* the
        current calibration — would the interval have covered the actual
        count? — which is the prequential empirical-coverage signal
        :meth:`describe` reports.  (Scoring first keeps it honest: the
        pair never helps cover itself.)  A non-finite estimate is no
        estimate: it has no score to order the window by and is ignored.
        """
        score = scaled_residual(estimate, actual)
        if not math.isfinite(score):
            return
        with self._lock:
            calibration = self._sets.setdefault(
                dataset, _Calibration(self._window))
            quantile = self._quantile_of(calibration, self._coverage)
            if quantile is not None:
                low, high = _interval_around(float(estimate), quantile)
                calibration.intervals += 1
                if low <= int(actual) <= high:
                    calibration.covered += 1
            calibration.push(score)

    # ------------------------------------------------------------------
    # intervals
    # ------------------------------------------------------------------
    def size(self, dataset: str) -> int:
        """Calibration pairs currently held for a dataset."""
        with self._lock:
            calibration = self._sets.get(dataset)
            return 0 if calibration is None else len(calibration.scores)

    def quantile(self, dataset: str,
                 coverage: Optional[float] = None) -> Optional[float]:
        """The calibrated score quantile, or ``None`` while cold.

        ``coverage`` overrides the calibrator's nominal level (the tests
        sweep it to check monotonicity); the finite-sample correction
        ``ceil((n+1)·coverage)`` is applied either way.
        """
        level = self._coverage if coverage is None else float(coverage)
        if not 0.0 < level < 1.0:
            raise ValueError("coverage must be in (0, 1), got %r" % level)
        with self._lock:
            calibration = self._sets.get(dataset)
            if calibration is None:
                return None
            return self._quantile_of(calibration, level)

    def interval(self, dataset: str, estimate: float,
                 population: Optional[int] = None,
                 coverage: Optional[float] = None
                 ) -> Optional[Tuple[int, int]]:
        """A conformal count interval around ``estimate``, or ``None``.

        ``None`` means cold start — fewer than ``min_calibration``
        pairs, or too few to certify the requested coverage — and the
        caller should fall back to its parametric approximation.
        ``population`` clips the upper end (a count can't exceed the
        live dataset size).
        """
        quantile = self.quantile(dataset, coverage=coverage)
        if quantile is None:
            return None
        low, high = _interval_around(float(estimate), quantile)
        if population is not None:
            high = min(high, int(population))
            low = min(low, high)
        return low, high

    # ------------------------------------------------------------------
    # coverage accounting
    # ------------------------------------------------------------------
    def empirical_coverage(self, dataset: str) -> Optional[float]:
        """Observed coverage of the served intervals (prequential)."""
        with self._lock:
            calibration = self._sets.get(dataset)
            if calibration is None or calibration.intervals == 0:
                return None
            return calibration.covered / calibration.intervals

    def describe(self) -> Dict[str, object]:
        """JSON-friendly snapshot: knobs plus per-dataset calibration."""
        with self._lock:
            datasets = {}
            for name, calibration in sorted(self._sets.items()):
                quantile = self._quantile_of(calibration, self._coverage)
                datasets[name] = {
                    "pairs": len(calibration.scores),
                    "ready": quantile is not None,
                    "quantile": quantile,
                    "intervals": calibration.intervals,
                    "covered": calibration.covered,
                    "empirical_coverage": (
                        calibration.covered / calibration.intervals
                        if calibration.intervals else None),
                }
        return {"coverage": self._coverage, "window": self._window,
                "min_calibration": self._min_calibration,
                "datasets": datasets}

    def reset(self) -> None:
        """Drop every calibration set and coverage counter."""
        with self._lock:
            self._sets.clear()

    def check_invariants(self) -> None:
        """Raise AssertionError unless every window is within its bound
        and its ascending mirror holds exactly the window's scores."""
        with self._lock:
            for name, calibration in self._sets.items():
                if len(calibration.scores) > self._window \
                        or calibration.ordered != sorted(calibration.scores):
                    raise AssertionError(
                        "calibration window of %r lost its mirror" % name)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _quantile_of(self, calibration: _Calibration,
                     coverage: float) -> Optional[float]:
        """Finite-sample-corrected quantile of one window (lock held)."""
        n = len(calibration.scores)
        if n < self._min_calibration:
            return None
        rank = math.ceil((n + 1) * coverage)
        if rank > n:
            # Not enough pairs to certify this coverage level at all.
            return None
        return calibration.ordered[rank - 1]


def _interval_around(estimate: float, quantile: float) -> Tuple[int, int]:
    """Rescale a score quantile back into count units around an estimate.

    Inverts :func:`scaled_residual`: every calibration pair with score
    ≤ ``quantile`` would have had its actual count inside this band.
    Counts are integers, so the band is floored/ceiled outward (never
    narrowed) and clipped at zero.
    """
    half = quantile * (abs(estimate) + 1.0)
    low = max(0, int(math.floor(estimate - half)))
    high = max(low, int(math.ceil(estimate + half)))
    return low, high
