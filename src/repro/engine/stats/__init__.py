"""The statistics subsystem: pluggable selectivity estimation.

The paper's query bounds are output-sensitive, so every planner decision
hinges on the expected output size T.  This package owns that estimate:

* :class:`~repro.engine.stats.models.SelectivityModel` — the seam; one
  model per shard, and a dataset's T is the sum of its shards', so plans
  are priced with shard-local statistics;
* :class:`~repro.engine.stats.models.UniformSampleModel` — evaluate the
  constraint on a uniform in-memory sample (the original estimator);
* :class:`~repro.engine.stats.models.HistogramModel` — equi-depth
  histograms of projections onto canonical directions, answered by
  nearest direction with a sample fallback — resolves the deep tail on
  skewed data like the §1.2 diagonal;
* :class:`~repro.engine.stats.models.EnsembleModel` — both of the above
  side by side, aggregated with e-value-style weights updated online
  from per-query q-error, so the live workload picks the better member;
* :class:`~repro.engine.stats.conformal.ConformalCalibrator` —
  distribution-free count intervals calibrated per dataset from the
  executor's (estimate, actual) feedback pairs, replacing the ad-hoc
  normal approximation on degraded answers;
* :class:`~repro.engine.stats.histograms.EquiDepthHistogram` and the
  direction helpers the histogram model composes.

Models accept mutation feedback (``observe_insert``/``observe_delete``,
fed once per committed write by the engine's write path) and expose a
``drift()`` signal the shard :class:`~repro.engine.sharding.
RebalanceManager` uses to detect when inserts have skewed a shard's
statistics.
"""

from repro.engine.stats.histograms import (
    EquiDepthHistogram,
    canonical_directions,
    constraint_direction,
    normalize_direction,
    principal_directions,
)
from repro.engine.stats.conformal import (
    DEFAULT_COVERAGE,
    DEFAULT_MIN_CALIBRATION,
    DEFAULT_WINDOW,
    ConformalCalibrator,
    scaled_residual,
)
from repro.engine.stats.models import (
    DEFAULT_MIN_COSINE,
    EnsembleModel,
    HistogramModel,
    MODEL_KINDS,
    Reservoir,
    SelectivityModel,
    UniformSampleModel,
    make_model,
)

__all__ = [
    "ConformalCalibrator",
    "DEFAULT_COVERAGE",
    "DEFAULT_MIN_CALIBRATION",
    "DEFAULT_MIN_COSINE",
    "DEFAULT_WINDOW",
    "EnsembleModel",
    "EquiDepthHistogram",
    "HistogramModel",
    "MODEL_KINDS",
    "Reservoir",
    "SelectivityModel",
    "UniformSampleModel",
    "canonical_directions",
    "constraint_direction",
    "make_model",
    "normalize_direction",
    "principal_directions",
    "scaled_residual",
]
