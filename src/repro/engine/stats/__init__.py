"""The statistics subsystem: selectivity estimates and their error bars.

The paper's query bounds are output-sensitive, so every planner decision
hinges on the expected output size T.  This package owns that estimate:

* :class:`~repro.engine.stats.models.SelectivityModel` — one per shard:
  the hit fraction on a uniform in-memory sample of the shard
  (:class:`~repro.engine.stats.models.Reservoir`) times its live size,
  which the replica's write overlay counts; a dataset's T is the sum of
  its shards', so plans are priced with shard-local statistics;
* :class:`~repro.engine.stats.conformal.ConformalCalibrator` —
  distribution-free count intervals calibrated per dataset from the
  executor's (estimate, actual) feedback pairs, replacing the ad-hoc
  normal approximation on degraded answers (the only answers that carry
  a band; a plan carries its point estimate alone).

A model accepts mutation feedback (``observe_insert``/``observe_delete``,
fed once per committed write by the engine's write path), so its sample
tracks the shard's data.
"""

from repro.engine.stats.conformal import (
    DEFAULT_COVERAGE,
    DEFAULT_MIN_CALIBRATION,
    DEFAULT_WINDOW,
    ConformalCalibrator,
    scaled_residual,
)
from repro.engine.stats.models import Reservoir, SelectivityModel

__all__ = [
    "ConformalCalibrator",
    "DEFAULT_COVERAGE",
    "DEFAULT_MIN_CALIBRATION",
    "DEFAULT_WINDOW",
    "Reservoir",
    "SelectivityModel",
    "scaled_residual",
]
