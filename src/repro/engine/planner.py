"""The cost-based planner: route each query to the cheapest index.

For a dataset with several registered indexes, the planner predicts what
each index would charge for a given constraint and picks the minimum.  The
prediction has two factors:

* the *model* term — each index's
  :meth:`~repro.core.interface.ExternalIndex.estimated_query_ios`, i.e. the
  paper's asymptotic bound (``log_B n + t`` for the optimal structures,
  ``n^{1-1/d} + t`` for the partition tree, ``n`` for a scan) evaluated
  with the expected output size from the dataset's selectivity model
  (:mod:`repro.engine.stats` — a uniform sample by default, directional
  histograms for skewed data; each shard is priced with its child's
  *own* model);
* a *calibration* factor — an exponentially-weighted running ratio of
  observed I/Os (from ``query_with_stats`` history fed back by the
  executor) to predicted I/Os, per (dataset, index).  Asymptotic bounds
  drop constants; calibration learns them from traffic, so a structure
  whose real constant is large gradually loses ties it should lose.

The planner prices a query as the *sum over relevant shards* of the
per-shard paper bound: it asks the dataset which shards the constraint can
touch (shards outside the constraint's reach are pruned via their bounding
boxes), plans each relevant shard independently over its own index suite
(one :class:`Plan` each), and returns a :class:`ShardedPlan` whose cost is
the fan-out total — for a ``register_dataset`` dataset that is the paper's
own case, one shard.  Calibration is keyed by (dataset, index) *across*
shards — shards of one dataset are statistically alike, so they share and
jointly sharpen one learned constant per structure.

Calibration state is exportable/restorable as a plain dict so a serving
deployment can persist what it learned across restarts (see
:mod:`repro.engine.calibration` for the on-disk store with age-out).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import repro.engine.tracing as tracing
from repro.core.conjunction import ConstraintConjunction
from repro.engine.catalog import Catalog, Dataset
from repro.engine.sharding import Shard, ShardedDataset
from repro.engine.stats.conformal import ConformalCalibrator
from repro.geometry.primitives import LinearConstraint

#: One calibration feedback sample: (index_name, model_ios, observed_ios).
Observation = Tuple[str, float, int]

#: Calibration factors are clamped to this range so one outlier
#: observation can never permanently blacklist (or anoint) an index.
MIN_FACTOR = 0.05
MAX_FACTOR = 20.0


class CandidateEstimate(NamedTuple):
    """The planner's prediction for one candidate index."""

    index_name: str
    model_ios: float
    calibration: float

    @property
    def cost(self) -> float:
        """Calibrated predicted I/Os (what the planner minimises)."""
        return self.model_ios * self.calibration


@dataclass(frozen=True)
class Plan:
    """The planner's decision for one query on one shard replica."""

    dataset: str
    index_name: str
    expected_output: int
    estimates: Tuple[CandidateEstimate, ...]
    #: Conformal interval around ``expected_output`` (None while the
    #: dataset's calibration window is cold — estimates are then points
    #: with no certified uncertainty).
    output_interval: Optional[Tuple[int, int]] = None

    @property
    def estimated_ios(self) -> float:
        """Predicted cost of the chosen index."""
        return self.chosen.cost

    @property
    def chosen(self) -> CandidateEstimate:
        """The winning candidate's estimate."""
        for estimate in self.estimates:
            if estimate.index_name == self.index_name:
                return estimate
        raise AssertionError("plan lost its own chosen index %r"
                             % self.index_name)

    def explain(self) -> str:
        """One line per candidate, winner first (for logs and examples)."""
        ordered = sorted(self.estimates,
                         key=lambda est: (est.cost, est.index_name))
        band = "" if self.output_interval is None \
            else " in [%d, %d]" % self.output_interval
        lines = ["plan for dataset %r (expected T=%d%s):"
                 % (self.dataset, self.expected_output, band)]
        for rank, estimate in enumerate(ordered):
            marker = "->" if rank == 0 else "  "
            lines.append("  %s %-16s %8.1f predicted I/Os"
                         " (model %.1f x calibration %.2f)"
                         % (marker, estimate.index_name, estimate.cost,
                            estimate.model_ios, estimate.calibration))
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardedPlan:
    """The planner's decision for one query: what :meth:`Planner.plan` returns.

    ``shard_plans`` holds one (shard_id, :class:`Plan`) pair per relevant
    shard — shards whose bounding box cannot contain a satisfying point
    are pruned and appear only in the ``shards_pruned`` count.
    """

    dataset: str
    expected_output: int
    shard_plans: Tuple[Tuple[int, Plan], ...]
    num_shards: int
    #: The sharded dataset's re-split generation this plan was made
    #: against; the executor re-plans when a rebalance has bumped it.
    generation: int = 0
    #: Element-wise sum of the relevant shards' conformal intervals
    #: (None until every relevant shard's dataset window is warm).
    output_interval: Optional[Tuple[int, int]] = None

    @property
    def estimated_ios(self) -> float:
        """Predicted fan-out cost: sum of the per-shard chosen costs."""
        return sum(plan.estimated_ios for __, plan in self.shard_plans)

    @property
    def shards_queried(self) -> int:
        """How many shards the query fans out to."""
        return len(self.shard_plans)

    @property
    def shards_pruned(self) -> int:
        """How many shards the leading-attribute/box pruning skipped."""
        return self.num_shards - len(self.shard_plans)

    @property
    def index_name(self) -> str:
        """Summary label of the chosen per-shard indexes (for metrics)."""
        names = sorted({plan.index_name for __, plan in self.shard_plans})
        if not names:
            return "pruned"
        if len(names) == 1:
            return names[0]
        return "mixed(%s)" % "+".join(names)

    def explain(self) -> str:
        """Fan-out summary plus each relevant shard's plan."""
        band = "" if self.output_interval is None \
            else " in [%d, %d]" % self.output_interval
        lines = ["plan for dataset %r (expected T=%d%s): "
                 "%d/%d shards relevant, %d pruned, %.1f predicted I/Os"
                 % (self.dataset, self.expected_output, band,
                    self.shards_queried,
                    self.num_shards, self.shards_pruned, self.estimated_ios)]
        for shard_id, plan in self.shard_plans:
            lines.append("  shard %d -> %s (%.1f predicted I/Os)"
                         % (shard_id, plan.index_name, plan.estimated_ios))
        return "\n".join(lines)


@dataclass
class _Calibration:
    """Running observed/predicted ratio for one (dataset, index)."""

    factor: float = 1.0
    observations: int = 0
    updated_at: float = 0.0


class Planner:
    """Pick the cheapest index for each constraint, learning from history.

    Parameters
    ----------
    catalog:
        The catalog holding datasets and their candidate indexes.
    ewma_alpha:
        Weight of the newest observed/predicted ratio in the calibration
        factor (0 disables learning, 1 trusts only the last query).
    conformal:
        Optional :class:`ConformalCalibrator` (the engine passes its
        stats') — when set, every plan carries a conformal
        ``output_interval`` around ``expected_output`` once the
        dataset's calibration window is warm.
    """

    def __init__(self, catalog: Catalog, ewma_alpha: float = 0.25,
                 conformal: Optional[ConformalCalibrator] = None):
        if not 0.0 <= ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must lie in [0, 1], got %r"
                             % ewma_alpha)
        self._catalog = catalog
        self._alpha = ewma_alpha
        self._conformal = conformal
        self._calibrations: Dict[Tuple[str, str], _Calibration] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    @staticmethod
    def _routable_indexes(dataset: Dataset) -> Dict[str, object]:
        """The candidate indexes the planner may route to.

        Once a dataset has mutated (an insert/delete through a dynamic
        index), its statically-built indexes no longer reflect the data —
        routing to them would silently drop the update.  Only
        mutation-aware indexes (those publishing ``add_mutation_listener``)
        stay routable from that point on.
        """
        if not dataset.mutated:
            return dataset.indexes
        fresh = {
            name: index for name, index in dataset.indexes.items()
            if callable(getattr(index, "add_mutation_listener", None))}
        return fresh or dataset.indexes

    def _plan_dataset(self, dataset: Dataset, calibration_name: str,
                      constraint: LinearConstraint) -> Plan:
        """Plan over one shard's replica dataset."""
        if not dataset.indexes:
            raise ValueError("dataset %r has no indexes to plan over"
                             % dataset.name)
        expected_output = dataset.estimate_output(constraint)
        routable = self._routable_indexes(dataset)
        with self._lock:        # one hold for every candidate's factor
            entries = [self._calibrations.get((calibration_name, name))
                       for name in routable]
        # Candidates in registration order; cost ties go to the name.
        estimates = tuple(
            CandidateEstimate(
                name, index.estimated_query_ios(constraint, expected_output),
                entry.factor if entry else 1.0)
            for (name, index), entry in zip(routable.items(), entries))
        winner = min(estimates, key=lambda est: (est.cost, est.index_name))
        # Conformal residuals are calibrated per *dataset* (shard children
        # feed their parent's window through note_estimation), so shard
        # plans are banded by the parent's key.
        interval = None if self._conformal is None else \
            self._conformal.interval(calibration_name, expected_output,
                                     population=dataset.live_size)
        return Plan(dataset=dataset.name,
                    index_name=winner.index_name,
                    expected_output=expected_output, estimates=estimates,
                    output_interval=interval)

    def plan(self, dataset_name: str,
             constraint: LinearConstraint) -> ShardedPlan:
        """Choose the cheapest index on each relevant shard for a constraint."""
        with tracing.span("planner.plan") as span:
            sharded = self._catalog.sharded(dataset_name)
            plan = self._plan_shards(
                sharded, constraint, sharded.relevant_shards(constraint))
            if span.enabled:
                self._annotate_plan_span(span, plan)
            return plan

    def _plan_shards(self, sharded: ShardedDataset,
                     constraint: LinearConstraint,
                     relevant: "list[Shard]") -> ShardedPlan:
        # Plan against each shard's *routing* replica: before any mutation
        # that is replica 0, and after a mutation it is the replica holding
        # the fresh data (whose routable indexes exclude stale statics).
        shard_plans = tuple(
            (shard.shard_id,
             self._plan_dataset(shard.planning_dataset(), sharded.name,
                                constraint))
            for shard in relevant)
        # The fan-out's expected output is the sum of the *shard-local*
        # estimates (each shard child owns its own selectivity model) —
        # on skewed data the per-shard models see their shard's
        # distribution, where the single global estimate would not.
        # Its interval is the element-wise sum of the shard intervals
        # (every relevant shard banded, or no band at all).
        intervals = [plan.output_interval for __, plan in shard_plans]
        interval = None
        if intervals and all(pair is not None for pair in intervals):
            interval = (sum(low for low, __ in intervals),
                        sum(high for __, high in intervals))
        return ShardedPlan(dataset=sharded.name,
                           expected_output=sum(
                               plan.expected_output
                               for __, plan in shard_plans),
                           shard_plans=shard_plans,
                           num_shards=sharded.num_shards,
                           generation=sharded.generation,
                           output_interval=interval)

    def plan_conjunction(self, dataset_name: str,
                         conjunction: ConstraintConjunction) -> ShardedPlan:
        """Choose an index for a conjunction of constraints.

        Non-simplex indexes answer a conjunction by running its most
        selective conjunct and filtering (see :mod:`repro.core.conjunction`),
        so each candidate is costed with that conjunct's expected output;
        the executor then evaluates the conjunction through
        :func:`~repro.core.conjunction.query_conjunction`.  Every
        conjunct participates in pruning (any one conjunct missing a
        shard's box excludes the shard).
        """
        with tracing.span("planner.plan_conjunction",
                          conjuncts=len(conjunction.constraints)) as span:
            sharded = self._catalog.sharded(dataset_name)
            best = min(conjunction.constraints, key=sharded.estimate_output)
            plan = self._plan_shards(
                sharded, best,
                sharded.relevant_shards_conjunction(conjunction))
            if span.enabled:
                self._annotate_plan_span(span, plan)
            return plan

    @staticmethod
    def _annotate_plan_span(span, plan: ShardedPlan) -> None:
        """Attach the chosen plan's estimates to an open planner span."""
        span.set_many({
            "dataset": plan.dataset,
            "index": plan.index_name,
            "expected_output": round(float(plan.expected_output), 2),
            "estimated_ios": round(float(plan.estimated_ios), 2),
            "shards_queried": plan.shards_queried,
            "shards_pruned": plan.shards_pruned,
            "generation": plan.generation,
        })
        if plan.output_interval is not None:
            span.set("output_interval", list(plan.output_interval))

    # ------------------------------------------------------------------
    # calibration
    # ------------------------------------------------------------------
    def calibration_factor(self, dataset_name: str, index_name: str) -> float:
        """Current observed/predicted ratio for one (dataset, index)."""
        with self._lock:
            entry = self._calibrations.get((dataset_name, index_name))
            return entry.factor if entry else 1.0

    def _observe_locked(self, dataset_name: str, index_name: str,
                        model_ios: float, observed_ios: int) -> None:
        """One EWMA update; the caller must hold :attr:`_lock`."""
        if model_ios <= 0:
            return
        ratio = max(observed_ios, 1) / model_ios
        key = (dataset_name, index_name)
        entry = self._calibrations.setdefault(key, _Calibration())
        if entry.observations == 0:
            blended = ratio
        else:
            blended = (1.0 - self._alpha) * entry.factor \
                + self._alpha * ratio
        entry.factor = min(MAX_FACTOR, max(MIN_FACTOR, blended))
        entry.observations += 1
        entry.updated_at = time.time()

    def observe(self, dataset_name: str, index_name: str,
                model_ios: float, observed_ios: int) -> None:
        """Feed back one executed query's (model estimate, observed) pair.

        ``model_ios`` must be the *uncalibrated* estimate (the
        ``estimated_query_ios`` value): the EWMA of ``observed / model``
        then converges to the structure's true constant factor.  The very
        first observation snaps the factor directly so a cold planner
        learns a grossly mispredicted constant after one query.

        The read-modify-write of the EWMA happens entirely under the
        planner's lock, so concurrent feedback from fan-out workers or the
        async executor can never lose an update.
        """
        with self._lock:
            self._observe_locked(dataset_name, index_name, model_ios,
                                 observed_ios)

    def observe_many(self, dataset_name: str,
                     observations: Sequence[Observation]) -> None:
        """Apply a batch of feedback samples under one lock acquisition.

        The sharded fan-out path produces one (model, observed) pair per
        relevant shard; merging them per query keeps the per-shard EWMA
        semantics of calling :meth:`observe` in a loop while making the
        whole batch atomic with respect to concurrent planners — and it
        halves the lock traffic the async executor generates.
        """
        with self._lock:
            for index_name, model_ios, observed_ios in observations:
                self._observe_locked(dataset_name, index_name, model_ios,
                                     observed_ios)

    def export_calibration(self) -> Dict[str, Dict[str, object]]:
        """Calibration state as a JSON-friendly dict (persist across runs).

        Each entry carries the wall-clock time of its last observation so
        the on-disk store (:mod:`repro.engine.calibration`) can age out
        constants learned from traffic that is no longer representative.
        """
        with self._lock:
            return {
                "%s/%s" % key: {"factor": entry.factor,
                                "observations": entry.observations,
                                "updated_at": entry.updated_at}
                for key, entry in self._calibrations.items()
            }

    def load_calibration(self, state: Dict[str, Dict[str, object]]) -> None:
        """Restore calibration exported by :meth:`export_calibration`."""
        with self._lock:
            for joined, payload in state.items():
                dataset_name, _, index_name = joined.partition("/")
                self._calibrations[(dataset_name, index_name)] = _Calibration(
                    factor=float(payload["factor"]),
                    observations=int(payload["observations"]),
                    updated_at=float(payload.get("updated_at", 0.0)),
                )
