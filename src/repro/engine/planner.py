"""The cost-based planner: route each query to the cheapest index.

For a dataset with several registered indexes, the planner asks each one
what it would charge for the given constraint —
:meth:`~repro.core.interface.ExternalIndex.estimated_query_ios`, the
structure's own query priced in memory for that constraint (the cell
trees replay their descent on a copy of their cell tables, ``halfplane2d``
prices the layers its query reads, a scan its blocks) with the expected
output size from the dataset's selectivity model (:mod:`repro.engine.stats`
— a uniform sample of each shard; each shard is priced with its child's
*own* model) — and picks the
minimum.  That estimate is the whole cost: the planner holds no learned
state, so a fresh engine plans exactly as one that has served for hours.

The planner prices a query as the *sum over relevant shards* of the
per-shard estimate: it asks the dataset which shards the constraint can
touch (shards outside the constraint's reach are pruned via their bounding
boxes), plans each relevant shard independently over its own index suite
(one :class:`Plan` each), and returns a :class:`ShardedPlan` whose cost is
the fan-out total — for a ``register_dataset`` dataset that is the paper's
own case, one shard.  How far the estimates are from the I/Os observed is
the ``engine_cost_model_ratio`` histogram on ``/metrics``.

A conjunction is one more query: every conjunct prunes shards, and it is
priced by its most selective conjunct, which an index outside the
cell-tree walk answers before it filters the rest — so each shard plan
carries the conjunction led by that conjunct (:attr:`Plan.query`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import repro.engine.tracing as tracing
from repro.core.conjunction import ConstraintConjunction
from repro.engine.catalog import Catalog, Query
from repro.engine.sharding import Shard


class CandidateEstimate(NamedTuple):
    """The planner's prediction for one candidate index."""

    index_name: str
    #: The index's ``estimated_query_ios``: what the planner minimises.
    model_ios: float


@dataclass(frozen=True)
class Plan:
    """The planner's decision for one query on one shard replica."""

    dataset: str
    index_name: str
    expected_output: int
    estimates: Tuple[CandidateEstimate, ...]
    #: What the shard runs: the query, a conjunction led by the conjunct
    #: the plan priced (``query.constraints[0]``).
    query: Query

    @property
    def estimated_ios(self) -> float:
        """Predicted cost of the chosen index."""
        for estimate in self.estimates:
            if estimate.index_name == self.index_name:
                return estimate.model_ios
        raise AssertionError("plan lost its own chosen index %r"
                             % self.index_name)

    def explain(self) -> str:
        """One line per candidate, winner first (for logs and examples)."""
        ordered = sorted(self.estimates,
                         key=lambda est: (est.model_ios, est.index_name))
        lines = ["plan for dataset %r (expected T=%d):"
                 % (self.dataset, self.expected_output)]
        for rank, estimate in enumerate(ordered):
            marker = "->" if rank == 0 else "  "
            lines.append("  %s %-16s %8.1f model I/Os"
                         % (marker, estimate.index_name, estimate.model_ios))
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
        lines = ["plan for dataset %r (expected T=%d): "
                 "%d/%d shards relevant, %d pruned, %.1f predicted I/Os"
                 % (self.dataset, self.expected_output, self.shards_queried,
                    self.num_shards, self.shards_pruned, self.estimated_ios)]
        for shard_id, plan in self.shard_plans:
            lines.append("  shard %d -> %s (%.1f predicted I/Os)"
                         % (shard_id, plan.index_name, plan.estimated_ios))
        return "\n".join(lines)


class Planner:
    """Pick the cheapest index for each constraint.

    Parameters
    ----------
    catalog:
        The catalog holding datasets and their candidate indexes.

    A plan only prices: the band around its expected output is the
    degraded answer's to make, which alone carries one.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan_shard(self, shard: Shard, query: Query) -> Plan:
        """Plan over one shard's planning replica, priced by the query's
        first conjunct."""
        dataset = shard.planning_dataset()
        if not dataset.indexes:
            raise ValueError("dataset %r has no indexes to plan over"
                             % dataset.name)
        constraint = query.constraints[0]
        expected_output = dataset.estimate_output(constraint)
        # Candidates in registration order; cost ties go to the name.
        # Every candidate also reads the replica's insert buffer.
        buffered = dataset.overlay.buffer_blocks
        estimates = tuple(
            CandidateEstimate(name, buffered + index.estimated_query_ios(
                constraint, expected_output))
            for name, index in dataset.indexes.items())
        winner = min(estimates,
                     key=lambda est: (est.model_ios, est.index_name))
        return Plan(dataset=dataset.name,
                    index_name=winner.index_name,
                    expected_output=expected_output, estimates=estimates,
                    query=query)

    def plan(self, dataset_name: str, query: Query) -> ShardedPlan:
        """Choose the cheapest index on each relevant shard for a
        constraint or a conjunction.

        A conjunction is priced by its most selective conjunct (a lone
        constraint prices nothing more: it is its own).
        """
        with tracing.span("planner.plan") as span:
            sharded = self._catalog.sharded(dataset_name)
            relevant = sharded.relevant_shards(query)
            if isinstance(query, ConstraintConjunction):
                query = query.led_by(min(query.constraints,
                                         key=sharded.estimate_output))
            shard_plans = tuple((shard.shard_id,
                                 self._plan_shard(shard, query))
                                for shard in relevant)
            # The fan-out's expected output is the sum of the
            # *shard-local* estimates (a dataset has no model but its
            # shards') — on skewed data the per-shard models see their
            # shard's distribution.
            plan = ShardedPlan(dataset=sharded.name,
                               expected_output=sum(
                                   plan.expected_output
                                   for __, plan in shard_plans),
                               shard_plans=shard_plans,
                               num_shards=sharded.num_shards,
                               generation=sharded.generation)
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
