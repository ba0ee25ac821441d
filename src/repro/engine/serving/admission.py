"""Admission control: per-tenant I/O budgets enforced before dispatch.

The engine's scarce resource is block transfers, and the planner predicts
each query's I/O cost *before* running it — which is exactly what a
token-bucket budget needs.  Each budgeted tenant owns a
:class:`TokenBucket` holding I/O tokens: the bucket refills at
``ios_per_s`` from the wall clock the caller passes in (the scheduler's
monotonic clock; tests pass synthetic times), and a request is dispatched
only if the bucket can cover its *estimated* I/Os.  After execution the
bucket is **settled** against the I/Os actually observed via
:class:`~repro.engine.metrics.EngineStats` feedback, so a tenant whose
queries keep costing more than predicted pays the difference.

When a request exceeds the budget, the tenant's configured policy decides:

* ``"queue"`` (default) — park the request until the bucket has refilled
  enough; other tenants keep flowing meanwhile.
* ``"reject"`` — drop the request immediately (load shedding).
* ``"degrade"`` — serve a zero-I/O *approximate* answer from the
  dataset's in-memory sample, marked ``degraded`` so the caller knows,
  carrying the sample rate plus a scaled full-count estimate with an
  interval.  The interval is conformal (distribution-free, calibrated
  from the executor's observed (estimate, actual) pairs — see
  :mod:`repro.engine.stats.conformal`) once the dataset's calibration
  window is warm; :func:`scaled_count_estimate`'s normal approximation
  is the explicit cold-start fallback, and every degraded answer labels
  which one it carries (``interval_source``).

Tenants without a configured budget are always admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: The three over-budget policies a tenant can configure.
POLICIES = ("queue", "reject", "degrade")

#: Standard errors either side of a fallback interval (~95%).
_Z = 1.96


def scaled_count_estimate(hits: int, sample_size: int,
                          population: int) -> Tuple[int, Tuple[int, int]]:
    """Scale a sample hit count to the population, with a ~95% interval.

    This is the *cold-start fallback* interval: degraded answers prefer
    the dataset's conformal calibration
    (:class:`repro.engine.stats.conformal.ConformalCalibrator`) and use
    this normal approximation only until its window has filled.

    A degraded answer reports the ``hits`` sample points satisfying the
    constraint out of a uniform ``sample_size``-point sample of a
    ``population``-point dataset.  The unbiased full-count estimate is
    ``hits / sample_rate``; the interval is the normal approximation to
    the hypergeometric count, ``_Z`` standard errors wide with the
    finite-population correction (so a sample covering the whole dataset
    collapses to the exact count).  Zero observed hits use the rule of
    three (``3/sample_size``) as the 95% upper bound instead of the
    degenerate zero-width normal interval, and symmetrically for a
    sample that hits everything.  The interval is clamped to
    ``[hits, population]`` — the hits are real stored points, so the true
    count is never below them.
    """
    if sample_size <= 0 or population <= 0:
        return 0, (0, 0)
    hits = min(max(int(hits), 0), sample_size)
    proportion = hits / sample_size
    estimate = int(round(proportion * population))
    if population > 1:
        correction = math.sqrt(
            max(0.0, (population - sample_size) / (population - 1)))
    else:
        correction = 0.0
    error = _Z * correction * math.sqrt(
        proportion * (1.0 - proportion) / sample_size)
    low = proportion - error
    high = proportion + error
    if correction > 0:  # a full-coverage sample is exact; skip widening
        if hits == 0:
            high = max(high, min(1.0, 3.0 / sample_size))
        if hits == sample_size:
            low = min(low, 1.0 - min(1.0, 3.0 / sample_size))
    # The epsilon absorbs float noise so an exact proportion (e.g. a
    # full-coverage sample) does not ceil up to a phantom extra point.
    low_count = max(hits, int(math.floor(low * population + 1e-9)))
    high_count = max(min(population, int(math.ceil(high * population
                                                   - 1e-9))), low_count)
    # The point estimate must respect its own interval: the hits are real
    # stored points, so the true count (and hence the estimate) can never
    # sit below them even when the sample outnumbers the population.
    estimate = min(max(estimate, low_count), high_count)
    return estimate, (low_count, high_count)


@dataclass
class TokenBucket:
    """I/O tokens refilled from a caller-supplied clock.

    Parameters
    ----------
    rate:
        Tokens (estimated I/Os) added per second.
    burst:
        Bucket capacity — the largest I/O spike the tenant may spend at
        once.  The bucket starts full.
    """

    rate: float
    burst: float
    tokens: float = field(init=False)
    _last_refill: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive, got %r" % self.rate)
        if self.burst <= 0:
            raise ValueError("burst must be positive, got %r" % self.burst)
        self.tokens = self.burst

    def refill(self, now: float) -> None:
        """Accrue tokens for the wall-clock time since the last refill."""
        if self._last_refill is not None and now > self._last_refill:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last_refill)
                              * self.rate)
        self._last_refill = now

    def try_consume(self, amount: float, now: float) -> bool:
        """Spend ``amount`` tokens if available; False leaves the bucket.

        A request larger than the whole bucket could never be admitted by
        the plain rule, so it is allowed once the bucket is *full* and
        drives the balance negative — the tenant then waits out the
        overdraft, preserving the long-run rate instead of starving the
        request forever.
        """
        self.refill(now)
        if amount > self.tokens:
            if amount >= self.burst and self.tokens >= self.burst:
                self.tokens -= amount
                return True
            return False
        self.tokens -= amount
        return True

    def seconds_until(self, amount: float, now: float) -> float:
        """How long until ``amount`` tokens will be available."""
        self.refill(now)
        if amount <= self.tokens:
            return 0.0
        deficit = min(amount, self.burst) - self.tokens
        return deficit / self.rate

    def settle(self, estimated: float, observed: float) -> None:
        """Correct the spend after execution: charge observed, not estimated.

        A query that cost more than predicted drives the bucket further
        down (it may go negative, delaying the tenant's next refill past
        zero); one that cost less gives the difference back.
        """
        self.tokens = min(self.burst, self.tokens - (observed - estimated))


@dataclass(frozen=True)
class TenantBudget:
    """Admission-control configuration for one tenant."""

    #: Sustained I/O budget in estimated block transfers per second.
    ios_per_s: float
    #: Largest burst the tenant may spend at once (defaults to 2s of rate).
    burst: Optional[float] = None
    #: What to do with an over-budget request: queue | reject | degrade.
    policy: str = "queue"

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError("unknown admission policy %r (expected one of "
                             "%s)" % (self.policy, ", ".join(POLICIES)))

    def make_bucket(self) -> TokenBucket:
        burst = self.burst if self.burst is not None else 2.0 * self.ios_per_s
        return TokenBucket(rate=self.ios_per_s, burst=burst)


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict for one request."""

    #: "admit", "queue", "reject" or "degrade".
    action: str
    #: For "queue": how long to park the request before retrying.
    retry_after_s: float = 0.0


class AdmissionController:
    """Per-tenant token buckets plus the over-budget policy dispatch.

    Not thread-safe by design: the async scheduler makes every admission
    decision on the event loop (execution happens off-loop, admission
    never does).  ``settle`` is routed back onto the loop by the executor.
    """

    def __init__(self,
                 budgets: Optional[Dict[str, TenantBudget]] = None) -> None:
        self._budgets: Dict[str, TenantBudget] = dict(budgets or {})
        self._buckets: Dict[str, TokenBucket] = {
            tenant: budget.make_bucket()
            for tenant, budget in self._budgets.items()}

    def decide(self, tenant: str, estimated_ios: float, now: float,
               write: bool = False) -> AdmissionDecision:
        """Admit, defer, drop or degrade one request costing ``estimated_ios``.

        ``write`` marks a mutation request: writes obey the same token
        budgets as reads, but an over-budget write under the
        ``"degrade"`` policy is **rejected** instead — there is no
        approximate version of an insert, and silently skipping it while
        reporting success would lose data.
        """
        budget = self._budgets.get(tenant)
        if budget is None:
            return AdmissionDecision("admit")
        bucket = self._buckets[tenant]
        if bucket.try_consume(estimated_ios, now):
            return AdmissionDecision("admit")
        if budget.policy == "queue":
            return AdmissionDecision(
                "queue", retry_after_s=bucket.seconds_until(estimated_ios,
                                                            now))
        if write and budget.policy == "degrade":
            return AdmissionDecision("reject")
        return AdmissionDecision(budget.policy)

    def settle(self, tenant: str, estimated_ios: float,
               observed_ios: float) -> None:
        """Post-execution correction: charge what the query really cost."""
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            bucket.settle(estimated_ios, observed_ios)

    def tokens(self, tenant: str) -> Optional[float]:
        """Current token balance (None for unbudgeted tenants)."""
        bucket = self._buckets.get(tenant)
        return bucket.tokens if bucket is not None else None

    def snapshot(self) -> Dict[str, float]:
        """Per-tenant token balances (for dashboards and tests)."""
        return {tenant: bucket.tokens
                for tenant, bucket in sorted(self._buckets.items())}

    def describe(self, tenant: str) -> Dict[str, object]:
        """One tenant's budget state, shaped for span attributes.

        Unbudgeted tenants report only that fact; budgeted ones carry
        the policy and the current token balance so a trace shows *why*
        a request was parked or degraded, not just that it was.
        """
        budget = self._budgets.get(tenant)
        if budget is None:
            return {"budgeted": False}
        bucket = self._buckets[tenant]
        return {"budgeted": True, "policy": budget.policy,
                "tokens": round(bucket.tokens, 2),
                "ios_per_s": budget.ios_per_s}
