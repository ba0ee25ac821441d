"""Query generators with controlled output size.

The paper's bounds separate the search cost (``log_B n`` or ``n^{1-1/d}``)
from the output cost ``t = T/B``; to measure both regimes the benchmarks
need halfspace queries whose selectivity (fraction of points reported) is
controlled.  The generators here pick a random direction and then choose the
offset so that the desired fraction of points satisfies the constraint.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.primitives import LinearConstraint


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_halfspace_queries(num_queries: int, dimension: int = 2,
                             seed: Optional[int] = None) -> List[LinearConstraint]:
    """Linear constraints with coefficients and offset uniform in
    ``[-1, 1]`` (no selectivity control)."""
    generator = _rng(seed)
    queries: List[LinearConstraint] = []
    for __ in range(num_queries):
        coeffs = tuple(generator.uniform(-1.0, 1.0,
                                         size=dimension - 1).tolist())
        offset = float(generator.uniform(-1.0, 1.0))
        queries.append(LinearConstraint(coeffs=coeffs, offset=offset))
    return queries


def halfspace_queries_with_selectivity(points: np.ndarray, num_queries: int,
                                       selectivity: float,
                                       seed: Optional[int] = None
                                       ) -> List[LinearConstraint]:
    """Constraints calibrated so ~``selectivity * N`` points satisfy each.

    For a coefficient vector ``a`` uniform in ``[-1, 1]^{d-1}``, the
    constraint ``x_d <= a . x_{1..d-1} + a_0`` is satisfied by exactly the
    points whose residual ``x_d - a . x_{1..d-1}`` is at most ``a_0``;
    choosing ``a_0`` as the ``selectivity``-quantile of the residuals hits
    the target output size exactly (up to ties).
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError("selectivity must lie in [0, 1], got %r" % selectivity)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must have shape (N, d)")
    dimension = points.shape[1]
    generator = _rng(seed)
    queries: List[LinearConstraint] = []
    for __ in range(num_queries):
        coeffs = generator.uniform(-1.0, 1.0, size=dimension - 1)
        residuals = points[:, -1] - points[:, :-1] @ coeffs
        offset = float(np.quantile(residuals, selectivity))
        queries.append(LinearConstraint(coeffs=tuple(coeffs.tolist()),
                                        offset=offset))
    return queries


def rotated_diagonal_query(points: np.ndarray, angle: float = 1e-3,
                           selectivity: float = 0.5) -> LinearConstraint:
    """The adversarial query of Section 1.2 for the diagonal input.

    The constraint's boundary line is the diagonal rotated by ``angle``
    radians, with the offset chosen to report about ``selectivity * N``
    points.  On quad-tree-like structures this query visits Ω(n) nodes.
    """
    points = np.asarray(points, dtype=float)
    slope = float(np.tan(np.arctan(1.0) + angle))
    residuals = points[:, 1] - slope * points[:, 0]
    offset = float(np.quantile(residuals, selectivity))
    return LinearConstraint(coeffs=(slope,), offset=offset)


def _constraint_with_selectivity(points: np.ndarray, selectivity: float,
                                 generator: np.random.Generator
                                 ) -> LinearConstraint:
    """One constraint whose offset is the selectivity-quantile of residuals."""
    dimension = points.shape[1]
    coeffs = generator.uniform(-1.0, 1.0, size=dimension - 1)
    residuals = points[:, -1] - points[:, :-1] @ coeffs
    offset = float(np.quantile(residuals, selectivity))
    return LinearConstraint(coeffs=tuple(coeffs.tolist()), offset=offset)


def mixed_tenant_workload(tenants: Dict[str, np.ndarray], num_requests: int,
                          hot_fraction: float = 0.3, hot_pool: int = 4,
                          seed: Optional[int] = None
                          ) -> List[Tuple[str, LinearConstraint]]:
    """A serving trace for the engine: interleaved (tenant, constraint) pairs.

    Models the traffic a multi-tenant deployment sees:

    * each request picks a tenant (dataset) uniformly at random;
    * a ``hot_fraction`` of requests re-issue one of the tenant's
      ``hot_pool`` *hot* constraints — repeats a result cache can absorb;
    * the rest are fresh constraints whose selectivity is drawn
      log-uniformly from ``[0.005, 0.25]``, mixing reporting-heavy
      queries (large ``t``) with needle queries (search-term bound).

    Tenants may have different dimensions; every constraint matches its
    tenant's points.
    """
    if not tenants:
        raise ValueError("need at least one tenant")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1], got %r"
                         % hot_fraction)
    generator = _rng(seed)
    names = sorted(tenants)
    points_by_name = {name: np.asarray(tenants[name], dtype=float)
                      for name in names}

    def fresh(points: np.ndarray) -> LinearConstraint:
        selectivity = float(np.exp(generator.uniform(np.log(0.005),
                                                     np.log(0.25))))
        return _constraint_with_selectivity(points, selectivity, generator)

    hot: Dict[str, List[LinearConstraint]] = {
        name: [fresh(points_by_name[name]) for __ in range(max(1, hot_pool))]
        for name in names}
    requests: List[Tuple[str, LinearConstraint]] = []
    for __ in range(num_requests):
        name = names[int(generator.integers(len(names)))]
        if generator.random() < hot_fraction:
            pool = hot[name]
            constraint = pool[int(generator.integers(len(pool)))]
        else:
            constraint = fresh(points_by_name[name])
        requests.append((name, constraint))
    return requests


def steep_leading_attribute_queries(points: np.ndarray, num_queries: int,
                                    selectivity: float,
                                    seed: Optional[int] = None
                                    ) -> List[LinearConstraint]:
    """Constraints whose satisfying region is narrow in the *leading* attribute.

    Each constraint is ``x_d <= -S * x_1 + a_0`` with a large steepness
    ``S``: the residual ``x_d + S x_1`` is dominated by the first
    coordinate, so the satisfied points form a thin slab of small ``x_1``
    values.  On a range-sharded dataset (split on attribute 0) such
    queries touch only the low shards — the workload that exercises the
    planner's shard pruning.  Offsets are chosen per query as the
    ``selectivity``-quantile of the residuals, with the steepness (32)
    jittered by up to a quarter per query so the constraints are distinct.
    """
    if not 0.0 <= selectivity <= 1.0:
        raise ValueError("selectivity must lie in [0, 1], got %r" % selectivity)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError("points must have shape (N, d >= 2)")
    dimension = points.shape[1]
    generator = _rng(seed)
    queries: List[LinearConstraint] = []
    for __ in range(num_queries):
        coeffs = np.zeros(dimension - 1)
        coeffs[0] = -float(32.0 * generator.uniform(0.75, 1.25))
        residuals = points[:, -1] - points[:, :-1] @ coeffs
        offset = float(np.quantile(residuals, selectivity))
        queries.append(LinearConstraint(coeffs=tuple(coeffs.tolist()),
                                        offset=offset))
    return queries


def knn_query_points(num_queries: int,
                     seed: Optional[int] = None) -> np.ndarray:
    """Query points uniform in ``[-1, 1]^2`` for the k-nearest-neighbour
    benchmarks."""
    return _rng(seed).uniform(-1.0, 1.0, size=(num_queries, 2))
