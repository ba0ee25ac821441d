"""One membership rule: a point is in a constraint's answer iff
``LinearConstraint.below`` admits it — the fold
``geometry.primitives.below_bound`` — whichever index kind answers, however
the dataset is sharded, in a conjunction, and in a degraded answer.

The points that tell the rules apart sit within a few ulps of a
constraint's ``EPS`` edge (``conftest.edge_points``): a second rounding of
the same predicate (a dual-space test, a polytope facet rewritten as
``-a . x + x_d <= b``, a residual with no ``EPS``, a relative slack)
decides some of them the other way.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import edge_points
from repro import ConstraintConjunction, LinearConstraint, QueryEngine
from repro.engine import ServingRequest, TenantBudget
from repro.engine.catalog import INDEX_KINDS, Catalog


def sorted_rows(matrix):
    return sorted(map(tuple, np.asarray(matrix).tolist()))


def edge_dataset(dimension, seed, constraints=4, uniform=300, per=25,
                 scale=1.0):
    """Uniform points plus ``per`` points within 3 ulps of each of
    ``constraints`` random constraints' ``EPS`` edges."""
    rng = np.random.default_rng(seed)
    queries = [LinearConstraint(
        tuple(rng.uniform(-1.0, 1.0, dimension - 1).tolist()),
        float(rng.uniform(-0.3, 0.3)) * scale) for __ in range(constraints)]
    points = [rng.uniform(-scale, scale, size=(uniform, dimension))]
    for query in queries:
        points.append(edge_points(
            query, rng.uniform(-scale, scale, size=(per, dimension - 1)),
            rng.integers(-3, 4, size=per)))
    return np.vstack(points), queries


@pytest.fixture(scope="module", params=[2, 3])
def every_kind(request):
    """Per dimension, two edge datasets with every kind that supports it
    built over each."""
    dimension = request.param
    kinds = [kind for kind, spec in INDEX_KINDS.items()
             if spec.supports(dimension)]
    cases = []
    for seed in (1, 2):
        points, queries = edge_dataset(dimension, seed)
        catalog = Catalog(block_size=16, seed=seed)
        catalog.register_dataset("edge", points)
        for kind in kinds:
            catalog.build_index("edge", kind)
        cases.append((catalog.dataset("edge"), points, queries))
    return kinds, cases


def test_every_kind_answers_below_many_rows_at_the_edge(every_kind):
    kinds, cases = every_kind
    for dataset, points, queries in cases:
        for query in queries:
            truth = sorted_rows(points[query.below_many(points)])
            for kind in kinds:
                answer, __, __ = dataset.run_query(kind, query,
                                                   clear_cache=True)
                assert sorted_rows(answer) == truth, (kind, query)


def test_every_kind_answers_a_conjunction_with_the_same_rows(every_kind):
    """A conjunction of an edge constraint and a far one: each kind — a
    cell tree walking the polytope, any other answering a conjunct and
    masking — reports exactly the rows every conjunct's ``below``
    admits, whichever conjunct leads."""
    kinds, cases = every_kind
    for dataset, points, queries in cases:
        dimension = points.shape[1]
        far = LinearConstraint((0.0,) * (dimension - 1), 50.0)
        for query in queries:
            truth = sorted_rows(points[query.below_many(points)
                                       & far.below_many(points)])
            conjunction = ConstraintConjunction.of(query, far)
            for lead in (query, far):
                for kind in kinds:
                    answer, __, __ = dataset.run_query(
                        kind, conjunction.led_by(lead), clear_cache=True)
                    assert sorted_rows(answer) == truth, (kind, lead)


def test_shard_pruning_keeps_every_point_below_admits():
    """The third point is on ``below``'s side of the plane, within the
    band a pruner of its own rounding got wrong: the sharded answer is
    the unsharded one."""
    points = [(-0.6847513494316157, 4.223365259809088),
              (-0.6347513494316157, 4.223365259809088),
              (-0.5847513494316157, -5.776634740190912),
              (5.0, 1000.0), (6.0, 1000.0), (7.0, 1000.0)]
    constraint = LinearConstraint((8.179198077628447,), -0.9938376280292003)
    truth = sorted_rows(np.array(points)[constraint.below_many(
        np.array(points))])
    assert truth == [points[2]]
    engine = QueryEngine(block_size=4, seed=1)
    engine.register_dataset("plain", points, kinds=["full_scan"])
    engine.register_sharded_dataset("sharded", points, num_shards=2,
                                    kinds=["full_scan"])
    plain = engine.query("plain", constraint, clear_cache=True)
    sharded = engine.query("sharded", constraint, clear_cache=True)
    assert sorted_rows(plain.points) == truth
    assert sorted_rows(sharded.points) == truth
    assert sharded.shards_queried >= 1


def test_pruning_never_drops_an_edge_point_on_range_shards():
    for dimension in (2, 3):
        points, queries = edge_dataset(dimension, seed=7, uniform=200,
                                       per=40)
        engine = QueryEngine(block_size=16, seed=7)
        engine.register_sharded_dataset("d", points, num_shards=4,
                                        kinds=["full_scan"])
        for query in queries:
            answer = engine.query("d", query, clear_cache=True)
            assert sorted_rows(answer.points) == sorted_rows(
                points[query.below_many(points)])


def test_a_degraded_answer_is_a_subset_of_the_exact_one_at_the_edge():
    """Large coordinates make the rounding of a residual ``x_d - X a``
    differ from the fold by more than ``EPS``; the sample holds every
    point, so the degraded answer is the exact one's rows exactly."""
    points, queries = edge_dataset(3, seed=11, constraints=6, uniform=50,
                                   per=150, scale=1e8)
    engine = QueryEngine(block_size=16, seed=11, sample_size=len(points))
    engine.register_dataset("d", points, kinds=["full_scan"])
    requests = [ServingRequest(tenant="soft", dataset="d", constraint=query)
                for query in queries]
    budget = TenantBudget(ios_per_s=0.001, burst=1.0, policy="degrade")
    result = engine.serve_async(requests, budgets={"soft": budget},
                                max_concurrency=1)
    degraded = [item for item in result.requests
                if item.outcome == "degraded"]
    assert len(degraded) >= 4
    for item in degraded:
        constraint = item.request.constraint
        exact = engine.query("d", constraint, clear_cache=True)
        truth = sorted_rows(points[constraint.below_many(points)])
        assert sorted_rows(exact.points) == truth
        assert set(sorted_rows(item.answer.points)) <= set(truth)
        assert sorted_rows(item.answer.points) == truth


def test_the_estimate_counts_below_many_rows():
    points, queries = edge_dataset(3, seed=13, uniform=50, per=150,
                                   scale=1e8)
    engine = QueryEngine(block_size=16, seed=13, sample_size=len(points))
    engine.register_dataset("d", points, kinds=["full_scan"])
    dataset = engine.catalog.dataset("d")
    for query in queries:
        assert dataset.estimate_output(query) == int(
            np.count_nonzero(query.below_many(points)))
