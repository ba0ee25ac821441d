"""Unit tests for the geometric primitives and the LinearConstraint query object."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.arrangement2d import lines_below_point_fast
from repro.geometry.primitives import EPS, Hyperplane, Line2, LinearConstraint, Plane3

from geometry_oracle import (filter_points, height_at, lines_strictly_above,
                             lines_strictly_below, point_below)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False,
                   allow_infinity=False)


class TestLine2:
    def test_y_at(self):
        line = Line2(slope=2.0, intercept=1.0)
        assert line.y_at(3.0) == 7.0

    def test_below_and_above_point(self):
        line = Line2(slope=0.0, intercept=0.0)
        assert lines_strictly_below([line], 0.0, 1.0) == [0]
        assert lines_strictly_above([line], 0.0, -1.0) == [0]
        assert lines_strictly_below([line], 0.0, 0.0) == []

    def test_intersection_of_crossing_lines(self):
        a = Line2(1.0, 0.0)
        b = Line2(-1.0, 2.0)
        x, y = a.intersection(b)
        assert x == pytest.approx(1.0)
        assert y == pytest.approx(1.0)

    def test_intersection_of_parallel_lines_is_infinite(self):
        a = Line2(1.0, 0.0)
        b = Line2(1.0, 5.0)
        assert math.isinf(a.intersection_x(b))

    @given(slope=coords, intercept=coords, x=coords)
    @settings(max_examples=50, deadline=None)
    def test_point_on_line_is_neither_strictly_above_nor_below(self, slope, intercept, x):
        # The library's two forms of the test: the query's inclusive
        # side and a cluster's strictly-below set.
        y = Line2(slope, intercept).y_at(x)
        assert LinearConstraint(coeffs=(slope,), offset=intercept).below((x, y))
        assert not lines_below_point_fast(np.array([slope]),
                                          np.array([intercept]), x, y)


class TestPlane3:
    def test_z_at(self):
        plane = Plane3(1.0, 2.0, 3.0)
        assert plane.z_at(1.0, 1.0) == 6.0

    def test_below_above_point(self):
        plane = LinearConstraint(coeffs=(0.0, 0.0), offset=0.0)
        assert not plane.below((0.0, 0.0, 1.0))
        assert plane.below((0.0, 0.0, -1.0))

    def test_coefficients_roundtrip(self):
        plane = Plane3(1.5, -2.5, 0.25)
        assert plane.coefficients() == (1.5, -2.5, 0.25)


class TestHyperplane:
    def test_dimension(self):
        assert Hyperplane((1.0,), 0.0).dimension == 2
        assert Hyperplane((1.0, 2.0, 3.0), 0.0).dimension == 4

    def test_height_at_uses_leading_coordinates(self):
        hyperplane = Hyperplane((1.0, 2.0), 3.0)
        assert height_at(hyperplane, (1.0, 1.0, 99.0)) == 6.0

    def test_point_below_is_inclusive(self):
        hyperplane = Hyperplane((0.0,), 0.0)
        assert point_below(hyperplane, (5.0, 0.0))
        assert point_below(hyperplane, (5.0, -1.0))
        assert not point_below(hyperplane, (5.0, 1.0))


class TestLinearConstraint:
    def test_below_matches_hyperplane(self):
        constraint = LinearConstraint(coeffs=(10.0,), offset=0.0)
        # The SQL example: PricePerShare <= 10 * EarningsPerShare.
        assert constraint.below((2.0, 15.0))
        assert not constraint.below((1.0, 15.0))

    def test_filter_returns_satisfying_points(self):
        constraint = LinearConstraint(coeffs=(0.0,), offset=0.5)
        points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.4)]
        assert filter_points(constraint, points) == [(0.0, 0.0), (1.0, 0.4)]

    def test_dimension(self):
        assert LinearConstraint(coeffs=(1.0, 2.0), offset=0.0).dimension == 3

    def test_from_inequality_normalises(self):
        # 3x - 2y <= 6  ->  y >= (3x - 6)/2 is an upper halfspace: rejected.
        with pytest.raises(ValueError):
            LinearConstraint.from_inequality((3.0, -2.0), 6.0)
        # 3x + 2y <= 6  ->  y <= -1.5x + 3.
        constraint = LinearConstraint.from_inequality((3.0, 2.0), 6.0)
        assert constraint.coeffs[0] == pytest.approx(-1.5)
        assert constraint.offset == pytest.approx(3.0)

    def test_from_inequality_rejects_zero_last_coefficient(self):
        with pytest.raises(ValueError):
            LinearConstraint.from_inequality((1.0, 0.0), 1.0)

    def test_from_inequality_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearConstraint.from_inequality((), 1.0)

    @given(a=coords, b=coords, x=coords, y=coords)
    @settings(max_examples=50, deadline=None)
    def test_below_agrees_with_direct_evaluation(self, a, b, x, y):
        constraint = LinearConstraint(coeffs=(a,), offset=b)
        assert constraint.below((x, y)) == (y <= a * x + b + EPS)
