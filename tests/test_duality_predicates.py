"""Tests for the duality transform (Lemma 2.1) and the basic predicates."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry import duality
from repro.geometry.predicates import (
    bounding_box,
    line_below_point,
    orientation,
    point_below_hyperplane,
    point_below_line,
    point_below_plane,
    point_in_triangle,
    triangle_area,
)
from repro.geometry.primitives import Hyperplane, Line2, Plane3

from geometry_oracle import (primal_point_of_dual_hyperplane,
                             primal_point_of_dual_line,
                             primal_point_of_dual_plane)

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


class TestDuality2D:
    def test_dual_of_point_is_expected_line(self):
        line = duality.dual_line_of_point((2.0, 3.0))
        assert line == Line2(slope=-2.0, intercept=3.0)

    def test_dual_of_line_is_expected_point(self):
        assert duality.dual_point_of_line(Line2(1.5, -2.0)) == (1.5, -2.0)

    def test_primal_point_roundtrip(self):
        point = (0.7, -1.3)
        assert primal_point_of_dual_line(
            duality.dual_line_of_point(point)) == point

    @given(px=coord, py=coord, slope=coord, intercept=coord)
    @settings(max_examples=200, deadline=None)
    def test_lemma_2_1_in_the_plane(self, px, py, slope, intercept):
        """A point is above a line iff the dual line is above the dual point.

        Points within float-rounding distance of the line are excluded:
        the two sides evaluate the same residual in different operation
        orders, so exactly-at-the-margin examples can land on different
        sides of any fixed epsilon.
        """
        line = Line2(slope, intercept)
        assume(abs(py - line.y_at(px)) > 1e-6)
        point_above = py > line.y_at(px)
        dual_line = duality.dual_line_of_point((px, py))
        dual_point = duality.dual_point_of_line(line)
        dual_above = dual_line.y_at(dual_point[0]) > dual_point[1]
        assert point_above == dual_above


class TestDuality3D:
    def test_dual_of_point_is_expected_plane(self):
        plane = duality.dual_plane_of_point((1.0, 2.0, 3.0))
        assert plane == Plane3(a=-1.0, b=-2.0, c=3.0)

    def test_primal_roundtrip(self):
        point = (0.5, -0.25, 2.0)
        assert primal_point_of_dual_plane(
            duality.dual_plane_of_point(point)) == point

    @given(px=coord, py=coord, pz=coord, a=coord, b=coord, c=coord)
    @settings(max_examples=200, deadline=None)
    def test_lemma_2_1_in_space(self, px, py, pz, a, b, c):
        # As in the planar test, near-incident points are excluded: the
        # primal and dual sides order the same residual computation
        # differently, so margin-straddling examples (e.g. a tiny
        # coefficient absorbed into c ~ epsilon) flip under rounding.
        plane = Plane3(a, b, c)
        assume(abs(pz - plane.z_at(px, py)) > 1e-6)
        point_below = pz < plane.z_at(px, py)
        dual_plane = duality.dual_plane_of_point((px, py, pz))
        qx, qy, qz = duality.dual_point_of_plane(plane)
        dual_below = dual_plane.z_at(qx, qy) < qz
        assert point_below == dual_below


class TestDualityGeneral:
    def test_matches_2d_specialisation(self):
        point = (1.0, 2.0)
        hyperplane = duality.dual_hyperplane_of_point(point)
        line = duality.dual_line_of_point(point)
        assert hyperplane.coeffs == (-1.0,)
        assert hyperplane.offset == 2.0
        assert hyperplane.as_line2() == line

    def test_dual_point_of_hyperplane(self):
        hyperplane = Hyperplane((1.0, 2.0, 3.0), 4.0)
        assert duality.dual_point_of_hyperplane(hyperplane) == (1.0, 2.0, 3.0, 4.0)

    def test_primal_point_roundtrip(self):
        point = (1.0, -2.0, 3.0, -4.0)
        assert primal_point_of_dual_hyperplane(
            duality.dual_hyperplane_of_point(point)) == point

    @given(st.lists(coord, min_size=4, max_size=4),
           st.lists(coord, min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_lemma_2_1_in_dimension_four(self, point, plane_coeffs):
        hyperplane = Hyperplane(tuple(plane_coeffs[:3]), plane_coeffs[3])
        below = point_below_hyperplane(point, hyperplane)
        dual_h = duality.dual_hyperplane_of_point(point)
        dual_p = duality.dual_point_of_hyperplane(hyperplane)
        # Lemma 2.1: the point is below the hyperplane iff the dual
        # hyperplane (of the point) passes below the dual point.
        dual_hyperplane_below = dual_h.height_at(dual_p) < dual_p[-1] - 1e-9
        assert below == dual_hyperplane_below


class TestPredicates:
    def test_orientation_signs(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1
        assert orientation((0, 0), (0, 1), (1, 0)) == -1
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_point_below_line_strictness(self):
        line = Line2(0.0, 0.0)
        assert point_below_line((0.0, -0.1), line)
        assert not point_below_line((0.0, 0.0), line)

    def test_line_below_point_is_dual_of_point_above_line(self):
        line = Line2(1.0, 0.0)
        assert line_below_point(line, (0.0, 1.0))
        assert not line_below_point(line, (0.0, -1.0))

    def test_point_below_plane(self):
        plane = Plane3(0.0, 0.0, 1.0)
        assert point_below_plane((0.0, 0.0, 0.5), plane)
        assert not point_below_plane((0.0, 0.0, 1.5), plane)

    def test_point_in_triangle_inside_outside_boundary(self):
        a, b, c = (0.0, 0.0), (2.0, 0.0), (0.0, 2.0)
        assert point_in_triangle((0.5, 0.5), a, b, c)
        assert point_in_triangle((1.0, 0.0), a, b, c)       # on an edge
        assert not point_in_triangle((2.0, 2.0), a, b, c)

    def test_triangle_area(self):
        assert triangle_area((0, 0), (2, 0), (0, 2)) == pytest.approx(2.0)

    def test_bounding_box(self):
        lower, upper = bounding_box([(0, 1), (2, -1), (1, 3)])
        assert lower == (0, -1)
        assert upper == (2, 3)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box([])
