"""Tests for the duality transform (Lemma 2.1) and the basic predicates,
stated with the geometry the library keeps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry import duality
from repro.geometry.arrangement2d import lines_below_point_fast
from repro.geometry.boxes import Box
from repro.geometry.polygons import convex_hull, polygon_area
from repro.geometry.primitives import (EPS, Hyperplane, Line2,
                                       LinearConstraint, Plane3)

from geometry_oracle import (height_at, lines_strictly_above, polygon_contains,
                             primal_point_of_dual_hyperplane,
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
        assert Line2(hyperplane.coeffs[0], hyperplane.offset) == line

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
        below = point[-1] < height_at(hyperplane, point) - EPS
        dual_h = duality.dual_hyperplane_of_point(point)
        dual_p = duality.dual_point_of_hyperplane(hyperplane)
        # Lemma 2.1: the point is below the hyperplane iff the dual
        # hyperplane (of the point) passes below the dual point.
        dual_hyperplane_below = height_at(dual_h, dual_p) < dual_p[-1] - 1e-9
        assert below == dual_hyperplane_below


class TestPredicates:
    def test_orientation_signs(self):
        # A counter-clockwise triple is its own hull, in order; a
        # clockwise one comes back reversed; a collinear one has fewer
        # than three corners.
        assert convex_hull([(0, 0), (1, 0), (0, 1)]) == [0, 1, 2]
        assert convex_hull([(0, 0), (0, 1), (1, 0)]) == [0, 2, 1]
        assert len(convex_hull([(0, 0), (1, 1), (2, 2)])) < 3

    def test_point_below_line_strictness(self):
        line = Line2(0.0, 0.0)
        assert lines_strictly_above([line], 0.0, -0.1) == [0]
        assert lines_strictly_above([line], 0.0, 0.0) == []

    def test_line_below_point_is_dual_of_point_above_line(self):
        slopes, intercepts = np.array([1.0]), np.array([0.0])
        assert lines_below_point_fast(slopes, intercepts, 0.0, 1.0) == {0}
        assert lines_below_point_fast(slopes, intercepts, 0.0, -1.0) == set()

    def test_point_below_plane(self):
        plane = LinearConstraint(coeffs=(0.0, 0.0), offset=1.0)
        assert plane.below((0.0, 0.0, 0.5))
        assert not plane.below((0.0, 0.0, 1.5))

    def test_point_in_triangle_inside_outside_boundary(self):
        triangle = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
        assert polygon_contains(triangle, 0.5, 0.5)
        assert polygon_contains(triangle, 1.0, 0.0)        # on an edge
        assert not polygon_contains(triangle, 2.0, 2.0)

    def test_triangle_area(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_bounding_box(self):
        box = Box.of_points([(0, 1), (2, -1), (1, 3)])
        assert box.lower == (0, -1)
        assert box.upper == (2, 3)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(ValueError):
            Box.of_points([])
