"""Tests for boxes, simplices, simplicial partitions, ham-sandwich cuts and lifting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.boxes import CELL_RELATIONS, Box, CellRelation
from repro.geometry.hamsandwich import (
    OrientedLine,
    ham_sandwich_cut,
    ham_sandwich_partition,
)
from repro.geometry.lifting import lift_point
from repro.geometry.partitions import (
    crossing_number,
    max_crossing_number,
    median_cut_partition,
)
from repro.geometry.primitives import (EPS, Hyperplane, LinearConstraint,
                                       classify_boxes_halfspace)
from repro.geometry.simplex import Halfspace, Simplex
from repro.workloads import uniform_points

from geometry_oracle import (
    certainly_disjoint_from_box, classify_halfspace, contains_box, corners,
    distance_from_height, excludes_box, extent, filter_points, height_at,
    is_balanced,
    lifted_height_is_shifted_squared_distance, volume, widest_axis)

coord = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestBox:
    def test_dimension_and_extent(self):
        box = Box((0.0, 0.0), (2.0, 1.0))
        assert box.dimension == 2
        assert extent(box, 0) == 2.0
        assert widest_axis(box) == 0
        assert volume(box) == 2.0

    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))

    def test_of_points(self):
        box = Box.of_points([(0, 1), (2, -1)])
        assert box.lower == (0, -1)
        assert box.upper == (2, 1)
        with pytest.raises(ValueError):
            Box.of_points([])

    def test_contains(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        assert box.contains((0.5, 0.5))
        assert box.contains((0.0, 1.0))
        assert not box.contains((1.5, 0.5))

    def test_corners_count(self):
        assert len(corners(Box((0, 0, 0), (1, 1, 1)))) == 8

    def test_classify_halfspace_three_cases(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        below = Hyperplane((0.0,), 5.0)      # y <= 5 contains the box
        above = Hyperplane((0.0,), -5.0)     # y <= -5 excludes it
        crossing = Hyperplane((0.0,), 0.5)
        for plane, relation in ((below, CellRelation.BELOW),
                                (above, CellRelation.ABOVE),
                                (crossing, CellRelation.CROSSES)):
            assert classify_halfspace(box, plane) is relation
            code = classify_boxes_halfspace(np.array([box.lower]),
                                            np.array([box.upper]), plane)[0]
            assert CELL_RELATIONS[code] is relation

    def test_split(self):
        box = Box((0.0, 0.0), (2.0, 2.0))
        low, high = box.split(0, 1.0)
        assert low.upper[0] == 1.0 and high.lower[0] == 1.0
        with pytest.raises(ValueError):
            box.split(0, 5.0)


@st.composite
def cells_and_hyperplane(draw):
    """Boxes (some degenerate, some with a corner exactly on, EPS above
    and 3 EPS above the hyperplane) and a hyperplane whose coefficients
    may be zero, negative or of mixed sign, at magnitudes 1e-3 .. 1e5."""
    dimension = draw(st.integers(2, 5))
    scale = 10.0 ** draw(st.integers(-3, 5))
    on_grid = draw(st.booleans())
    value = (st.integers(-8, 8).map(lambda k: k * scale) if on_grid else
             st.floats(-1.0, 1.0, allow_nan=False).map(lambda v: v * scale))
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                            st.floats(-3.0, 3.0, allow_nan=False))
    hyperplane = Hyperplane(
        tuple(draw(st.lists(coefficient, min_size=dimension - 1,
                            max_size=dimension - 1))),
        draw(value))
    lowers, uppers = [], []
    for __ in range(draw(st.integers(1, 12))):
        first = draw(st.lists(value, min_size=dimension, max_size=dimension))
        second = draw(st.lists(value, min_size=dimension, max_size=dimension))
        flat = draw(st.lists(st.booleans(), min_size=dimension,
                             max_size=dimension))
        lower = [min(a, b) for a, b in zip(first, second)]
        upper = [low if degenerate else max(a, b) for a, b, low, degenerate
                 in zip(first, second, lower, flat)]
        nudge = draw(st.sampled_from([None, 0.0, EPS, 3 * EPS]))
        if nudge is not None:
            # The last coordinate of one bound sits at the scalar height
            # over one of the box's corners (plus the nudge).
            picks = draw(st.lists(st.booleans(), min_size=dimension - 1,
                                  max_size=dimension - 1))
            corner = tuple(high if pick else low for pick, low, high
                           in zip(picks, lower, upper))
            height = height_at(hyperplane, corner + (0.0,)) + nudge
            if draw(st.booleans()):
                lower[-1], upper[-1] = height, max(height, upper[-1])
            else:
                lower[-1], upper[-1] = min(height, lower[-1]), height
        lowers.append(tuple(lower))
        uppers.append(tuple(upper))
    return lowers, uppers, hyperplane


@st.composite
def cells_and_polytope(draw):
    """The boxes of :func:`cells_and_hyperplane` and a polytope: that
    hyperplane's constraint (a conjunct facet) and up to three raw
    halfspaces more, each through a corner of one of the boxes, or EPS or
    3 EPS off it."""
    lowers, uppers, hyperplane = draw(cells_and_hyperplane())
    dimension = len(lowers[0])
    halfspaces = [LinearConstraint(hyperplane.coeffs, hyperplane.offset)]
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                            st.floats(-3.0, 3.0, allow_nan=False))
    for __ in range(draw(st.integers(0, 3))):
        normal = tuple(draw(st.lists(coefficient, min_size=dimension,
                                     max_size=dimension)))
        box = draw(st.integers(0, len(lowers) - 1))
        picks = draw(st.lists(st.booleans(), min_size=dimension,
                              max_size=dimension))
        corner = [high if pick else low for pick, low, high
                  in zip(picks, lowers[box], uppers[box])]
        nudge = draw(st.sampled_from([0.0, EPS, -EPS, 3 * EPS]))
        halfspaces.append(Halfspace(
            normal, sum(n * x for n, x in zip(normal, corner)) + nudge))
    return lowers, uppers, Simplex(tuple(halfspaces))


class TestClassifyBoxes:
    @settings(max_examples=400, deadline=None)
    @given(cells_and_hyperplane())
    def test_two_folds_equal_the_corner_loop(self, case):
        lowers, uppers, hyperplane = case
        codes = classify_boxes_halfspace(np.array(lowers), np.array(uppers),
                                         hyperplane)
        assert [CELL_RELATIONS[code] for code in codes.tolist()] == \
            [classify_halfspace(Box(lower, upper), hyperplane)
             for lower, upper in zip(lowers, uppers)]

    @settings(max_examples=400, deadline=None)
    @given(cells_and_polytope())
    def test_polytope_folds_equal_the_scalar_tests(self, case):
        """ABOVE when some facet excludes the box, BELOW when every facet
        contains it, else CROSSES: box by box, the oracle's
        ``certainly_disjoint_from_box`` then ``contains_box``."""
        lowers, uppers, polytope = case
        codes = polytope.classify_boxes(np.array(lowers), np.array(uppers))
        expected = []
        for lower, upper in zip(lowers, uppers):
            box = Box(lower, upper)
            expected.append(
                CellRelation.ABOVE
                if certainly_disjoint_from_box(polytope, box) else
                CellRelation.BELOW if contains_box(polytope, box) else
                CellRelation.CROSSES)
        assert [CELL_RELATIONS[code] for code in codes.tolist()] == expected

    def test_codes_index_the_relations(self):
        hyperplane = Hyperplane((0.0,), 0.5)
        codes = classify_boxes_halfspace(
            np.array([[0.0, 0.6], [0.0, 0.0], [0.0, 0.2]]),
            np.array([[1.0, 0.9], [1.0, 0.4], [1.0, 0.8]]), hyperplane)
        assert codes.tolist() == [0, 1, 2]
        assert CELL_RELATIONS == (CellRelation.ABOVE, CellRelation.BELOW,
                                  CellRelation.CROSSES)
        assert np.flatnonzero(codes).tolist() == [1, 2]


class TestSimplex:
    def test_halfspace_contains_and_excludes_box(self):
        halfspace = Halfspace(normal=(1.0, 0.0), offset=1.0)   # x <= 1
        assert halfspace.contains((0.5, 3.0))
        assert not halfspace.contains((2.0, 0.0))
        assert excludes_box(halfspace, Box((2.0, 0.0), (3.0, 1.0)))
        assert not excludes_box(halfspace, Box((0.0, 0.0), (3.0, 1.0)))

    def test_triangle_from_vertices(self):
        triangle = Simplex.from_vertices_2d([(0, 0), (2, 0), (0, 2)])
        assert triangle.contains((0.5, 0.5))
        assert triangle.contains((0.0, 0.0))
        assert not triangle.contains((2.0, 2.0))

    def test_from_vertices_requires_three(self):
        with pytest.raises(ValueError):
            Simplex.from_vertices_2d([(0, 0), (1, 1)])

    def test_contains_box_exact(self):
        triangle = Simplex.from_vertices_2d([(0, 0), (4, 0), (0, 4)])
        assert contains_box(triangle, Box((0.5, 0.5), (1.0, 1.0)))
        assert not contains_box(triangle, Box((3.0, 3.0), (3.5, 3.5)))

    def test_certainly_disjoint_is_conservative(self):
        triangle = Simplex.from_vertices_2d([(0, 0), (1, 0), (0, 1)])
        assert certainly_disjoint_from_box(triangle,
                                           Box((5.0, 5.0), (6.0, 6.0)))
        # A box overlapping the triangle must never be declared disjoint.
        assert not certainly_disjoint_from_box(triangle,
                                               Box((0.1, 0.1), (0.3, 0.3)))

    def test_filter_matches_contains(self):
        triangle = Simplex.from_vertices_2d([(0, 0), (1, 0), (0, 1)])
        points = [(0.2, 0.2), (0.9, 0.9), (0.1, 0.05)]
        assert filter_points(triangle, points) == [(0.2, 0.2), (0.1, 0.05)]


class TestMedianCutPartition:
    def test_partition_sizes_are_balanced(self):
        points = uniform_points(1000, seed=1)
        cells = median_cut_partition(points, 16)
        assert len(cells) == 16
        assert is_balanced(cells, 1000)
        assert sum(cell.size for cell in cells) == 1000

    def test_partition_subsets_are_disjoint(self):
        points = uniform_points(300, seed=2)
        cells = median_cut_partition(points, 8)
        seen = set()
        for cell in cells:
            indices = set(cell.indices.tolist())
            assert not indices & seen
            seen |= indices
        assert len(seen) == 300

    def test_each_cell_contains_its_points(self):
        points = uniform_points(400, seed=3)
        cells = median_cut_partition(points, 10)
        for cell in cells:
            for index in cell.indices:
                assert cell.cell.contains(points[index])

    def test_crossing_number_is_sublinear(self):
        """The Theorem 5.1 property the partition trees rely on."""
        points = uniform_points(4096, seed=4)
        r = 64
        cells = median_cut_partition(points, r)
        rng = np.random.default_rng(5)
        hyperplanes = [Hyperplane((float(rng.uniform(-2, 2)),),
                                  float(rng.uniform(-1, 1))) for __ in range(30)]
        worst = max_crossing_number(cells, hyperplanes)
        assert worst <= 4 * int(np.ceil(r ** 0.5))

    def test_r_one_returns_single_cell(self):
        points = uniform_points(50, seed=6)
        cells = median_cut_partition(points, 1)
        assert len(cells) == 1
        assert cells[0].size == 50

    def test_invalid_r_rejected(self):
        with pytest.raises(ValueError):
            median_cut_partition(uniform_points(10, seed=7), 0)

    def test_empty_input(self):
        assert median_cut_partition(np.zeros((0, 2)), 4) == []

    def test_3d_partition_crossing(self):
        points = uniform_points(2000, dimension=3, seed=8)
        cells = median_cut_partition(points, 27)
        hyperplane = Hyperplane((0.3, -0.4), 0.1)
        assert crossing_number(cells, hyperplane) < len(cells)


class TestHamSandwich:
    def test_cut_bisects_both_sets(self):
        rng = np.random.default_rng(9)
        red = rng.uniform(-1, 1, size=(201, 2))
        blue = rng.uniform(-1, 1, size=(201, 2)) + 0.3
        line = ham_sandwich_cut(red, blue)
        assert line is not None
        for cloud in (red, blue):
            values = cloud[:, 0] * line.normal[0] + cloud[:, 1] * line.normal[1] - line.offset
            positive = int(np.sum(values > 1e-12))
            negative = int(np.sum(values < -1e-12))
            assert abs(positive - negative) <= max(3, len(cloud) // 20)

    def test_cut_with_empty_set_returns_none(self):
        assert ham_sandwich_cut(np.zeros((0, 2)), np.ones((3, 2))) is None

    def test_partition_covers_all_points(self):
        points = uniform_points(500, seed=10)
        cells = ham_sandwich_partition(points, 16)
        total = sum(cell.size for cell in cells)
        assert total == 500

    def test_partition_rejects_non_planar_input(self):
        with pytest.raises(ValueError):
            ham_sandwich_partition(uniform_points(20, dimension=3, seed=11), 4)

    def test_partition_crossing_number_sublinear(self):
        points = uniform_points(2048, seed=12)
        cells = ham_sandwich_partition(points, 64)
        rng = np.random.default_rng(13)
        hyperplanes = [Hyperplane((float(rng.uniform(-2, 2)),),
                                  float(rng.uniform(-1, 1))) for __ in range(20)]
        assert max_crossing_number(cells, hyperplanes) < len(cells)

    def test_oriented_line_side(self):
        line = OrientedLine(normal=(1.0, 0.0), offset=0.5)
        assert line.side((1.0, 0.0)) > 0
        assert line.side((0.0, 0.0)) < 0


class TestLifting:
    @given(ax=coord, ay=coord, qx=coord, qy=coord)
    @settings(max_examples=100, deadline=None)
    def test_height_equals_shifted_squared_distance(self, ax, ay, qx, qy):
        height, shifted = lifted_height_is_shifted_squared_distance((ax, ay), (qx, qy))
        assert height == pytest.approx(shifted, abs=1e-6)

    def test_lift_point_coefficients(self):
        plane = lift_point((1.0, 2.0))
        assert plane.a == -2.0 and plane.b == -4.0 and plane.c == 5.0

    def test_distance_from_height_roundtrip(self):
        point, query = (0.3, -0.7), (1.0, 1.0)
        plane = lift_point(point)
        height = plane.z_at(*query)
        expected = np.hypot(point[0] - query[0], point[1] - query[1])
        assert distance_from_height(height, query) == pytest.approx(expected)

    def test_ordering_by_height_matches_ordering_by_distance(self):
        rng = np.random.default_rng(14)
        points = rng.uniform(-1, 1, size=(50, 2))
        query = (0.2, 0.1)
        heights = [lift_point(p).z_at(*query) for p in points]
        distances = [np.hypot(p[0] - query[0], p[1] - query[1]) for p in points]
        assert np.argsort(heights).tolist() == np.argsort(distances).tolist()
