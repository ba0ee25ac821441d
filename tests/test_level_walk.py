"""The banded k-level walk reports exactly what a walk over all lines does.

``compute_level`` steps among the few hundred lines nearest the level; the
O(N)-per-vertex walk it replaced lives on in ``level_oracle.py`` as the
reference.  Parity is field by field — abscissae bit for bit, tie orders,
``entering_lines`` in order — because the layers, clusters, block counts and
answer order of ``HalfplaneIndex2D`` all hang on it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import halfplane2d
from repro.core.halfplane2d import HalfplaneIndex2D
from repro.geometry import arrangement2d
from repro.geometry.arrangement2d import LineArrays, compute_level
from repro.geometry.primitives import Line2, LinearConstraint
from repro.workloads import uniform_points

from conftest import rows
from level_oracle import oracle_compute_level


def dual_lines(points):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return LineArrays(-points[:, 0], points[:, 1])


def assert_same_level(level, expected):
    assert level.k == expected.k
    assert level.initial_line == expected.initial_line
    for position, (vertex, wanted) in enumerate(
            zip(level.vertices, expected.vertices)):
        assert vertex == wanted, "vertex %d" % position
    assert level.complexity == expected.complexity


# ----------------------------------------------------------------------
# generated inputs: the degenerate families the walk's tolerances exist for
# ----------------------------------------------------------------------
_unit = st.floats(0.0, 1.0, allow_nan=False, width=32)


@st.composite
def duplicated_points(draw):
    """A few distinct points, each repeated (coincident dual lines)."""
    pool = draw(st.lists(st.tuples(_unit, _unit), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2,
                          max_size=60))
    return [pool[pick] for pick in picks]


@st.composite
def grid_points(draw):
    """Integer-grid points: parallel and concurrent dual lines."""
    cell = st.integers(-4, 4)
    return draw(st.lists(st.tuples(cell, cell), min_size=2, max_size=60))


@st.composite
def collinear_points(draw):
    """Points on one line (their duals all meet in one point), plus strays."""
    slope = draw(st.floats(-3.0, 3.0, allow_nan=False, width=32))
    offset = draw(st.floats(-1.0, 1.0, allow_nan=False, width=32))
    abscissae = draw(st.lists(_unit, min_size=2, max_size=40))
    strays = draw(st.lists(st.tuples(_unit, _unit), max_size=20))
    return [(x, slope * x + offset) for x in abscissae] + strays


@st.composite
def scattered_points(draw):
    return draw(st.lists(st.tuples(_unit, _unit), min_size=2, max_size=80))


@st.composite
def walk_cases(draw):
    """(lines, k, band): a point family at some scale, a level, a tiny band."""
    points = np.array(draw(st.one_of(duplicated_points(), grid_points(),
                                     collinear_points(), scattered_points())),
                      dtype=float)
    points *= 10.0 ** draw(st.floats(-3.0, 5.0, allow_nan=False))
    k = draw(st.integers(0, len(points) - 1))
    # Bands of 2..16 lines on up to 80: N < 2 * band (no band at all), N
    # barely above it, and N many bands wide all occur.
    band = draw(st.sampled_from([2, 3, 5, 8, 16]))
    return dual_lines(points), k, band


class TestBandedWalkMatchesFullWalk:
    @settings(max_examples=300, deadline=None)
    @given(walk_cases())
    def test_level_equal_field_by_field(self, case):
        lines, k, band = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement2d, "_BAND", band)
            level = compute_level(lines, k)
        assert_same_level(level, oracle_compute_level(lines, k))

    @pytest.mark.parametrize("count, k", [(700, 40), (1500, 0), (3000, 90),
                                          (3000, 2999)])
    def test_uniform_lines_at_the_real_band_size(self, count, k):
        lines = dual_lines(uniform_points(count, seed=count + k))
        assert_same_level(compute_level(lines, k),
                          oracle_compute_level(lines, k))

    def test_left_out_line_at_the_band_edge_is_counted_once(self, monkeypatch):
        """The line whose gap *is* the band's reach belongs to the band.

        Counting the left-out lines below the level as ``height < y - reach``
        rounds that line in as well on this input (seven grid points at an
        awkward scale, a band of three) and the level goes one rank astray.
        """
        points = 0.006674149922701761 * np.array(
            [[2, -1], [2, 4], [-2, 4], [-4, 1], [2, -2], [-3, -4], [4, -1]],
            dtype=float)
        lines = dual_lines(points)
        monkeypatch.setattr(arrangement2d, "_BAND", 3)
        assert_same_level(compute_level(lines, 5),
                          oracle_compute_level(lines, 5))

    def test_accepts_line_objects_and_arrays_alike(self):
        points = uniform_points(900, seed=5)
        as_objects = [Line2(float(-a), float(b)) for a, b in points]
        assert_same_level(compute_level(as_objects, 30),
                          compute_level(dual_lines(points), 30))


class TestIndexBuiltOnTheBandedWalk:
    def test_same_index_as_with_the_full_walk(self, monkeypatch):
        points = uniform_points(4096, seed=1998)
        banded = HalfplaneIndex2D(points, block_size=32, seed=1998)
        monkeypatch.setattr(halfplane2d, "compute_level", oracle_compute_level)
        full = HalfplaneIndex2D(points, block_size=32, seed=1998)
        assert banded.num_layers == full.num_layers > 2
        assert banded.build_ios == full.build_ios
        assert banded.space_blocks == full.space_blocks
        for slope, offset in [(0.3, 0.4), (-0.5, 0.9), (2.0, -0.2),
                              (0.0, 0.05), (-1.0, 1.9)]:
            constraint = LinearConstraint((slope,), offset)
            assert rows(banded.query(constraint)) \
                == rows(full.query(constraint))


class TestWalkCost:
    def test_vertex_serialises_as_plain_json(self):
        vertex = compute_level(dual_lines(uniform_points(50, seed=3)), 5).vertices[0]
        assert json.loads(json.dumps(dataclasses.asdict(vertex)))["is_convex"] \
            is vertex.is_convex

    def test_work_is_a_quarter_of_the_full_walks(self):
        """A count, so it bites on any host: the full walk's work is
        ``N * (complexity + 1)`` lines looked at; the banded walk, band
        cutting included, stays under a quarter of it."""
        count = 4096
        level = compute_level(dual_lines(uniform_points(count, seed=1998)), 80)
        assert level.complexity > count // 8
        assert level.work <= count * level.complexity // 4
