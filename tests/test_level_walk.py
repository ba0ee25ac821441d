"""The banded k-level walk reports exactly what a walk over all lines does.

``compute_level`` walks a level with several walkers in lock step, each
among the few hundred lines nearest it, in checked runs with an exact step
behind them, and stitches their chains into one; the O(N)-per-vertex walk
it replaced lives on in ``level_oracle.py`` as the reference.  Parity is
field by field — abscissae bit for bit, tie orders, ``entering_lines`` in
order — because the layers, clusters, block counts and answer order of
``HalfplaneIndex2D`` all hang on it.  ``TestRunChecksBite`` shows that each
check of a run is needed: a wrong proposal is caught, and with either check
skipped a pinned input goes astray.  ``TestStitching`` starts walkers where
the test chooses, on the right line and one rank off; ``TestBandHorizon``
checks the band's horizon against the oracle's chain.
"""

import dataclasses
import hashlib
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
from level_oracle import check_level, line_at, oracle_compute_level


def dual_lines(points):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    return LineArrays(-points[:, 0], points[:, 1])


def level_fault(lines, k, level):
    """What :func:`check_level` refuses in ``level``; None when nothing."""
    try:
        check_level(lines, k, level)
    except AssertionError as fault:
        return str(fault)
    return None


def assert_same_level(level, expected, lines=None):
    """Field-by-field equality; given the lines, each level is first held
    to :func:`check_level`, so a disagreement names its culprit."""
    if lines is not None:
        check_level(lines, expected.k, level)
        check_level(lines, expected.k, expected)
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
        """Tiny bands make most of these levels banded, so the walkers
        engage on every degenerate family."""
        lines, k, band = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement2d, "_BAND", band)
            level = compute_level(lines, k)
        expected = oracle_compute_level(lines, k)
        # A walk the checker refuses where the other passes is the
        # culprit.  Both are refused alike on some near-parallel and
        # near-coincident families, whose crossings lie inside the walks'
        # shared tolerances (the full walk is the specification there).
        faults = (level_fault(lines, k, level),
                  level_fault(lines, k, expected))
        assert faults[0] == faults[1], \
            "banded walk: %s; full walk: %s" % faults
        assert_same_level(level, expected)
        assert level.walkers == 1 or len(lines) > 2 * band

    @pytest.mark.parametrize("count, k", [(700, 40), (1500, 0), (3000, 90),
                                          (3000, 2999)])
    def test_uniform_lines_at_the_real_band_size(self, count, k):
        lines = dual_lines(uniform_points(count, seed=count + k))
        assert_same_level(compute_level(lines, k),
                          oracle_compute_level(lines, k), lines)

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
                          oracle_compute_level(lines, 5), lines)

    def test_accepts_line_objects_and_arrays_alike(self):
        points = uniform_points(900, seed=5)
        as_objects = [Line2(float(-a), float(b)) for a, b in points]
        assert_same_level(compute_level(as_objects, 30),
                          compute_level(dual_lines(points), 30), as_objects)

    @pytest.mark.parametrize("corrupt", ["dropped", "duplicated", "k"])
    def test_the_level_checker_bites(self, corrupt):
        """A level with a vertex dropped or repeated, or checked at k
        one off, is refused."""
        lines = dual_lines(uniform_points(300, seed=7))
        level = compute_level(lines, 40)
        check_level(lines, 40, level)
        middle = len(level.vertices) // 2
        k = 40
        if corrupt == "dropped":
            del level.vertices[middle]
        elif corrupt == "duplicated":
            level.vertices.insert(middle, level.vertices[middle])
        else:
            k = level.k = 41
        with pytest.raises(AssertionError):
            check_level(lines, k, level)


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

    def test_layers_at_the_benchmark_shape_are_unchanged(self):
        """16 384 uniform points, B = 32: every layer's λ, boundaries and
        cluster members hash to what they were when every vertex came from
        the exact step."""
        index = HalfplaneIndex2D(uniform_points(16384, seed=1998),
                                 block_size=32, seed=1998)
        backend = index._store.backend
        digest = hashlib.sha256()
        for layer in index._layers:
            digest.update(b"%d|" % layer.lam)
            digest.update(np.asarray(layer.bounds, dtype=float).tobytes())
            for cluster in layer.clusters:
                members = np.concatenate([np.empty((0, 5))] + [
                    np.asarray(backend.get_payload(block), dtype=float)
                    for block in cluster.block_ids])[:, 0]
                digest.update(members.astype(np.int64).tobytes() + b"|")
        assert digest.hexdigest() == ("15efe4ffd5fcc62ff16963ef9fe07102"
                                      "c8c8cd5f3c0e0a15b109a88c2611bced")
        assert index.num_layers == len(index.layer_builds) == 29
        vertices = sum(layer.vertices for layer in index.layer_builds)
        assert vertices > 30000
        # The walkers share their rounds: a quarter as many as vertices,
        # on the whole build and on its first, widest level alike.
        first = index.layer_builds[0]
        assert first.walkers == arrangement2d._WALKERS
        assert first.lock_steps <= first.vertices / 4
        assert sum(layer.lock_steps for layer in index.layer_builds) \
            <= vertices / 4


class TestWalkCost:
    def test_vertex_serialises_as_plain_json(self):
        vertex = compute_level(dual_lines(uniform_points(50, seed=3)), 5).vertices[0]
        assert json.loads(json.dumps(dataclasses.asdict(vertex)))["is_convex"] \
            is vertex.is_convex

    def test_work_is_a_quarter_of_the_full_walks(self):
        """Counts, so they bite on any host: the full walk's work is
        ``N * (complexity + 1)`` lines looked at; the banded walk, band
        cutting included, stays under a quarter of it.  Checked runs find
        nine in ten vertices or more, and a band lasts eight vertices or
        more on average."""
        count = 4096
        level = compute_level(dual_lines(uniform_points(count, seed=1998)), 80)
        assert level.complexity > count // 8
        assert level.work <= count * level.complexity // 4
        assert level.run_vertices >= 0.9 * level.complexity
        assert level.band_cuts <= level.complexity / 8


class TestStitching:
    """A walker joins the chain of the walker after it, or drops it."""

    @settings(max_examples=200, deadline=None)
    @given(walk_cases(), st.data())
    def test_a_walk_started_between_two_vertices_continues_the_chain(
            self, case, data):
        """Started on the level's line between two of the oracle's
        vertices, a walker's first vertex is the oracle's next one, and
        the walker before it joins it there."""
        lines, k, band = case
        expected = oracle_compute_level(lines, k)
        if expected.complexity < 2:
            return
        at = data.draw(st.integers(0, expected.complexity - 2))
        left, right = expected.vertices[at].x, expected.vertices[at + 1].x
        start = 0.5 * (left + right)
        heights = lines.slopes * start + lines.intercepts
        # Too close to a vertex, or on a line that ties with the level's
        # there: a start somewhere else.
        if (right - left <= 1e-6 * max(1.0, abs(left), abs(right))
                or arrangement2d._line_of_rank(heights, k)
                != line_at(expected, start)):
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(arrangement2d, "_BAND", band)
            patch.setattr(arrangement2d, "_starts",
                          lambda lines, count: [start])
            level = compute_level(lines, k)
        assert_same_level(level, expected)
        assert (level.walkers, level.stitch_fallbacks) == (2, 0)

    def test_a_start_one_rank_off_is_dropped(self, monkeypatch):
        """Walkers started on the line one rank above the level walk a
        chain the level does not have: the walker before each drops it and
        walks its stretch, and the level is still the oracle's."""
        lines = dual_lines(uniform_points(3000, seed=3090))
        expected = oracle_compute_level(lines, 90)
        rank = arrangement2d._line_of_rank
        monkeypatch.setattr(arrangement2d, "_line_of_rank",
                            lambda heights, k: rank(heights, k + 1))
        level = compute_level(lines, 90)
        assert_same_level(level, expected)
        assert level.walkers == arrangement2d._WALKERS
        assert level.stitch_fallbacks >= 1

    def test_tiny_bands_drive_many_walkers_on_a_grid(self, monkeypatch):
        """A grid's dual lines are parallel and concurrent by the dozen;
        with a band of three, sixteen walkers still stitch the oracle's
        level."""
        cells = np.arange(-4, 5, dtype=float)
        lines = dual_lines(np.stack(np.meshgrid(cells, cells), -1))
        monkeypatch.setattr(arrangement2d, "_BAND", 3)
        for k in (0, 20, 40, 80):
            level = compute_level(lines, k)
            assert_same_level(level, oracle_compute_level(lines, k))
            assert level.walkers > 1


class TestBandHorizon:
    @settings(max_examples=200, deadline=None)
    @given(walk_cases())
    def test_left_out_lines_keep_clear_of_the_chain(self, case):
        """A band cut at any oracle vertex: at every later oracle vertex up
        to the band's horizon, while the chain's drift stays within the
        band's limit, each line the band left out is on the side of the
        chain it started on and more than ``reach / 8`` from it, less the
        drift."""
        lines, k, band = case
        band = min(band, (len(lines) - 1) // 2)
        if band < 2:
            return
        vertices = oracle_compute_level(lines, k).vertices
        everything = arrangement2d._Active(
            np.arange(len(lines)), lines.slopes, lines.intercepts)
        with pytest.MonkeyPatch.context() as patch, \
                np.errstate(divide="ignore", invalid="ignore"):
            patch.setattr(arrangement2d, "_BAND", band)
            for at, cut in enumerate(vertices):
                heights = lines.slopes * cut.x + lines.intercepts
                active = arrangement2d._band_around(
                    everything, heights, cut.x, cut.y,
                    arrangement2d._vertex_tolerance(cut.x, cut.y))
                if active is everything:
                    continue
                reach = np.partition(np.abs(heights - cut.y), band)[band]
                left_out = np.setdiff1d(np.arange(len(lines)), active.ids)
                above = heights[left_out] > cut.y
                drift = 0.0
                for vertex in vertices[at + 1:]:
                    drift += arrangement2d._vertex_tolerance(vertex.x,
                                                             vertex.y)
                    if (vertex.x > active.horizon
                            or drift > reach / arrangement2d._CLEARANCE):
                        break
                    offset = (lines.slopes[left_out] * vertex.x
                              + lines.intercepts[left_out] - vertex.y)
                    assert np.array_equal(offset > 0, above)
                    assert np.all(np.abs(offset) > reach / 8 - drift)


def _second_nearest(cross):
    return np.argsort(cross, axis=1, kind="stable")[:, 1]


def _skipped(*args):
    """A check that passes every proposed vertex."""
    return np.ones(len(args[-1]), dtype=bool)


class TestRunChecksBite:
    """A run's proposals are only as good as the checks behind them."""

    @pytest.mark.parametrize("count, k", [(1500, 40), (300, 10)])
    def test_a_proposal_past_the_nearest_crossing_is_rejected(
            self, monkeypatch, count, k):
        lines = dual_lines(uniform_points(count, seed=count))
        expected = oracle_compute_level(lines, k)
        honest = compute_level(lines, k)
        monkeypatch.setattr(arrangement2d, "_nearest_crossing",
                            _second_nearest)
        misled = compute_level(lines, k)
        assert_same_level(misled, expected)
        assert misled.complexity - misled.run_vertices \
            > honest.complexity - honest.run_vertices

    @pytest.mark.parametrize("check, points, k, band", [
        # Two coincident lines cross the level's line at one point.
        ("_two_line_bundles", [(0, 0), (0, 1), (1, 0), (1, 0)], 1, 2),
        # After a near-degenerate vertex at x = 0 the below count is one
        # off, and the exact step keeps the level on its own line at the
        # two-line vertex near x = 1.
        ("_ranks_agree",
         [(0, 1), (0, 1), (1, 1), (1, 0), (2.220446049250313e-16, 0)], 2, 2),
    ])
    def test_skipping_a_check_breaks_parity(self, monkeypatch, check, points,
                                            k, band):
        lines = dual_lines(points)
        expected = oracle_compute_level(lines, k)
        monkeypatch.setattr(arrangement2d, "_BAND", band)
        assert_same_level(compute_level(lines, k), expected)
        monkeypatch.setattr(arrangement2d, check, _skipped)
        assert compute_level(lines, k).vertices != expected.vertices
