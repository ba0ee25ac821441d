"""Tests for 3-D lower envelopes, conflict lists, polygons and point location."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.envelope3d import (
    compute_lower_envelope,
    conflict_lists,
    default_domain,
)
from repro.geometry.point_location import ExternalPointLocator
from repro.geometry.polygons import (
    clip_polygon_halfplane,
    fan_triangulate,
    polygon_area,
    rectangle_polygon,
)
from repro.geometry.primitives import Plane3
from repro.io.store import BlockStore

from geometry_oracle import (covered_area, locate_brute, planes_below_point,
                             polygon_centroid, polygon_contains)

DOMAIN = (-4.0, 4.0, -4.0, 4.0)


def hull(count):
    """A ``backend="hull"`` case: skipped where scipy (the ``test`` extra)
    is not installed."""
    try:
        import scipy.spatial  # noqa: F401
    except ImportError:
        return pytest.param(count, "hull", marks=pytest.mark.skip(
            reason='backend="hull" needs scipy'))
    return pytest.param(count, "hull")


def random_planes(count, seed):
    rng = np.random.default_rng(seed)
    coefficients = rng.uniform(-1, 1, size=(count, 3))
    return [Plane3(*row) for row in coefficients]


class TestPolygons:
    def test_rectangle_polygon_is_ccw_square(self):
        poly = rectangle_polygon(0, 2, 0, 1)
        assert polygon_area(poly) == pytest.approx(2.0)

    def test_rectangle_rejects_degenerate(self):
        with pytest.raises(ValueError):
            rectangle_polygon(1, 1, 0, 1)

    def test_clip_keeps_inside_half(self):
        poly = rectangle_polygon(0, 2, 0, 2)
        clipped = clip_polygon_halfplane(poly, 1.0, 0.0, 1.0)   # x <= 1
        assert polygon_area(clipped) == pytest.approx(2.0)
        assert all(x <= 1.0 + 1e-9 for x, __ in clipped)

    def test_clip_to_empty(self):
        poly = rectangle_polygon(0, 1, 0, 1)
        clipped = clip_polygon_halfplane(poly, 1.0, 0.0, -1.0)  # x <= -1
        assert polygon_area(clipped) == 0.0

    def test_clip_whole_polygon_inside(self):
        poly = rectangle_polygon(0, 1, 0, 1)
        clipped = clip_polygon_halfplane(poly, 1.0, 0.0, 10.0)
        assert polygon_area(clipped) == pytest.approx(1.0)

    def test_fan_triangulation_preserves_area(self):
        poly = [(0, 0), (2, 0), (3, 1), (2, 2), (0, 2)]
        triangles = fan_triangulate(poly)
        assert len(triangles) == 3
        total = sum(polygon_area(list(t)) for t in triangles)
        assert total == pytest.approx(polygon_area(poly))

    def test_polygon_contains(self):
        poly = rectangle_polygon(0, 1, 0, 1)
        assert polygon_contains(poly, 0.5, 0.5)
        assert polygon_contains(poly, 0.0, 0.5)
        assert not polygon_contains(poly, 1.5, 0.5)

    def test_polygon_centroid_inside_convex(self):
        poly = rectangle_polygon(0, 2, 0, 2)
        cx, cy = polygon_centroid(poly)
        assert polygon_contains(poly, cx, cy)


class TestLowerEnvelope:
    def test_single_plane_covers_domain(self):
        envelope = compute_lower_envelope([Plane3(0.1, -0.2, 0.3)], DOMAIN)
        assert envelope.size >= 1
        assert covered_area(envelope) == pytest.approx(envelope.domain_area())

    @pytest.mark.parametrize("count,backend", [(6, "exact"), (40, "exact"),
                                               hull(150)])
    def test_cells_tile_the_domain(self, count, backend):
        planes = random_planes(count, seed=count)
        envelope = compute_lower_envelope(planes, DOMAIN, backend=backend)
        assert covered_area(envelope) == pytest.approx(envelope.domain_area(),
                                                        rel=1e-6)

    @pytest.mark.parametrize("count,backend", [(12, "exact"), hull(120)])
    def test_triangles_carry_the_lowest_plane(self, count, backend):
        planes = random_planes(count, seed=100 + count)
        envelope = compute_lower_envelope(planes, DOMAIN, backend=backend)
        rng = np.random.default_rng(0)
        for __ in range(30):
            x, y = rng.uniform(-3.9, 3.9, size=2)
            triangle_index = locate_brute(envelope, float(x), float(y))
            assert triangle_index is not None
            triangle = envelope.triangles[triangle_index]
            lowest = envelope.lowest_plane_at(float(x), float(y))
            expected = planes[lowest].z_at(float(x), float(y))
            actual = planes[triangle.plane_index].z_at(float(x), float(y))
            assert actual == pytest.approx(expected, abs=1e-6)

    def test_hull_and_exact_backends_agree_on_envelope_height(self):
        pytest.importorskip("scipy.spatial", reason='backend="hull" needs scipy')
        planes = random_planes(60, seed=17)
        exact = compute_lower_envelope(planes, DOMAIN, backend="exact")
        hull = compute_lower_envelope(planes, DOMAIN, backend="hull")
        rng = np.random.default_rng(1)
        for __ in range(20):
            x, y = rng.uniform(-3, 3, size=2)
            t_exact = locate_brute(exact, float(x), float(y))
            t_hull = locate_brute(hull, float(x), float(y))
            z_exact = planes[exact.triangles[t_exact].plane_index].z_at(x, y)
            z_hull = planes[hull.triangles[t_hull].plane_index].z_at(x, y)
            assert z_exact == pytest.approx(z_hull, abs=1e-6)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compute_lower_envelope([], DOMAIN)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError):
            compute_lower_envelope([Plane3(0, 0, 0)], DOMAIN, backend="magic")

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            compute_lower_envelope([Plane3(0, 0, 0)], (1, 1, 0, 1))

    def test_default_domain_covers_coefficients(self):
        planes = [Plane3(3.0, -1.0, 0.0), Plane3(-0.5, 2.0, 1.0)]
        xmin, xmax, ymin, ymax = default_domain(planes)
        assert xmin <= -3.0 <= xmax and ymin <= -3.0 <= ymax


class TestConflictLists:
    def test_conflicts_match_brute_force(self):
        planes = random_planes(50, seed=19)
        sample = list(range(0, 50, 5))
        envelope = compute_lower_envelope([planes[i] for i in sample], DOMAIN)
        lists = conflict_lists(planes, sample, envelope)
        assert len(lists) == envelope.size
        for triangle, found in zip(envelope.triangles, lists):
            expected = set()
            for vertex in triangle.vertices:
                for index in planes_below_point(planes, *vertex):
                    if index not in sample:
                        expected.add(index)
            assert set(found) == expected

    def test_sample_planes_never_conflict(self):
        planes = random_planes(30, seed=23)
        sample = list(range(10))
        envelope = compute_lower_envelope([planes[i] for i in sample], DOMAIN)
        lists = conflict_lists(planes, sample, envelope)
        for found in lists:
            assert not set(found) & set(sample)

    def test_full_sample_has_empty_conflicts(self):
        planes = random_planes(20, seed=29)
        sample = list(range(20))
        envelope = compute_lower_envelope(planes, DOMAIN)
        lists = conflict_lists(planes, sample, envelope)
        assert all(len(found) == 0 for found in lists)


class TestExternalPointLocator:
    def build(self, count, seed, block_size=16):
        planes = random_planes(count, seed=seed)
        envelope = compute_lower_envelope(planes, DOMAIN)
        store = BlockStore(block_size=block_size, cache_blocks=0)
        triangles = [(index, triangle.xy_vertices())
                     for index, triangle in enumerate(envelope.triangles)]
        return store, envelope, ExternalPointLocator(store, triangles)

    def test_locator_agrees_with_brute_force(self):
        store, envelope, locator = self.build(60, seed=31)
        rng = np.random.default_rng(2)
        planes = envelope.planes
        for __ in range(50):
            x, y = rng.uniform(-3.9, 3.9, size=2)
            located = locator.locate(float(x), float(y))
            assert located is not None
            expected_height = planes[envelope.lowest_plane_at(x, y)].z_at(x, y)
            actual_height = planes[envelope.triangles[located].plane_index].z_at(x, y)
            assert actual_height == pytest.approx(expected_height, abs=1e-6)

    def test_locate_outside_domain_returns_none(self):
        __, __, locator = self.build(20, seed=37)
        assert locator.locate(100.0, 100.0) is None

    def test_locate_costs_few_ios(self):
        store, envelope, locator = self.build(150, seed=41)
        store.reset_stats()
        locator.locate(0.1, -0.2)
        assert store.stats.reads <= 12

    def test_empty_locator(self):
        store = BlockStore(block_size=8)
        locator = ExternalPointLocator(store, [])
        assert locator.locate(0.0, 0.0) is None
        assert locator.check_invariants() == {}

    @pytest.mark.parametrize("block_size", [2, 4, 16])
    def test_locator_holds_its_invariants_without_io(self, block_size):
        store, envelope, locator = self.build(90, seed=47,
                                              block_size=block_size)
        store.reset_stats()
        triangles = locator.check_invariants()
        assert store.stats.total == 0
        assert triangles == {index: triangle.xy_vertices() for index, triangle
                             in enumerate(envelope.triangles)}

    def test_space_is_linear_in_triangles(self):
        store, envelope, locator = self.build(120, seed=43)
        # The locator duplicates triangles that straddle splits, so allow a
        # small constant factor over one block per triangle.
        assert locator.space_blocks <= 2 * envelope.size + 4
