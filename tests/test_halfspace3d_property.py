"""The Section 4 structure is what it says it is, and answers what a scan does.

``LowestPlanesIndex.check_invariants()`` reads every stored layer back from
the disk and checks it against Section 4.1 (tiling, lowest plane, spans,
complete conflict lists, sinking envelopes); the generated properties here
call it after every build and compare every answer with the full scan's,
over the input families whose envelopes differ most — a cube (few planes on
the envelope), a ball, points on a paraboloid (every plane on it) and
duplicated points (coincident planes).  The incremental envelope behind the
build is held to the clip-everything reference the same way, and to a clip
count that a quadratic construction cannot meet.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.full_scan import FullScanIndex
from repro.core.halfspace3d import HalfspaceIndex3D
from repro.core.lowest_planes import LowestPlanesIndex
from repro.geometry import envelope3d
from repro.geometry.duality import dual_plane_of_point
from repro.geometry.envelope3d import (
    compute_lower_envelope,
    default_domain,
    nested_envelopes,
)
from repro.geometry.primitives import LinearConstraint
from repro.workloads import uniform_points, uniform_points_ball

from conftest import rows
from geometry_oracle import covered_area, envelope_height, locate_brute
from scan_oracle import scalar_kernels

FAMILIES = ("cube", "ball", "paraboloid", "duplicated")


def family_points(family, count, seed):
    rng = np.random.default_rng([seed, count])
    if family == "cube":
        return rng.uniform(-1.0, 1.0, size=(count, 3))
    if family == "ball":
        return np.asarray(uniform_points_ball(count, dimension=3, seed=seed))
    if family == "paraboloid":
        xy = rng.uniform(-1.0, 1.0, size=(count, 2))
        return np.column_stack([xy, (xy ** 2).sum(axis=1)])
    pool = rng.uniform(-1.0, 1.0, size=(max(1, count // 6), 3))
    return pool[rng.integers(0, len(pool), size=count)]


def sorted_rows(points):
    return sorted(tuple(point) for point in points)


def constraints_for(points, rng):
    """Through the data, typical, outside the domain, with huge slopes."""
    made = []
    for scale in (1.0, 1.0, 1.0, 20.0, 1e5):
        slopes = rng.uniform(-scale, scale, size=2)
        if len(points):
            anchor = points[rng.integers(len(points))]
            through = float(anchor[2] - slopes @ anchor[:2])
            made.append((slopes, through))
            made.append((slopes, through + float(rng.uniform(-0.5, 0.5))))
        else:
            made.append((slopes, float(rng.uniform(-1, 1))))
    return [LinearConstraint(coeffs=tuple(map(float, slopes)), offset=offset)
            for slopes, offset in made]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(FAMILIES),
       block_size=st.sampled_from([4, 32]),
       size=st.sampled_from(["0", "1", "B-1", "B", "hundreds"]),
       seed=st.integers(0, 10_000))
def test_query_equals_full_scan_and_layers_hold_their_invariants(
        family, block_size, size, seed):
    count = {"0": 0, "1": 1, "B-1": block_size - 1, "B": block_size,
             "hundreds": 200 + seed % 400}[size]
    points = family_points(family, count, seed)
    index = HalfspaceIndex3D(points, block_size=block_size, seed=seed)
    before = index.store.stats.snapshot()
    index.check_invariants()
    assert index.store.stats.snapshot() == before      # no I/O charged
    oracle = FullScanIndex(points.reshape(-1, 3), block_size=block_size)
    scan_blocks = math.ceil(count / block_size)
    for constraint in constraints_for(points, np.random.default_rng(seed)):
        result = index.query_with_stats(constraint)
        assert sorted_rows(result.points) == sorted_rows(oracle.query(constraint))
        detail = index.last_query
        if count:
            assert (detail["layer"] is None) == (detail["scanned"] is not None)
            # min(scan, one list) plus the probes, each a descent of at
            # most 33 nodes — a handful of blocks when a block holds 32.
            assert result.total_ios <= scan_blocks + (
                16 if block_size == 32 else 33 * detail["probes"])
        with scalar_kernels():
            again = index.query_with_stats(constraint)
        assert rows(again) == rows(result)
        assert again.total_ios == result.total_ios


#: Dyadic values: a plane through a stored grid point passes exactly
#: through it, and through every other point it meets.
GRID = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
SLOPES = [-1.0, -0.5, 0.0, 0.5, 1.0]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(count=st.integers(1, 300), block_size=st.sampled_from([4, 8, 32]),
       seed=st.integers(0, 10_000))
def test_planes_through_grid_points_report_every_point_on_them(
        count, block_size, seed):
    """The open-versus-closed audit of Section 4: a layer clears a point
    when its envelope passes more than ``CLEARANCE`` above it, and then
    reports the conflict-list planes on or below it.  Grid points (many
    duplicated, many coplanar) queried with planes through stored ones put
    planes exactly on the query point; the answer is the numpy filter's in
    both kernel modes.  Each plane passes through a point among the
    lowest eighth in its direction, so a third or so of the queries are
    answered from a layer rather than by a scan."""
    rng = np.random.default_rng(seed)
    points = rng.choice(GRID, size=(count, 3))
    index = HalfspaceIndex3D(points, block_size=block_size, seed=seed)
    index.check_invariants()
    for __ in range(8):
        a, b = rng.choice(SLOPES, size=2)
        offsets = np.sort(points[:, 2] - a * points[:, 0] - b * points[:, 1])
        constraint = LinearConstraint(
            coeffs=(float(a), float(b)),
            offset=float(offsets[rng.integers(max(1, count // 8))]))
        expected = sorted_rows(points[points[:, 2] <= a * points[:, 0]
                                      + b * points[:, 1] + constraint.offset])
        assert sorted_rows(index.query(constraint)) == expected
        with scalar_kernels():
            assert sorted_rows(index.query(constraint)) == expected


def test_three_copies_hold_their_invariants_and_answer_from_the_shortest_list():
    points = family_points("ball", 700, seed=5)
    one = HalfspaceIndex3D(points, block_size=16, seed=6)
    three = HalfspaceIndex3D(points, block_size=16, copies=3, seed=6)
    three.planes_index.check_invariants()
    oracle = FullScanIndex(points, block_size=16)
    for constraint in constraints_for(points, np.random.default_rng(7)):
        assert sorted_rows(three.query(constraint)) \
            == sorted_rows(oracle.query(constraint))
        one.query(constraint)
        # The first copy is ``one``'s only copy (same seed, same stream).
        if one.last_query["scanned"] is None:
            assert three.last_query["scanned"] is None
            assert three.last_query["list_blocks"] <= one.last_query["list_blocks"] + 1


def test_check_invariants_notices_a_truncated_conflict_list():
    planes = [dual_plane_of_point(point)
              for point in family_points("ball", 400, seed=8)]
    index = LowestPlanesIndex(planes, block_size=8, seed=9)
    index.check_invariants()
    layer = index._copies[0].layers[-1]
    victim = int(np.argmax(np.diff(layer.starts)))
    layer.starts[victim + 1:] -= 1          # one record short from there on
    with pytest.raises(AssertionError):
        index.check_invariants()


def _first_record(index, wanted):
    """The finest layer's locator, and the position, block and slot of
    its first stored record that ``wanted`` accepts (positions count
    from the locator's first block, B records a block)."""
    locator = index.planes_index._copies[0].layers[-1].locator
    B = index.store.block_size
    for number, block_id in enumerate(locator._block_ids):
        for slot, record in enumerate(
                index.store.backend.get_payload(block_id)):
            if wanted(number * B + slot, record):
                return locator, number * B + slot, block_id, slot
    raise LookupError("no such record")


def _move_a_split(position, record):
    kind, axis, split, left, right = record
    return kind, axis, split + 0.25, left, right


def _point_a_child_backward(position, record):
    kind, axis, split, left, right = record
    return kind, axis, split, position - 1, right


def _drop_a_triangle(position, record):
    kind, payload = record
    return kind, payload[1:]


@pytest.mark.parametrize("corrupt, wanted", [
    (_move_a_split, lambda position, record: record[0] == 0),
    (_point_a_child_backward,
     lambda position, record: record[0] == 0 and position > 0),
    (_drop_a_triangle, lambda position, record: record[0] == 1 and record[1]),
], ids=["moved_split", "backward_child", "dropped_triangle"])
def test_a_broken_point_locator_fails_the_invariants(corrupt, wanted):
    index = HalfspaceIndex3D(family_points("ball", 400, seed=8),
                             block_size=8, seed=9)
    index.check_invariants()
    locator, position, block_id, slot = _first_record(index, wanted)
    records = list(index.store.backend.get_payload(block_id))
    records[slot] = corrupt(position, records[slot])
    index.store.write(block_id, records)
    with pytest.raises(AssertionError):
        locator.check_invariants()
    with pytest.raises(AssertionError):
        index.check_invariants()


# ----------------------------------------------------------------------
# the incremental envelope against the clip-everything reference
# ----------------------------------------------------------------------
def sample_sizes(count):
    sizes = [2 ** power for power in range(count.bit_length())
             if 2 ** power < count]
    return sizes + [count]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family=st.sampled_from(FAMILIES), count=st.integers(1, 160),
       seed=st.integers(0, 10_000))
def test_incremental_envelope_is_the_exact_envelope(family, count, seed):
    planes = [dual_plane_of_point(point)
              for point in family_points(family, count, seed)]
    coefficients = np.array([plane.coefficients() for plane in planes])
    domain = default_domain(planes)
    *__, (incremental, conflicts) = nested_envelopes(
        coefficients, sample_sizes(count), domain)
    exact = compute_lower_envelope(planes, domain, backend="exact")
    assert all(len(conflict) == 0 for conflict in conflicts)
    assert covered_area(incremental) == pytest.approx(exact.domain_area(),
                                                       rel=1e-6)
    assert abs(incremental.size - exact.size) <= max(2, 0.1 * exact.size)
    rng = np.random.default_rng(seed)
    xmin, xmax, ymin, ymax = domain
    for x, y in rng.uniform((xmin, ymin), (xmax, ymax), size=(200, 2)).tolist():
        triangle = locate_brute(incremental, x, y)
        assert triangle is not None
        carried = planes[incremental.triangles[triangle].plane_index]
        assert carried.z_at(x, y) == pytest.approx(
            envelope_height(exact, x, y), abs=1e-9)


def test_cells_that_do_not_tile_fall_back_to_clipping_all_candidates(monkeypatch):
    planes = [dual_plane_of_point(point)
              for point in family_points("ball", 120, seed=4)]
    coefficients = np.array([plane.coefficients() for plane in planes])
    domain = default_domain(planes)
    hull = envelope3d.convex_hull
    monkeypatch.setattr(envelope3d, "convex_hull",
                        lambda corners, eps: hull(corners, eps)[:-1])
    *__, (lossy, __) = nested_envelopes(coefficients, sample_sizes(120), domain)
    monkeypatch.undo()
    exact = compute_lower_envelope(planes, domain)
    assert covered_area(lossy) == pytest.approx(exact.domain_area(), rel=1e-9)
    assert lossy.size == exact.size


def test_refinement_clips_near_linearly_on_a_paraboloid(monkeypatch):
    """Every sample plane of a paraboloid input is on the envelope, the
    worst case for its size; clipping every plane against every other
    takes ``r^2 - r`` clips for the sample of ``r`` alone."""
    points = family_points("paraboloid", 2048, seed=11)
    coefficients = points * (-1.0, -1.0, 1.0)
    clips = [0]
    clip = envelope3d.clip_polygon_halfplane

    def counting(*arguments):
        clips[0] += 1
        return clip(*arguments)

    monkeypatch.setattr(envelope3d, "clip_polygon_halfplane", counting)
    sizes = [2 ** power for power in range(10)]
    triangles = sum(envelope.size for envelope, __ in nested_envelopes(
        coefficients, sizes, (-4.0, 4.0, -4.0, 4.0)))
    assert triangles > sizes[-1]
    assert clips[0] <= 12 * triangles
    assert clips[0] < sizes[-1] ** 2 / 4


# ----------------------------------------------------------------------
# the bounds the docstrings state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family,points", [
    ("cube", lambda: uniform_points(8192, dimension=3, seed=3)),
    ("ball", lambda: uniform_points_ball(8192, dimension=3, seed=3)),
])
def test_space_is_n_log_n_blocks_and_no_query_reads_much_more_than_a_scan(
        family, points):
    del family
    points = np.asarray(points())
    index = HalfspaceIndex3D(points, block_size=32, seed=13)
    blocks = math.ceil(len(points) / 32)
    assert index.space_blocks <= 4 * blocks * math.log2(blocks)
    rng = np.random.default_rng(17)
    for constraint in constraints_for(points, rng) * 3:
        assert index.query_with_stats(constraint).total_ios <= blocks + 16


def test_nothing_but_the_hull_oracle_needs_scipy():
    """numpy is the only runtime dependency: the 3-D structures and the
    convex-layers baseline build with scipy unimportable, and the one
    function that wants it says which extra installs it."""
    script = """
import sys
sys.modules["scipy"] = sys.modules["scipy.spatial"] = None
import numpy as np
import repro
from repro.baselines import PagedDualIndex2D
from repro.geometry.envelope3d import compute_lower_envelope
from repro.geometry.primitives import Plane3
points = np.random.default_rng(1).random((300, 3))
repro.HalfspaceIndex3D(points, block_size=16, seed=2).planes_index.check_invariants()
repro.KNNIndex(points[:, :2], block_size=16, seed=3)
assert PagedDualIndex2D(points[:, :2], block_size=16).num_layers > 3
try:
    compute_lower_envelope([Plane3(0.0, 0.0, 0.0)], (-1, 1, -1, 1), backend="hull")
except ImportError as error:
    assert "test" in str(error) and "scipy" in str(error)
else:
    raise SystemExit("backend='hull' did not ask for scipy")
"""
    source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=os.path.abspath(source)))
