"""k-levels of arrangements of lines in the plane (Section 2.3).

The k-level ``A_k(L)`` of a set ``L`` of lines is the closure of the points
that lie strictly above exactly ``k`` lines of ``L``; it is an x-monotone
polygonal chain.  The optimal 2-D structure of Section 3 repeatedly computes
a (random) level with ``k`` around ``B log_B n`` and compresses it into a
greedy clustering.

This module walks a level from left to right, reporting its vertices.  At
each vertex the walk records whether it is *convex* (downward — the level's
slope increases and one line drops strictly below the level, Lemma 3.2's
"add the minimum-slope line" event) or *concave* (upward — nothing enters
the region below the level).  Each step is a handful of numpy passes over the
few hundred lines nearest the level (:func:`compute_level`); the paper
instead uses the Edelsbrunner–Welzl sweep [22], a substitution documented
under "Substitutions" in README.md that affects construction time only,
never query I/Os.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Sequence, Set

import numpy as np

from repro.geometry.primitives import Line2

#: Relative tolerance used when grouping concurrent lines at a level vertex.
_VERTEX_EPS = 1e-9

#: How many of the lines nearest the level the walk keeps active between
#: two passes over all of them.
_BAND = 384

#: A band is trusted while its ``reach`` is at least this many times what
#: the walk has drifted since the band was cut (so ``reach / 2`` dwarfs the
#: vertex tolerance and the rounding noise below it).
_CLEARANCE = 8.0


class LineArrays(Sequence):
    """Lines ``y = slope * x + intercept`` held as two parallel float arrays.

    A ``Sequence[Line2]`` whose items are made on demand, so a caller that
    already has the coefficients as arrays (the layer peeling of Section
    3.2) hands them to :func:`compute_level` without one object per line.
    Indexing with an index array gives the sub-family, renumbered from 0.
    """

    def __init__(self, slopes, intercepts):
        self.slopes = np.ascontiguousarray(slopes, dtype=float)
        self.intercepts = np.ascontiguousarray(intercepts, dtype=float)

    @classmethod
    def of(cls, lines: Sequence[Line2]) -> "LineArrays":
        """``lines`` itself if it already is one, else its coefficients."""
        if isinstance(lines, cls):
            return lines
        return cls([line.slope for line in lines],
                   [line.intercept for line in lines])

    def __len__(self) -> int:
        return len(self.slopes)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Line2(self.slopes[index], self.intercepts[index])
        return LineArrays(self.slopes[index], self.intercepts[index])


@dataclass
class LevelVertex:
    """One vertex of a k-level.

    ``entering_lines`` are the lines that are strictly below the level just
    to the right of the vertex but were not strictly below it just to the
    left — exactly the lines the greedy clustering of Lemma 3.2 may have to
    add when it sweeps past this vertex.  They are non-empty only at convex
    vertices.
    """

    x: float
    y: float
    line_before: int
    line_after: int
    is_convex: bool
    entering_lines: List[int] = field(default_factory=list)


@dataclass
class Level:
    """The k-level of an arrangement of lines, as an x-monotone chain.

    ``work`` is what the walk cost: the number of lines it looked at,
    summed over its steps and its passes over all lines (a count, so a
    test can bound it on any host).
    """

    k: int
    lines: LineArrays
    initial_line: int
    vertices: List[LevelVertex]
    work: int

    @property
    def complexity(self) -> int:
        """Number of vertices of the level (the paper's |Λ|)."""
        return len(self.vertices)

    def line_at(self, x: float) -> int:
        """Index of the line realising the level at abscissa ``x``."""
        current = self.initial_line
        for vertex in self.vertices:
            if vertex.x > x:
                break
            current = vertex.line_after
        return current

    def y_at(self, x: float) -> float:
        """Height of the level at abscissa ``x``."""
        return self.lines[self.line_at(x)].y_at(x)

    def sample_point_before_first_vertex(self) -> float:
        """An abscissa strictly to the left of every vertex of the level."""
        if not self.vertices:
            return 0.0
        return self.vertices[0].x - 1.0


def level_of_point(lines: Sequence[Line2], x: float, y: float,
                   eps: float = _VERTEX_EPS) -> int:
    """Number of lines strictly below the point ``(x, y)`` (its *level*)."""
    return sum(1 for line in lines if line.y_at(x) < y - eps)


def _vertex_tolerance(x: float, y: float) -> float:
    """How far from the vertex ``(x, y)`` a line may pass and still be on it."""
    return _VERTEX_EPS * max(1.0, abs(y), abs(x))


class _Active(NamedTuple):
    """The lines one step of the walk looks at, and for how long it may.

    ``ids`` (ascending) are their indices and ``below`` counts the left-out
    lines under the level.  A band (:func:`_band_around`) was cut at
    abscissa ``cut_x`` and is trusted for vertices up to ``horizon`` while
    the walk's drift is at most ``limit``; the set of all lines leaves
    nothing out and has no limits.
    """

    ids: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    below: int = 0
    cut_x: float = math.nan
    horizon: float = math.inf
    limit: float = math.inf


def compute_level(lines: Sequence[Line2], k: int) -> Level:
    """Walk the k-level of ``lines`` from left to right.

    ``k`` counts lines strictly below, so ``k = 0`` is the lower envelope.
    Raises :class:`ValueError` unless ``0 <= k < len(lines)``.

    A step needs only the lines near the level, so after a vertex the walk
    keeps the ``_BAND`` lines nearest it and steps among those for as long
    as :func:`_band_around` proves the others cannot matter, then cuts a new
    band where it stands; a step that even a new band cannot vouch for is
    taken on all lines.  Every vertex is therefore the one a walk over all
    lines at every step reports.
    """
    lines = LineArrays.of(lines)
    count = len(lines)
    if not 0 <= k < count:
        raise ValueError("level index k=%d out of range for %d lines" % (k, count))

    # At x = -infinity the lines are ordered bottom-to-top by decreasing
    # slope (ties broken by intercept, then index), so the line with exactly
    # k lines below it is the one of rank k in that order.
    current = initial_line = int(
        np.lexsort((lines.intercepts, -lines.slopes))[k])
    current_x = -math.inf

    everything = _Active(np.arange(count), lines.slopes, lines.intercepts)
    banded = count > 2 * _BAND
    active = everything
    # The vertex tolerances spent so far: at each vertex the chain may jump
    # by one, so since a band was cut the chain has strayed at most the
    # drift added since from the geometry the band's horizon was proven on.
    drift = 0.0
    vertices: List[LevelVertex] = []
    work = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            step = _next_vertex(active, k, current, current_x, drift)
            work += len(active.ids)
            if step is not None:
                vertex, heights, tolerance = step
                drift += tolerance
                vertices.append(vertex)
                current = vertex.line_after
                current_x = vertex.x
                if len(vertices) > 4 * count * count:
                    raise RuntimeError(
                        "level walk did not terminate; the input is too "
                        "degenerate for the floating-point tolerances in use")
                if banded and active is everything:
                    active = _band_around(everything, heights, vertex, drift)
                    work += count
            elif active is everything:
                break
            elif active.cut_x == current_x:
                # Not even a band cut here vouches for the step: all lines.
                active = everything
            else:
                # The band has run out: cut a new one where the walk stands.
                vertex = vertices[-1]
                heights = lines.slopes * vertex.x + lines.intercepts
                active = _band_around(everything, heights, vertex, drift)
                work += count
    return Level(k=k, lines=lines, initial_line=initial_line,
                 vertices=vertices, work=work)


def _next_vertex(active: _Active, k: int, current: int, current_x: float,
                 drift: float):
    """One step of the walk among the ``active`` lines.

    Returns ``None`` when no active line crosses line ``current`` right of
    ``current_x`` or the active set cannot vouch for the crossing (it lies
    past the set's horizon, or would take the walk's ``drift`` over its
    limit), else the vertex, the active lines' heights at it and its
    tolerance.  The caller silences numpy's division warnings.
    """
    ids, slopes, intercepts = active.ids, active.slopes, active.intercepts
    here = int(ids.searchsorted(current))
    slope_cur = slopes[here]
    intercept_cur = intercepts[here]
    denom = slope_cur - slopes
    cross_x = (intercepts - intercept_cur) / denom
    cross_x[here] = np.inf
    cross_x[np.abs(denom) < 1e-15] = np.inf
    # Only crossings strictly to the right of the current position matter.
    if not math.isinf(current_x):
        scale = max(1.0, abs(current_x))
        cross_x = np.where(cross_x > current_x + _VERTEX_EPS * scale,
                           cross_x, np.inf)
    next_x = float(cross_x.min())
    if math.isinf(next_x) or next_x > active.horizon:
        return None
    next_y = float(slope_cur * next_x + intercept_cur)
    tolerance = _vertex_tolerance(next_x, next_y)
    if drift + tolerance > active.limit:
        return None

    # Gather every line passing through the vertex (handles concurrences).
    heights = slopes * next_x + intercepts
    through = (np.abs(heights - next_y) <= tolerance).nonzero()[0]
    below_outside = active.below + np.count_nonzero(
        heights < next_y - tolerance)

    # Just to the right of the vertex the concurrent lines are ordered
    # bottom-to-top by increasing slope; the level continues on the one with
    # exactly k lines below it overall.
    through_sorted = sorted(through.tolist(), key=lambda i: (slopes[i], intercepts[i]))
    rank = k - below_outside
    if rank < 0:
        rank = 0
    if rank >= len(through_sorted):
        rank = len(through_sorted) - 1
    after_slope = slopes[through_sorted[rank]]

    # Lines of the bundle that are strictly below the level just right of the
    # vertex but were not strictly below it just left of it.  To the left the
    # bundle is ordered bottom-to-top by *decreasing* slope, and the lines
    # strictly below the old level line are those with a larger slope.
    bundle = ids[through_sorted].tolist()
    entering = [line for line, i in zip(bundle, through_sorted)
                if slopes[i] < after_slope - 1e-15
                and slopes[i] <= slope_cur + 1e-15]
    vertex = LevelVertex(
        x=next_x,
        y=next_y,
        line_before=current,
        line_after=bundle[rank],
        is_convex=bool(after_slope > slope_cur + 1e-15),
        entering_lines=entering,
    )
    return vertex, heights, tolerance


def _band_around(everything: _Active, heights: np.ndarray,
                 vertex: LevelVertex, drift: float) -> _Active:
    """The ``_BAND`` lines nearest the level at ``vertex``, as an active set.

    ``heights`` are all lines' heights at the vertex and ``drift`` includes
    the vertex's own tolerance.  A line left out is more than ``reach`` from
    the level here.  Until one of them reaches the level, the level runs
    along band lines, so its slope lies in the band's slope range
    ``[s_lo, s_hi]`` and a left-out line of slope ``s`` closes its gap no
    faster than ``max(|s - s_lo|, |s - s_hi|)``.  Up to ``horizon`` — half
    the soonest such arrival — every left-out line is therefore still more
    than ``reach / 2`` from the chain the walk draws, less what the chain
    drifts, and on the side it started: while ``reach`` is ``_CLEARANCE``
    drifts wide the line is on no vertex, crosses no level edge, and counts
    below the level exactly if it does here.
    """
    gap = np.abs(heights - vertex.y)
    reach = float(np.partition(gap, _BAND)[_BAND])
    tolerance = _vertex_tolerance(vertex.x, vertex.y)
    if reach < _CLEARANCE * tolerance:
        # Too many lines too close: not even the line the level leaves the
        # vertex on is sure to be among the nearest.
        return everything
    outside = gap > reach
    ids = np.nonzero(~outside)[0]
    slopes = everything.slopes[ids]
    out_slopes = everything.slopes[outside]
    closing = np.maximum(np.abs(out_slopes - slopes.min()),
                         np.abs(out_slopes - slopes.max()))
    arrival = float((gap[outside] / closing).min(initial=math.inf))
    # Not ``heights < vertex.y - reach``: that rounded difference can also
    # catch the band line whose gap *is* ``reach`` and count it twice.
    below = np.count_nonzero(outside & (heights < vertex.y))
    return _Active(ids, slopes, everything.intercepts[ids], below,
                   cut_x=vertex.x, horizon=vertex.x + 0.5 * arrival,
                   limit=drift - tolerance + reach / _CLEARANCE)


def lines_below_point(lines: Sequence[Line2], x: float, y: float,
                      eps: float = _VERTEX_EPS) -> Set[int]:
    """Set of indices of lines passing strictly below ``(x, y)``.

    Used by the greedy clustering to seed each cluster with ``L_w`` (the
    lines below a boundary point) and by the tests as ground truth.
    """
    result: Set[int] = set()
    scale = max(1.0, abs(y))
    for index, line in enumerate(lines):
        if line.y_at(x) < y - eps * scale:
            result.add(index)
    return result


def lines_below_point_fast(slopes: np.ndarray, intercepts: np.ndarray,
                           x: float, y: float,
                           eps: float = _VERTEX_EPS) -> Set[int]:
    """Vectorised version of :func:`lines_below_point`."""
    heights = slopes * x + intercepts
    scale = max(1.0, abs(y))
    return set(np.nonzero(heights < y - eps * scale)[0].tolist())


def expected_level_complexity(num_lines: int, k: int) -> float:
    """The Clarkson–Shor expectation of Lemma 2.2 specialised to the plane.

    For a random level between ``k`` and ``2k`` the expected number of
    vertices is O(N): this helper returns the un-normalised reference value
    ``N`` used by the Figure-2 benchmark to compare measured complexities
    against the lemma.
    """
    if num_lines <= 0:
        raise ValueError("num_lines must be positive")
    if k <= 0:
        return float(num_lines)
    return float(num_lines)
