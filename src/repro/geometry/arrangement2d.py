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
the region below the level).  It steps over the few hundred lines nearest
the level (:func:`compute_level`) in runs of two-line vertices (:func:`_run`),
kept while just two lines pass through each and its below count gives the
crossing line its rank; the exact step takes over at the first that fails.
The paper uses the Edelsbrunner–Welzl sweep [22] instead, a substitution
("Substitutions" in README.md) that changes construction time only.
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

#: The most vertices one run proposes before it checks them.
_RUN = 32

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
    summed over its steps (a vertex a run proposed counts as one) and its
    passes over all lines — a count, so a test can bound it on any host.
    ``run_vertices`` came from checked runs; ``band_cuts`` counts passes.
    """

    k: int
    lines: LineArrays
    initial_line: int
    vertices: List[LevelVertex]
    work: int
    run_vertices: int = 0
    band_cuts: int = 0

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

    def lines_ranked_below(self, vertex: LevelVertex) -> List[int]:
        """The lines through ``vertex`` that rank below the level just to
        its right, in the walk's order there (slope, then intercept, then
        index): with the lines strictly below the vertex, the ``k`` lines
        below the level on the edge the vertex starts.  Two lines cross at
        a vertex in general position, and then this is its
        ``entering_lines``."""
        slopes, intercepts = self.lines.slopes, self.lines.intercepts
        heights = slopes * vertex.x + intercepts
        through = np.nonzero(np.abs(heights - vertex.y) <= _vertex_tolerance(
            vertex.x, vertex.y))[0].tolist()
        ordered = sorted(through, key=lambda i: (slopes[i], intercepts[i]))
        return ordered[:ordered.index(vertex.line_after)]


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
    taken on all lines.  In a band it steps by checked runs (:func:`_run`).
    Every vertex is the one a walk over all lines at every step reports.
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
    work = run_vertices = band_cuts = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while len(vertices) <= 4 * count * count:
            step = ended = None
            if vertices and (active is not everything or not banded):
                run, drift, proposed, ended = _run(
                    active, k, current, current_x, drift)
                work += proposed * len(active.ids)
                run_vertices += len(run)
                vertices.extend(run)
                if run:
                    current, current_x = run[-1].line_after, run[-1].x
                if len(run) == _RUN:
                    continue
            # A band cut is right anywhere; the walk's end is the exact step's.
            if not ended or active is everything:
                step = _next_vertex(active, k, current, current_x, drift)
                work += len(active.ids)
            if step is not None:
                vertex, heights, tolerance = step
                drift += tolerance
                vertices.append(vertex)
                current = vertex.line_after
                current_x = vertex.x
                if banded and active is everything:
                    active = _band_around(everything, heights, vertex, drift)
                    work += count
                    band_cuts += 1
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
                band_cuts += 1
        else:
            raise RuntimeError(
                "level walk did not terminate; the input is too "
                "degenerate for the floating-point tolerances in use")
    return Level(k, lines, initial_line, vertices, work, run_vertices,
                 band_cuts)


def _run(active: _Active, k: int, current: int, current_x: float,
         drift: float):
    """Up to ``_RUN`` two-line vertices where :func:`_next_vertex` would
    step, checked in one height matrix with its arithmetic: the vertices up
    to the first that fails, the drift after them, the count proposed, and
    whether the run held to where the exact step finds no vertex."""
    ids, slopes, intercepts = active.ids, active.slopes, active.intercepts
    path, proposed, drifts = [int(ids.searchsorted(current))], [], [drift]
    while len(proposed) < _RUN:
        slope, intercept = slopes[path[-1]], intercepts[path[-1]]
        # The line's own crossing is 0 / 0: dropped with those left of x.
        cross = (intercepts - intercept) / (slope - slopes)
        cross = np.where(cross > current_x + _VERTEX_EPS
                         * max(1.0, abs(current_x)), cross, np.inf)
        nearest = _nearest_crossing(cross)
        current_x = float(cross[nearest])
        y = float(slope * current_x + intercept)
        tolerance = _vertex_tolerance(current_x, y)
        ended = (math.isinf(current_x) or current_x > active.horizon
                 or drift + tolerance > active.limit)
        if ended or abs(slope - slopes[nearest]) < 1e-15:
            break
        drift += tolerance
        proposed.append((current_x, y, tolerance))
        drifts.append(drift)
        path.append(nearest)
    at_x, at_y, within = np.array(proposed).reshape(-1, 3).T
    heights = at_x[:, None] * slopes + intercepts
    line_slopes = slopes[path]
    below = active.below + np.count_nonzero(
        heights < (at_y - within)[:, None], axis=1)
    holds = (_two_line_bundles(heights, at_y, within, path[1:])
             & _ranks_agree(below, k, line_slopes[1:] > line_slopes[:-1]))
    kept = len(holds) if holds.all() else int(holds.argmin())
    numbers, line_slopes = ids[path].tolist(), line_slopes.tolist()
    run = [LevelVertex(x, y, numbers[r], numbers[r + 1],
                       line_slopes[r + 1] > line_slopes[r] + 1e-15,
                       [numbers[r]] if line_slopes[r]
                       < line_slopes[r + 1] - 1e-15 else [])
           for r, (x, y, __) in enumerate(proposed[:kept])]
    return run, drifts[kept], len(holds), ended and kept == len(holds)


def _nearest_crossing(cross: np.ndarray) -> int:
    """The proposal: the position of the nearest crossing in the row."""
    return int(cross.argmin())


def _two_line_bundles(heights, y, tol, after) -> np.ndarray:
    """Check one: just the level's line and line ``after`` pass through."""
    through = np.abs(heights - y[:, None]) <= tol[:, None]
    return ((np.count_nonzero(through, axis=1) == 2)
            & through[np.arange(len(after)), after])


def _ranks_agree(below, k: int, up) -> np.ndarray:
    """Check two: the unclamped rank ``k - below`` is 1 if ``up``, else 0."""
    return k - below == up


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


def lines_below_point_fast(slopes: np.ndarray, intercepts: np.ndarray,
                           x: float, y: float,
                           eps: float = _VERTEX_EPS) -> Set[int]:
    """Indices of the lines strictly below ``(x, y)`` (a cluster's ``L_w``)."""
    heights = slopes * x + intercepts
    scale = max(1.0, abs(y))
    return set(np.nonzero(heights < y - eps * scale)[0].tolist())
