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
the region below the level).  Walkers start at several abscissae along
the level and step in lock step (:func:`compute_level`), each over the few
hundred lines nearest it, in runs of two-line vertices: every round
proposes the next vertex of every walker's run from one crossing matrix,
and a run is kept while just two lines pass through each vertex and its
below count gives the crossing line its rank; the exact step takes over at
the first that fails.  A walker stops where its chain meets the next
walker's, so the level is one chain, vertex for vertex the one a single
walk from the left reports.  The paper uses the Edelsbrunner–Welzl sweep
[22] instead, a substitution ("Substitutions" in README.md) that changes
construction time only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Set

import numpy as np

from repro.geometry.primitives import Line2

#: Relative tolerance used when grouping concurrent lines at a level vertex.
_VERTEX_EPS = 1e-9

#: How many of the lines nearest the level the walk keeps active between
#: two passes over all of them.
_BAND = 384

#: The most vertices one run proposes before it checks them.
_RUN = 32

#: How many walkers walk a level of more than ``2 * _BAND`` lines; a
#: smaller level is walked by one.
_WALKERS = 16

#: How many random line pairs the walkers' starts are spread by.
_PAIRS = 2048

#: A band is trusted while its ``reach`` is at least this many times what
#: the walk has drifted since the band was cut (so ``reach / 8`` dwarfs the
#: vertex tolerance and the rounding noise below it).
_CLEARANCE = 32.0


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
    ``run_vertices`` came from checked runs; ``band_cuts`` counts passes;
    ``lock_steps`` counts the rounds in which the ``walkers`` proposed
    their next vertices together, and ``stitch_fallbacks`` the walkers
    dropped because a vertex before them contradicted their chain.
    """

    k: int
    lines: LineArrays
    initial_line: int
    vertices: List[LevelVertex]
    work: int
    run_vertices: int = 0
    band_cuts: int = 0
    lock_steps: int = 0
    walkers: int = 1
    stitch_fallbacks: int = 0

    @property
    def complexity(self) -> int:
        """Number of vertices of the level (the paper's |Λ|)."""
        return len(self.vertices)

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

    A step needs only the lines near the level, so after a vertex a walker
    keeps the ``_BAND`` lines nearest it and steps among those for as long
    as :func:`_band_around` proves the others cannot matter, then cuts a new
    band where it stands; a step that even a new band cannot vouch for is
    taken on all lines.  In a band it steps by checked runs.

    The level is x-monotone and a step depends only on the line the walk
    is on and where, so a level of more than ``2 * _BAND`` lines is walked
    by ``_WALKERS`` walkers, started on the level's line at abscissae spread
    like its vertices (:func:`_starts`), in lock step (:class:`_Walk`).  A
    walker stops at its first vertex past the next walker's start that is
    one of that walker's vertices, and the level goes on along that
    walker's chain; a walker whose chain a vertex before it contradicts is
    dropped (a stitch fallback), and the one before walks its stretch too.
    Every vertex is the one a walk over all lines at every step, from the
    left, reports.
    """
    lines = LineArrays.of(lines)
    count = len(lines)
    if not 0 <= k < count:
        raise ValueError("level index k=%d out of range for %d lines" % (k, count))

    # At x = -infinity the lines are ordered bottom-to-top by decreasing
    # slope (ties broken by intercept, then index), so the line with exactly
    # k lines below it is the one of rank k in that order: past the lines
    # of steeper slope, among those of the rank-k slope.
    steepness = -lines.slopes
    steep = steepness[np.argpartition(steepness, k)[k]]
    tied = np.flatnonzero(steepness == steep)
    initial_line = int(tied[np.argsort(lines.intercepts[tied], kind="stable")]
                       [k - np.count_nonzero(steepness < steep)])
    walk = _Walk(lines, k)
    first = _Walker(-math.inf, walk.everything, initial_line, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        walkers = [first] + [walk.start(x) for x in _starts(
            lines, _WALKERS - 1 if walk.banded else 0)]
        for walker, following in zip(walkers, walkers[1:] + [None]):
            walker.aim(following)
        walk.walk(walkers)
    vertices, walker, begin = [], first, 0
    while True:
        vertices.extend(walker.vertices[begin:])
        if walker.joined is None:
            break
        begin, walker = walker.joined + 1, walker.target
    return Level(k, lines, initial_line, vertices, walk.work,
                 walk.run_vertices, walk.band_cuts, walk.lock_steps,
                 len(walkers), walk.fallbacks)


class _Walker:
    """One walker: the line it is on at ``x``, the lines it steps among and
    the drift it has spent, the vertices it has found, and the run it is
    proposing.

    It started at ``start`` (``-inf`` for the first) and walks until one of
    its vertices past ``target``'s start is one of ``target``'s vertices —
    it then keeps its vertices up to that one and ``joined`` is that
    vertex's position in ``target``'s — or until the level ends or the
    walker before it drops it.  ``checked`` is the position of its vertex
    compared last.

    A run (:meth:`_Walk._ready`) proposes from the band in row ``row`` of
    the walk's band matrices until a vertex past ``stop``, the target's
    start: ``path`` are the band positions of its lines, ``run`` its
    vertices' ``(x, y, tolerance)``, ``drifts`` the drift before and after
    each, ``slope``, ``intercept`` and ``after`` the line it is on and
    where its next crossing must lie.
    """

    __slots__ = ("start", "x", "active", "line", "drift", "vertices",
                 "target", "live", "joined", "checked", "row", "band",
                 "stop", "running", "path", "run", "drifts", "slope",
                 "intercept", "after", "ended")

    def __init__(self, start: float, active: _Active, line: int,
                 drift: float):
        self.start = self.x = start
        self.active, self.line, self.drift = active, line, drift
        self.vertices: List[LevelVertex] = []
        self.target: Optional[_Walker] = None
        self.live = True
        self.joined: Optional[int] = None
        self.checked = 0
        self.band: Optional[_Active] = None

    def add(self, vertices: List[LevelVertex]) -> None:
        self.vertices.extend(vertices)
        self.line, self.x = vertices[-1].line_after, vertices[-1].x

    def aim(self, target: Optional["_Walker"]) -> None:
        self.target = target
        self.stop = math.inf if target is None else target.start


class _Walk:
    """One level's walkers in lock step, and the counts :class:`Level`
    reports.  ``bands[r]`` holds the slopes and intercepts of the band of
    the walker in row ``r``, padded with lines of slope 0 at height +inf,
    which cross nothing and pass through no vertex."""

    def __init__(self, lines: LineArrays, k: int):
        self.lines, self.k = lines, k
        self.everything = _Active(np.arange(len(lines)), lines.slopes,
                                  lines.intercepts)
        self.banded = len(lines) > 2 * _BAND
        self.work = self.run_vertices = self.band_cuts = 0
        self.lock_steps = self.fallbacks = 0

    def start(self, x: float) -> _Walker:
        """A walker on the level's line at abscissa ``x``, and its band."""
        heights = self.lines.slopes * x + self.lines.intercepts
        line = _line_of_rank(heights, self.k)
        y = float(heights[line])
        walker = _Walker(x, self.everything, line, _vertex_tolerance(x, y))
        self.work += len(heights)
        if self.banded:
            walker.active = self._cut(walker, x, y, heights)
        return walker

    def _cut(self, walker: _Walker, x: float, y: float,
             heights: np.ndarray) -> _Active:
        """``walker``'s band around ``(x, y)``, in a pass over all lines,
        whose ``heights`` at ``x`` are given."""
        self.work += len(heights)
        self.band_cuts += 1
        return _band_around(self.everything, heights, x, y, walker.drift)

    def walk(self, walkers: List[_Walker]) -> None:
        """Step ``walkers`` in lock step until none is live."""
        self.live: List[_Walker] = list(walkers)
        self.bands = np.zeros((len(walkers), 2, _BAND + 1))
        self.bands[:, 1] = np.inf
        self.rows = np.arange(len(walkers))
        for row, walker in enumerate(walkers):
            walker.row = row
            self._ready(walker)
        while self.live:
            self._round()

    def _ready(self, walker: _Walker) -> None:
        """Set ``walker`` to propose a run from where it stands, if it can:
        after its first vertex, on a band or on all lines of a level too
        small for bands."""
        active = walker.active
        walker.running = walker.x > -math.inf and (
            active is not self.everything or not self.banded)
        if not walker.running:
            return
        if walker.band is not active:
            size = len(active.ids)
            if size > self.bands.shape[2]:
                wider = np.zeros(self.bands.shape[:2] + (size,))
                wider[:, 1] = np.inf
                wider[:, :, :self.bands.shape[2]] = self.bands
                self.bands = wider
            row = self.bands[walker.row]
            row[0, :size], row[1, :size] = active.slopes, active.intercepts
            row[0, size:], row[1, size:] = 0.0, np.inf
            walker.band = active
        here = int(active.ids.searchsorted(walker.line))
        walker.path, walker.run, walker.drifts = [here], [], [walker.drift]
        walker.slope = float(active.slopes[here])
        walker.intercept = float(active.intercepts[here])
        walker.after = walker.x + _VERTEX_EPS * max(1.0, abs(walker.x))
        walker.ended = False

    def _round(self) -> None:
        """Propose the next vertex of every running walker's run, all from
        one crossing matrix, where :func:`_next_vertex` would step; then
        settle the walkers whose runs stopped."""
        runners: List[_Walker] = []
        stopped: List[_Walker] = []
        for walker in self.live:
            (runners if walker.running else stopped).append(walker)
        if runners:
            self.lock_steps += 1
            bands = (self.bands if len(runners) == len(self.live)
                     else self.bands[[walker.row for walker in runners]])
            slopes, intercepts = bands[:, 0], bands[:, 1]
            lines = np.array([(walker.slope, walker.intercept, walker.after)
                              for walker in runners])
            # The line's own crossing is 0 / 0: dropped with those left of x.
            cross = intercepts - lines[:, 1:2]
            cross /= lines[:, :1] - slopes
            np.putmask(cross, ~(cross > lines[:, 2:]), np.inf)
            nearest = _nearest_crossing(cross)
            rows = self.rows[:len(runners)]
            for walker, x, at, (slope, intercept) in zip(
                    runners, cross[rows, nearest].tolist(), nearest.tolist(),
                    bands[rows, :, nearest].tolist()):
                y = walker.slope * x + walker.intercept
                tolerance = _VERTEX_EPS * max(1.0, abs(y), abs(x))
                drift = walker.drifts[-1] + tolerance
                active = walker.active
                if math.isinf(x) or x > active.horizon or drift > active.limit:
                    walker.ended = True
                    stopped.append(walker)
                elif abs(walker.slope - slope) < 1e-15:
                    stopped.append(walker)
                else:
                    walker.run.append((x, y, tolerance))
                    walker.drifts.append(drift)
                    walker.path.append(at)
                    walker.slope, walker.intercept = slope, intercept
                    walker.after = x + _VERTEX_EPS * max(1.0, abs(x))
                    if len(walker.run) == _RUN or x > walker.stop:
                        stopped.append(walker)
        if not stopped:
            return
        for walker in stopped:
            self._step(walker, self._check(walker) if walker.running
                       else None)
            if walker.live:
                self._ready(walker)
        self._stitch()
        if not all(walker.live for walker in self.live):
            self.live = [walker for walker in self.live if walker.live]
            self.bands = self.bands[[walker.row for walker in self.live]]
            for row, walker in enumerate(self.live):
                walker.row = row

    def _check(self, walker: _Walker):
        """``walker``'s run checked in one height matrix with the exact
        step's arithmetic: the vertices up to its first that fails, the
        drift after them, the count proposed, whether the run held to
        where the exact step finds no vertex, and whether it held past the
        target's start."""
        active, path, proposed = walker.active, walker.path, walker.run
        kept = 0
        if proposed:
            at_x, at_y, within = np.array(proposed).T
            heights = np.multiply.outer(at_x, active.slopes)
            heights += active.intercepts
            line_slopes = active.slopes[path]
            below = active.below + (
                heights < (at_y - within)[:, None]).sum(axis=1)
            holds = (_two_line_bundles(heights, at_y, within, path[1:])
                     & _ranks_agree(below, self.k,
                                    line_slopes[1:] > line_slopes[:-1]))
            kept = len(holds) if holds.all() else int(holds.argmin())
            slopes = line_slopes[:kept + 1].tolist()
        numbers = active.ids[path[:kept + 1]].tolist()
        run = [LevelVertex(x, y, numbers[r], numbers[r + 1],
                           slopes[r + 1] > slopes[r] + 1e-15,
                           [numbers[r]] if slopes[r] < slopes[r + 1] - 1e-15
                           else [])
               for r, (x, y, __) in enumerate(proposed[:kept])]
        whole = kept == len(proposed)
        passed = whole and bool(proposed) and proposed[-1][0] > walker.stop
        return (run, walker.drifts[kept], len(proposed),
                walker.ended and whole, passed)

    def _step(self, walker: _Walker, outcome) -> None:
        """Take ``walker`` on from its checked run (``None``: it did not
        run), as the banded walk of one walker does."""
        everything = self.everything
        if len(walker.vertices) > 4 * len(self.lines) ** 2:
            raise RuntimeError(
                "level walk did not terminate; the input is too "
                "degenerate for the floating-point tolerances in use")
        step = ended = None
        if outcome is not None:
            run, walker.drift, proposed, ended, passed = outcome
            self.work += proposed * len(walker.active.ids)
            self.run_vertices += len(run)
            if run:
                walker.add(run)
            if len(run) == _RUN or passed:
                return
        # A band cut is right anywhere; the walk's end is the exact step's.
        if not ended or walker.active is everything:
            step = _next_vertex(walker.active, self.k, walker.line,
                                walker.x, walker.drift)
            self.work += len(walker.active.ids)
        if step is not None:
            vertex, heights, tolerance = step
            walker.drift += tolerance
            walker.add([vertex])
            if self.banded and walker.active is everything:
                walker.active = self._cut(walker, vertex.x, vertex.y,
                                          heights)
        elif walker.active is everything:
            walker.live = False   # the level ends
        elif walker.active.cut_x == walker.x:
            # Not even a band cut here vouches for the step: all lines.
            walker.active = everything
        else:
            # The band has run out: cut a new one where the walker stands.
            vertex = walker.vertices[-1]
            walker.active = self._cut(
                walker, vertex.x, vertex.y,
                self.lines.slopes * vertex.x + self.lines.intercepts)

    def _stitch(self) -> None:
        """Stop each walker at its first vertex past its target's start
        that is one of its target's vertices.  A vertex there that the
        target's chain does not have — the target walked as far, or
        stopped — shows that chain is not the level's: the target is
        dropped and the walker walks on towards the target's target.
        Right to left, so a target has stopped before it is compared."""
        for walker in reversed(self.live):
            while walker.live and walker.x > walker.stop:
                target, vertices = walker.target, walker.vertices
                walker.checked = max(walker.checked, bisect.bisect_right(
                    vertices, target.start, key=_abscissa))
                vertex = vertices[walker.checked]
                if target.live and target.x < vertex.x:
                    break   # the target has not got this far yet
                at = bisect.bisect_left(target.vertices, vertex.x,
                                        key=_abscissa)
                if at < len(target.vertices) and target.vertices[at] == vertex:
                    del vertices[walker.checked + 1:]
                    walker.joined, walker.live = at, False
                else:
                    target.live = False
                    walker.aim(target.target)
                    self.fallbacks += 1


def _abscissa(vertex: LevelVertex) -> float:
    return vertex.x


def _starts(lines: LineArrays, count: int) -> List[float]:
    """``count`` abscissae that cut a level's vertices into stretches of
    similar length, or fewer: the quantiles of the crossings of ``_PAIRS``
    random line pairs, each the midpoint of two neighbouring crossings, so
    that no start is a crossing itself."""
    if count < 1:
        return []
    first, second = np.random.default_rng(len(lines)).integers(
        0, len(lines), (2, _PAIRS))
    cross = ((lines.intercepts[second] - lines.intercepts[first])
             / (lines.slopes[first] - lines.slopes[second]))
    cross = np.sort(cross[np.isfinite(cross)])
    if len(cross) < 2:
        return []
    at = np.arange(1, count + 1) * (len(cross) - 1) // (count + 1)
    return sorted(set((0.5 * (cross[at] + cross[at + 1])).tolist()))


def _line_of_rank(heights: np.ndarray, k: int) -> int:
    """The line with ``k`` lines below it at the heights given."""
    return int(np.argpartition(heights, k)[k])


def _nearest_crossing(cross: np.ndarray) -> np.ndarray:
    """The proposal: the position of the nearest crossing in each row."""
    return cross.argmin(axis=1)


def _two_line_bundles(heights, y, tol, after) -> np.ndarray:
    """Check one: just the level's line and line ``after`` pass through."""
    through = np.abs(heights - y[:, None]) <= tol[:, None]
    return ((through.sum(axis=1) == 2)
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


def _band_around(everything: _Active, heights: np.ndarray, x: float,
                 y: float, drift: float) -> _Active:
    """The ``_BAND`` lines nearest the level at ``(x, y)``, as an active set.

    ``heights`` are all lines' heights at ``x``, and ``drift`` includes
    the tolerance of ``(x, y)``.  A line left out is more than ``reach``
    from the level here.  Until one of them reaches the level, the level
    runs along band lines, so its slope lies in the band's slope range
    ``[s_lo, s_hi]``: a left-out line of slope ``s`` above the level closes
    its gap no faster than ``s_hi - s``, one below no faster than
    ``s - s_lo``, and one that cannot close it never arrives.  Up to
    ``horizon`` — seven eighths of the soonest arrival — every left-out
    line is therefore still more than ``reach / 8`` from the chain the
    walk draws, less what the chain drifts, and on the side it started:
    while ``reach`` is ``_CLEARANCE`` drifts wide, ``3 * reach / 32`` clear
    of it, the line is on no vertex, crosses no level edge, and counts
    below the level exactly if it does here.
    """
    gap = heights - y
    np.abs(gap, out=gap)
    reach = float(np.partition(gap, _BAND)[_BAND])
    tolerance = _vertex_tolerance(x, y)
    if reach < _CLEARANCE * tolerance:
        # Too many lines too close: not even the line the level leaves the
        # vertex on is sure to be among the nearest.
        return everything
    inside = gap <= reach
    ids = np.flatnonzero(inside)
    slopes = everything.slopes[ids]
    # Not ``heights < y - reach``: that rounded difference can also catch
    # the band line whose gap *is* ``reach`` and count it twice.
    under = heights < y
    closing = everything.slopes - slopes.min()
    np.subtract(slopes.max(), everything.slopes, out=closing, where=~under)
    np.maximum(closing, 0.0, out=closing)
    arrival = np.divide(gap, closing, out=gap)
    np.putmask(arrival, inside, np.inf)
    return _Active(ids, slopes, everything.intercepts[ids],
                   int(np.count_nonzero(under))
                   - int(np.count_nonzero(under[ids])), cut_x=x,
                   horizon=x + 0.875 * float(arrival.min()),
                   limit=drift - tolerance + reach / _CLEARANCE)


def lines_below_point_fast(slopes: np.ndarray, intercepts: np.ndarray,
                           x: float, y: float) -> Set[int]:
    """Indices of the lines strictly below ``(x, y)`` (a cluster's ``L_w``)."""
    heights = slopes * x + intercepts
    scale = max(1.0, abs(y))
    return set(np.nonzero(heights < y - _VERTEX_EPS * scale)[0].tolist())
