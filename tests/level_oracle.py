"""The O(N)-per-vertex k-level walk, kept as the reference for the banded one.

This is the walk ``repro.geometry.arrangement2d.compute_level`` performed
before it learnt to step inside an active band: every vertex is derived
from *all* lines.  The banded walk's contract is field-by-field equality
with what this returns (``tests/test_level_walk.py``), so every tolerance,
tie order and clamp below is the specification — do not "fix" them here.
``line_at`` and ``y_at`` read a level at an abscissa; only tests need them.
:func:`check_level` is the structural judge: what any k-level is, whichever
walk made it.
"""

import math

import numpy as np

from repro.geometry.arrangement2d import Level, LevelVertex, LineArrays

_VERTEX_EPS = 1e-9


def oracle_compute_level(lines, k):
    """Walk the k-level of ``lines`` left to right, all lines at every step."""
    count = len(lines)
    if not 0 <= k < count:
        raise ValueError("level index k=%d out of range for %d lines" % (k, count))
    slopes = np.array([line.slope for line in lines], dtype=float)
    intercepts = np.array([line.intercept for line in lines], dtype=float)

    order = sorted(range(count),
                   key=lambda i: (-lines[i].slope, lines[i].intercept))
    current = order[k]
    current_x = -math.inf

    vertices = []
    initial_line = current
    while True:
        step = _next_vertex(lines, slopes, intercepts, k, current, current_x)
        if step is None:
            break
        vertex, current = step
        vertices.append(vertex)
        current_x = vertex.x
        if len(vertices) > 4 * count * count:
            raise RuntimeError("level walk did not terminate")
    return Level(k=k, lines=LineArrays(slopes, intercepts),
                 initial_line=initial_line, vertices=vertices,
                 work=count * (len(vertices) + 1))


def check_level(lines, k, level):
    """Raise AssertionError unless ``level`` is the ``k``-level of
    ``lines`` as an x-monotone chain (levels count from 0: the level the
    paper numbers k + 1).

    * the vertices' abscissae strictly increase;
    * each vertex lies on the two lines its record names, the first of
      them the line of the edge before it;
    * exactly k lines lie strictly below the midpoint of each edge (the
      unbounded ones at one unit past their vertex) — when several lines
      pass through it, at most k do, and k is below the count on or below
      it — within the walk's tolerance;
    * the complexity is the number of direction changes: a vertex joins
      lines of different slopes, except where three or more lines meet
      (a degenerate crossing the walk reports even when the level keeps
      its line, or moves to a coincident one).
    """
    lines = LineArrays.of(lines)
    slopes, intercepts = lines.slopes, lines.intercepts
    vertices = level.vertices
    assert level.k == k, "the level says k=%d, not %d" % (level.k, k)
    xs = np.array([vertex.x for vertex in vertices], dtype=float)
    assert np.all(np.diff(xs) > 0), "the vertices are not x-monotone"
    current, kept = level.initial_line, 0
    for position, vertex in enumerate(vertices):
        assert vertex.line_before == current, \
            "vertex %d leaves line %d, the chain is on %d" % (
                position, vertex.line_before, current)
        tolerance = _VERTEX_EPS * max(1.0, abs(vertex.x), abs(vertex.y))
        for line in (vertex.line_before, vertex.line_after):
            height = slopes[line] * vertex.x + intercepts[line]
            assert abs(height - vertex.y) <= tolerance, \
                "vertex %d is off line %d" % (position, line)
        if slopes[vertex.line_before] == slopes[vertex.line_after]:
            heights = slopes * vertex.x + intercepts
            assert np.count_nonzero(abs(heights - vertex.y) <= tolerance) \
                >= 3, "vertex %d keeps the level's slope at a crossing of " \
                "two lines" % position
            kept += 1
        current = vertex.line_after
    edges = [level.initial_line] + [vertex.line_after for vertex in vertices]
    if len(xs):
        middles = np.concatenate(([xs[0] - 1.0], (xs[:-1] + xs[1:]) / 2,
                                  [xs[-1] + 1.0]))
    else:
        middles = np.zeros(1)
    on = slopes[edges] * middles + intercepts[edges]
    for start in range(0, len(middles), 256):
        x, y = middles[start:start + 256], on[start:start + 256]
        heights = np.outer(x, slopes) + intercepts
        reach = _VERTEX_EPS * np.maximum(1.0, np.maximum(abs(x), abs(y)))
        below = np.count_nonzero(heights < (y - reach)[:, None], axis=1)
        through = np.count_nonzero(abs(heights - y[:, None])
                                   <= reach[:, None], axis=1)
        wrong = np.flatnonzero((below > k) | (below + through <= k))
        assert not len(wrong), "edge %d has %d lines below it and %d "\
            "through it, not level %d" % (start + wrong[0], below[wrong[0]],
                                          through[wrong[0]], k)
    turns = sum(slopes[vertex.line_before] != slopes[vertex.line_after]
                for vertex in vertices)
    assert level.complexity == turns + kept == len(vertices), \
        "%d vertices, %d direction changes" % (level.complexity, turns)


def line_at(level, x):
    """Index of the line realising ``level`` at abscissa ``x``."""
    current = level.initial_line
    for vertex in level.vertices:
        if vertex.x > x:
            break
        current = vertex.line_after
    return current


def y_at(level, x):
    """Height of ``level`` at abscissa ``x``."""
    return level.lines[line_at(level, x)].y_at(x)


def level_of_point(lines, x, y, eps=_VERTEX_EPS):
    """Number of lines strictly below the point ``(x, y)`` (its *level*)."""
    return sum(1 for line in lines if line.y_at(x) < y - eps)


def lines_below_point(lines, x, y, eps=_VERTEX_EPS):
    """Set of indices of lines passing strictly below ``(x, y)``, one line
    at a time (the clustering's ``lines_below_point_fast`` is its vector
    form)."""
    scale = max(1.0, abs(y))
    return {index for index, line in enumerate(lines)
            if line.y_at(x) < y - eps * scale}


def _next_vertex(lines, slopes, intercepts, k, current, current_x):
    slope_cur = slopes[current]
    intercept_cur = intercepts[current]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = slope_cur - slopes
        cross_x = (intercepts - intercept_cur) / denom
    cross_x[current] = np.inf
    cross_x[np.abs(denom) < 1e-15] = np.inf
    if math.isinf(current_x):
        candidates = cross_x
    else:
        scale = max(1.0, abs(current_x))
        candidates = np.where(cross_x > current_x + _VERTEX_EPS * scale,
                              cross_x, np.inf)
    next_x = float(np.min(candidates))
    if math.isinf(next_x):
        return None
    next_y = float(lines[current].y_at(next_x))

    heights = slopes * next_x + intercepts
    tolerance = _VERTEX_EPS * max(1.0, abs(next_y), abs(next_x))
    through = np.nonzero(np.abs(heights - next_y) <= tolerance)[0]
    below_outside = int(np.sum(heights < next_y - tolerance))

    through_sorted = sorted(through.tolist(), key=lambda i: (slopes[i], intercepts[i]))
    rank = k - below_outside
    if rank < 0:
        rank = 0
    if rank >= len(through_sorted):
        rank = len(through_sorted) - 1
    new_current = through_sorted[rank]

    before_slope = slopes[current]
    after_slope = slopes[new_current]
    entering = [i for i in through_sorted
                if slopes[i] < after_slope - 1e-15
                and slopes[i] <= before_slope + 1e-15]
    is_convex = after_slope > before_slope + 1e-15

    vertex = LevelVertex(
        x=next_x,
        y=next_y,
        line_before=current,
        line_after=new_current,
        is_convex=is_convex,
        entering_lines=entering,
    )
    return vertex, new_current
