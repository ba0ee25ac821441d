"""The O(N)-per-vertex k-level walk, kept as the reference for the banded one.

This is the walk ``repro.geometry.arrangement2d.compute_level`` performed
before it learnt to step inside an active band: every vertex is derived
from *all* lines.  The banded walk's contract is field-by-field equality
with what this returns (``tests/test_level_walk.py``), so every tolerance,
tie order and clamp below is the specification — do not "fix" them here.
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
