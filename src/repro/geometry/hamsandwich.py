"""Two-dimensional ham-sandwich cuts and Willard-style partitions.

A ham-sandwich cut of two planar point sets is a line that simultaneously
bisects both.  Willard's classic partition tree splits a point set into four
quadrants by a pair of such cuts; any query line then misses at least one
quadrant, which yields an O(n^{log_4 3}) query bound.  We use this
partitioner as an *ablation* against the default median-cut partitioner of
:mod:`repro.geometry.partitions` (benchmark ABL-PART, see "Substitutions"
in README.md).

The cut itself is found by a practical rotating-direction search: for a
fixed direction the line bisecting the first set is unique (median of the
projections), and by the ham-sandwich theorem its imbalance on the second
set changes sign as the direction rotates by pi; a sign-change bracket plus
bisection finds a direction where both sets are bisected up to a one-point
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.boxes import Box
from repro.geometry.partitions import PartitionCell

#: Directions a cut search samples over a half turn, bisection steps it
#: spends on a bracketed sign change, and the imbalance (in points) it
#: accepts on each set.
_SAMPLES = 64
_REFINEMENTS = 40
_TOLERANCE = 1


@dataclass(frozen=True)
class OrientedLine:
    """A directed line ``{p : normal . p = offset}`` used for bisections."""

    normal: Tuple[float, float]
    offset: float

    def side(self, point: Sequence[float]) -> float:
        """Signed value ``normal . p - offset`` (positive on one side)."""
        return self.normal[0] * point[0] + self.normal[1] * point[1] - self.offset


def _median_line_for_direction(points: np.ndarray, angle: float) -> OrientedLine:
    """The line orthogonal to ``angle`` splitting ``points`` at the median."""
    normal = (math.cos(angle), math.sin(angle))
    projections = points[:, 0] * normal[0] + points[:, 1] * normal[1]
    offset = float(np.median(projections))
    return OrientedLine(normal=normal, offset=offset)


def _imbalance(points: np.ndarray, line: OrientedLine) -> int:
    """(# points strictly on the positive side) - (# strictly negative)."""
    values = points[:, 0] * line.normal[0] + points[:, 1] * line.normal[1] - line.offset
    positive = int(np.sum(values > 1e-12))
    negative = int(np.sum(values < -1e-12))
    return positive - negative


def ham_sandwich_cut(red: np.ndarray,
                     blue: np.ndarray) -> Optional[OrientedLine]:
    """Find a line simultaneously bisecting ``red`` and ``blue``.

    Returns a line whose imbalance on each set is at most ``_TOLERANCE``
    points, or None if the search fails (degenerate inputs).  The search
    samples directions, brackets a sign change of the blue imbalance of the
    red-median line, and bisects the bracket.
    """
    red = np.asarray(red, dtype=float)
    blue = np.asarray(blue, dtype=float)
    if len(red) == 0 or len(blue) == 0:
        return None

    def blue_imbalance(angle: float) -> Tuple[int, OrientedLine]:
        line = _median_line_for_direction(red, angle)
        return _imbalance(blue, line), line

    best_line: Optional[OrientedLine] = None
    best_score = None
    previous_angle = 0.0
    previous_value, previous_line = blue_imbalance(previous_angle)
    if abs(previous_value) <= _TOLERANCE \
            and abs(_imbalance(red, previous_line)) <= _TOLERANCE:
        return previous_line
    for step in range(1, _SAMPLES + 1):
        angle = math.pi * step / _SAMPLES
        value, line = blue_imbalance(angle)
        score = abs(value) + abs(_imbalance(red, line))
        if best_score is None or score < best_score:
            best_score = score
            best_line = line
        if abs(value) <= _TOLERANCE \
                and abs(_imbalance(red, line)) <= _TOLERANCE:
            return line
        if (previous_value > 0) != (value > 0):
            refined = _refine_bracket(red, blue, previous_angle, angle)
            if refined is not None:
                return refined
        previous_angle, previous_value = angle, value
    # Fall back to the best line seen; callers treat imbalanced cuts as a
    # degraded but still correct partition (correctness never depends on the
    # cut being an exact bisection).
    return best_line


def _refine_bracket(red: np.ndarray, blue: np.ndarray, low: float,
                    high: float) -> Optional[OrientedLine]:
    low_value = _imbalance(blue, _median_line_for_direction(red, low))
    for __ in range(_REFINEMENTS):
        middle = (low + high) / 2.0
        line = _median_line_for_direction(red, middle)
        value = _imbalance(blue, line)
        if abs(value) <= _TOLERANCE \
                and abs(_imbalance(red, line)) <= _TOLERANCE:
            return line
        if (value > 0) == (low_value > 0):
            low, low_value = middle, value
        else:
            high = middle
    return None


def ham_sandwich_partition(points: np.ndarray, r: int,
                           indices: Optional[np.ndarray] = None
                           ) -> List[PartitionCell]:
    """Partition a planar point set into ~r cells by recursive ham-sandwich cuts.

    Each recursion step splits the current subset into the four quadrants of
    a pair of cuts (first a median line by x, then a ham-sandwich cut of the
    two halves), quartering the subset; recursion proceeds on the largest
    piece until ``r`` pieces exist.  Cells are reported as bounding boxes of
    their subsets, exactly like the median-cut partitioner, so the partition
    trees can consume either interchangeably.
    """
    if r < 1:
        raise ValueError("partition size r must be >= 1, got %r" % r)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("ham_sandwich_partition expects planar points (N, 2)")
    if indices is None:
        indices = np.arange(len(points))
    if len(indices) == 0:
        return []
    pieces: List[np.ndarray] = [indices]
    while len(pieces) < r:
        largest_position = max(range(len(pieces)), key=lambda i: len(pieces[i]))
        largest = pieces[largest_position]
        if len(largest) <= 4:
            break
        quadrants = _quarter(points, largest)
        if quadrants is None:
            break
        pieces.pop(largest_position)
        pieces.extend(quadrants)
    cells: List[PartitionCell] = []
    for piece in pieces:
        if len(piece) == 0:
            continue
        box = Box.of_points(points[piece])
        cells.append(PartitionCell(indices=piece, cell=box))
    return cells


def _quarter(points: np.ndarray, indices: np.ndarray) -> Optional[List[np.ndarray]]:
    """Split ``indices`` into four quadrants via a median line + ham-sandwich cut."""
    subset = points[indices]
    order = np.argsort(subset[:, 0], kind="mergesort")
    middle = len(order) // 2
    left, right = indices[order[:middle]], indices[order[middle:]]
    if len(left) == 0 or len(right) == 0:
        return None
    cut = ham_sandwich_cut(points[left], points[right])
    if cut is None:
        return None
    quadrants: List[np.ndarray] = []
    for half in (left, right):
        values = (points[half, 0] * cut.normal[0]
                  + points[half, 1] * cut.normal[1] - cut.offset)
        quadrants.append(half[values <= 0])
        quadrants.append(half[values > 0])
    return [quadrant for quadrant in quadrants if len(quadrant) > 0]
