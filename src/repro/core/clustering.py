"""Greedy level clustering (Section 3.1, Lemma 3.2).

A *b-clustering* of the k-level of a set of lines is a left-to-right
sequence of clusters, each covering an x-interval of the level and
containing every line that passes strictly below the level somewhere in
that interval, with at most ``b`` lines per cluster.  Lemma 3.2 shows that
the greedy construction — start each cluster with the lines below its left
boundary point and close the cluster whenever a new line will not fit in
the ``3k`` budget — produces at most ``N/k`` clusters.

The implementation walks the level vertices produced by
:func:`repro.geometry.arrangement2d.compute_level`.  Lines enter the region
below the level only at convex vertices (the level's ``entering_lines``),
which is where the greedy algorithm adds them.

"Below the level" is the walk's rank order, which breaks ties between
lines through one point by slope, intercept and index: a cluster holds,
everywhere on its interval, the ``k`` lines that rank below the level.
In general position those are the lines strictly below it.  On degenerate
input some of them lie *on* the level — copies of the level's line (a
duplicated point) and lines through a vertex where three or more meet —
and the cluster holds them too, so at every abscissa of its interval it
has at least ``k`` lines on or below the level.  That is the relation
Lemma 3.1's early exit needs when the query point lies on the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.geometry.arrangement2d import Level, lines_below_point_fast


@dataclass
class Cluster:
    """One cluster of a level clustering.

    ``lines`` are indices into the level's line list (insertion order);
    ``x_from``/``x_to`` delimit the x-interval of the level the cluster is
    responsible for (``x_from`` of the first cluster is ``-inf`` and
    ``x_to`` of the last is ``+inf``).
    """

    lines: List[int] = field(default_factory=list)
    x_from: float = -math.inf
    x_to: float = math.inf

    @property
    def size(self) -> int:
        """Number of lines in the cluster."""
        return len(self.lines)

    def covers(self, x: float) -> bool:
        """True if the cluster is the one *relevant* for abscissa ``x``."""
        return self.x_from <= x < self.x_to


def greedy_clustering(level: Level, width: int) -> List[Cluster]:
    """Build the greedy ``width``-clustering of ``level`` (Lemma 3.2).

    ``width`` is the cluster capacity, i.e. the paper's ``3k`` (made a
    parameter so the ablation benchmark can vary the factor).
    """
    if width < 1:
        raise ValueError("cluster width must be >= 1, got %r" % width)
    lines = level.lines
    slopes, intercepts = lines.slopes, lines.intercepts
    copies_below = _copies_below(slopes, intercepts)

    clusters: List[Cluster] = []

    def seed_cluster(x_from: float, seed_x: float, seed_y: float,
                     on_level: Sequence[int]) -> Cluster:
        """Start a cluster at ``x_from`` containing the lines below the
        seed point, then the lines ``on_level`` through it that rank below
        the level."""
        members = lines_below_point_fast(slopes, intercepts, seed_x, seed_y)
        cluster = Cluster(x_from=x_from)
        cluster.lines = sorted(members) + [
            line for line in on_level if line not in members]
        cluster._member_set = set(cluster.lines)  # type: ignore[attr-defined]
        return cluster

    # The first boundary point w_0 sits at x = -infinity; any abscissa left
    # of every vertex sees the same set of lines below the level.
    start_x = level.sample_point_before_first_vertex()
    start_y = lines[level.initial_line].y_at(start_x)
    current = seed_cluster(-math.inf, start_x, start_y,
                           copies_below.get(level.initial_line, ()))

    for vertex in level.vertices:
        member_set = current._member_set  # type: ignore[attr-defined]
        # The lines that rank below the level right of the vertex and did
        # not left of it: the entering ones, and copies of the level's new
        # line that rank below it (above the old line, at a concave vertex).
        for entering in (vertex.entering_lines
                         + copies_below.get(vertex.line_after, [])):
            if entering in member_set:
                continue
            if current.size < width:
                current.lines.append(entering)
                member_set.add(entering)
                continue
            # The cluster is full: close it at this vertex and start the
            # next one with the lines below the level on the vertex's
            # right edge (the entering line is one of them).
            current.x_to = vertex.x
            clusters.append(current)
            current = seed_cluster(vertex.x, vertex.x, vertex.y,
                                   level.lines_ranked_below(vertex))
            member_set = current._member_set  # type: ignore[attr-defined]
    current.x_to = math.inf
    clusters.append(current)
    return clusters


def _copies_below(slopes: np.ndarray,
                  intercepts: np.ndarray) -> Dict[int, List[int]]:
    """For each line with identical copies (a duplicated point), the
    copies of lower index: the ones that rank below it in the walk's
    order.  Empty in general position."""
    ascending = np.sort(slopes)
    if not np.any(ascending[1:] == ascending[:-1]):
        return {}      # no two parallel lines: the cheap common case
    # Stable: a run of identical lines comes out in index order.
    order = np.lexsort((intercepts, slopes))
    same = ((slopes[order[1:]] == slopes[order[:-1]])
            & (intercepts[order[1:]] == intercepts[order[:-1]]))
    copies: Dict[int, List[int]] = {}
    for position in np.nonzero(same)[0].tolist():
        below = order[position]
        copies[int(order[position + 1])] = copies.get(int(below), []) \
            + [int(below)]
    return copies


def clustering_union(clusters: Sequence[Cluster]) -> List[int]:
    """Sorted union of the line indices appearing in any cluster (the set L_i)."""
    union = set()
    for cluster in clusters:
        union.update(cluster.lines)
    return sorted(union)


def max_cluster_size(clusters: Sequence[Cluster]) -> int:
    """Largest cluster size (must be <= the width used to build)."""
    return max((cluster.size for cluster in clusters), default=0)
