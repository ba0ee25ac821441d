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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

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

    clusters: List[Cluster] = []

    def seed_cluster(x_from: float, seed_x: float, seed_y: float) -> Cluster:
        """Start a cluster at ``x_from`` containing the lines below the seed point."""
        members = lines_below_point_fast(slopes, intercepts, seed_x, seed_y)
        cluster = Cluster(x_from=x_from)
        cluster.lines = sorted(members)
        cluster._member_set = set(cluster.lines)  # type: ignore[attr-defined]
        return cluster

    # The first boundary point w_0 sits at x = -infinity; any abscissa left
    # of every vertex sees the same set of lines below the level.
    start_x = level.sample_point_before_first_vertex()
    start_y = lines[level.initial_line].y_at(start_x)
    current = seed_cluster(-math.inf, start_x, start_y)

    for vertex in level.vertices:
        member_set = current._member_set  # type: ignore[attr-defined]
        for entering in vertex.entering_lines:
            if entering in member_set:
                continue
            if current.size < width:
                current.lines.append(entering)
                member_set.add(entering)
                continue
            # The cluster is full: close it at this vertex and start the
            # next one, seeded with the lines below the boundary point, then
            # retry the entering line (it always fits in a fresh cluster).
            current.x_to = vertex.x
            clusters.append(current)
            current = seed_cluster(vertex.x, vertex.x, vertex.y)
            member_set = current._member_set  # type: ignore[attr-defined]
            if entering not in member_set:
                current.lines.append(entering)
                member_set.add(entering)
    current.x_to = math.inf
    clusters.append(current)
    return clusters


def clustering_union(clusters: Sequence[Cluster]) -> List[int]:
    """Sorted union of the line indices appearing in any cluster (the set L_i)."""
    union = set()
    for cluster in clusters:
        union.update(cluster.lines)
    return sorted(union)


def max_cluster_size(clusters: Sequence[Cluster]) -> int:
    """Largest cluster size (must be <= the width used to build)."""
    return max((cluster.size for cluster in clusters), default=0)
