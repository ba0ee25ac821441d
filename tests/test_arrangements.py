"""Tests for line envelopes, k-levels and the greedy clustering (Sections 2.3, 3.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import (
    Cluster,
    clustering_union,
    greedy_clustering,
    max_cluster_size,
    relevant_cluster_index,
)
from repro.geometry.arrangement2d import compute_level
from repro.geometry.lines import (
    envelope_value,
    lines_strictly_above,
    lines_strictly_below,
    lower_envelope,
    upper_envelope,
)
from repro.geometry.primitives import Line2

from level_oracle import level_of_point, lines_below_point


def random_lines(count, seed):
    rng = np.random.default_rng(seed)
    slopes = rng.uniform(-2, 2, size=count)
    intercepts = rng.uniform(-1, 1, size=count)
    return [Line2(float(s), float(b)) for s, b in zip(slopes, intercepts)]


class TestEnvelopes:
    def test_lower_envelope_of_single_line(self):
        lines = [Line2(1.0, 0.0)]
        assert lower_envelope(lines) == [(0, -math.inf, math.inf)]

    def test_lower_envelope_matches_pointwise_minimum(self):
        lines = random_lines(40, seed=1)
        envelope = lower_envelope(lines)
        for x in np.linspace(-3, 3, 50):
            expected = min(line.y_at(x) for line in lines)
            assert envelope_value(envelope, lines, x) == pytest.approx(expected)

    def test_upper_envelope_matches_pointwise_maximum(self):
        lines = random_lines(40, seed=2)
        envelope = upper_envelope(lines)
        for x in np.linspace(-3, 3, 50):
            expected = max(line.y_at(x) for line in lines)
            assert envelope_value(envelope, lines, x) == pytest.approx(expected)

    def test_envelope_of_parallel_lines_keeps_lowest(self):
        lines = [Line2(1.0, 0.0), Line2(1.0, 5.0), Line2(1.0, -3.0)]
        envelope = lower_envelope(lines)
        assert [entry[0] for entry in envelope] == [2]

    def test_strictly_below_and_above_partition(self):
        lines = random_lines(25, seed=3)
        below = set(lines_strictly_below(lines, 0.3, 0.1))
        above = set(lines_strictly_above(lines, 0.3, 0.1))
        assert below.isdisjoint(above)
        assert len(below) + len(above) <= len(lines)


class TestLevels:
    def test_level_zero_is_lower_envelope(self):
        lines = random_lines(30, seed=4)
        level = compute_level(lines, 0)
        envelope = lower_envelope(lines)
        for x in np.linspace(-2.5, 2.5, 40):
            assert level.y_at(x) == pytest.approx(
                envelope_value(envelope, lines, x))

    def test_level_index_out_of_range(self):
        lines = random_lines(5, seed=5)
        with pytest.raises(ValueError):
            compute_level(lines, 5)
        with pytest.raises(ValueError):
            compute_level(lines, -1)

    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    def test_points_on_level_have_exactly_k_lines_below(self, k):
        lines = random_lines(40, seed=6)
        level = compute_level(lines, k)
        xs = [level.sample_point_before_first_vertex()]
        for left, right in zip(level.vertices, level.vertices[1:]):
            xs.append((left.x + right.x) / 2.0)
        if level.vertices:
            xs.append(level.vertices[-1].x + 1.0)
        for x in xs:
            y = level.y_at(x)
            assert level_of_point(lines, x, y) == k

    def test_level_vertices_are_sorted_by_x(self):
        lines = random_lines(60, seed=7)
        level = compute_level(lines, 5)
        xs = [vertex.x for vertex in level.vertices]
        assert xs == sorted(xs)

    def test_top_level_is_upper_envelope(self):
        lines = random_lines(20, seed=8)
        level = compute_level(lines, len(lines) - 1)
        envelope = upper_envelope(lines)
        for x in np.linspace(-2, 2, 25):
            assert level.y_at(x) == pytest.approx(
                envelope_value(envelope, lines, x))

    def test_entering_lines_only_at_convex_vertices(self):
        lines = random_lines(50, seed=9)
        level = compute_level(lines, 6)
        for vertex in level.vertices:
            if vertex.entering_lines:
                assert vertex.is_convex

    def test_convex_vertex_has_k_minus_one_lines_below(self):
        lines = random_lines(50, seed=10)
        k = 6
        level = compute_level(lines, k)
        convex = [v for v in level.vertices if v.is_convex]
        assert convex, "expected at least one convex vertex in a random level"
        for vertex in convex[:10]:
            assert level_of_point(lines, vertex.x, vertex.y) == k - 1

    @given(seed=st.integers(min_value=0, max_value=10_000),
           k=st.integers(min_value=0, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_level_walk_random_property(self, seed, k):
        lines = random_lines(10, seed=seed)
        level = compute_level(lines, k)
        # Sample a few abscissae and verify the level invariant everywhere.
        for x in (-1.7, -0.2, 0.9, 2.3):
            y = level.y_at(x)
            assert level_of_point(lines, x, y) == k


class TestGreedyClustering:
    def make_level(self, count=80, k=8, seed=11):
        lines = random_lines(count, seed=seed)
        return lines, compute_level(lines, k)

    def test_cluster_width_respected(self):
        lines, level = self.make_level()
        clusters = greedy_clustering(level, width=3 * level.k)
        assert max_cluster_size(clusters) <= 3 * level.k

    def test_cluster_count_bounded_by_lemma_3_2(self):
        lines, level = self.make_level(count=120, k=10, seed=12)
        clusters = greedy_clustering(level, width=3 * level.k)
        assert len(clusters) <= max(1, len(lines) // level.k)

    def test_clusters_cover_the_x_axis(self):
        lines, level = self.make_level()
        clusters = greedy_clustering(level, width=3 * level.k)
        assert clusters[0].x_from == -math.inf
        assert clusters[-1].x_to == math.inf
        for left, right in zip(clusters, clusters[1:]):
            assert left.x_to == right.x_from

    def test_cluster_contains_all_lines_below_its_level_portion(self):
        """The covering property behind Lemma 3.1."""
        lines, level = self.make_level(count=60, k=6, seed=13)
        clusters = greedy_clustering(level, width=3 * level.k)
        xs = np.linspace(-2.5, 2.5, 60)
        for x in xs:
            y = level.y_at(float(x))
            below = lines_below_point(lines, float(x), y)
            cluster = clusters[relevant_cluster_index(clusters, float(x))]
            assert below.issubset(set(cluster.lines))

    def test_union_is_lines_below_some_level_point(self):
        lines, level = self.make_level(count=60, k=6, seed=14)
        clusters = greedy_clustering(level, width=3 * level.k)
        union = set(clustering_union(clusters))
        # Every line below the level somewhere must be in the union.
        xs = np.linspace(-3, 3, 80)
        seen = set()
        for x in xs:
            seen.update(lines_below_point(lines, float(x), level.y_at(float(x))))
        assert seen.issubset(union)

    def test_invalid_width_rejected(self):
        lines, level = self.make_level()
        with pytest.raises(ValueError):
            greedy_clustering(level, width=0)

    def test_relevant_cluster_index_none_matches_last(self):
        clusters = [Cluster(lines=[0], x_from=-math.inf, x_to=0.0),
                    Cluster(lines=[1], x_from=0.0, x_to=math.inf)]
        assert relevant_cluster_index(clusters, -5.0) == 0
        assert relevant_cluster_index(clusters, 5.0) == 1

    def test_at_least_k_lines_in_every_cluster(self):
        """Each cluster starts with the lines below its boundary point (>= k-1)."""
        lines, level = self.make_level(count=100, k=9, seed=15)
        clusters = greedy_clustering(level, width=3 * level.k)
        for cluster in clusters:
            assert cluster.size >= level.k - 1
