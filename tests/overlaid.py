"""A partition tree under a replica's write overlay, driven as the engine
drives one: writes through ``writes.write_overlay``, then
``writes.rebuild_if_due``, queries through the tree, then
``WriteOverlay.answer``.

``OverlaidTree`` gives tests the surface a dynamic partition tree had —
``insert`` / ``delete`` / ``query`` / ``query_with_stats`` /
``estimated_query_ios`` / ``live_points()`` / ``check_invariants()`` —
with the overlay's ``tombstoned`` and ``buffered`` counts, and reads
every other attribute (``size``, ``rebuilds``, the buffer and tombstone
arrays, ...) off the overlay.
The rebuild thresholds are the overlay module's constants; a test that
sweeps them patches ``repro.engine.overlay.BUFFER_FRACTION``.
"""

import numpy as np

from repro.core.interface import QueryResult
from repro.engine.catalog import (Dataset, ReplicaRecipe, _build_on_shards,
                                  fit_stats)
from repro.engine.overlay import WriteOverlay
from repro.engine.writes import rebuild_if_due, write_overlay
from repro.io.store import BlockStore


class OverlaidTree:
    """One replica whose suite is the partition tree (``"dynamic"``).

    ``overlay`` is the overlay class the replica keeps (an oracle or a
    counting subclass); ``tree_params`` go to the tree's build.
    """

    def __init__(self, points=(), store=None, block_size=64, dimension=None,
                 overlay=WriteOverlay, **tree_params):
        initial = np.asarray(points, dtype=float)
        if dimension is None:
            if initial.ndim != 2:
                raise ValueError("dimension is required when starting empty")
            dimension = initial.shape[1]
        rows = initial.reshape(-1, dimension)
        if store is None:
            store = BlockStore(block_size=block_size)
        recipe = ReplicaRecipe(block_size=store.block_size,
                               cache_blocks=store.cache_blocks,
                               backend=None, data_dir=None, sample_size=64,
                               seed=None, replicas=1)
        self.dataset = Dataset(name="tree", points=rows, store=store,
                               stats=fit_stats(recipe, rows))
        self.dataset.overlay = overlay(store, rows)
        _build_on_shards([(None, [self.dataset])], None, [
            {"kind": "dynamic", "index_name": "dynamic",
             "params": tree_params}])

    def __getattr__(self, name):
        if name == "dataset":
            raise AttributeError(name)
        return getattr(self.dataset.overlay, name)

    @property
    def overlay(self):
        return self.dataset.overlay

    @property
    def store(self):
        return self.dataset.store

    @property
    def _tree(self):
        """The replica's partition tree (a rebuild replaces it)."""
        return self.dataset.indexes["dynamic"]

    @property
    def dimension(self):
        return self.dataset.dimension

    @property
    def tombstoned(self):
        """Build copies hidden by tombstones (multiset total)."""
        return self.overlay._num_tombstones

    @property
    def buffered(self):
        """Points waiting in the insertion buffer."""
        return len(self.overlay._buffer_points)

    @property
    def space_blocks(self):
        return self._tree.space_blocks

    @property
    def build_ios(self):
        return self._tree.build_ios

    def insert(self, point):
        self._write("insert", point)

    def delete(self, point):
        return self._write("delete", point)

    def _write(self, op, point):
        applied = write_overlay(self.dataset, op, tuple(point))[0]
        if applied:
            rebuild_if_due(self.dataset)
        return applied

    def _rebuild(self):
        """Fold the overlay into a fresh tree now."""
        self.dataset.rebuild()

    def query(self, region):
        """The live points in a constraint or a polytope."""
        tree = self._tree
        found = tree.query(region)
        self.last_query = tree.last_query
        return self.overlay.answer(found, region)

    def query_with_stats(self, constraint, clear_cache=True):
        with self.store.measured(clear_cache) as ios:
            points = self.query(constraint)
        return QueryResult(points=points, ios=ios)

    def estimated_query_ios(self, constraint, expected_output=None):
        """The planner's price: the tree's, plus the buffer's blocks."""
        return self.overlay.buffer_blocks + self._tree.estimated_query_ios(
            constraint, expected_output)

    def live_points(self):
        """The live multiset as a list of tuples (build rows, tombstoned
        copies hidden, then the buffer)."""
        return list(map(tuple, self.overlay.live_points().tolist()))

    def check_invariants(self):
        """The tree's checker, its leaves holding exactly the overlay's
        build rows, then the overlay's checker."""
        leaves = self._tree.check_invariants()
        rows = self.overlay.rows

        def ordered(matrix):
            return matrix[np.lexsort(matrix.T[::-1])]

        if not np.array_equal(ordered(leaves), ordered(rows)):
            raise AssertionError(
                "the tree's leaves store %d rows, not the %d of its matrix"
                % (len(leaves), len(rows)))
        self.overlay.check_invariants()
