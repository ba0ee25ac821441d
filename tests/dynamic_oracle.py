"""The dynamic index as it kept its tree's points: a tuple list and a
``Counter``, kept as the reference for the matrix-backed one.

``DynamicPartitionTreeIndex`` once shadowed every tree point with a
Python tuple (``_tree_points``) and counted them (``_tree_counts``);
``delete()`` asked the counter, and ``query()``, ``live_points()`` and
rebuilds hid tombstoned copies by boxing every row.  Its contract is
equality with what this returns — delete results, ``size``, the live
multiset, ordered answers, ``IOStats`` and block ids
(``tests/test_dynamic_matrix.py``) — so the membership, hiding order and
rebuild order below are the specification; do not "fix" them here.
Only the methods whose bookkeeping changed are replaced; the tree, the
buffer and the tombstone blocks are the index's own.
"""

from collections import Counter
from itertools import compress

import numpy as np

from repro.core import kernels
from repro.core.dynamic import DynamicPartitionTreeIndex


class OracleDynamicIndex(DynamicPartitionTreeIndex):
    """The index with its per-point tuple list and counter."""

    def _build_tree(self, points):
        super()._build_tree(points)
        self._tree_points = list(map(tuple, self._tree_rows.tolist()))
        self._tree_counts = Counter(self._tree_points)

    def _oracle_unhidden(self, records):
        """Per record, in order: is it live?  A tombstoned value hides
        exactly ``count`` of its copies, the first ones met."""
        remaining = dict(self._tombstones)
        keep = []
        for record in records:
            hidden = remaining.get(record, 0)
            if hidden:
                remaining[record] = hidden - 1
            keep.append(not hidden)
        return keep

    def _live_tree_points(self):
        return list(compress(self._tree_points,
                             self._oracle_unhidden(self._tree_points)))

    def _rebuild(self):
        live = self._live_tree_points()
        live.extend(self._buffer_points)
        self._buffer.clear()
        self._buffer_points = []
        self._tombstones = {}
        self._num_tombstones = 0
        self._tombstone_array.clear()
        self._build_tree(np.array(live, dtype=float))
        self._rebuilds += 1

    def _maybe_rebuild(self):
        live_estimate = max(1, len(self._tree_points) - self._num_tombstones)
        if len(self._buffer_points) > self._buffer_fraction * live_estimate:
            self._rebuild()
        elif self._num_tombstones * 2 > max(1, len(self._tree_points)):
            self._rebuild()

    def delete(self, point):
        record = tuple(float(c) for c in point)
        in_buffer = record in self._buffer_points
        in_tree = (self._tree_counts.get(record, 0)
                   > self._tombstones.get(record, 0))
        if in_buffer or in_tree:
            self._check_pre_mutation()
        if in_buffer:
            self._buffer_points.remove(record)
            self._buffer.clear()
            self._buffer.extend(self._buffer_points)
            self._maybe_rebuild()
            return True
        if not in_tree:
            return False
        self._tombstones[record] = self._tombstones.get(record, 0) + 1
        self._num_tombstones += 1
        self._tombstone_array.append(record)
        self._maybe_rebuild()
        return True

    @property
    def size(self):
        return len(self._tree_points) - self._num_tombstones \
            + len(self._buffer_points)

    def live_points(self):
        live = self._live_tree_points()
        live.extend(self._buffer_points)
        return live

    def query(self, constraint):
        answer = self._tree.query_and_scan(constraint, (self._buffer,))
        if not self._tombstones:
            return answer
        keep = self._oracle_unhidden(map(tuple, answer.tolist()))
        return kernels.answer_matrix((answer.compress(keep, axis=0),),
                                     self._dimension)
