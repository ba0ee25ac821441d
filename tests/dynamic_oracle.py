"""The write overlay as the dynamic index once kept its tree's points: a
tuple list and a ``Counter``, kept as the reference for the matrix-backed
:class:`~repro.engine.overlay.WriteOverlay`.

The overlay's bookkeeping began inside a dynamic partition tree, which
once shadowed every tree point with a Python tuple (``_tree_points``)
and counted them (``_tree_counts``); ``delete()`` asked the counter, and
queries, ``live_points()`` and rebuilds hid tombstoned copies by boxing
every row.  Its contract is equality with what this returns — delete
results, ``size``, the live multiset, ordered answers, ``IOStats`` and
block ids (``tests/test_dynamic_matrix.py``) — so the membership, hiding
order and rebuild rule below are the specification; do not "fix" them
here.  Only the methods whose bookkeeping changed are replaced; the
buffer and tombstone blocks are the overlay's own.
"""

from collections import Counter
from itertools import compress

import numpy as np

from repro.core import kernels
from repro.engine import overlay as overlay_module
from repro.engine.overlay import WriteOverlay


class OracleOverlay(WriteOverlay):
    """The overlay with its per-point tuple list and counter."""

    def reset(self, rows):
        super().reset(rows)
        self._tree_points = list(map(tuple, rows.tolist()))
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

    def due(self):
        live_estimate = max(1, len(self._tree_points) - self._num_tombstones)
        return (len(self._buffer_points)
                > overlay_module.BUFFER_FRACTION * live_estimate
                or self._num_tombstones * 2 > max(1, len(self._tree_points)))

    def delete(self, point):
        record = tuple(float(c) for c in point)
        in_buffer = record in self._buffer_points
        in_tree = (self._tree_counts.get(record, 0)
                   > self._tombstones.get(record, 0))
        if in_buffer:
            self._buffer_points.remove(record)
            self._buffer.clear()
            self._buffer.extend(self._buffer_points)
            return True
        if not in_tree:
            return False
        self._tombstones[record] = self._tombstones.get(record, 0) + 1
        self._num_tombstones += 1
        self._tombstone_array.append(record)
        return True

    @property
    def size(self):
        return len(self._tree_points) - self._num_tombstones \
            + len(self._buffer_points)

    def live_points(self):
        live = self._live_tree_points()
        live.extend(self._buffer_points)
        return np.array(live, dtype=float).reshape(-1, self._dimension)

    def answer(self, found, region):
        answer = kernels.answer_matrix(
            (found, kernels.filter_constraint(self._buffer, region)),
            self._dimension)
        if not self._tombstones:
            return answer
        keep = self._oracle_unhidden(map(tuple, answer.tolist()))
        return kernels.answer_matrix((answer.compress(keep, axis=0),),
                                     self._dimension)
