"""The trivial baseline: scan every block and filter.

Costs exactly ⌈N/B⌉ I/Os per query regardless of the output size.  It is
both the sanity floor for correctness (its answers are trivially right) and
the upper bound any clever structure must beat for small outputs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.geometry.primitives import LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


class FullScanIndex(ExternalIndex):
    """Linear scan over a blocked point file.

    For an empty point set the dimension cannot be inferred from the
    data; pass ``dimension=`` explicitly (omitting it raises).
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 dimension: Optional[int] = None):
        super().__init__(store, block_size)
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            if dimension is None:
                raise ValueError(
                    "cannot infer the dimension of an empty point set; "
                    "pass FullScanIndex(..., dimension=d) explicitly")
            points = points.reshape(0, dimension)
        if points.ndim != 2:
            raise ValueError("points must have shape (N, d)")
        if dimension is not None and points.shape[1] != dimension:
            raise ValueError(
                "points have dimension %d but dimension=%d was given"
                % (points.shape[1], dimension))
        self._dimension = points.shape[1]
        self._num_points = len(points)
        with self._building():
            self._data = DiskArray.from_matrix(self._store, points)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def size(self) -> int:
        return self._num_points

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Exact: a scan reads every data block regardless of the query
        (none over no points)."""
        del constraint, expected_output
        return float(self._store.blocks_for(self.size))

    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report satisfying points by scanning all ⌈N/B⌉ blocks."""
        if constraint.dimension != self._dimension:
            raise ValueError("constraint dimension %d does not match data "
                             "dimension %d" % (constraint.dimension, self._dimension))
        return kernels.filter_constraint(self._data, constraint)
