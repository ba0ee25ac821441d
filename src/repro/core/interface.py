"""Common interface shared by every external-memory index in the library.

All indexes are built over a :class:`~repro.io.store.BlockStore` and expose:

* ``query(constraint)`` — report the stored points satisfying a
  :class:`~repro.geometry.primitives.LinearConstraint`;
* ``query_with_stats(constraint)`` — the same, plus the I/O counters spent
  on that query (what the benchmarks record);
* ``space_blocks`` — the number of disk blocks the structure occupies.

The helpers here keep the accounting uniform so benchmark code can treat the
paper's structures and the baselines interchangeably.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from repro.geometry.primitives import LinearConstraint
from repro.io.store import BlockStore, IOStats


@dataclass
class QueryResult:
    """The outcome of one query: reported points plus its I/O cost.

    ``points`` is the index's answer as it returned it, one read-only
    ``(count, d)`` float64 matrix.
    """

    points: np.ndarray
    ios: IOStats

    @property
    def count(self) -> int:
        """Number of reported points (the paper's T)."""
        return len(self.points)

    @property
    def total_ios(self) -> int:
        """Total I/Os charged to the query."""
        return self.ios.total


class ExternalIndex(abc.ABC):
    """Base class for the external-memory halfspace indexes.

    Subclasses must populate ``self._store`` before running their build
    phase inside :meth:`_building`, and implement :meth:`query`.
    """

    def __init__(self, store: Optional[BlockStore], block_size: int,
                 cache_blocks: int = 4):
        if store is None:
            store = BlockStore(block_size=block_size, cache_blocks=cache_blocks)
        self._store = store
        self._space_blocks = 0
        self._build_ios: Optional[IOStats] = None
        #: The most recent :meth:`query`'s account: its step counts by
        #: name (``nodes_crossed``, ``layers_probed``, ...) and, for a
        #: structure with more than one way to answer, which way; empty
        #: for a structure that keeps none.  Replaced by every query.
        self.last_query: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # bookkeeping helpers for subclasses
    # ------------------------------------------------------------------
    @contextmanager
    def _building(self) -> Iterator[None]:
        """Bracket the build phase: its writes reach the backend as one
        run (:meth:`~repro.io.store.BlockStore.write_run`), and the blocks
        it allocated and the I/Os it made are recorded."""
        store = self._store
        blocks_before = store.num_blocks
        stats_before = store.stats.snapshot()
        with store.write_run():
            yield
        self._space_blocks = store.num_blocks - blocks_before
        self._build_ios = store.stats.delta(stats_before)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def store(self) -> BlockStore:
        """The simulated disk the index lives on."""
        return self._store

    @property
    def block_size(self) -> int:
        """The block size B of the underlying disk."""
        return self._store.block_size

    @property
    def space_blocks(self) -> int:
        """Number of disk blocks allocated while building the index."""
        return self._space_blocks

    @property
    def build_ios(self) -> Optional[IOStats]:
        """I/O counters accumulated during the build (write-dominated)."""
        return self._build_ios

    @property
    @abc.abstractmethod
    def dimension(self) -> int:
        """Dimension of the stored points."""

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of stored points (the paper's N)."""

    @abc.abstractmethod
    def query(self, constraint: LinearConstraint) -> np.ndarray:
        """Report every stored point satisfying ``constraint``.

        The answer is one read-only C-contiguous ``(n, d)`` float64
        matrix, a row per reported point (``(0, d)`` when none is);
        :func:`~repro.core.kernels.answer_matrix` makes it.
        """

    # ------------------------------------------------------------------
    # cost estimation (planner hook)
    # ------------------------------------------------------------------
    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """What :meth:`query` would cost on a cold buffer pool, in I/Os.

        This is the hook the engine's cost-based planner calls to compare
        candidate indexes *without* running the query, and its whole
        cost: no block reads, only in-memory arithmetic on the
        constraint, the structure's shape and the expected output size
        ``T`` (``expected_output``; when None, one block's worth of
        output is assumed).

        The default is the conservative worst case of a structure with no
        search guarantee: read every block the structure occupies (a full
        scan of the index).  The paper's structures override it with
        their own query priced for ``constraint``: the cell trees replay
        their descent on an in-memory copy of the cell tables,
        ``halfplane2d`` prices the layers its query reads.
        """
        del constraint, expected_output  # a scan's cost depends on neither
        blocks = self._space_blocks or self._store.blocks_for(max(1, self.size))
        return float(max(1, blocks))

    def query_with_stats(self, constraint: LinearConstraint,
                         clear_cache: bool = True) -> QueryResult:
        """Run :meth:`query` and report the I/Os it cost.

        ``clear_cache`` empties the buffer pool first so that measured
        counts do not depend on the previous query (the default for
        benchmarks; set False to measure warm-cache behaviour).
        """
        with self._store.measured(clear_cache) as ios:
            points = self.query(constraint)
        return QueryResult(points=points, ios=ios)
