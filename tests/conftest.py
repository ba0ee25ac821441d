"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.geometry.primitives import below_bound
from repro.io import backend as backend_module
from repro.io.backend import _decode, _replay
from repro.engine.catalog import INDEX_KINDS
from repro.engine.executor import ExecutedQuery
from repro.io.store import BlockStore, IOStats

#: The stateful machine's example budget (``tests/test_stateful.py``):
#: examples, rules per example, and no per-example deadline (an example
#: registers a fresh engine, and in process mode forks its workers).
settings.register_profile(
    "stateful", max_examples=100, stateful_step_count=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
STATEFUL = settings.get_profile("stateful")

#: The index kinds whose ``estimated_query_ios`` is exactly their cold
#: I/Os (``IndexKind.exactly_priced``, their one source):
#: ``tests/test_cost_models.py`` holds the cell trees to it, and the
#: stateful machine holds every shard a query's plan gives one of them.
EXACTLY_PRICED = tuple(name for name, kind in INDEX_KINDS.items()
                       if kind.exactly_priced)


def compact_at(ratio):
    """The file backend's compaction ratio
    (:data:`~repro.io.backend.AUTO_COMPACT_RATIO`) patched to ``ratio``
    while the context is open; ``0`` never compacts."""
    return mock.patch.object(backend_module, "AUTO_COMPACT_RATIO", ratio)


def replayed(path, size=None):
    """What :func:`_replay` reads from the log at ``path`` (its first
    ``size`` bytes; all of them by default): each live block in its
    stored form, and where the intact records end."""
    with open(path, "rb") as handle:
        if size is None:
            size = os.path.getsize(path)
        index, __, end = _replay(handle, size)
        blocks = {}
        for block_id, (offset, length) in index.items():
            handle.seek(offset)
            blocks[block_id] = _decode(handle.read(length))
    return blocks, end


@pytest.fixture
def store():
    """A small simulated disk with block size 8 and a tiny cache."""
    return BlockStore(block_size=8, cache_blocks=2)


@pytest.fixture
def store_nocache():
    """A simulated disk with caching disabled (raw I/O counts)."""
    return BlockStore(block_size=8, cache_blocks=0)


@pytest.fixture
def rng():
    """A deterministic random generator for test data."""
    return np.random.default_rng(20260614)


def cache_info(store: BlockStore):
    """The buffer pool's capacity, occupancy, hits, misses and hit rate."""
    cache = store._cache
    return {"capacity": cache.capacity, "resident": len(cache),
            "hits": cache.hits, "misses": cache.misses,
            "hit_rate": cache.hit_rate}


def observable(store: BlockStore):
    """Everything a twin-store test compares after a step: counters,
    pool hits / misses / capacity, resident ids in recency order, bytes
    moved, blocks allocated."""
    info = cache_info(store)
    return (vars(store.stats.snapshot()), info["hits"], info["misses"],
            info["capacity"], [key for key, __ in store._cache.items()],
            store.byte_counters(), store.num_blocks)


def served_query(dataset, index_name, latency_s, ios, reported,
                 result_cache_hit=False, store_cache_hits=0, **fields):
    """A served query as :meth:`EngineStats.record` reads it: ``ios``
    block reads, ``store_cache_hits`` pool hits and ``reported`` rows."""
    return ExecutedQuery(
        dataset=dataset, index_name=index_name,
        points=np.zeros((reported, 2)),
        ios=IOStats(reads=ios, cache_hits=store_cache_hits),
        latency_s=latency_s, estimated_ios=0.0,
        from_result_cache=result_cache_hit, **fields)


def brute_force_halfspace(points, constraint):
    """Ground truth for halfspace queries (set of tuples)."""
    return {tuple(p) for p in points if constraint.below(p)}


def edge_points(constraint, leading, steps):
    """Points on ``constraint``'s ``EPS`` edge: each row of ``leading``
    (an ``(n, d - 1)`` matrix) with, as last coordinate, the largest one
    ``below`` admits over it (:func:`below_bound`), stepped ``steps[i]``
    ulps up (refused) or down (admitted)."""
    leading = np.asarray(leading, dtype=np.float64)
    last = np.broadcast_to(below_bound(constraint.coeffs, leading.T,
                                       constraint.offset),
                           (len(leading),)).copy()
    for row, step in enumerate(np.asarray(steps).tolist()):
        for __ in range(abs(step)):
            last[row] = np.nextafter(last[row], np.inf if step > 0
                                     else -np.inf)
    return np.column_stack((leading, last))


def rows(answer):
    """An answer — an index's matrix, or a result carrying it as
    ``.points`` — as its list of point tuples, in report order."""
    return list(map(tuple, getattr(answer, "points", answer).tolist()))


def wave_answers(result):
    """A serving wave's answers (``ServeResult.requests[i].answer``), in
    request order."""
    return [item.answer for item in result.requests]


def assert_answer(answer, dimension):
    """The answer contract: one read-only C-contiguous ``(n, d)``
    float64 matrix."""
    assert isinstance(answer, np.ndarray) and answer.dtype == np.float64
    assert answer.ndim == 2 and answer.shape[1] == dimension
    assert answer.flags.c_contiguous and not answer.flags.writeable


def assert_sample_is_live(shard):
    """The exactly-once witness of a shard's write feed: its sample is
    below capacity, where it *is* the shard's live multiset, so a write
    fed to the model twice would hold a second copy of its row."""
    primary = shard.replicas[0]
    rows = primary.stats.sample.rows
    assert len(rows) < primary.stats.sample.capacity
    assert sorted(map(tuple, rows.tolist())) == sorted(
        map(tuple, primary.overlay.live_points().tolist()))


def assert_replica_layout(sharded):
    """Invariants every replica build site must leave on a ShardedDataset.

    Registration and re-split go through one builder, and writes fill a
    shard built over zero points; whichever ran last, each shard's
    replicas are copies of one another built from the dataset's recipe
    (replica counts, suites, live parity, the shared model, samples and
    boxes are :meth:`ShardedDataset.check_invariants`' part).
    """
    sharded.check_invariants()
    recipe = sharded.recipe
    for shard in sharded.shards:
        primary = shard.replicas[0]
        for replica in shard.replicas:
            assert np.array_equal(replica.points, primary.points)
            assert list(replica.build_records) == list(replica.indexes)
            assert replica.aliases == primary.aliases
            assert replica.store.block_size == recipe.block_size
            assert replica.store.cache_blocks == recipe.cache_blocks
