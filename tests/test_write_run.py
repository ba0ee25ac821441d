"""``BlockStore.write_run`` hands a build's writes to the backend as one
run, and nothing observable moves.

A store that writes in runs and a twin that hands every block to the
backend on its own are driven through the same generated steps —
allocations, overwrites, reads, run reads, frees and pool resizes, many
of them *inside* open (and nested) runs.  After every step both show the
same return values, :class:`IOStats`, pool hits, misses and recency
order; whenever the outermost run closes, the same byte counters, block
counts and byte-identical logs.  ``check_invariants()`` runs on both
(it hands no run over).  The file logs compact at low ratios (1 for
``file``: any garbage at all), so a run crosses compactions too.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cache_info, compact_at, observable
from repro.core.partition_tree import PartitionTreeIndex
from repro.io.backend import FileBackend
from repro.io.store import BlockStore
from test_read_run import INITIAL_BLOCKS, block_ids, blocks, same_blocks

BLOCK_SIZE = 4

steps = st.lists(st.one_of(
    st.just(("open",)),
    st.just(("close",)),
    st.tuples(st.just("allocate"), blocks),
    st.tuples(st.just("allocate"), blocks),
    st.tuples(st.just("write"), block_ids, blocks),
    st.tuples(st.just("read"), block_ids),
    st.tuples(st.just("run"), st.lists(block_ids, max_size=6)),
    st.tuples(st.just("free"), block_ids),
    st.tuples(st.just("free"), block_ids),
    st.tuples(st.just("resize"), st.integers(0, 8)),
), min_size=1, max_size=24)


def pool_state(store: BlockStore):
    """What a step may be compared on without handing a run over."""
    info = cache_info(store)
    return (vars(store.stats.snapshot()), info["hits"], info["misses"],
            info["capacity"], [key for key, __ in store._cache.items()])


def apply(store: BlockStore, step):
    """One step's outcome: what it returned, or that it raised KeyError."""
    try:
        if step[0] == "allocate":
            return store.allocate(step[1])
        if step[0] == "write":
            return store.write(step[1], step[2])
        if step[0] == "read":
            return store.read(step[1])
        if step[0] == "run":
            return store.read_run(step[1])
        if step[0] == "free":
            return store.free(step[1])
        return store.resize_cache(step[1])
    except KeyError:
        return KeyError


def log_bytes(store: BlockStore) -> bytes:
    backend = store.backend
    if not isinstance(backend, FileBackend):
        return b""
    backend.sync()
    with open(backend.path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(0, 8),
       initial=st.lists(blocks, min_size=INITIAL_BLOCKS,
                        max_size=INITIAL_BLOCKS),
       script=steps)
# A run read, through no pool, of a block still in the open write run:
# its first miss hands the run over.
@example(capacity=0, initial=[[(0.5, 0.5)]] * INITIAL_BLOCKS,
         script=[("open",), ("allocate", [(1.0, 2.0)]),
                 ("run", [0, INITIAL_BLOCKS, INITIAL_BLOCKS])])
def test_a_write_run_is_one_write_per_block(backend, capacity, initial,
                                            script):
    with tempfile.TemporaryDirectory() as directory, compact_at(1.0):
        def medium(name):
            path = os.path.join(directory, name)
            if backend == "file":
                return FileBackend(path)
            return "memory"

        run_store = BlockStore(BLOCK_SIZE, cache_blocks=capacity,
                               backend=medium("runs.log"))
        twin = BlockStore(BLOCK_SIZE, cache_blocks=capacity,
                          backend=medium("twin.log"))
        runs = []
        try:
            for store in (run_store, twin):
                for records in initial:
                    store.allocate(records)
            for step in script + [("close",)] * len(script):
                if step[0] == "open":
                    runs.append(run_store.write_run())
                    runs[-1].__enter__()
                elif step[0] == "close":
                    if not runs:
                        continue
                    runs.pop().__exit__(None, None, None)
                    if not runs:
                        assert observable(run_store) == observable(twin)
                        assert log_bytes(run_store) == log_bytes(twin)
                else:
                    ran = apply(run_store, step)
                    assert same_blocks(ran, apply(twin, step)), step
                    assert pool_state(run_store) == pool_state(twin), step
                run_store.check_invariants()
                twin.check_invariants()
            assert observable(run_store) == observable(twin)
            assert log_bytes(run_store) == log_bytes(twin)
            assert run_store.write_runs <= twin.write_runs
            assert {block_id: run_store.backend.get(block_id)
                    for block_id in run_store.backend.block_ids()} == {
                block_id: twin.backend.get(block_id)
                for block_id in twin.backend.block_ids()}
        finally:
            while runs:
                runs.pop().__exit__(None, None, None)
            run_store.close()
            twin.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("size", [600, 3000])
def test_a_build_is_one_backend_write_per_run_of_blocks(backend, size):
    points = np.random.default_rng(3).random((size, 2))
    store = BlockStore(8, backend=backend)
    try:
        calls = []
        put_run = store._backend.put_run
        store._backend.put_run = lambda ids, blocks: (
            calls.append(list(ids)), put_run(ids, blocks))
        tree = PartitionTreeIndex(points, store=store)
        limit = BlockStore._RUN_BLOCKS
        assert store.write_runs == len(calls) \
            == -(-tree.space_blocks // limit)
        assert [block_id for call in calls for block_id in call] \
            == list(range(tree.space_blocks))
        assert all(len(call) == limit for call in calls[:-1])
        assert tree.build_ios.writes == tree.space_blocks
        assert not store._run_ids and not store._runs_open
        tree.check_invariants()
        store.check_invariants()
    finally:
        store.close()


def test_a_read_miss_inside_a_run_hands_the_run_over_first():
    store = BlockStore(2, cache_blocks=0, backend="file")
    try:
        with store.write_run():
            first = store.allocate([(1.0, 2.0)])
            second = store.allocate([(3.0, 4.0)])
            assert store.write_runs == 0
            store.check_invariants()
            assert store.read(first) == [(1.0, 2.0)]    # a miss: handed over
            assert store.write_runs == 1
            third = store.allocate([(5.0, 6.0)])
            assert store.write_runs == 1
        assert store.write_runs == 2
        assert [store.read(block_id) for block_id in (second, third)] == [
            [(3.0, 4.0)], [(5.0, 6.0)]]
        store.check_invariants()
    finally:
        store.close()


def test_check_invariants_catches_a_run_left_pending():
    store = BlockStore(2)
    with store.write_run():
        store.allocate([(1.0, 2.0)])
    store._run_ids.append(0)                        # behind the store's back
    store._run_blocks.append(store._cache.get(0))
    with pytest.raises(AssertionError):
        store.check_invariants()
