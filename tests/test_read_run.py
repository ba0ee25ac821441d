"""``BlockStore.read_run`` is the per-block ``read_payload`` loop.

The run read is *defined* as that loop — same blocks back, same
:class:`IOStats`, pool hits, misses and recency order, same bytes moved,
the same ``KeyError`` after the same charges.  Twin stores are driven
through the same generated steps, one reading runs and one looping, and
compared after every step; ``check_invariants()`` runs on both.  Runs
reach a cell tree's length (up to 64 distinct ids, some past the last
block), on a cleared pool as well as a warm one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cache_info, observable
from repro.io.store import BlockStore

BLOCK_SIZE = 4
INITIAL_BLOCKS = 6

point_blocks = st.lists(
    st.tuples(st.floats(-4, 4, allow_nan=False), st.floats(-4, 4,
                                                           allow_nan=False)),
    min_size=1, max_size=BLOCK_SIZE)
other_blocks = st.lists(st.tuples(st.integers(-9, 9), st.text(max_size=2)),
                        max_size=BLOCK_SIZE)
blocks = st.one_of(point_blocks, other_blocks)
#: Ids of blocks ever allocated, freed ones included, and two never made.
block_ids = st.integers(0, INITIAL_BLOCKS + 5)
#: Point blocks allocated after the drawn ones, so that a run of distinct
#: ids is as long as a cell tree's walk (some 60 blocks on
#: ``embedded_suite``).
RUN_BLOCKS = 64
long_runs = st.lists(st.integers(0, INITIAL_BLOCKS + RUN_BLOCKS + 1),
                     min_size=5, max_size=RUN_BLOCKS, unique=True)
steps = st.lists(st.one_of(
    st.tuples(st.just("run"), st.lists(block_ids, max_size=12)),
    st.tuples(st.just("run"), st.lists(block_ids, max_size=12, unique=True)),
    st.tuples(st.just("run"), long_runs),
    st.just(("clear",)),
    st.tuples(st.just("read"), block_ids),
    st.tuples(st.just("write"), block_ids, blocks),
    st.tuples(st.just("allocate"), blocks),
    st.tuples(st.just("free"), block_ids),
    st.tuples(st.just("resize"), st.integers(0, 8)),
), min_size=1, max_size=14)


def looped(store: BlockStore, ids):
    out = []
    for block_id in ids:
        out.append(store.read_payload(block_id))
    return out


def apply(store: BlockStore, step, read_run):
    """One step's outcome: what it returned, or that it raised KeyError."""
    try:
        if step[0] == "run":
            return read_run(store, step[1])
        if step[0] == "read":
            return store.read(step[1])
        if step[0] == "write":
            return store.write(step[1], step[2])
        if step[0] == "allocate":
            return store.allocate(step[1])
        if step[0] == "free":
            return store.free(step[1])
        if step[0] == "clear":
            return store.clear_cache()
        return store.resize_cache(step[1])
    except KeyError:
        return KeyError


def same_blocks(left, right) -> bool:
    if left is KeyError or right is KeyError or left is None:
        return left is right
    if not isinstance(left, list):
        return left == right
    return len(left) == len(right) and all(
        type(one) is type(other)
        and (np.array_equal(one, other) if isinstance(one, np.ndarray)
             else one == other)
        for one, other in zip(left, right))


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=120, deadline=None)
@given(capacity=st.integers(0, 8),
       initial=st.lists(blocks, min_size=INITIAL_BLOCKS,
                        max_size=INITIAL_BLOCKS),
       script=steps)
# A cold distinct run of 64 blocks through a 4-block pool, then a cold
# one that meets a block never made after 30 charges.
@example(capacity=4, initial=[[(0.5, 0.5)]] * INITIAL_BLOCKS,
         script=[("clear",), ("run", list(range(INITIAL_BLOCKS,
                                                INITIAL_BLOCKS + RUN_BLOCKS))),
                 ("clear",), ("run", list(range(30, 60)) + [
                     INITIAL_BLOCKS + RUN_BLOCKS + 1, 40])])
def test_read_run_is_the_read_payload_loop(backend, capacity, initial, script):
    run_store, loop_store = (
        BlockStore(BLOCK_SIZE, cache_blocks=capacity, backend=backend)
        for __ in range(2))
    try:
        for store in (run_store, loop_store):
            for records in initial:
                store.allocate(records)
            for number in range(RUN_BLOCKS):
                store.allocate([(float(number), 0.5)])
        for step in script:
            ran = apply(run_store, step, BlockStore.read_run)
            looped_result = apply(loop_store, step, looped)
            assert same_blocks(ran, looped_result), step
            assert observable(run_store) == observable(loop_store), step
            run_store.check_invariants()
            loop_store.check_invariants()
    finally:
        run_store.close()
        loop_store.close()


def test_a_run_longer_than_the_pool_keeps_its_tail():
    store = BlockStore(BLOCK_SIZE, cache_blocks=3)
    ids = [store.allocate([(float(i), 0.5)]) for i in range(8)]
    store.clear_cache()
    store.reset_stats()
    blocks_read = store.read_run(ids)
    assert [block[0, 0] for block in blocks_read] == list(map(float, range(8)))
    info = cache_info(store)
    assert (store.stats.reads, info["misses"], info["hits"]) == (8, 8, 0)
    assert [key for key, __ in store._cache.items()] == ids[-3:]
    # Resident ids, and a repeated one, hit.
    store.read_run(ids[5:])
    store.read_run([ids[0], ids[0]])
    assert store.stats.cache_hits == 3 + 1
    store.check_invariants()


def test_check_invariants_catches_a_resident_block_that_was_freed():
    store = BlockStore(BLOCK_SIZE, cache_blocks=2)
    block_id = store.allocate([(1.0, 2.0)])
    store.check_invariants()
    store.backend.delete(block_id)          # behind the store's back
    with pytest.raises(AssertionError):
        store.check_invariants()
