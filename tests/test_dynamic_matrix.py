"""The write overlay keeps its replica's build points as one matrix.

Three judges: generated scripts against ``dynamic_oracle.py`` (the
tuple-list-and-``Counter`` bookkeeping it replaced) must agree on every
observable; ``check_invariants()`` must catch each broken relation; and
a tree under an overlay must retain no more heap than the bare tree.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro import LinearConstraint, PartitionTreeIndex
from repro.engine import overlay as overlay_module
from repro.io.store import BlockStore
from repro.workloads import uniform_points

from dynamic_oracle import OracleOverlay
from overlaid import OverlaidTree

#: Coordinates on a coarse grid with both zeros: duplicates are common,
#: many points sit on a query's hyperplane, and -0.0 == 0.0 must be one
#: value to membership while the stored bits keep the sign.
GRID = (-1.0, -0.0, 0.0, 0.5, 1.0)


@st.composite
def scripts(draw):
    dimension = draw(st.sampled_from([2, 3]))
    pool = draw(st.lists(st.tuples(*[st.sampled_from(GRID)] * dimension),
                         min_size=1, max_size=6))
    picks = st.integers(0, len(pool) - 1)
    queries = st.builds(LinearConstraint,
                        st.tuples(*[st.sampled_from(GRID)] * (dimension - 1)),
                        st.sampled_from(GRID + (-9.0, 9.0)))
    initial = draw(st.lists(picks, max_size=30))
    steps = draw(st.lists(st.one_of(
        st.tuples(st.just("insert"), picks),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("query"), queries),
        st.tuples(st.just("rebuild"), st.none())), min_size=1, max_size=40))
    return dimension, pool, initial, steps


def layout(index):
    """Every block id the replica holds, structure by structure."""
    tree = [node.points_array.block_ids if node.is_leaf
            else node.child_table.block_ids for node in index._tree._nodes]
    return (tree, index.overlay._buffer.block_ids,
            index.overlay._tombstone_array.block_ids,
            sorted(index.store.backend.block_ids()))


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=100, deadline=None)
@given(script=scripts(), buffer_fraction=st.sampled_from([0.25, 1.0]))
def test_the_matrix_index_is_the_tuple_and_counter_oracle(backend, script,
                                                          buffer_fraction):
    """Inserts, deletes, queries and forced rebuilds over duplicated
    points: the same delete results, size, live points, ordered answer
    bytes, ``IOStats`` and block ids as the oracle, step by step."""
    dimension, pool, initial, steps = script
    points = np.asarray([pool[i] for i in initial],
                        dtype=float).reshape(-1, dimension)
    stores = [BlockStore(4, cache_blocks=2, backend=backend)
              for __ in range(2)]
    patched = mock.patch.object(overlay_module, "BUFFER_FRACTION",
                                buffer_fraction)
    try:
        patched.start()
        index, oracle = (
            OverlaidTree(points, store=store, dimension=dimension,
                         overlay=kind, leaf_capacity=3)
            for kind, store in zip((overlay_module.WriteOverlay,
                                    OracleOverlay), stores))
        for action, argument in steps:
            if action == "insert":
                index.insert(pool[argument])
                oracle.insert(pool[argument])
            elif action == "delete":
                assert index.delete(pool[argument]) == \
                    oracle.delete(pool[argument])
            elif action == "query":
                assert index.query(argument).tobytes() == \
                    oracle.query(argument).tobytes()
            else:
                index._rebuild()
                oracle._rebuild()
            assert index.size == oracle.size
            assert index.tombstoned == oracle.tombstoned
            live = index.live_points()
            assert live == oracle.live_points()
            assert np.array(live).tobytes() == \
                np.array(oracle.live_points()).tobytes()    # signed zeros
            assert index.store.stats == oracle.store.stats
            assert layout(index) == layout(oracle)
            index.check_invariants()
        event("rebuilds: %d" % min(index.rebuilds, 2))
    finally:
        patched.stop()
        for store in stores:
            store.close()


def test_signed_zeros_are_one_value_to_membership():
    """-0.0 and 0.0 are one point to delete, as they were to the counter,
    while the stored rows keep the sign they were built with."""
    index = OverlaidTree([(-0.0, 1.0), (0.0, 1.0)], block_size=4)
    assert index.delete((0.0, 1.0)) and index.delete((-0.0, 1.0))
    assert not index.delete((0.0, 1.0))
    assert index.size == 0 and index.live_points() == []
    index.check_invariants()
    built = OverlaidTree([(-0.0, 1.0)], block_size=4)
    assert np.signbit(built.query(LinearConstraint((0.0,), 9.0))[0, 0])


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def mutated_index():
    """A checked replica with tree rows, tombstones and buffered points."""
    points = np.repeat(uniform_points(40, seed=3), 2, axis=0)
    index = OverlaidTree(points, block_size=4)
    for point in points[:6:2]:
        assert index.delete(point)
    for point in uniform_points(3, seed=4):
        index.insert(point)
    assert index.tombstoned == 3 and index.buffered == 3
    index.check_invariants()
    return index, points


def _miscount_a_leaf(index, points):
    index._tree._nodes[0].size += 1


def _swap_a_matrix_row(index, points):
    rows = index.overlay.rows.copy()
    rows[0] = (5.0, 5.0)
    index.overlay.rows = rows


def _reorder_the_buffer(index, points):
    buffered = index.overlay._buffer_points
    buffered[0], buffered[1] = buffered[1], buffered[0]


def _forget_a_tombstone_block(index, points):
    record = tuple(points[0].tolist())
    index.overlay._tombstones[record] += 1
    index.overlay._num_tombstones += 1


def _miscount_the_tombstones(index, points):
    index.overlay._num_tombstones += 1


def _stale_tombstone_columns(index, points):
    index.query(LinearConstraint((0.0,), 9.0))      # fills the cache
    overlay = index.overlay
    overlay._dead_columns = [column + 1.0 for column in overlay._dead_columns]


def _tombstone_an_absent_value(index, points):
    overlay = index.overlay
    overlay._tombstones[(7.0, 7.0)] = 1
    overlay._num_tombstones += 1
    overlay._tombstone_array.append((7.0, 7.0))


def _tombstone_a_buffered_value(index, points):
    record = tuple(points[10].tolist())     # two tree copies, both live
    overlay = index.overlay
    overlay._buffer_points.append(record)
    overlay._buffer.append(record)
    overlay._tombstones[record] = 1
    overlay._num_tombstones += 1
    overlay._tombstone_array.append(record)


@pytest.mark.parametrize("corrupt, message", [
    (_miscount_a_leaf, "leaf 0 holds"),
    (_swap_a_matrix_row, "not the 80 of its matrix"),
    (_reorder_the_buffer, "buffered points in order"),
    (_forget_a_tombstone_block, "tombstone multiset"),
    (_miscount_the_tombstones, "4 tombstones counted"),
    (_stale_tombstone_columns, "cached tombstone columns are stale"),
    (_tombstone_an_absent_value, "has 0 build copies"),
    (_tombstone_a_buffered_value, "is buffered"),
])
def test_a_broken_dynamic_index_fails_the_invariants(corrupt, message):
    index, points = mutated_index()
    corrupt(index, points)
    with pytest.raises(AssertionError, match=message):
        index.check_invariants()


# ----------------------------------------------------------------------
# retained heap
# ----------------------------------------------------------------------
def retained_bytes(build):
    """Traced heap still held once ``build()`` has returned its index."""
    gc.collect()
    tracemalloc.start()
    try:
        index = build()
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del index
    return current


def test_the_dynamic_index_retains_what_its_tree_retains():
    """No per-point shadow: over 32 768 points a tree under its replica's
    overlay holds within 0.25 MB of a bare partition tree over the same
    points (a tuple per point and their counter held ≈ 4.75 MB more)."""
    points = uniform_points(32768, seed=1998)
    tree = retained_bytes(lambda: PartitionTreeIndex(points, block_size=64))
    dynamic = retained_bytes(lambda: OverlaidTree(points, block_size=64))
    assert dynamic - tree <= 0.25 * 2 ** 20, (dynamic, tree)


def test_a_query_past_a_tombstone_imports_no_numpy_ma():
    """A dataset's first query after a delete dedupes the tombstone
    columns; ``np.unique`` would import ``numpy.ma`` there, ≈ 13 ms inside
    the query.  Unsharded, nothing else in a registration imports it."""
    script = """
import sys
from repro import LinearConstraint, QueryEngine
from repro.workloads import uniform_points
points = uniform_points(512, seed=2)
engine = QueryEngine(block_size=32, seed=1)
engine.register_dataset("d", points, kinds=["dynamic"])
assert engine.delete("d", tuple(points[0])).applied
assert "numpy.ma" not in sys.modules, "loaded before the query"
answer = engine.query("d", LinearConstraint(coeffs=(0.0,), offset=2.0))
assert answer.count == 511
assert "numpy.ma" not in sys.modules, "loaded by the query"
engine.close()
"""
    source = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_WORKERS"}
    subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                   env=dict(env, PYTHONPATH=os.path.abspath(source)))
