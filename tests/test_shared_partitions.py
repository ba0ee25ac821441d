"""One median-cut hierarchy per chunk in a build scope.

Inside :func:`~repro.core.partition_tree.sharing_partitions` (every
catalog build) the first cell tree over a chunk cuts its hierarchy and
every other tree over the same chunk at the same fanout reads it.  The
key is the chunk's content, never its address: a chunk that changed in
place, or a new array where a freed one lived, is cut afresh.  A shared
tree is the tree built alone, block for block.  A tree with a hierarchy
of its own (the R-tree, the quad-tree) keeps it out of the scope.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import QueryEngine
from repro.baselines import QuadTreeIndex, RTreeIndex
from repro.core.partition_tree import (PartitionTreeIndex, _SCOPE,
                                       sharing_partitions)
from repro.core.shallow_tree import ShallowPartitionTreeIndex
from repro.io.store import BlockStore
from repro.workloads import uniform_points

BLOCK_SIZE = 8


def stored_blocks(store, block_ids):
    """The payloads of ``block_ids`` as comparable values."""
    backend = store.backend
    out = []
    for block_id in block_ids:
        block = backend.get_payload(block_id)
        out.append((block.shape, block.tobytes())
                   if isinstance(block, np.ndarray) else repr(block))
    return out


def alone(points, kind=PartitionTreeIndex, **params):
    """The tree built on a fresh store outside any build scope."""
    assert _SCOPE.get() is None
    store = BlockStore(BLOCK_SIZE)
    return kind(points, store=store, **params), store


def test_equal_shapes_with_different_content_never_share():
    rng = np.random.default_rng(7)
    with sharing_partitions() as scope:
        points = rng.random((500, 2))
        first = PartitionTreeIndex(points, block_size=BLOCK_SIZE)
        built_over = [points.copy()]
        # The same array object, changed in place: same id, same pointer.
        points[:] = rng.random((500, 2))
        changed = PartitionTreeIndex(points, block_size=BLOCK_SIZE)
        built_over.append(points.copy())
        # A freed array's memory handed to a new one of the same shape.
        del points
        gc.collect()
        fresh = rng.random((500, 2))
        reborn = PartitionTreeIndex(fresh, block_size=BLOCK_SIZE)
        assert (scope.computed, scope.shared) == (3, 0)
        # The same content in another array is shared.
        again = PartitionTreeIndex(fresh.copy(), block_size=BLOCK_SIZE)
        assert (scope.computed, scope.shared) == (3, 1)
    built_over += [fresh, fresh]
    for tree, content in zip((first, changed, reborn, again), built_over):
        built, store = alone(content)
        assert stored_blocks(tree.store, range(tree.space_blocks)) \
            == stored_blocks(store, range(built.space_blocks))
    changed.check_invariants()
    reborn.check_invariants()
    again.check_invariants()


def test_the_fanout_numbers_are_part_of_the_key():
    points = np.random.default_rng(2).random((700, 2))
    with sharing_partitions() as scope:
        PartitionTreeIndex(points, block_size=BLOCK_SIZE)
        PartitionTreeIndex(points, block_size=BLOCK_SIZE, leaf_capacity=4)
        PartitionTreeIndex(points, block_size=BLOCK_SIZE, max_fanout=4)
        PartitionTreeIndex(points, block_size=2 * BLOCK_SIZE)
        assert (scope.computed, scope.shared) == (4, 0)
        # The shallow tree cuts its primary as the partition tree does.
        ShallowPartitionTreeIndex(points, block_size=BLOCK_SIZE)
        assert scope.shared >= 1


def test_a_shared_hierarchy_is_read_only_and_dropped_with_its_scope():
    points = np.random.default_rng(4).random((900, 3))
    with sharing_partitions() as scope:
        with sharing_partitions() as inner:     # an inner scope is the outer
            assert inner is scope
            PartitionTreeIndex(points, block_size=BLOCK_SIZE)
        [hierarchy] = scope.hierarchies.values()
        assert len(hierarchy) > 1
        for node in hierarchy:
            arrays = [node.indices] + ([] if node.corners is None
                                       else [node.corners])
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0
        dropped = weakref.ref(scope)
        del inner, hierarchy, node, arrays, array
    assert _SCOPE.get() is None
    del scope
    gc.collect()
    assert dropped() is None


def test_a_replicated_registration_writes_each_tree_as_built_alone(tmp_path):
    """The box trees bring hierarchies of their own, at the block size,
    fanout and leaf size the scope would key a median cut of the same
    chunk by: they neither store one in the scope (the dynamic tree
    after the R-tree would read it) nor read one (the quad-tree after
    the dynamic tree would)."""
    engine = QueryEngine(block_size=BLOCK_SIZE, seed=3, backend="file",
                         data_dir=str(tmp_path))
    kinds = (("rtree", RTreeIndex), ("dynamic", PartitionTreeIndex),
             ("quadtree", QuadTreeIndex))
    try:
        engine.register_sharded_dataset(
            "d", uniform_points(1500, seed=3), num_shards=2, replicas=2,
            kinds=[kind for kind, __ in kinds])
        assert _SCOPE.get() is None
        [trace_id] = engine.tracer.registry.ids()
        root = engine.tracer.get(trace_id)["root"]
        assert root["attributes"]["partitions_computed"] == 2
        uses = {}
        for span in root["children"]:
            attributes = span["attributes"]
            uses.setdefault((attributes["shard"], attributes["kind"]),
                            []).append(attributes["partition"])
        for shard in range(2):
            assert uses[shard, "rtree"] == uses[shard, "quadtree"] \
                == ["none", "none"]
            assert sorted(uses[shard, "dynamic"]) == ["computed", "shared"]
        for shard in engine.catalog.sharded("d").shards:
            for replica in shard.replicas:
                store = replica.store
                assert not store._run_ids and not store._runs_open
                store.check_invariants()
                first = 0
                for kind, factory in kinds:
                    index = replica.indexes[kind]
                    built, fresh = alone(replica.points, factory)
                    assert index.space_blocks == built.space_blocks > 0
                    assert index.build_ios.writes == built.build_ios.writes
                    assert stored_blocks(
                        store, range(first, first + index.space_blocks)) \
                        == stored_blocks(fresh, range(built.space_blocks))
                    first += index.space_blocks
                    index.check_invariants()
                assert first == store.num_blocks
    finally:
        engine.close()
