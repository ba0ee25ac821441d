"""A cell tree writes its leaves a run at a time.

Two judges.  Every cell-tree kind, on every backend and on random,
duplicated, grid and tiny point sets, is built twice — by the leaf-run
build and by the per-leaf writer of ``build_oracle.py`` — and the two
must agree on every observable.  And a spy counts the store's columnar
write calls during one build: one per leaf run and one per table,
never one per leaf.
"""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HybridIndex3D, PartitionTreeIndex, ShallowPartitionTreeIndex
from repro.baselines.quadtree import QuadTreeIndex
from repro.baselines.rtree import RTreeIndex
from repro.core.partition_tree import CellTreeIndex
from repro.io.store import BlockStore

from build_oracle import per_leaf_writer
from overlaid import OverlaidTree

BLOCK = 4


def _dynamic(points, store):
    """A tree under its overlay through inserts and a forced rebuild."""
    index = OverlaidTree(points, store=store, block_size=BLOCK,
                         leaf_capacity=3)
    for point in points[:3]:
        index.insert(tuple(point * 0.5))
    index._rebuild()
    return index


#: Each kind as (dimension, builder(points, store)).
KINDS = {
    "partition_tree": (2, lambda points, store: PartitionTreeIndex(
        points, store=store, block_size=BLOCK)),
    "shallow_tree": (2, lambda points, store: ShallowPartitionTreeIndex(
        points, store=store, block_size=BLOCK, leaf_capacity=3)),
    "hybrid3d": (3, lambda points, store: HybridIndex3D(
        points, store=store, block_size=BLOCK, seed=5)),
    "rtree": (2, lambda points, store: RTreeIndex(
        points, store=store, block_size=BLOCK)),
    "quadtree": (2, lambda points, store: QuadTreeIndex(
        points, store=store, block_size=BLOCK, max_depth=6)),
    "dynamic": (2, _dynamic),
}


@st.composite
def point_sets(draw, dimension):
    """Random, duplicated, grid or fewer-than-B points."""
    shape = draw(st.sampled_from(["random", "duplicates", "grid", "tiny"]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    if shape == "tiny":
        return rng.random((draw(st.integers(1, BLOCK - 1)), dimension))
    count = draw(st.integers(BLOCK, 90))
    if shape == "random":
        return rng.random((count, dimension))
    if shape == "duplicates":
        distinct = rng.random((draw(st.integers(1, 5)), dimension))
        return distinct[rng.integers(0, len(distinct), count)]
    return rng.integers(0, 4, (count, dimension)).astype(float) / 4


def _trees(index) -> List[CellTreeIndex]:
    """The cell trees an index is made of: itself (or an overlaid
    tree's tree) and every shallow node's secondary tree."""
    tree = index._tree if isinstance(index, OverlaidTree) else index
    found = [tree]
    for node in tree._nodes:
        if node.secondary is not None:
            found += _trees(node.secondary)
    return found


def _block(block):
    if isinstance(block, np.ndarray):
        return ("matrix", block.shape, block.dtype.str, block.tobytes(),
                block.flags.writeable, block.flags.c_contiguous)
    return ("list", repr(block))


def observed(index, store: BlockStore) -> Dict[str, object]:
    """Everything the two writers must agree on."""
    layout, costs = [], []
    for tree in _trees(index):
        layout.append([(node.is_leaf, node.size,
                        (node.points_array if node.is_leaf
                         else node.child_table).block_ids,
                        node.leaf_index is not None, node.crossing_threshold)
                       for node in tree._nodes])
        if tree._costs is not None:
            costs.append([[field.tolist() for field in value]
                          if isinstance(value, tuple) else value.tolist()
                          for value in tree._costs])
    pool = [(block_id, _block(block))
            for block_id, block in store._cache.items()]
    stats = vars(store.stats).copy()
    runs = store.write_runs
    backend = store.backend
    if backend.name == "memory":
        medium = [(block_id, _block(backend.get_payload(block_id)))
                  for block_id in sorted(backend.block_ids())]
    else:
        backend.sync()
        with open(backend.path, "rb") as handle:
            medium = handle.read()
    return {"layout": layout, "costs": costs, "pool": pool, "stats": stats,
            "write_runs": runs, "space": index.space_blocks,
            "build_ios": vars(index.build_ios), "medium": medium}


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_leaf_run_writes_what_its_leaves_wrote_one_by_one(kind, backend,
                                                             data):
    dimension, build = KINDS[kind]
    points = data.draw(point_sets(dimension))
    cache_blocks = data.draw(st.sampled_from([0, 3, 64]))
    sides = []
    for writer in (None, per_leaf_writer):
        store = BlockStore(BLOCK, cache_blocks=cache_blocks, backend=backend)
        try:
            if writer is None:
                index = build(points, store)
            else:
                with writer():
                    index = build(points, store)
            index.check_invariants()
            store.check_invariants()
            sides.append(observed(index, store))
        finally:
            store.close()
    leaf_runs, per_leaf = sides
    for key in per_leaf:
        assert leaf_runs[key] == per_leaf[key], key


def _expected_calls(tree: CellTreeIndex) -> int:
    """One columnar write per run of consecutive leaves (a leaf with a
    structure of its own alone) and one per table."""
    calls = 0
    for node in tree._nodes:
        if node.is_leaf:
            calls += node is tree._nodes[tree._root]
            continue
        table = node.child_table.read_all_array()
        leaves = [tree._nodes[int(child)].is_leaf for child in table[:, 0]]
        calls += 1 + sum(
            leaf and (position == 0 or not leaves[position - 1]
                      or tree._leaf_structure is not None)
            for position, leaf in enumerate(leaves))
    return calls


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_build_makes_one_store_call_per_leaf_run_and_table(kind,
                                                             monkeypatch):
    dimension, build = KINDS[kind]
    rng = np.random.default_rng(7)
    points = rng.random((300, dimension))
    calls = []
    inside_structure = []
    allocate_arrays = BlockStore.allocate_arrays
    leaf_structure = HybridIndex3D._leaf_structure

    def spy(store, rows, lengths):
        if not inside_structure:
            calls.append(len(lengths))
        return allocate_arrays(store, rows, lengths)

    def structure(tree, leaf_points):
        inside_structure.append(True)
        try:
            return leaf_structure(tree, leaf_points)
        finally:
            inside_structure.pop()

    monkeypatch.setattr(BlockStore, "allocate_arrays", spy)
    monkeypatch.setattr(HybridIndex3D, "_leaf_structure", structure)
    store = BlockStore(BLOCK, cache_blocks=4)
    if kind == "dynamic":
        index = OverlaidTree(points, store=store, block_size=BLOCK)
    else:
        index = build(points, store)
    trees = _trees(index)
    leaves = sum(node.is_leaf for tree in trees for node in tree._nodes)
    tables = sum(not node.is_leaf for tree in trees for node in tree._nodes)
    assert len(calls) == sum(map(_expected_calls, trees))
    assert sum(calls) == leaves + tables      # every leaf, in some call
    if kind != "hybrid3d":    # a hybrid leaf's structure ends every run
        assert len(calls) < leaves
