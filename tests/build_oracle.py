"""The per-leaf cell-tree writer, kept as the reference for leaf runs.

This is how a cell tree reached the disk before a run of leaves was one
write: ``CellTreeIndex._build`` wrote one node at a time, a leaf as
``DiskArray.from_matrix(store, points[indices])`` (its structure first,
for a kind that has one); ``BlockStore.allocate_matrix`` wrote a matrix
as ``allocate_many`` of its private copy, one ``allocate`` and one
``_put`` per block; and ``FileBackend.put_run`` encoded one record at a
time.  The leaf-run build's contract is equality with this in every
observable — block ids, ``IOStats``, write runs, pool entries and their
recency, node layout, ``_CellCosts`` and the backend's bytes
(``tests/test_leaf_runs.py``).
"""

import pickle
from contextlib import contextmanager
from typing import Iterator, List, Sequence

import numpy as np
import pytest

from repro.core.partition_tree import CellTreeIndex, _Node, encode_cells
from repro.io.backend import (_COLUMNAR_MAGIC, _COLUMNAR_SHAPE,
                              FileBackend, stored_form)
from repro.io.block import copy_point_matrix
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


def oracle_build(tree: CellTreeIndex, hierarchy, number: int,
                 ids: List[int]) -> int:
    """Write node ``number`` of ``hierarchy`` and its subtree,
    depth-first, one leaf at a time; node ids are post-order."""
    indices, children, corners = hierarchy[number]
    if corners is None:
        structure = None if tree._leaf_structure is None \
            else tree._leaf_structure(tree._points[indices])
        node = _Node(is_leaf=True, size=len(indices),
                     points_array=DiskArray.from_matrix(
                         tree._store, tree._points[indices]),
                     leaf_index=structure)
    else:
        child_ids = [oracle_build(tree, hierarchy, child, ids)
                     for child in children]
        node = tree._internal_node(indices, encode_cells(child_ids, corners))
    tree._nodes.append(node)
    ids[number] = len(tree._nodes) - 1
    return ids[number]


def oracle_put(store: BlockStore, block_id: int, block) -> None:
    """One block (one write I/O) into the run, handed to the backend at
    once when no run is open, then pooled."""
    if len(block) > store._block_size:
        raise ValueError("block %d overflow: %d records > capacity %d"
                         % (block_id, len(block), store._block_size))
    block = stored_form(block)
    store._run_ids.append(block_id)
    store._run_blocks.append(block)
    if not store._runs_open or len(store._run_ids) >= store._RUN_BLOCKS:
        store._flushed()
    store._cache.put(block_id, block)
    store.stats.writes += 1


def oracle_encode(block) -> bytes:
    """One block's payload: magic, shape and raw float64 bytes for a
    matrix, a pickle for a record list."""
    if isinstance(block, np.ndarray):
        return b"".join((_COLUMNAR_MAGIC, _COLUMNAR_SHAPE.pack(*block.shape),
                         block.tobytes()))
    return pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)


def oracle_put_run(backend: FileBackend, block_ids: Sequence[int],
                   blocks: Sequence) -> None:
    """The run's records appended one encoded record at a time, with the
    compaction test after each, in one write."""
    with backend._lock:
        backend._check_open()
        for block_id, block in zip(block_ids, blocks):
            payload = oracle_encode(block)
            previous = backend._index.get(block_id)
            backend._index[block_id] = backend._append(block_id, payload)
            backend._live_bytes += len(payload)
            if previous is not None:
                backend._live_bytes -= previous[1]
            backend._maybe_compact_locked()
        backend._write_appended()


@contextmanager
def per_leaf_writer() -> Iterator[None]:
    """Every cell tree built inside the ``with`` block is written by the
    per-leaf writer, down to the file backend's encoder."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CellTreeIndex, "_build",
                      lambda tree, hierarchy, run, ids:
                      [oracle_build(tree, hierarchy, run[0], ids)])
        patch.setattr(BlockStore, "allocate_matrix",
                      lambda store, matrix:
                      store.allocate_many(copy_point_matrix(matrix)))
        patch.setattr(BlockStore, "_put", oracle_put)
        patch.setattr(FileBackend, "put_run", oracle_put_run)
        yield
