"""The columnar write path is the record path without the records.

``BlockStore.allocate_matrix(m)`` is *defined* as
``allocate_many([tuple(r) for r in m.tolist()])`` — the same block ids,
:class:`IOStats`, pool entries in the same recency order, the same blocks
read back, and on a file backend the same bytes in the log — so twin
stores are driven through both and compared.  The index builds sit on
top of it: every kind is built twice, once as shipped and once with
``DiskArray.from_matrix`` replaced by a test-only twin that writes the
row tuples through the record path, and everything observable must
agree.
"""

from __future__ import annotations

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import observable, replayed, rows
from overlaid import OverlaidTree
from scan_oracle import read_all, read_range, scalar_kernels, store_scan
from repro.baselines.full_scan import FullScanIndex
from repro.core.partition_tree import PartitionTreeIndex
from repro.engine.catalog import INDEX_KINDS
from repro.geometry.primitives import LinearConstraint
from repro.io.backend import FileBackend
from repro.io.block import block_records
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

BACKENDS = ["memory", "file"]


def row_tuples(matrix):
    return [tuple(row) for row in np.asarray(matrix, dtype=float).tolist()]


# ----------------------------------------------------------------------
# allocate_matrix == allocate_many of the row tuples
# ----------------------------------------------------------------------
SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.5, -3.25,
           float(np.float32(0.1)), 1.7976931348623157e308, 1e-7]
LAYOUTS = ["plain", "strided", "read_only", "float32", "fortran"]


@st.composite
def matrices(draw):
    block_size = draw(st.sampled_from([4, 32]))
    rows = draw(st.one_of(
        st.sampled_from([0, 1, block_size - 1, block_size, block_size + 1]),
        st.integers(0, 300)))
    columns = draw(st.integers(1, 5))
    pool = draw(st.lists(st.one_of(
        st.sampled_from(SPECIAL),
        st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1, max_size=8))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    # Few distinct values: duplicates within and across rows.
    wide = rng.choice(np.array(pool), size=(rows, 2 * columns))
    if layout == "strided":
        matrix = wide[:, ::2]
    elif layout == "float32":
        with np.errstate(over="ignore"):
            matrix = wide[:, :columns].astype(np.float32)
        matrix = matrix[np.isfinite(matrix).all(axis=1)]
    elif layout == "fortran":
        matrix = np.asfortranarray(wide[:, :columns])
    else:
        matrix = wide[:, :columns].copy()
        matrix.setflags(write=layout != "read_only")
    return block_size, matrix


def read_each(store, ids):
    return [store.read(block_id) for block_id in ids]


def payload_each(store, ids):
    return [store.read_payload(block_id) for block_id in ids]


def open_twins(backend, block_size, capacity, directory):
    stores = []
    for name in ("matrix", "records"):
        path = os.path.join(directory, name + ".log")
        medium = "memory" if backend == "memory" else FileBackend(path)
        stores.append(BlockStore(block_size, cache_blocks=capacity,
                                 backend=medium))
    return stores


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(drawn=matrices(), capacity=st.integers(0, 6))
def test_allocate_matrix_is_allocate_many_of_the_rows(backend, drawn,
                                                      capacity):
    block_size, matrix = drawn
    with tempfile.TemporaryDirectory() as directory:
        by_matrix, by_records = open_twins(backend, block_size, capacity,
                                           directory)
        try:
            for store in (by_matrix, by_records):
                store.allocate([("not", "a point block")])
            expected = row_tuples(matrix)
            ids = by_matrix.allocate_matrix(matrix)
            assert ids == by_records.allocate_many(expected)
            assert len(ids) == -(-len(matrix) // block_size)
            assert observable(by_matrix) == observable(by_records)
            by_matrix.check_invariants()
            by_records.check_invariants()
            if matrix.flags.writeable and matrix.size:
                matrix[...] = 99.0      # the caller's array stays its own
            for read in (read_each, BlockStore.read_run, payload_each):
                for block, twin in zip(read(by_matrix, ids),
                                       read(by_records, ids)):
                    assert type(block) is type(twin)
                    if isinstance(block, np.ndarray):
                        assert block.flags.writeable \
                            == twin.flags.writeable
                        assert block.tobytes() == twin.tobytes()
                    else:
                        # repr tells -0.0 from 0.0, and a float from a
                        # numpy scalar.
                        assert repr(block) == repr(twin)
                assert observable(by_matrix) == observable(by_records)
                by_matrix.check_invariants()
                by_records.check_invariants()
            flat = [record for block_id in ids
                    for record in by_matrix.read(block_id)]
            assert repr(flat) == repr(expected)
            if backend == "memory":
                return
            logs = []
            for store in (by_matrix, by_records):
                store.backend.sync()
                with open(store.backend.path, "rb") as handle:
                    logs.append(handle.read())
            assert logs[0] == logs[1]
            by_matrix.close()
            blocks, __ = replayed(by_matrix.backend.path)
            assert sorted(blocks) == [0] + ids
            assert repr([record for block_id in ids
                         for record in block_records(blocks[block_id])]) \
                == repr(expected)
        finally:
            by_matrix.close()
            by_records.close()


@pytest.mark.parametrize("bad", [
    np.empty((3, 0)), np.zeros(4), np.zeros((2, 2, 2)), np.float64(1.0),
    np.arange(6).reshape(3, 2), np.array([["a", "b"]]),
    np.array([[1.0, None]], dtype=object)])
def test_only_a_float_matrix_with_a_column_qualifies(bad):
    store = BlockStore(4)
    with pytest.raises(ValueError):
        store.allocate_matrix(bad)
    with pytest.raises(ValueError):
        DiskArray.from_matrix(store, bad)
    assert store.num_blocks == 0 and store.stats.total == 0
    assert store.stats.allocations == 0


@pytest.mark.parametrize("rows", [0, 1, 4, 5, 8, 11])
def test_a_disk_array_from_a_matrix_grows_like_any_other(rows):
    matrix = np.arange(2.0 * rows).reshape(rows, 2)
    stores = BlockStore(4, cache_blocks=2), BlockStore(4, cache_blocks=2)
    arrays = (DiskArray.from_matrix(stores[0], matrix),
              DiskArray(stores[1], row_tuples(matrix)))
    for array in arrays:
        array.check_invariants()
        array.append((0.5, 0.25))
        array.check_invariants()
        array.extend([(7.0, 8.0)] * 4)
        array.check_invariants()
    assert len(arrays[0]) == len(arrays[1]) == rows + 5
    assert arrays[0].block_ids == arrays[1].block_ids
    assert repr(read_all(arrays[0])) == repr(read_all(arrays[1]))
    assert np.array_equal(arrays[0].read_all_array(),
                          arrays[1].read_all_array())
    assert observable(stores[0]) == observable(stores[1])


# ----------------------------------------------------------------------
# one record type on every backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_stored_coordinate_is_a_float_on_every_backend(backend, scalar,
                                                         rng):
    points = rng.random((100, 3))
    store = BlockStore(8, cache_blocks=2, backend=backend)
    try:
        tree = PartitionTreeIndex(points, store=store)
        array = DiskArray.from_matrix(store, points)
        constraint = LinearConstraint(coeffs=(0.25, -0.5), offset=0.75)

        def views():
            leaf = next(node for node in tree._nodes if node.is_leaf)
            yield store.read(leaf.points_array.block_ids[0])
            yield list(store_scan(store, array.block_ids))
            yield read_all(array)
            yield read_range(array, 3, 21)
            yield [array[17]]
            yield rows(tree.query(constraint))

        for cold in (True, False):      # from the medium, from the pool
            if cold:
                store.clear_cache()
            if scalar:
                with scalar_kernels():
                    reads = list(views())
            else:
                reads = list(views())
            for records in reads:
                assert records
                for record in records:
                    assert type(record) is tuple
                    assert all(type(c) is float for c in record)
        assert sorted(read_all(array)) == sorted(map(tuple,
                                                      points.tolist()))
    finally:
        store.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_delete_finds_a_stored_point_however_it_is_spelt(backend, rng):
    points = rng.random((64, 2))
    points[10] = points[11] = points[12] = points[13]      # four copies
    everything = LinearConstraint(coeffs=(0.0,), offset=2.0)
    store = BlockStore(8, backend=backend)
    try:
        index = OverlaidTree(points, store=store)
        target = tuple(points[13].tolist())
        spellings = [target,                                # floats
                     tuple(np.float64(c) for c in target),  # numpy scalars
                     points[13],                            # an array row
                     list(target)]
        for done, spelling in enumerate(spellings, start=1):
            assert index.delete(spelling) is True
            assert index.tombstoned == done
            assert index.size == 64 - done
            answer = [tuple(point) for point in index.query(everything)]
            assert answer.count(target) == 4 - done
            assert len(answer) == 64 - done
        assert index.delete(target) is False               # none left
        assert index.delete(points[20] + 1e-9) is False    # never stored
        assert sorted(index.live_points()) == sorted(
            point for point in map(tuple, points.tolist())
            if point != target)
    finally:
        store.close()


# ----------------------------------------------------------------------
# every index builds the blocks its record-path twin builds
# ----------------------------------------------------------------------
def records_twin(cls, store, matrix):
    """``DiskArray.from_matrix`` as it would be without a columnar write
    path: one tuple per row, through ``DiskArray.extend``."""
    matrix = np.asarray(matrix, dtype=float)
    assert matrix.ndim == 2
    return cls(store, row_tuples(matrix))


def inputs(dimension):
    rng = np.random.default_rng([24, dimension])
    cube = rng.random((300, dimension))
    duplicated = cube[rng.integers(0, 40, 300)]
    return {"cube": cube, "duplicated": duplicated, "below_a_block": cube[:5],
            "empty": np.empty((0, dimension))}


def constraints(dimension):
    rng = np.random.default_rng([25, dimension])
    return [LinearConstraint(coeffs=tuple(rng.normal(size=dimension - 1)),
                             offset=float(offset))
            for offset in (0.05, 0.4, 1.5)]


def build_and_query(kind, backend, points, path):
    store = BlockStore(8, cache_blocks=4, backend=(
        "memory" if backend == "memory" else FileBackend(path)))
    try:
        params = {"seed": 7} if kind in ("halfplane2d", "halfspace3d",
                                         "hybrid3d") else {}
        index = INDEX_KINDS[kind].factory(points, store=store, **params)
        seen = {"space_blocks": index.space_blocks,
                "build_ios": vars(index.build_ios),
                "after_build": observable(store),
                "blocks": repr({block_id: store.backend.get(block_id)
                                for block_id in sorted(
                                    store.backend.block_ids())})}
        for number, constraint in enumerate(constraints(points.shape[1])):
            result = index.query_with_stats(constraint)
            answer, ios = result.points, result.ios
            truth = sorted(map(tuple, points[[
                constraint.below(point) for point in points]].tolist()))
            assert sorted(map(tuple, answer)) == truth
            seen["query_%d" % number] = (
                repr([tuple(point) for point in answer]), vars(ios))
        seen["after_queries"] = observable(store)
        if backend == "file":
            store.backend.sync()
            with open(path, "rb") as handle:
                seen["log"] = handle.read()
        return seen
    finally:
        store.close()


KINDS = [(kind, 3 if INDEX_KINDS[kind].dimensions == (3,) else 2)
         for kind in INDEX_KINDS] + [("partition_tree", 4),
                                     ("shallow_tree", 3), ("dynamic", 3)]


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("kind,dimension", KINDS)
def test_an_index_builds_what_its_record_path_twin_builds(
        kind, dimension, backend, tmp_path, monkeypatch):
    for name, points in inputs(dimension).items():
        shipped = build_and_query(kind, backend, points,
                                  str(tmp_path / (name + ".log")))
        with monkeypatch.context() as patch:
            patch.setattr(DiskArray, "from_matrix",
                          classmethod(records_twin))
            twin = build_and_query(kind, backend, points,
                                   str(tmp_path / (name + "-twin.log")))
        assert shipped.keys() == twin.keys()
        for key in shipped:
            assert shipped[key] == twin[key], (name, key)
        if len(points):
            assert shipped["space_blocks"] > 0


def test_a_build_allocates_no_tuple_per_record(rng):
    points = rng.random((65536, 2))
    FullScanIndex(points[:64], block_size=32)               # warm imports
    tracemalloc.start()
    try:
        index = FullScanIndex(points, block_size=32)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.space_blocks == 2048
    # The store's copy of the matrix, and 2048 views, pool entries and
    # dictionary slots; a tuple of two floats per record is 6.8 MB more.
    assert peak - points.nbytes <= 3 * 2 ** 20, peak
