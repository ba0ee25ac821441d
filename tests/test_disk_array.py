"""Unit tests for DiskArray."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

from scan_oracle import read_all, read_block, read_range, scan


class TestDiskArray:
    def test_empty_array(self, store):
        array = DiskArray(store)
        assert len(array) == 0
        assert array.num_blocks == 0
        assert list(scan(array)) == []

    def test_construction_from_records(self, store):
        array = DiskArray(store, list(range(20)))
        assert len(array) == 20
        assert array.num_blocks == 3          # block size 8 -> ceil(20/8)
        assert read_all(array) == list(range(20))

    def test_append_fills_last_block_before_allocating(self, store):
        array = DiskArray(store, list(range(7)))
        assert array.num_blocks == 1
        array.append(7)
        assert array.num_blocks == 1
        array.append(8)
        assert array.num_blocks == 2

    def test_extend_after_partial_block(self, store):
        array = DiskArray(store, [0, 1, 2])
        array.extend(range(3, 12))
        assert read_all(array) == list(range(12))
        assert array.num_blocks == 2

    def test_getitem_random_access(self, store):
        array = DiskArray(store, list(range(25)))
        assert array[0] == 0
        assert array[13] == 13
        assert array[-1] == 24

    def test_getitem_out_of_range(self, store):
        array = DiskArray(store, [1, 2, 3])
        with pytest.raises(IndexError):
            array[3]

    def test_read_range_spans_blocks(self, store):
        array = DiskArray(store, list(range(30)))
        assert read_range(array, 5, 20) == list(range(5, 20))
        assert read_range(array, 0, 0) == []

    def test_read_range_invalid_bounds(self, store):
        array = DiskArray(store, list(range(10)))
        with pytest.raises(IndexError):
            read_range(array, 5, 20)

    def test_scan_costs_one_read_per_block(self, store_nocache):
        array = DiskArray(store_nocache, list(range(24)))
        store_nocache.reset_stats()
        list(scan(array))
        assert store_nocache.stats.reads == 3

    def test_clear_frees_all_blocks(self, store):
        array = DiskArray(store, list(range(20)))
        blocks_before = store.num_blocks
        array.clear()
        assert store.num_blocks == blocks_before - 3
        assert len(array) == 0

    def test_iteration_matches_scan(self, store):
        array = DiskArray(store, list(range(10)))
        assert list(array) == list(scan(array))

    def test_read_block_returns_single_block(self, store):
        array = DiskArray(store, list(range(10)))
        assert read_block(array, 1) == [8, 9]

    def test_read_range_touches_only_covered_blocks(self, store_nocache):
        # Block size 8: records 0..39 live in blocks [0..7][8..15][16..23]...
        array = DiskArray(store_nocache, list(range(40)))
        store_nocache.reset_stats()
        assert read_range(array, 10, 14) == list(range(10, 14))
        assert store_nocache.stats.reads == 1      # inside one block
        store_nocache.reset_stats()
        assert read_range(array, 5, 20) == list(range(5, 20))
        assert store_nocache.stats.reads == 3      # blocks 0, 1, 2
        store_nocache.reset_stats()
        assert read_range(array, 8, 16) == list(range(8, 16))
        assert store_nocache.stats.reads == 1      # exactly block 1

    def test_read_range_array_is_read_range_as_one_matrix(self, store_nocache):
        """Same rows, same blocks charged, for every range of a columnar
        array (a view of the block when one block holds the range)."""
        rows = [(float(i), float(-i), 0.5 * i) for i in range(40)]
        array = DiskArray(store_nocache, rows)
        for start, stop in [(0, 1), (3, 8), (7, 9), (8, 16), (5, 40), (39, 40)]:
            store_nocache.reset_stats()
            records = read_range(array, start, stop)
            reads = store_nocache.stats.reads
            store_nocache.reset_stats()
            matrix = array.read_range_array(start, stop)
            assert store_nocache.stats.reads == reads
            assert [tuple(row) for row in matrix.tolist()] == records

    def test_read_range_block_aligned_and_edges(self, store):
        array = DiskArray(store, list(range(30)))
        assert read_range(array, 0, 30) == list(range(30))
        assert read_range(array, 0, 8) == list(range(8))
        assert read_range(array, 24, 30) == list(range(24, 30))
        assert read_range(array, 7, 9) == [7, 8]

    def test_scan_batches_matches_scan(self, store):
        points = [(float(i), float(i * 2)) for i in range(20)]
        array = DiskArray(store, points)
        batched = []
        for matrix in array.scan_batches():
            assert isinstance(matrix, np.ndarray)
            batched.extend(tuple(row) for row in matrix.tolist())
        assert batched == list(scan(array))

    def test_scan_batches_same_ios_as_scan(self, store_nocache):
        points = [(float(i), float(i)) for i in range(24)]
        array = DiskArray(store_nocache, points)
        store_nocache.reset_stats()
        list(scan(array))
        scalar = store_nocache.stats.snapshot()
        store_nocache.reset_stats()
        list(array.scan_batches())
        assert store_nocache.stats.reads == scalar.reads
        assert store_nocache.stats.cache_hits == scalar.cache_hits

    def test_scan_batches_non_point_records_fall_back(self, store):
        array = DiskArray(store, ["a", "b", "c"])
        blocks = list(array.scan_batches())
        assert blocks == [["a", "b", "c"]]

    def test_read_all_array_stacks_blocks(self, store):
        points = [(float(i), -float(i)) for i in range(20)]
        array = DiskArray(store, points)
        matrix = array.read_all_array()
        assert matrix is not None
        assert matrix.shape == (20, 2)
        assert [tuple(row) for row in matrix.tolist()] == points

    def test_read_all_array_mixed_records_returns_none(self, store):
        array = DiskArray(store, [(1.0, 2.0)] * 8 + ["not a point"])
        assert array.read_all_array() is None
        assert read_all(array) == [(1.0, 2.0)] * 8 + ["not a point"]

    def test_read_all_array_empty(self, store):
        assert DiskArray(store).read_all_array() is None


point_rows = st.tuples(st.floats(-4, 4, allow_nan=False),
                       st.floats(-4, 4, allow_nan=False))
records = st.one_of(point_rows, point_rows, st.integers(-9, 9))
positions = st.integers(0, 40)
array_steps = st.lists(st.one_of(
    st.tuples(st.just("append"), records),
    st.tuples(st.just("extend"), st.lists(records, max_size=11)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("from_matrix"), st.lists(point_rows, max_size=11)),
    st.tuples(st.just("range"), positions, positions),
), min_size=1, max_size=12)


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=60, deadline=None)
@given(block_size=st.sampled_from([1, 3, 4]), capacity=st.integers(0, 3),
       script=array_steps)
def test_a_disk_array_reads_back_its_list_twin(backend, block_size, capacity,
                                               script):
    """Generated append / extend / clear / from_matrix scripts: after
    every step the array reads back as the list it twins, and both
    invariant checkers hold."""
    store = BlockStore(block_size, cache_blocks=capacity, backend=backend)
    try:
        array, twin = DiskArray(store), []
        for step in script:
            if step[0] == "append":
                array.append(step[1])
                twin.append(step[1])
            elif step[0] == "extend":
                array.extend(step[1])
                twin.extend(step[1])
            elif step[0] == "clear":
                array.clear()
                twin = []
            elif step[0] == "from_matrix":
                array.clear()
                array = DiskArray.from_matrix(
                    store, np.array(step[1], dtype=float).reshape(-1, 2))
                twin = list(step[1])
            else:
                start, stop = sorted((min(step[1], len(twin)),
                                      min(step[2], len(twin))))
                assert repr(read_range(array, start, stop)) \
                    == repr(twin[start:stop]), step
            array.check_invariants()
            store.check_invariants()
            assert len(array) == len(twin)
            assert repr(read_all(array)) == repr(twin), step
            matrix = array.read_all_array()
            if not twin or any(type(record) is not tuple for record in twin):
                assert matrix is None, step
            else:
                assert matrix.tobytes() == np.array(twin).tobytes(), step
    finally:
        store.close()


def test_check_invariants_catches_a_torn_array(store):
    array = DiskArray(store, [(float(i), 0.0) for i in range(20)])
    array.check_invariants()
    array._last_block_fill -= 1                 # the bookkeeping lies
    with pytest.raises(AssertionError):
        array.check_invariants()
    array._last_block_fill += 1
    store.write(array.block_ids[0], [(0.0, 0.0)])   # a short inner block
    with pytest.raises(AssertionError):
        array.check_invariants()
    store.free(array.block_ids[1])
    with pytest.raises(AssertionError):
        array.check_invariants()
