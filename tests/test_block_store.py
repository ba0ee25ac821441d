"""Unit tests for the I/O-model substrate: blocks, cache and the block store."""

import numpy as np
import pytest

from repro.io.block import as_point_matrix, block_records
from repro.io.cache import LRUCache
from repro.io.store import BlockStore, IOStats

from scan_oracle import read_many, store_scan


class TestBlock:
    def test_block_rejects_non_positive_capacity(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                BlockStore(block_size=capacity)

    def test_copy_records_is_a_copy(self):
        for block in ([1, 2], as_point_matrix([(1.0, 2.0), (3.0, 4.0)])):
            copy = block_records(block)
            copy.append(3)
            assert len(block) == 2
            assert len(block_records(block)) == 2
        assert isinstance(block, np.ndarray)


class TestLRUCache:
    def test_zero_capacity_never_caches(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_put_then_get_hits(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a"
        cache.put("c", 3)       # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_invalidate_removes_entry(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.invalidate("a")
        assert cache.get("a") is None

    def test_clear_keeps_statistics(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.hits == 1
        assert cache.get("a") is None

    def test_hit_rate_reflects_history(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestIOStats:
    def test_total_is_reads_plus_writes(self):
        stats = IOStats(reads=3, writes=2)
        assert stats.total == 5

    def test_delta_subtracts_snapshot(self):
        stats = IOStats(reads=10, writes=4)
        earlier = IOStats(reads=6, writes=1)
        delta = stats.delta(earlier)
        assert delta.reads == 4
        assert delta.writes == 3

    def test_reset_zeroes_everything(self):
        stats = IOStats(reads=1, writes=1, allocations=1)
        stats.reset()
        assert stats.total == 0
        assert stats.allocations == 0

    def test_snapshot_is_independent(self):
        stats = IOStats(reads=1)
        snap = stats.snapshot()
        stats.reads += 5
        assert snap.reads == 1


class TestBlockStore:
    def test_block_size_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockStore(block_size=0)

    def test_allocate_charges_one_write(self):
        store = BlockStore(block_size=4, cache_blocks=0)
        store.allocate([1, 2])
        assert store.stats.writes == 1
        assert store.stats.reads == 0

    def test_read_charges_one_read_without_cache(self):
        store = BlockStore(block_size=4, cache_blocks=0)
        block_id = store.allocate([1, 2])
        assert store.read(block_id) == [1, 2]
        assert store.stats.reads == 1

    def test_cached_read_is_free(self):
        store = BlockStore(block_size=4, cache_blocks=2)
        block_id = store.allocate([1, 2])
        store.read(block_id)
        reads_before = store.stats.reads
        store.read(block_id)
        assert store.stats.reads == reads_before
        assert store.stats.cache_hits >= 1

    def test_allocate_many_packs_records_into_blocks(self):
        store = BlockStore(block_size=3, cache_blocks=0)
        block_ids = store.allocate_many(list(range(7)))
        assert len(block_ids) == 3
        assert read_many(store, block_ids) == list(range(7))

    def test_write_replaces_contents(self):
        store = BlockStore(block_size=4, cache_blocks=0)
        block_id = store.allocate([1])
        store.write(block_id, [9, 9])
        assert store.read(block_id) == [9, 9]

    def test_write_to_unallocated_block_raises(self):
        store = BlockStore(block_size=4)
        with pytest.raises(KeyError):
            store.write(123, [1])

    def test_read_unallocated_block_raises(self):
        store = BlockStore(block_size=4, cache_blocks=0)
        with pytest.raises(KeyError):
            store.read(5)

    def test_free_releases_space(self):
        store = BlockStore(block_size=4)
        block_id = store.allocate([1])
        assert store.num_blocks == 1
        store.free(block_id)
        assert store.num_blocks == 0
        with pytest.raises(KeyError):
            store.free(block_id)

    def test_scan_yields_records_in_order(self):
        store = BlockStore(block_size=2, cache_blocks=0)
        block_ids = store.allocate_many([1, 2, 3, 4, 5])
        assert list(store_scan(store, block_ids)) == [1, 2, 3, 4, 5]

    def test_reset_stats_keeps_data(self):
        store = BlockStore(block_size=4, cache_blocks=0)
        block_id = store.allocate([1])
        store.read(block_id)
        store.reset_stats()
        assert store.stats.total == 0
        assert store.read(block_id) == [1]

    def test_blocks_for_rounds_up(self):
        store = BlockStore(block_size=4)
        assert store.blocks_for(0) == 0
        assert store.blocks_for(1) == 1
        assert store.blocks_for(4) == 1
        assert store.blocks_for(5) == 2

    def test_block_overflow_rejected_on_allocate(self):
        store = BlockStore(block_size=2)
        with pytest.raises(ValueError):
            store.allocate([1, 2, 3])
        assert store.num_blocks == 0 and store.stats.total == 0

    def test_block_overflow_rejected_on_write(self):
        store = BlockStore(block_size=2)
        block_id = store.allocate([1, 2])
        with pytest.raises(ValueError):
            store.write(block_id, [1, 2, 3])

    def test_read_returns_copy_not_alias(self):
        store = BlockStore(block_size=4, cache_blocks=2)
        block_id = store.allocate([[1], [2]])
        first = store.read(block_id)
        first.append([3])
        assert len(store.read(block_id)) == 2
