"""Unit tests for the external B+-tree."""

import pytest

from repro.io.btree import BTree
from repro.io.store import BlockStore


def make_tree(block_size=8, items=None, fanout=None):
    store = BlockStore(block_size=block_size, cache_blocks=0)
    tree = BTree(store, fanout=fanout)
    if items is not None:
        tree.bulk_load(items)
    tree.check_invariants()
    return store, tree


class TestBulkLoad:
    def test_empty_bulk_load(self):
        __, tree = make_tree(items=[])
        assert len(tree) == 0
        assert tree.search(1) is None

    def test_bulk_load_requires_sorted_input(self):
        store = BlockStore(block_size=8)
        tree = BTree(store)
        with pytest.raises(ValueError):
            tree.bulk_load([(2, "b"), (1, "a")])

    def test_bulk_load_twice_rejected(self):
        __, tree = make_tree(items=[(1, "a")])
        with pytest.raises(ValueError):
            tree.bulk_load([(2, "b")])

    def test_all_keys_searchable_after_bulk_load(self):
        items = [(i, i * 10) for i in range(200)]
        __, tree = make_tree(items=items)
        for key, value in items[::7]:
            assert tree.search(key) == value

    def test_height_grows_logarithmically(self):
        __, small = make_tree(items=[(i, i) for i in range(5)])
        __, large = make_tree(items=[(i, i) for i in range(500)])
        assert small.height <= large.height <= small.height + 4

    def test_items_iterates_in_key_order(self):
        items = [(i, str(i)) for i in range(100)]
        __, tree = make_tree(items=items)
        assert list(tree.items()) == items

    def test_fanout_validation(self):
        store = BlockStore(block_size=8)
        with pytest.raises(ValueError):
            BTree(store, fanout=1)
        with pytest.raises(ValueError):
            BTree(store, fanout=8)   # must leave room for the header record

    def test_space_blocks_reflects_node_count(self):
        __, tree = make_tree(items=[(i, i) for i in range(100)])
        assert tree.space_blocks == tree.num_nodes
        assert tree.space_blocks >= 100 // tree.fanout


class TestSearch:
    def test_search_missing_key(self):
        __, tree = make_tree(items=[(i, i) for i in range(0, 100, 2)])
        assert tree.search(31) is None

    def test_contains(self):
        __, tree = make_tree(items=[(1, "a"), (5, "b")])
        assert tree.contains(5)
        assert not tree.contains(4)

    def test_predecessor_exact_and_between(self):
        __, tree = make_tree(items=[(i * 10, i) for i in range(20)])
        assert tree.predecessor(50) == (50, 5)
        assert tree.predecessor(55) == (50, 5)
        assert tree.predecessor(-1) is None

    def test_successor_exact_and_between(self):
        __, tree = make_tree(items=[(i * 10, i) for i in range(20)])
        assert tree.successor(50) == (50, 5)
        assert tree.successor(55) == (60, 6)
        assert tree.successor(1000) is None

    def test_predecessor_with_negative_infinity_key(self):
        __, tree = make_tree(items=[(float("-inf"), 0), (1.0, 1), (2.0, 2)])
        assert tree.predecessor(0.5) == (float("-inf"), 0)
        assert tree.predecessor(1.5) == (1.0, 1)

    def test_search_io_cost_scales_with_height_not_size(self):
        store, tree = make_tree(block_size=16,
                                items=[(i, i) for i in range(2000)])
        store.reset_stats()
        tree.search(1234)
        assert store.stats.reads <= tree.height + 1


class TestRangeQuery:
    def test_range_query_inclusive_bounds(self):
        __, tree = make_tree(items=[(i, i) for i in range(100)])
        result = tree.range_query(10, 20)
        assert [key for key, __ in result] == list(range(10, 21))

    def test_range_query_empty_when_low_above_high(self):
        __, tree = make_tree(items=[(i, i) for i in range(10)])
        assert tree.range_query(5, 3) == []

    def test_range_query_outside_key_space(self):
        __, tree = make_tree(items=[(i, i) for i in range(10)])
        assert tree.range_query(100, 200) == []

    def test_range_query_io_cost_is_output_sensitive(self):
        store, tree = make_tree(block_size=16,
                                items=[(i, i) for i in range(4000)])
        store.reset_stats()
        small = tree.range_query(100, 110)
        small_cost = store.stats.reads
        store.reset_stats()
        large = tree.range_query(100, 1700)
        large_cost = store.stats.reads
        assert len(small) == 11 and len(large) == 1601
        # The large range reads many more blocks, but only ~T/B more.
        assert large_cost > small_cost
        assert large_cost <= small_cost + (len(large) // tree.fanout) + 3


class TestCheckInvariants:
    def test_the_check_reads_no_block(self):
        store, tree = make_tree(items=[(i, i) for i in range(200)])
        store.reset_stats()
        tree.check_invariants()
        assert store.stats.total == 0

    def test_duplicate_keys_across_leaves_pass(self):
        __, tree = make_tree(items=[(i // 20, i) for i in range(100)])
        tree.check_invariants()

    @pytest.mark.parametrize("corrupt, message", [
        (lambda node: node[:1] + node[1:][::-1], "do not ascend"),
        (lambda node: node[:1] + [(node[1][0] - 1, node[1][1])] + node[2:],
         "minimum"),
        (lambda node: node + node[1:], "fanout"),
    ])
    def test_a_broken_relation_raises(self, corrupt, message):
        store, tree = make_tree(items=[(i, i) for i in range(200)])
        root = store.backend.get(tree._root)
        store.backend.put(tree._root, corrupt(root))
        with pytest.raises(AssertionError, match=message):
            tree.check_invariants()

    def test_a_broken_leaf_chain_raises(self):
        store, tree = make_tree(items=[(i, i) for i in range(200)])
        first = next(block_id for block_id in range(store.num_blocks)
                     if store.backend.get(block_id)[0] == ("L", None))
        store.backend.put(first, [("L", first)] + store.backend.get(first)[1:])
        with pytest.raises(AssertionError, match="leaf chain"):
            tree.check_invariants()
