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
        assert tree.predecessor(1) is None

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
            assert tree.predecessor(key) == (key, value)

    def test_height_grows_logarithmically(self):
        __, small = make_tree(items=[(i, i) for i in range(5)])
        __, large = make_tree(items=[(i, i) for i in range(500)])
        assert small.height <= large.height <= small.height + 4

    def test_items_iterates_in_key_order(self):
        # The leaf chain, as the checker walks it, holds every item in
        # key order.
        items = [(i, str(i)) for i in range(100)]
        __, tree = make_tree(items=items)
        assert tree.check_invariants() == items

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
        assert tree.predecessor(31) == (30, 30)

    def test_contains(self):
        __, tree = make_tree(items=[(1, "a"), (5, "b")])
        assert tree.predecessor(5) == (5, "b")
        assert tree.predecessor(4) == (1, "a")

    def test_predecessor_exact_and_between(self):
        __, tree = make_tree(items=[(i * 10, i) for i in range(20)])
        assert tree.predecessor(50) == (50, 5)
        assert tree.predecessor(55) == (50, 5)
        assert tree.predecessor(-1) is None

    def test_predecessor_with_negative_infinity_key(self):
        __, tree = make_tree(items=[(float("-inf"), 0), (1.0, 1), (2.0, 2)])
        assert tree.predecessor(0.5) == (float("-inf"), 0)
        assert tree.predecessor(1.5) == (1.0, 1)

    def test_search_io_cost_scales_with_height_not_size(self):
        store, tree = make_tree(block_size=16,
                                items=[(i, i) for i in range(2000)])
        store.reset_stats()
        assert tree.predecessor(1234) == (1234, 1234)
        assert store.stats.reads == tree.height


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
