"""An external-memory B+-tree over the simulated disk.

Each tree node occupies exactly one disk block, so a root-to-leaf search
costs O(log_B n) I/Os — the 1-D optimum the paper uses as its yardstick
(Section 1.2).  The 2-D structure (Section 3) builds one per clustering,
its boundary-point tree ``T_i``, with :meth:`BTree.bulk_load` and probes
it with :meth:`BTree.predecessor`; no other structure uses it, and those
are the tree's whole query surface.  The leaves stay chained in key order
(the classic B+-tree layout, which :meth:`BTree.check_invariants` walks).

Keys may be any totally ordered Python values; values are arbitrary.
"""

from __future__ import annotations

import bisect
from typing import Any, List, Optional, Sequence, Tuple

from repro.io.block import BlockId
from repro.io.store import BlockStore

_LEAF = "L"
_INTERNAL = "I"


class BTree:
    """An external B+-tree with one node per disk block.

    Parameters
    ----------
    store:
        The simulated disk to allocate nodes on.
    fanout:
        Maximum number of entries per node.  Defaults to ``B - 1`` (one
        record slot per block is used for the node header).
    """

    def __init__(self, store: BlockStore, fanout: Optional[int] = None):
        self._store = store
        max_fanout = store.block_size - 1
        if fanout is None:
            fanout = max_fanout
        if not 2 <= fanout <= max_fanout:
            raise ValueError(
                "fanout must be between 2 and block_size-1 (%d), got %r"
                % (max_fanout, fanout))
        self._fanout = fanout
        self._root: Optional[BlockId] = None
        self._height = 0
        self._length = 0
        self._node_count = 0

    # ------------------------------------------------------------------
    # node encoding helpers
    # ------------------------------------------------------------------
    def _write_node(self, kind: str, entries: Sequence[Tuple[Any, Any]],
                    next_leaf: Optional[BlockId] = None) -> BlockId:
        self._node_count += 1
        return self._store.allocate([(kind, next_leaf)] + list(entries))

    def _read_node(self, block_id: BlockId):
        records = self._store.read(block_id)
        kind, next_leaf = records[0]
        entries = records[1:]
        return kind, next_leaf, entries

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a single leaf)."""
        return self._height

    @property
    def fanout(self) -> int:
        """Maximum entries per node."""
        return self._fanout

    @property
    def num_nodes(self) -> int:
        """Number of allocated tree nodes (= blocks of space used)."""
        return self._node_count

    @property
    def space_blocks(self) -> int:
        """Disk blocks occupied by the tree."""
        return self._node_count

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def bulk_load(self, items: Sequence[Tuple[Any, Any]]) -> None:
        """Build the tree bottom-up from ``items`` sorted by key.

        Raises :class:`ValueError` if the tree already holds data or the
        input is not sorted.
        """
        if self._root is not None:
            raise ValueError("bulk_load requires an empty tree")
        items = list(items)
        for i in range(1, len(items)):
            if items[i - 1][0] > items[i][0]:
                raise ValueError("bulk_load input must be sorted by key")
        if not items:
            return
        fanout = self._fanout
        # Build the leaf level.
        leaf_specs: List[Tuple[Any, List[Tuple[Any, Any]]]] = []
        for start in range(0, len(items), fanout):
            chunk = items[start:start + fanout]
            leaf_specs.append((chunk[0][0], chunk))
        leaf_ids: List[BlockId] = [None] * len(leaf_specs)  # type: ignore
        # Allocate leaves back to front so next-leaf pointers are known.
        next_id: Optional[BlockId] = None
        for index in range(len(leaf_specs) - 1, -1, -1):
            __, chunk = leaf_specs[index]
            next_id = self._write_node(_LEAF, chunk, next_leaf=next_id)
            leaf_ids[index] = next_id
        level: List[Tuple[Any, BlockId]] = [
            (leaf_specs[i][0], leaf_ids[i]) for i in range(len(leaf_specs))]
        self._height = 1
        # Build internal levels until a single root remains.
        while len(level) > 1:
            parent_level: List[Tuple[Any, BlockId]] = []
            for start in range(0, len(level), fanout):
                chunk = level[start:start + fanout]
                node_id = self._write_node(_INTERNAL, chunk)
                parent_level.append((chunk[0][0], node_id))
            level = parent_level
            self._height += 1
        self._root = level[0][1]
        self._length = len(items)

    # ------------------------------------------------------------------
    # searching
    # ------------------------------------------------------------------
    def predecessor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Return the (key, value) with the largest key <= ``key``.

        This is the primitive the 2-D structure uses to locate the cluster
        relevant for a query point: one root-to-leaf descent, ``height``
        reads, each node read once.
        """
        if self._root is None:
            return None
        kind, __, entries = self._read_node(self._root)
        while kind != _LEAF:
            keys = [entry[0] for entry in entries]
            index = max(bisect.bisect_right(keys, key) - 1, 0)
            kind, __, entries = self._read_node(entries[index][1])
        best: Optional[Tuple[Any, Any]] = None
        for entry_key, value in entries:
            if entry_key <= key:
                best = (entry_key, value)
            else:
                break
        return best

    def check_invariants(self) -> List[Tuple[Any, Any]]:
        """Raise AssertionError unless the tree is a B+-tree: every node
        holds 1..``fanout`` entries with ascending keys, each separator is
        its child subtree's minimum, every leaf sits at depth ``height``,
        the leaf chain visits every leaf in key order and holds
        ``len(tree)`` entries, and the blocks reached are ``num_nodes``.
        Returns the leaf chain's ``(key, value)`` entries, so a structure
        built on the tree can check what it holds.

        Nodes are read from the backend directly, so no I/O is charged
        and the buffer pool is untouched.
        """
        get = self._store.backend.get
        if self._root is None:
            if (self._height, self._length, self._node_count) != (0, 0, 0):
                raise AssertionError("an empty tree with height %d, %d "
                                     "entries and %d nodes" % (
                                         self._height, self._length,
                                         self._node_count))
            return []
        leaves: List[BlockId] = []
        reached: List[BlockId] = []

        def subtree_min(node_id: BlockId, depth: int) -> Any:
            reached.append(node_id)
            (kind, __), *entries = get(node_id)
            keys = [key for key, __ in entries]
            if not 1 <= len(keys) <= self._fanout:
                raise AssertionError("node %r holds %d entries, fanout %d"
                                     % (node_id, len(keys), self._fanout))
            if keys != sorted(keys):
                raise AssertionError("node %r keys do not ascend: %r"
                                     % (node_id, keys))
            if (kind == _LEAF) != (depth == self._height):
                raise AssertionError("%s node %r at depth %d of height %d"
                                     % (kind, node_id, depth, self._height))
            if kind == _LEAF:
                leaves.append(node_id)
            for key, child in entries if kind == _INTERNAL else ():
                if subtree_min(child, depth + 1) != key:
                    raise AssertionError("separator %r of node %r is not "
                                         "its child's minimum" % (key,
                                                                  node_id))
            return keys[0]

        subtree_min(self._root, 1)
        chain: List[BlockId] = []
        chained: List[Tuple[Any, Any]] = []
        leaf_id: Optional[BlockId] = leaves[0]
        while leaf_id is not None and len(chain) <= len(leaves):
            chain.append(leaf_id)
            (__, leaf_id), *entries = get(leaf_id)
            chained.extend(entries)
        keys = [key for key, __ in chained]
        if chain != leaves:
            raise AssertionError("the leaf chain %r is not the leaves in "
                                 "key order %r" % (chain, leaves))
        if keys != sorted(keys) or len(keys) != self._length:
            raise AssertionError("the leaf chain holds %d entries (len %d), "
                                 "ascending: %s" % (len(keys), self._length,
                                                    keys == sorted(keys)))
        if not len(set(reached)) == len(reached) == self._node_count:
            raise AssertionError("%d blocks reached (%d distinct), "
                                 "num_nodes %d" % (len(reached),
                                                   len(set(reached)),
                                                   self._node_count))
        return chained

    def __repr__(self) -> str:
        return "BTree(len=%d, height=%d, nodes=%d, fanout=%d)" % (
            self._length, self._height, self._node_count, self._fanout)
