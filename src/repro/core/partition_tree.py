"""The linear-size partition tree of Section 5 (Theorem 5.2).

``PartitionTreeIndex`` stores N points of R^d in O(n) disk blocks and
answers a halfspace query in O(n^{1-1/d+ε} + t) I/Os; the same traversal
also answers simplex queries (Remark i).  Every node holds a balanced
simplicial partition of its point subset into ``r_v = min(cB, 2 n_v)``
cells; a query visits a child only when the query hyperplane *crosses* its
cell, reports whole subtrees whose cells lie below the hyperplane, and
skips cells entirely above it.

The partition cells are produced by a pluggable partitioner (median-cut
boxes by default, ham-sandwich cells for the 2-D ablation) — the only
property the analysis needs is the o(r) crossing number of Theorem 5.1,
which both partitioners provide for hyperplane queries.  The whole
hierarchy of partitions is made first (median cuts in vectorised rounds,
one per split depth of a tree depth; any other partitioner once per
node), then written to the disk depth-first.  Inside a build scope
(:func:`sharing_partitions`: a catalog build) a median-cut hierarchy is
cut once per chunk and fanout, and every other tree over the same chunk
reads it.  :class:`CellTreeIndex` is every box tree's build, checker,
descent and pricing: the R-tree and quad-tree baselines supply
hierarchies of their own (:meth:`CellTreeIndex._hierarchy`).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core import kernels
from repro.core.interface import ExternalIndex
from repro.geometry.partitions import (PartitionNode, Partitioner,
                                       median_cut_hierarchy,
                                       partitioner_hierarchy)
from repro.geometry.primitives import LinearConstraint
from repro.geometry.simplex import Simplex
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


@dataclass
class _Node:
    """One node of a cell tree.

    A leaf stores its points in ``points_array``; an internal node stores
    a disk-resident cell table (:func:`encode_cells`).  ``secondary`` and
    ``crossing_threshold`` are the shallow tree's, ``leaf_index`` is the
    hybrid structure's.
    """

    is_leaf: bool
    size: int
    points_array: Optional[DiskArray] = None
    child_table: Optional[DiskArray] = None
    secondary: Optional["PartitionTreeIndex"] = None
    crossing_threshold: int = 0
    leaf_index: Optional[ExternalIndex] = None


class _CellCosts(NamedTuple):
    """A cell tree's tables as its pricing reads them, in memory.

    Slot ``j`` is node ``j`` of the partition hierarchy the tree was
    written from (slot 0 the root).
    """

    #: ``(slots, d)`` each: the corners of each node's box in its
    #: parent's table (the root's are unused), column-major — a
    #: classification reads whole axes.
    lowers: np.ndarray
    uppers: np.ndarray
    #: The slot of each node's parent (the root's own, 0).
    parent: np.ndarray
    #: Per level up, from one to the tree's depth less one: each slot's
    #: ancestor that many levels up, the root standing in above a
    #: shallower node (the root itself is checked apart).
    ancestors: Tuple[np.ndarray, ...]
    #: The node id (position in ``_nodes``) of each slot.
    node: np.ndarray
    #: Blocks a walk that crosses the node reads of the node itself.
    own: np.ndarray
    #: Blocks of the node's whole subtree: what reporting it reads.
    subtree: np.ndarray


class _ReadOrder(NamedTuple):
    """Every block of a cell tree in the order a walk reads them:
    pre-order, each table block followed by the subtrees of its records
    (a leaf is its point blocks).  A walk reads a selection of it, in
    this order; a subtree is one contiguous range of it.
    """

    #: The block id at each position.
    blocks: np.ndarray
    #: The pricing slot whose block sits at each position.
    slot: np.ndarray
    #: Per slot: a leaf (its blocks are points; else a table).
    leaf: np.ndarray
    #: Per slot: the first position of its subtree, and one past its last.
    start: np.ndarray
    end: np.ndarray


# ----------------------------------------------------------------------
# one median-cut hierarchy per chunk and fanout in a build scope
# ----------------------------------------------------------------------
@dataclass
class SharedPartitions:
    """The median-cut hierarchies of one build scope, keyed by what a
    hierarchy is cut from: the chunk's content (its shape and a blake2b
    digest of its bytes — never its address, which a freed array hands
    on) and the block size, maximum fanout and leaf size the fanout
    reads.

    The first tree over a chunk cuts the hierarchy (``computed``); every
    later one — another replica, another kind — reads it (``shared``).
    A stored hierarchy's arrays are read-only.
    """

    hierarchies: Dict[tuple, Tuple[PartitionNode, ...]] = field(
        default_factory=dict)
    computed: int = 0
    shared: int = 0


#: The build scope open in this context; None outside one, so no
#: hierarchy outlives the ``with`` block that opened its scope.
_SCOPE: ContextVar[Optional[SharedPartitions]] = ContextVar(
    "partition_scope", default=None)


@contextmanager
def sharing_partitions() -> Iterator[SharedPartitions]:
    """Open a build scope for the ``with`` block (an inner scope is the
    outer one): a cell tree built inside reads the median-cut hierarchy
    an earlier tree cut over the same chunk at the same fanout.  The
    table is dropped when the outermost block exits."""
    scope = _SCOPE.get()
    if scope is not None:
        yield scope
        return
    scope = SharedPartitions()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


# ----------------------------------------------------------------------
# the cell table: one record per child, (child id, lower, upper) flat
# ----------------------------------------------------------------------
def encode_cells(child_ids: Sequence[int], corners: np.ndarray) -> np.ndarray:
    """One flat float row ``(child_id, *lower, *upper)`` per cell, so a
    table block is columnar: one ``(fanout, 1 + 2d)`` float64 matrix
    from here to the buffer pool and the file backends."""
    return np.column_stack((np.asarray(child_ids, dtype=float), corners))


#: What a cell tree walks: the region below one constraint's hyperplane,
#: or a convex polytope (a conjunction walks as its ``to_polytope()``).
#: Both answer the walk's two calls alike: ``classify_boxes`` (every
#: node's code, in one call) and ``contains`` / ``contains_many`` (a row
#: mask).
Region = Union[LinearConstraint, Simplex]

#: A descent as :meth:`CellTreeIndex._reach` computes it: the masks of
#: the crossed, delegated and reached nodes over the pricing slots.
_Reach = Tuple[np.ndarray, np.ndarray, np.ndarray]


class CellTreeIndex(ExternalIndex):
    """What every box tree shares — the partition trees of Sections 5
    and 6, the R-tree and the quad-tree: the build over a partition
    hierarchy, the cell tables and the descent.

    One walk answers both query shapes, a constraint and a polytope
    (:data:`Region`): it visits a child only when the region's boundary
    *crosses* its cell, reports whole subtrees whose cells lie inside the
    region and skips cells entirely outside it.  The walk is its price's
    computation (:meth:`_reach`): every node's box, kept in memory beside
    the stored tables (``_CellCosts``), is classified in one call, and
    the blocks the descent reads are picked out of the tree's read order
    (``_ReadOrder``) and read back through the pool in one run, their
    leaf blocks going to one :class:`kernels.DeferredScan`.  Subclasses
    set their own parameters, then call :meth:`_build_tree`; they vary
    the hierarchy (:meth:`_hierarchy`), the node contents
    (``_leaf_structure``, :meth:`_internal_node`) and which crossed
    nodes another index answers (``_delegated``, answered by
    :meth:`_answer_delegated` at its place in the read order), and
    pricing follows: :meth:`estimated_query_ios` is the same walk with
    no block read.
    """

    def _build_tree(self, points: Sequence[Sequence[float]],
                    empty_dimension: int, max_fanout: Optional[int],
                    leaf_size: int,
                    partitioner: Optional[Partitioner]) -> None:
        points = np.asarray(points, dtype=float)
        if points.size == 0 and points.ndim != 2:
            points = points.reshape(0, empty_dimension)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array of shape (N, d)")
        if leaf_size < 1:
            # A one-point node would re-partition into itself forever.
            raise ValueError("leaf_capacity must be >= 1, got %r" % leaf_size)
        self._points = points
        self._max_fanout = max_fanout if max_fanout is not None else self.block_size
        self._leaf_size = leaf_size
        #: None: median cuts (the rounds); kept for the shallow tree's
        #: secondary trees.
        self._partitioner = partitioner
        self._nodes: List[_Node] = []
        self._root = None
        self._costs: Optional[_CellCosts] = None
        self._order: Optional[_ReadOrder] = None
        #: The reach :meth:`estimated_query_ios` computed last, as
        #: ``(region, costs, masks)`` (see :meth:`walk`); None: none yet.
        self._priced: Optional[Tuple[Region, _CellCosts, _Reach]] = None
        with self._building():
            if len(points):
                hierarchy = self._hierarchy(points)
                ids = [0] * len(hierarchy)
                self._root, = self._build(hierarchy, [0], ids)
                self._costs, self._order = self._cell_costs(hierarchy, ids)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _fanout(self, size: int) -> int:
        """The partition size ``min(cB, 2 n_v)`` of a node of ``size``
        points, at least 2; 0 for a leaf."""
        if size <= self._leaf_size:
            return 0
        return max(2, min(self._max_fanout, 2 * -(-size // self.block_size)))

    def _hierarchy(self, points: np.ndarray) -> Sequence[PartitionNode]:
        """The partition hierarchy the tree is written from, node 0 its
        root: the median cuts, or the ``partitioner``'s cells node by
        node.  A subclass with a hierarchy of its own supplies it here,
        outside the build scope, which keys median cuts alone."""
        if self._partitioner is None:
            return self._median_cuts(points)
        return partitioner_hierarchy(points, self._fanout, self._partitioner)

    def _median_cuts(self, points: np.ndarray) -> Sequence[PartitionNode]:
        """The median-cut hierarchy of ``points`` at this tree's fanout,
        read-only: the open build scope's when it holds it, else cut (and
        kept by the scope, if one is open)."""
        scope = _SCOPE.get()
        if scope is not None:
            key = (points.shape,
                   hashlib.blake2b(np.ascontiguousarray(points)).digest(),
                   self.block_size, self._max_fanout, self._leaf_size)
            hierarchy = scope.hierarchies.get(key)
            if hierarchy is not None:
                scope.shared += 1
                return hierarchy
        hierarchy = tuple(median_cut_hierarchy(points, self._fanout))
        for node in hierarchy:
            node.indices.setflags(write=False)
            if node.corners is not None:
                node.corners.setflags(write=False)
        if scope is not None:
            scope.computed += 1
            scope.hierarchies[key] = hierarchy
        return hierarchy

    def _build(self, hierarchy: Sequence[PartitionNode], run: List[int],
               ids: List[int]) -> List[int]:
        """Write the nodes ``run`` of ``hierarchy`` — a run of leaves
        (:meth:`_runs`) or one internal node and its subtree, depth-first
        — and return their node ids, which are post-order (``ids[number]``
        is node ``number``'s)."""
        indices, children, corners = hierarchy[run[0]]
        if corners is None:
            nodes = self._leaf_nodes([hierarchy[number].indices
                                      for number in run])
        else:
            child_ids = [node_id for child_run in self._runs(hierarchy,
                                                             children)
                         for node_id in self._build(hierarchy, child_run,
                                                    ids)]
            nodes = [self._internal_node(indices,
                                         encode_cells(child_ids, corners))]
        first = len(self._nodes)
        self._nodes += nodes
        for node_id, number in enumerate(run, first):
            ids[number] = node_id
        return list(range(first, len(self._nodes)))

    def _runs(self, hierarchy: Sequence[PartitionNode],
              children: Sequence[int]) -> Iterator[List[int]]:
        """``children`` cut into what :meth:`_build` writes at once: each
        run of consecutive leaves, and every internal node alone.  A leaf
        with a structure of its own (``_leaf_structure``) is alone too:
        that structure's blocks come before the leaf's points."""
        run: List[int] = []
        for child in children:
            if hierarchy[child].corners is None \
                    and self._leaf_structure is None:
                run.append(child)
                continue
            if run:
                yield run
                run = []
            yield [child]
        if run:
            yield run

    def _cell_costs(self, hierarchy: Sequence[PartitionNode],
                    ids: List[int]) -> Tuple[_CellCosts, _ReadOrder]:
        """The in-memory copy of the written tables that a walk and its
        price read, and the tree's read order."""
        d = self.dimension
        parent = np.zeros(len(hierarchy), dtype=np.intp)
        boxes = np.zeros((len(hierarchy), 2 * d))
        internal = [(number, node.children, node.corners)
                    for number, node in enumerate(hierarchy)
                    if node.corners is not None]
        numbers, children, corners = zip(*internal) if internal \
            else ((), (), ())
        numbers = np.array(numbers, dtype=np.intp)
        lengths = np.array(list(map(len, children)), dtype=np.intp)
        slots = np.fromiter(chain.from_iterable(children), dtype=np.intp)
        if internal:
            parent[slots] = np.repeat(numbers, lengths)
            boxes[slots] = np.concatenate(corners)
        nodes = [self._nodes[node_id] for node_id in ids]
        arrays = [node.points_array if node.is_leaf else node.child_table
                  for node in nodes]
        blocks = np.array([array.num_blocks for array in arrays],
                          dtype=np.intp)
        # Each node's blocks count toward every ancestor's subtree, one
        # level up at a time (``deep``: the nodes with an ancestor so far up).
        size = blocks.copy()
        ancestors, above = [], parent
        deep = np.arange(len(hierarchy)) != 0
        while deep.any():
            np.add.at(size, above[deep], blocks[deep])
            ancestors.append(above)
            deep &= above != 0
            above = parent[above]
        costs = _CellCosts(
            lowers=np.asfortranarray(boxes[:, :d]),
            uppers=np.asfortranarray(boxes[:, d:]), parent=parent,
            ancestors=tuple(ancestors[:-1]), node=np.array(ids),
            own=blocks.astype(float), subtree=size.astype(float))
        # A child's subtree starts after its parent's table blocks up to
        # its record's, and after its earlier siblings' subtrees; the
        # offsets from the parent's start add up along the ancestors.
        leaf = np.array([node.is_leaf for node in nodes], dtype=bool)
        heads = np.repeat(np.cumsum(lengths) - lengths, lengths)
        rank = np.arange(len(slots)) - heads
        earlier = np.cumsum(size[slots]) - size[slots]
        offset = np.zeros(len(hierarchy), dtype=np.intp)
        offset[slots] = rank // self.block_size + 1 + earlier - earlier[heads]
        start = offset + sum(offset[level] for level in ancestors)
        # Table block j of a node sits just before its record j * B's
        # subtree; a leaf's blocks are its subtree.
        tables = slots[rank % self.block_size == 0]
        leaves = np.flatnonzero(leaf)
        within = np.arange(blocks[leaves].sum()) - np.repeat(
            np.cumsum(blocks[leaves]) - blocks[leaves], blocks[leaves])
        positions = np.concatenate((start[tables] - 1, np.repeat(
            start[leaves], blocks[leaves]) + within))
        owners = np.concatenate((np.repeat(numbers, blocks[numbers]),
                                 np.repeat(leaves, blocks[leaves])))
        sequence = np.empty(len(positions), dtype=np.int64)
        # One node's id list at a time: holding a copy per node at once
        # made the rest of a file-backed registration measurably slower.
        sequence[positions] = np.fromiter(chain.from_iterable(
            arrays[number].block_ids for number in chain(
                numbers.tolist(), leaves.tolist())),
            dtype=np.int64, count=len(positions))
        slot = np.empty(len(positions), dtype=np.intp)
        slot[positions] = owners
        return costs, _ReadOrder(blocks=sequence, slot=slot, leaf=leaf,
                                 start=start, end=start + size)

    #: A subclass's own structure over a leaf's points,
    #: ``_leaf_structure(points) -> index``, written before the leaf's
    #: points; None: a leaf is its points alone.
    _leaf_structure = None

    def _leaf_nodes(self, leaves: List[np.ndarray]) -> List[_Node]:
        """The nodes of a run of leaves (each one's point indices): their
        rows gathered into one private read-only matrix, each leaf's
        blocks row slices of it, written in one store call."""
        structures = [None if self._leaf_structure is None
                      else self._leaf_structure(self._points[indices])
                      for indices in leaves]
        rows = self._points[np.concatenate(leaves)]
        rows.setflags(write=False)
        arrays = DiskArray.from_rows(self._store, rows,
                                     list(map(len, leaves)))
        return [_Node(is_leaf=True, size=len(array), points_array=array,
                      leaf_index=structure)
                for array, structure in zip(arrays, structures)]

    def _internal_node(self, indices: np.ndarray,
                       cell_table: np.ndarray) -> _Node:
        return _Node(is_leaf=False, size=len(indices),
                     child_table=DiskArray.from_matrix(self._store,
                                                       cell_table))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    @property
    def size(self) -> int:
        return len(self._points)

    @property
    def num_nodes(self) -> int:
        """Total number of tree nodes."""
        return len(self._nodes)

    #: The fewest cells an internal node has: a balanced partition
    #: splits its node in two at least.
    _min_cells = 2

    def _leaf_limit(self, depth: int) -> int:
        """The most points a leaf at ``depth`` (the root's 0) holds."""
        del depth
        return self._leaf_size

    def check_invariants(self) -> np.ndarray:
        """Raise AssertionError unless the stored tree is the one the
        build promises, as read back from the disk; return the rows its
        leaves store, leaf by leaf in post-order.

        Every child's box holds every point of its subtree; subtree sizes
        add up to their node's ``size`` and the root's to N; a leaf holds
        1 to :meth:`_leaf_limit` points and an internal node has at least
        ``_min_cells`` cells; node ids are post-order (so a child's id is
        below its parent's); every table is one ``(fanout, 1 + 2d)``
        float64 matrix of :func:`encode_cells` rows.  What a walk reads
        instead of the tables is theirs: each child's box in
        ``_CellCosts`` is its table row bit for bit, and ``_ReadOrder``
        is the pre-order the tables spell, each node's subtree the range
        it names.  The reach a walk may take from the last price is its
        region's: read-only masks, over the current ``_CellCosts``, equal
        bit for bit to a fresh :meth:`_reach`.  A shallow tree's
        secondary trees are checked as well.  The blocks are read from
        the backend directly, so no I/O is charged and the buffer pool
        is untouched.
        """
        backend = self._store.backend
        d = self.dimension
        B = self.block_size
        post_order: List[int] = []
        leaves: List[np.ndarray] = [np.empty((0, d))]
        #: The blocks in the pre-order the stored tables spell, with the
        #: slot each belongs to.
        spelt: List[int] = []
        owners: List[int] = []
        costs, order = self._costs, self._order
        slot_of = {} if costs is None else dict(zip(costs.node.tolist(),
                                                     range(len(costs.node))))

        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError(message % values)

        def stored(array: DiskArray, width: int) -> np.ndarray:
            array.check_invariants()
            blocks = [backend.get_payload(i) for i in array.block_ids]
            check(bool(blocks) and all(
                isinstance(block, np.ndarray) and block.dtype == np.float64
                and block.shape[1:] == (width,) for block in blocks),
                "%r is not stored as (n, %d) float64 matrices", array, width)
            return np.concatenate(blocks)

        def subtree(node_id: int, depth: int
                    ) -> Tuple[int, np.ndarray, np.ndarray]:
            """The size and bounding corners of the points under a node."""
            node = self._nodes[node_id]
            slot, first = slot_of[node_id], len(spelt)

            def placed() -> None:
                check(order.start[slot] == first
                      and order.end[slot] == len(spelt), "the read order "
                      "places node %d at [%d, %d), its tables at [%d, %d)",
                      node_id, order.start[slot], order.end[slot], first,
                      len(spelt))

            if node.is_leaf:
                spelt.extend(node.points_array.block_ids)
                owners.extend([slot] * node.points_array.num_blocks)
                rows = stored(node.points_array, d)
                limit = self._leaf_limit(depth)
                check(0 < len(rows) == node.size <= limit,
                      "leaf %d holds %d points, says %d, leaf limit %d",
                      node_id, len(rows), node.size, limit)
                post_order.append(node_id)
                leaves.append(rows)
                placed()
                return node.size, rows.min(axis=0), rows.max(axis=0)
            table = stored(node.child_table, 1 + 2 * d)
            check(len(table) >= self._min_cells, "node %d has %d cells",
                  node_id, len(table))
            total, lowest, highest = 0, [], []
            table_ids = node.child_table.block_ids
            for record, (child_id, lower, upper) in enumerate(zip(
                    table[:, 0].tolist(), table[:, 1:1 + d],
                    table[:, 1 + d:])):
                check(child_id == int(child_id) and 0 <= child_id < node_id,
                      "node %d lists child %r", node_id, child_id)
                if record % B == 0:
                    spelt.append(table_ids[record // B])
                    owners.append(slot)
                size, low, high = subtree(int(child_id), depth + 1)
                check(bool(np.all(lower <= low) and np.all(high <= upper)),
                      "the box of node %d does not hold its subtree",
                      int(child_id))
                child = slot_of[int(child_id)]
                check(lower.tobytes() == costs.lowers[child].tobytes()
                      and upper.tobytes() == costs.uppers[child].tobytes(),
                      "the box of node %d in memory is not its table row",
                      int(child_id))
                total += size
                lowest.append(low)
                highest.append(high)
            check(total == node.size, "node %d says %d points, its cells "
                  "hold %d", node_id, node.size, total)
            if node.secondary is not None:
                node.secondary.check_invariants()
                check(node.secondary.size == node.size, "the secondary "
                      "tree of node %d holds %d points", node_id,
                      node.secondary.size)
            post_order.append(node_id)
            placed()
            return node.size, np.min(lowest, axis=0), np.max(highest, axis=0)

        if self._root is None:
            check(not self._nodes and not self.size,
                  "%d points, %d nodes and no root", self.size,
                  len(self._nodes))
            return leaves[0]
        size = subtree(self._root, 0)[0]
        check(size == self.size, "the tree holds %d of %d points", size,
              self.size)
        check(post_order == list(range(len(self._nodes))),
              "node ids are not the post-order")
        check(order.blocks.tolist() == spelt and order.slot.tolist() == owners
              and order.leaf.tolist() == [self._nodes[node_id].is_leaf
                                          for node_id in costs.node.tolist()],
              "the read order is not the pre-order the tables spell")
        if self._priced is not None:
            region, priced_over, masks = self._priced
            check(priced_over is costs, "the remembered reach of %r was "
                  "priced over other tables", region)
            check(not any(mask.flags.writeable for mask in masks),
                  "the remembered reach of %r is writeable", region)
            check(all(mask.dtype == fresh.dtype and mask.shape == fresh.shape
                      and mask.tobytes() == fresh.tobytes()
                      for mask, fresh in zip(masks, self._reach(region))),
                  "the remembered reach of %r is not its region's", region)
        return np.concatenate(leaves)

    # ------------------------------------------------------------------
    # queries: a constraint or a polytope, one walk, and its price
    # ------------------------------------------------------------------
    #: A subclass's crossed nodes that another index answers,
    #: ``_delegated(crossed) -> mask`` over the pricing slots; None: none.
    #: A walk reads a delegated node's table (none of a delegated leaf's
    #: points), then calls ``_answer_delegated(node, region, scan)``.
    _delegated = None
    _answer_delegated = None

    #: Whether a crossed node reads its whole table before its first
    #: child's blocks (the shallow tree counts its crossed cells first);
    #: else each table block is followed by the subtrees of its records.
    _whole_tables = False

    #: The steps a subclass counts besides the crossed nodes, each
    #: ``scan.steps[name]``: its account's keys (zero when not taken).
    _steps: Tuple[str, ...] = ()

    def _reach(self, region: Region) -> _Reach:
        """The descent of ``region`` on the in-memory tables, as masks
        over the pricing slots: the nodes its boundary crosses, those of
        them another index answers, and the nodes it reaches.

        One ``region.classify_boxes`` call over every node's box; a node
        is reached when its ancestors are all crossed and none of them
        delegated (the root always is).  A reached node inside the
        region is reported whole, a crossed one reads its own blocks, one
        outside it nothing.
        """
        costs = self._costs
        codes = region.classify_boxes(costs.lowers, costs.uppers)
        below = codes > 0                   # a corner on or below it
        crossed = codes == 2                # a corner on each side
        crossed[0] = True                   # every walk reads the root
        delegated = np.zeros_like(crossed) if self._delegated is None \
            else self._delegated(crossed) & crossed
        opened = crossed & ~delegated
        reached = below
        if opened[0]:
            for ancestor in costs.ancestors:
                reached = reached & opened[ancestor]
        else:                               # another index takes it all
            reached = np.zeros_like(below)
        reached[0] = True
        return crossed, delegated, reached

    def estimated_query_ios(self, constraint: LinearConstraint,
                            expected_output: Optional[int] = None) -> float:
        """Exactly the blocks :meth:`query` reads on a cold pool, read
        from none: the walk behind Theorems 5.2, 6.1 and 6.3
        (:meth:`_reach`) with no block read.

        A reached node inside the region costs its subtree's blocks, a
        crossed one its own.  A reached node that another index answers
        — a shallow tree's secondary tree, a hybrid leaf's structure —
        adds that index's estimate for its share of ``expected_output``.
        """
        costs = self._costs
        if costs is None:
            return 0.0
        masks = crossed, delegated, reached = self._reach(constraint)
        for mask in masks:
            mask.setflags(write=False)
        self._priced = (constraint, costs, masks)
        cost = float(np.dot(np.where(crossed, costs.own, costs.subtree),
                            reached))
        handed = costs.node[delegated & reached].tolist()
        if handed and expected_output is None:
            expected_output = min(self.size, self.block_size)
        for node_id in handed:
            node = self._nodes[node_id]
            answer = node.leaf_index if node.is_leaf else node.secondary
            cost += answer.estimated_query_ios(
                constraint, node.size * expected_output / self.size)
        return cost

    def query(self, region: Region) -> np.ndarray:
        """Report every stored point satisfying the linear constraint, or
        inside the convex polytope.  The scan's account becomes
        :attr:`last_query`."""
        if region.dimension != self.dimension:
            raise ValueError("query dimension %d does not match data "
                             "dimension %d" % (region.dimension,
                                               self.dimension))
        scan = kernels.DeferredScan(self.dimension, region)
        scan.steps = dict.fromkeys(self._steps, 0)
        self.walk(region, scan)
        answer = scan.flush()
        self.last_query = scan.account()
        return answer

    def walk(self, region: Region, scan: kernels.DeferredScan) -> None:
        """Feed ``scan`` the blocks a query of ``region`` reads, and count
        the nodes it crosses there.

        The blocks are the ones :meth:`estimated_query_ios` prices, in
        the read order: each reached, crossed node's own (its table, or
        its points, filtered) and every block of a reported subtree
        (kept) — one run through the pool.  A delegated node ends a run,
        and its index answers at its place in the order.

        The walk of the constraint its index has just priced, over the
        same tables, reads the price's masks and classifies nothing: the
        planner prices a query's lead constraint on its planning replica,
        and a constraint query walks that very object there.  Any other
        walk — a conjunction's polytope, another replica, a worker
        process, a rebuilt index — misses and classifies.  The record is
        one tuple, read once: a thread pricing meanwhile can only make
        the walk miss.
        """
        costs, order = self._costs, self._order
        if costs is None:
            return
        priced = self._priced
        if priced is not None and priced[0] is region \
                and priced[1] is costs:
            crossed, delegated, reached = priced[2]
        else:
            crossed, delegated, reached = self._reach(region)
        entered = reached & crossed
        scan.crossed += int(np.count_nonzero(entered))
        # Every node of a reported subtree: a reached node inside the
        # region, and everything below it.
        covered = reached & ~crossed
        for ancestor in costs.ancestors:
            covered |= covered[ancestor]
        read = covered | entered & ~(delegated & order.leaf)
        picked = np.flatnonzero(read[order.slot])
        slots = order.slot[picked]
        key = picked
        if self._whole_tables:
            tables = entered[slots] & ~order.leaf[slots]
            key = np.where(tables, order.start[slots], picked)
            ranked = np.lexsort((picked, key))
            picked, slots, key = picked[ranked], slots[ranked], key[ranked]
        handed = np.flatnonzero(delegated & reached)
        ends = order.end[handed]
        ranked = np.argsort(ends)
        cuts = np.searchsorted(key, ends[ranked]).tolist() + [len(picked)]
        handed = costs.node[handed[ranked]].tolist() + [None]
        blocks = order.blocks[picked].tolist()
        points = order.leaf[slots].tolist()
        kept = covered[slots].tolist()
        done = 0
        for cut, node_id in zip(cuts, handed):
            leaves = points[done:cut]
            scan.add_read(list(compress(self._store.read_run(
                blocks[done:cut]), leaves)), list(compress(kept[done:cut],
                                                            leaves)))
            if node_id is not None:
                self._answer_delegated(self._nodes[node_id], region, scan)
            done = cut


class PartitionTreeIndex(CellTreeIndex):
    """Linear-space halfspace/simplex reporting for any fixed dimension.

    Parameters
    ----------
    points:
        Array-like of shape (N, d).
    store / block_size:
        The simulated disk (a private one is created when ``store`` is None).
    max_fanout:
        The constant ``cB`` bounding the partition size at every node;
        defaults to the block size.
    leaf_capacity:
        Leaves hold at most this many points (defaults to B).
    partitioner:
        Callable building the balanced simplicial partition of one node;
        None (the default) cuts every node's median-cut partition in the
        rounds of :func:`repro.geometry.partitions.median_cut_hierarchy`.
    """

    def __init__(self, points: Sequence[Sequence[float]],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 max_fanout: Optional[int] = None,
                 leaf_capacity: Optional[int] = None,
                 partitioner: Optional[Partitioner] = None):
        super().__init__(store, block_size)
        self._build_tree(points, 2, max_fanout,
                         leaf_capacity if leaf_capacity is not None else self.block_size,
                         partitioner)
