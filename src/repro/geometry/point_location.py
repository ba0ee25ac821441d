"""External-memory point location over a set of triangles tiling a rectangle.

The 3-D structure (Section 4) needs, for every random sample, a structure
that finds the triangle of the triangulated lower envelope lying above/below
a query point of the xy-plane in O(log_B n) I/Os.  The paper cites the
external planar point-location structures of [7, 27]; this module provides
an engineering substitution with the same role (documented under
"Substitutions" in README.md): a
*blocked bounding-interval tree* over the triangles.

The tree recursively splits the bounding rectangle at the median triangle
centroid (alternating axes); a triangle is handed to every child whose
region its bounding box overlaps, so leaves contain a handful of candidate
triangles.  Nodes are packed ``B`` per disk block, each block holding
connected pieces of the tree filled breadth first, so a root-to-leaf descent
touches about depth / log2(B) blocks; leaf candidate triangles are stored
inline in the leaf record.  Measured I/Os are reported as-is by the
benchmarks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.io.store import BlockStore

Point2 = Tuple[float, float]
Triangle2 = Tuple[Point2, Point2, Point2]

_KIND_INTERNAL = 0
_KIND_LEAF = 1


@dataclass
class _BuildNode:
    """In-memory node used while constructing the tree."""

    kind: int
    axis: int = 0
    split: float = 0.0
    left: int = -1
    right: int = -1
    payload: Optional[List[Tuple[int, Triangle2]]] = None


class ExternalPointLocator:
    """Block-resident point location over a collection of labelled triangles.

    Parameters
    ----------
    store:
        Simulated disk to hold the tree.
    triangles:
        ``(label, ((x,y), (x,y), (x,y)))`` pairs.  Labels are returned by
        :meth:`locate`; they are typically indices into a triangle table.
    leaf_capacity:
        Maximum number of candidate triangles per leaf (before the depth cap
        forces larger leaves).
    max_depth:
        Hard bound on the recursion depth.
    """

    def __init__(self, store: BlockStore,
                 triangles: Sequence[Tuple[int, Triangle2]],
                 leaf_capacity: int = 8,
                 max_depth: int = 32):
        if leaf_capacity < 1:
            raise ValueError("leaf_capacity must be >= 1")
        self._store = store
        self._nodes: List[_BuildNode] = []
        items = [(label, tri, _bbox(tri)) for label, tri in triangles]
        self._num_triangles = len(items)
        if items:
            self._root = self._build(items, depth=0, axis=0,
                                     leaf_capacity=leaf_capacity,
                                     max_depth=max_depth)
        else:
            self._root = self._add_node(_BuildNode(kind=_KIND_LEAF, payload=[]))
        self._pack_nodes()

    # ------------------------------------------------------------------
    # construction (in memory)
    # ------------------------------------------------------------------
    def _add_node(self, node: _BuildNode) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _build(self, items, depth: int, axis: int, leaf_capacity: int,
               max_depth: int) -> int:
        if len(items) <= leaf_capacity or depth >= max_depth:
            payload = [(label, tri) for label, tri, __ in items]
            return self._add_node(_BuildNode(kind=_KIND_LEAF, payload=payload))
        centroids = sorted(( (bbox[0][axis] + bbox[1][axis]) / 2.0
                             for __, __, bbox in items))
        split = centroids[len(centroids) // 2]
        left_items = [item for item in items if item[2][0][axis] <= split]
        right_items = [item for item in items if item[2][1][axis] >= split]
        if len(left_items) == len(items) and len(right_items) == len(items):
            # No progress possible (all triangles straddle the split): leaf.
            payload = [(label, tri) for label, tri, __ in items]
            return self._add_node(_BuildNode(kind=_KIND_LEAF, payload=payload))
        node_index = self._add_node(_BuildNode(kind=_KIND_INTERNAL, axis=axis,
                                               split=split))
        next_axis = 1 - axis
        left = self._build(left_items, depth + 1, next_axis, leaf_capacity,
                           max_depth)
        right = self._build(right_items, depth + 1, next_axis, leaf_capacity,
                            max_depth)
        self._nodes[node_index].left = left
        self._nodes[node_index].right = right
        return node_index

    # ------------------------------------------------------------------
    # disk layout
    # ------------------------------------------------------------------
    def _pack_nodes(self) -> None:
        """Write the nodes to disk ``B`` records per block, each block a
        few connected pieces of the tree filled breadth first — so a
        descent stays inside a block for about ``log2 B`` levels."""
        B = self._store.block_size
        order: List[int] = []
        roots = deque([self._root])
        while roots:
            frontier = deque([roots.popleft()])
            while frontier:
                index = frontier.popleft()
                order.append(index)
                node = self._nodes[index]
                if node.kind == _KIND_INTERNAL:
                    frontier += (node.left, node.right)
                if len(order) % B == 0:
                    # The block is full: the rest of this piece's frontier
                    # starts pieces of later blocks.
                    roots += frontier
                    frontier.clear()
        position_of = {node_index: position for position, node_index in enumerate(order)}
        block_ids: List[int] = []
        for start in range(0, len(order), B):
            chunk = order[start:start + B]
            records = []
            for node_index in chunk:
                node = self._nodes[node_index]
                if node.kind == _KIND_LEAF:
                    records.append((_KIND_LEAF, node.payload))
                else:
                    records.append((_KIND_INTERNAL, node.axis, node.split,
                                    position_of[node.left],
                                    position_of[node.right]))
            block_ids.append(self._store.allocate(records))
        self._block_ids = block_ids
        self._root_position = position_of[self._root]
        # Blocks a descent reads, averaged over the leaves: a child sits in
        # its parent's block or a later one, so a root-to-leaf path enters
        # each of its blocks once.
        reads = leaves = 0
        stack = [(self._root, 0, -1)]
        while stack:
            index, entered, block = stack.pop()
            entered += position_of[index] // B != block
            node = self._nodes[index]
            if node.kind == _KIND_LEAF:
                reads, leaves = reads + entered, leaves + 1
            else:
                block = position_of[index] // B
                stack += [(node.left, entered, block),
                          (node.right, entered, block)]
        self._mean_path_blocks = reads / leaves
        self._num_nodes = len(self._nodes)
        self._nodes = []

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def space_blocks(self) -> int:
        """Number of disk blocks occupied by the locator."""
        return len(self._block_ids)

    @property
    def num_nodes(self) -> int:
        """Number of tree nodes."""
        return self._num_nodes

    @property
    def mean_path_blocks(self) -> float:
        """Blocks one :meth:`locate` reads from a cold pool, averaged over
        the tree's leaves."""
        return self._mean_path_blocks

    def locate(self, x: float, y: float) -> Optional[int]:
        """Return the label of the triangle containing ``(x, y)``, or None.

        Among the candidates of the leaf reached, the triangle in which
        the point's smallest barycentric coordinate is largest — the
        triangle itself when the point is inside one, and otherwise one it
        misses by at most 1e-9 of the triangle's own size.  (A fixed
        tolerance on the edge cross products would let a sliver claim
        every point near the line through it.)

        Every block touched during the descent is read through the store, so
        the caller's I/O counters reflect the true access cost.
        """
        B = self._store.block_size
        position = self._root_position
        current_block = -1
        current_records: List = []
        while True:
            block_index, slot = divmod(position, B)
            if block_index != current_block:
                current_records = self._store.read(self._block_ids[block_index])
                current_block = block_index
            record = current_records[slot]
            if record[0] == _KIND_LEAF:
                best_label, best_margin = None, -LOCATE_SLACK
                for label, triangle in record[1]:
                    margin = barycentric_margin(x, y, triangle)
                    if margin >= best_margin:
                        best_label, best_margin = label, margin
                        if margin >= 0.0:
                            break
                return best_label
            __, axis, split, left_position, right_position = record
            coordinate = x if axis == 0 else y
            position = left_position if coordinate <= split else right_position

    def check_invariants(self) -> Dict[object, Triangle2]:
        """Raise AssertionError unless the stored tree is the one the
        build promises, as read back from the disk; return its triangles
        by label.

        Every stored node is reached from the root exactly once, each
        child at a later position than its parent; every triangle built
        reaches a leaf, under one label; a node's *region* is the box its
        descent allows (closed, empty where a split fell outside it), and
        the triangles handed to a node are those whose bounding box meets
        it: an internal node at depth k splits on axis k mod 2 at the
        median of its triangles' bounding-box centres, and a leaf holds
        exactly its triangles; the mean path length recomputed from the
        stored positions is :attr:`mean_path_blocks`.  The blocks are
        read from the backend directly, so no I/O is charged and the
        buffer pool is untouched.
        """
        B = self._store.block_size
        backend = self._store.backend
        records = [record for block_id in self._block_ids
                   for record in backend.get_payload(block_id)]

        def check(holds: bool, message: str, *values) -> None:
            if not holds:
                raise AssertionError(message % values)

        check(len(records) == self._num_nodes, "%d nodes stored of %d",
              len(records), self._num_nodes)
        triangles: Dict[object, Triangle2] = {}
        for record in records:
            if record[0] == _KIND_LEAF:
                for label, triangle in record[1]:
                    check(triangles.setdefault(label, triangle) == triangle,
                          "label %r names two triangles", label)
        check(len(triangles) == self._num_triangles,
              "%d of the %d triangles built reach a leaf", len(triangles),
              self._num_triangles)
        number_of = {label: number for number, label in enumerate(triangles)}
        boxes = np.array([[*low, *high] for low, high in
                          map(_bbox, triangles.values())]).reshape(-1, 4)
        reached = [False] * len(records)
        reads = leaves = 0
        # (position, depth, region (low x, low y, high x, high y),
        #  blocks entered on the way, the parent's block)
        stack = [(self._root_position, 0,
                  (-math.inf, -math.inf, math.inf, math.inf), 0, -1)]
        while stack:
            position, depth, region, entered, block = stack.pop()
            check(not reached[position], "node %d is reached twice", position)
            reached[position] = True
            entered += position // B != block
            handed = (np.all(boxes[:, :2] <= region[2:], axis=1)
                      & np.all(boxes[:, 2:] >= region[:2], axis=1))
            record = records[position]
            if record[0] == _KIND_LEAF:
                held = sorted(number_of[label] for label, __ in record[1])
                check(held == np.flatnonzero(handed).tolist(),
                      "leaf %d holds triangles %s, not the %s whose boxes "
                      "meet its region %r", position, held,
                      np.flatnonzero(handed).tolist(), region)
                reads, leaves = reads + entered, leaves + 1
                continue
            __, axis, split, left, right = record
            centres = np.sort((boxes[handed, axis] + boxes[handed, 2 + axis])
                              / 2.0)
            check(axis == depth % 2 and len(centres)
                  and split == centres[len(centres) // 2],
                  "node %d splits axis %d at %r, not at its triangles' "
                  "median centre", position, axis, split)
            check(position < left < len(records)
                  and position < right < len(records),
                  "node %d points to children %d and %d", position, left,
                  right)
            below, above = list(region), list(region)
            below[2 + axis] = min(region[2 + axis], split)
            above[axis] = max(region[axis], split)
            stack += [(right, depth + 1, tuple(above), entered,
                       position // B),
                      (left, depth + 1, tuple(below), entered,
                       position // B)]
        check(all(reached), "nodes %s are never reached",
              [position for position, seen in enumerate(reached)
               if not seen][:3])
        check(reads / leaves == self._mean_path_blocks,
              "the mean path is %r blocks, not the stored %r",
              reads / leaves, self._mean_path_blocks)
        return triangles


#: ``locate`` accepts a triangle the point misses by this share of its size.
LOCATE_SLACK = 1e-9


def barycentric_margin(x: float, y: float, triangle: Triangle2) -> float:
    """The smallest barycentric coordinate of ``(x, y)`` in ``triangle``
    (non-negative exactly when the point is inside); -inf when the triangle
    has no area."""
    (ax, ay), (bx, by), (cx, cy) = triangle
    doubled_area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if doubled_area == 0.0:
        return -math.inf
    first = ((bx - x) * (cy - y) - (by - y) * (cx - x)) / doubled_area
    second = ((cx - x) * (ay - y) - (cy - y) * (ax - x)) / doubled_area
    return min(first, second, 1.0 - first - second)


def _bbox(triangle: Triangle2) -> Tuple[Point2, Point2]:
    xs = [vertex[0] for vertex in triangle]
    ys = [vertex[1] for vertex in triangle]
    return ((min(xs), min(ys)), (max(xs), max(ys)))
