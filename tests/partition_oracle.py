"""The per-split median-cut recursion, kept as the reference for the rounds.

This is ``repro.geometry.partitions.median_cut_partition`` as it was before
a whole tree's partitions were cut in vectorised rounds: the largest piece
is found and halved one split at a time, each split a gather, a spread and
a stable argsort of its piece; and the cell tree called it once per node,
depth-first.  The rounds' contract is field-by-field equality with what
this returns — cells, their order, the order of every cell's indices and
every box (``tests/test_partition_hierarchy.py``) — so the tie order
below is the specification; do not "fix" it here.
"""

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.geometry.boxes import Box
from repro.geometry.partitions import PartitionCell, PartitionNode


def oracle_median_cut_hierarchy(points: np.ndarray,
                                fanout: Callable[[int], int]
                                ) -> List[PartitionNode]:
    """The cell tree's old depth-first build, one partition call per
    node, as the records ``CellTreeIndex._build`` writes out."""
    nodes: List[Optional[PartitionNode]] = []

    def build(indices: np.ndarray) -> int:
        number = len(nodes)
        nodes.append(None)
        r = fanout(len(indices))
        if not r:
            nodes[number] = PartitionNode(indices, range(0), None)
            return number
        cells = oracle_median_cut_partition(points, r, indices)
        children = [build(np.asarray(cell.indices)) for cell in cells]
        nodes[number] = PartitionNode(
            indices, children,
            np.array([(*cell.cell.lower, *cell.cell.upper) for cell in cells],
                     dtype=float))
        return number

    build(np.arange(len(points)))
    return nodes


def oracle_median_cut_partition(points: np.ndarray, r: int,
                                indices: Optional[np.ndarray] = None
                                ) -> List[PartitionCell]:
    """Partition ``points`` into at most ``r`` balanced box cells."""
    if r < 1:
        raise ValueError("partition size r must be >= 1, got %r" % r)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array of shape (N, d)")
    if indices is None:
        indices = np.arange(len(points))
    if len(indices) == 0:
        return []
    pieces: List[np.ndarray] = [indices]
    # Repeatedly split the largest piece until we have r pieces (or pieces of
    # size one).  Splitting the largest first keeps the partition balanced.
    while len(pieces) < r:
        largest_position = max(range(len(pieces)), key=lambda i: len(pieces[i]))
        largest = pieces[largest_position]
        if len(largest) <= 1:
            break
        first_half, second_half = _median_split(points, largest)
        pieces[largest_position] = first_half
        pieces.append(second_half)
    cells: List[PartitionCell] = []
    for piece in pieces:
        if len(piece) == 0:
            continue
        box = Box.of_points(points[piece])
        cells.append(PartitionCell(indices=piece, cell=box))
    return cells


def _median_split(points: np.ndarray,
                  indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split ``indices`` at the median of the widest axis of their spread."""
    subset = points[indices]
    spreads = subset.max(axis=0) - subset.min(axis=0)
    axis = int(np.argmax(spreads))
    order = np.argsort(subset[:, axis], kind="mergesort")
    middle = len(order) // 2
    return indices[order[:middle]], indices[order[middle:]]
