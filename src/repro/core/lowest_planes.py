"""The random-sampling structure of Section 4.1 (Theorem 4.2).

``LowestPlanesIndex`` stores N planes in R^3 so that, for any vertical line
``l`` and any ``k``, the ``k`` lowest planes along ``l`` can be reported in
O(log_B n + k/B) expected I/Os.  It is the engine behind both the 3-D
halfspace index (Section 4.2) and the k-nearest-neighbour index
(Theorem 4.3).

Construction.  A random permutation of the planes defines nested samples
``R_i`` of size ``2^i``.  For each sample the structure stores a
triangulated lower envelope ``Δ(R_i)``, an external point-location structure
over its xy-projection, and the conflict list ``K(Δ)`` of every triangle
(the planes outside the sample passing below some point of the triangle),
each list occupying a contiguous run of blocks.

Query (``TryLowestPlanes``).  To find the ``k`` lowest planes along ``l``
with failure probability ``O(δ)``, locate the envelope triangle of the
sample of size ``≈ N δ / k`` hit by ``l``; unless the conflict list is
unexpectedly long (``> k/δ²``) or contains fewer than ``k`` planes below the
envelope point, the ``k`` lowest planes along ``l`` are exactly the ``k``
lowest conflict-list entries.  On failure ``δ`` is halved and the procedure
retried; after a bounded number of failures the structure falls back to a
full scan (an event of negligible probability that keeps the worst case
finite).  The paper additionally keeps three independent copies to sharpen
the expectation; the number of copies is a constructor parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interface import ExternalIndex
from repro.geometry.envelope3d import (
    TriangulatedEnvelope,
    compute_lower_envelope,
    conflict_lists,
    default_domain,
)
from repro.geometry.point_location import ExternalPointLocator
from repro.geometry.primitives import EPS, Plane3, LinearConstraint
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore


@dataclass
class _Layer:
    """Everything stored for one random sample R_i.

    The point locator maps a query position to a *triangle* of the
    triangulated envelope; each triangle's conflict list occupies one
    contiguous span of ``conflict_store``, exactly as in the paper.
    """

    sample_size: int
    triangle_table: DiskArray          # per triangle: (cell_id, plane_id, a, b, c)
    locator: ExternalPointLocator
    conflict_store: DiskArray          # all conflict lists, packed back to back
    conflict_spans: List[Tuple[int, int]]  # per triangle: (start, length)


@dataclass
class _Copy:
    """One independent replica of the layered sample structure."""

    layers: List[_Layer]


class LowestPlanesIndex:
    """k-lowest-planes queries along vertical lines (Theorem 4.2).

    Parameters
    ----------
    planes:
        The planes to store (``z = a x + b y + c``).
    store:
        Optional shared block store; a private one is created otherwise.
    block_size:
        Block size B for a private store.
    copies:
        Number of independent replicas (the paper uses three to obtain the
        optimal expectation; one is the practical default).
    beta:
        The threshold ``β = B log_B n`` controlling which sample sizes are
        materialised; defaults to the paper's value.
    domain:
        xy-rectangle the envelopes are triangulated over.  Queries outside
        it fall back to a scan of the full plane set.
    seed:
        Seed for the random permutations.
    """

    #: After this many δ-halvings the query falls back to a full scan.
    #: Kept small: each extra attempt reads a (larger) conflict list, so a
    #: handful of failures already costs as much as the fallback scan.
    MAX_FAILURES = 4

    def __init__(self, planes: Sequence[Plane3],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 copies: int = 1,
                 beta: Optional[int] = None,
                 domain: Optional[Tuple[float, float, float, float]] = None,
                 envelope_backend: str = "auto",
                 seed: Optional[int] = None):
        if copies < 1:
            raise ValueError("copies must be >= 1")
        if store is None:
            store = BlockStore(block_size=block_size)
        self._store = store
        self._planes = list(planes)
        self._num_planes = len(self._planes)
        self._rng = np.random.default_rng(seed)
        self._backend = envelope_backend
        blocks = max(2, -(-max(1, self._num_planes) // store.block_size))
        log_term = max(1.0, math.log(blocks) / math.log(max(2, store.block_size)))
        self._beta = beta if beta is not None else max(
            store.block_size, int(round(store.block_size * log_term)))
        if domain is None and self._planes:
            domain = default_domain(self._planes)
        self._domain = domain
        self._blocks_before = store.num_blocks
        self._copies: List[_Copy] = []
        self._all_planes_array = DiskArray(
            self._store,
            [(index, plane.a, plane.b, plane.c)
             for index, plane in enumerate(self._planes)])
        if self._planes:
            for __ in range(copies):
                self._copies.append(self._build_copy())
        self._space_blocks = store.num_blocks - self._blocks_before
        self._last_fallbacks = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _max_layer_index(self) -> int:
        if self._num_planes <= 1:
            return 0
        upper = max(1.0, self._num_planes / max(1, self._beta))
        return max(1, int(math.ceil(math.log2(upper))) + 1)

    def _build_copy(self) -> _Copy:
        permutation = self._rng.permutation(self._num_planes)
        layers: List[_Layer] = []
        for layer_index in range(0, self._max_layer_index() + 1):
            sample_size = min(self._num_planes, 2 ** layer_index)
            sample_indices = permutation[:sample_size].tolist()
            layers.append(self._build_layer(sample_indices))
            if sample_size == self._num_planes:
                break
        return _Copy(layers=layers)

    def _build_layer(self, sample_indices: List[int]) -> _Layer:
        sample_planes = [self._planes[index] for index in sample_indices]
        envelope = compute_lower_envelope(sample_planes, self._domain,
                                          backend=self._backend)
        # Group the envelope triangles into cells: one cell per sample plane
        # appearing on the envelope.
        cell_of_plane: dict = {}
        triangle_records = []
        locator_input = []
        for triangle_index, triangle in enumerate(envelope.triangles):
            global_plane = sample_indices[triangle.plane_index]
            cell_id = cell_of_plane.setdefault(triangle.plane_index,
                                               len(cell_of_plane))
            plane = self._planes[global_plane]
            triangle_records.append((cell_id, global_plane,
                                     plane.a, plane.b, plane.c))
            locator_input.append((triangle_index, triangle.xy_vertices()))
        triangle_table = DiskArray(self._store, triangle_records)
        locator = ExternalPointLocator(self._store, locator_input)
        per_triangle = conflict_lists(self._planes, sample_indices, envelope)
        # Pack every triangle's conflict list back to back in one disk array
        # (the paper's "one contiguous set of blocks" per list) and remember
        # each triangle's (start, length) span.
        packed_records: List[Tuple[int, float, float, float]] = []
        spans: List[Tuple[int, int]] = []
        for triangle_list in per_triangle:
            start = len(packed_records)
            for index in triangle_list:
                plane = self._planes[index]
                packed_records.append((index, plane.a, plane.b, plane.c))
            spans.append((start, len(triangle_list)))
        conflict_store = DiskArray(self._store, packed_records)
        return _Layer(sample_size=len(sample_indices),
                      triangle_table=triangle_table,
                      locator=locator,
                      conflict_store=conflict_store,
                      conflict_spans=spans)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def store(self) -> BlockStore:
        """The simulated disk."""
        return self._store

    @property
    def size(self) -> int:
        """Number of stored planes."""
        return self._num_planes

    @property
    def beta(self) -> int:
        """The threshold β = B log_B n."""
        return self._beta

    @property
    def space_blocks(self) -> int:
        """Disk blocks allocated for the structure."""
        return self._space_blocks

    @property
    def num_layers(self) -> int:
        """Layers per copy (O(log2 n))."""
        return len(self._copies[0].layers) if self._copies else 0

    @property
    def last_fallbacks(self) -> int:
        """Number of full-scan fallbacks during the most recent query."""
        return self._last_fallbacks

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def k_lowest(self, x: float, y: float, k: int) -> List[Tuple[int, float]]:
        """The ``k`` lowest planes along the vertical line through ``(x, y)``.

        Returns ``(plane_index, height_at_xy)`` pairs sorted by height.
        """
        if k <= 0:
            return []
        if not self._planes:
            return []
        k = min(k, self._num_planes)
        self._last_fallbacks = 0
        # Close to N the sampling machinery cannot beat a plain scan: the
        # useful samples would have O(1) planes and their conflict lists are
        # the whole input, so scanning directly is both simpler and cheaper
        # (and still O(t) I/Os, since t = Θ(n) in that regime).
        if 2 * k >= self._num_planes:
            return self._scan_lowest(x, y, k)
        delta = 0.5
        failures = 0
        # Once an attempt at some sample size fails because too few planes
        # lie below the envelope, retrying the same sample with a smaller
        # delta is hopeless (the count is deterministic); remember those.
        exhausted_layers = set()
        while failures < self.MAX_FAILURES:
            for copy_index, copy in enumerate(self._copies):
                result = self._try_lowest(copy, x, y, k, delta,
                                          exhausted=(copy_index, exhausted_layers))
                if result is not None:
                    return result
            failures += 1
            delta /= 2.0
        self._last_fallbacks += 1
        return self._scan_lowest(x, y, k)

    def _try_lowest(self, copy: _Copy, x: float, y: float, k: int,
                    delta: float, exhausted=None) -> Optional[List[Tuple[int, float]]]:
        """One attempt of the paper's TryLowestPlanes procedure."""
        if k >= self._num_planes:
            return None
        target = max(1.0, self._num_planes * delta / k)
        rho = int(math.ceil(math.log2(target)))
        rho = max(0, min(rho, len(copy.layers) - 1))
        exhausted_key = None
        if exhausted is not None:
            copy_index, exhausted_set = exhausted
            exhausted_key = (copy_index, rho)
            if exhausted_key in exhausted_set:
                return None
        layer = copy.layers[rho]
        if layer.sample_size >= self._num_planes:
            # The sample is the whole set: conflict lists are empty and the
            # attempt cannot certify k planes below the envelope.
            return None
        triangle_index = layer.locator.locate(x, y)
        if triangle_index is None:
            return None
        cell_id, plane_id, a, b, c = layer.triangle_table[triangle_index]
        start, length = layer.conflict_spans[triangle_index]
        threshold = k / (delta * delta)
        if length > threshold:
            return None
        envelope_height = a * x + b * y + c
        below: List[Tuple[float, int]] = []
        for record in layer.conflict_store.read_range(start, start + length):
            index, pa, pb, pc = record
            height = pa * x + pb * y + pc
            if height < envelope_height - EPS:
                below.append((height, index))
        if len(below) < k:
            if exhausted_key is not None:
                exhausted[1].add(exhausted_key)
            return None
        below.sort()
        return [(index, height) for height, index in below[:k]]

    def _scan_lowest(self, x: float, y: float, k: int) -> List[Tuple[int, float]]:
        """Fallback: scan every plane (⌈N/B⌉ I/Os)."""
        heights: List[Tuple[float, int]] = []
        for record in self._all_planes_array.scan():
            index, a, b, c = record
            heights.append((a * x + b * y + c, index))
        heights.sort()
        return [(index, height) for height, index in heights[:k]]

    def planes_below_point(self, x: float, y: float, z: float) -> List[int]:
        """Indices of every plane passing on or below ``(x, y, z)``.

        Implements the geometric doubling of Section 4.2: query the k lowest
        planes for ``k = β, 2β, 4β, ...`` until one of them lies above the
        point, then report the ones below.
        """
        if not self._planes:
            return []
        k = self._beta
        while True:
            if 2 * k >= self._num_planes:
                lowest = self._scan_lowest(x, y, self._num_planes)
                return [index for index, height in lowest if height <= z + EPS]
            lowest = self.k_lowest(x, y, k)
            if len(lowest) < k or any(height > z + EPS for __, height in lowest):
                return [index for index, height in lowest if height <= z + EPS]
            k *= 2
