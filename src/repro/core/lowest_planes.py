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
each list occupying a contiguous run of blocks.  The samples are built
coarse to fine, each envelope from the previous one and its conflict lists
(:func:`~repro.geometry.envelope3d.refine_lower_envelope`) — a randomized
incremental construction on exactly what the structure stores anyway.  A
sample whose longest conflict list holds at least half the planes is not
stored: reading such a list cannot beat the scan by enough to pay for
finding it.

Halfspace query (Section 4.2).  The envelope of a nested sample only sinks
as the sample grows, so a binary search over the stored layers finds the
finest one whose envelope passes above the query point.  Every plane below
the point is then in the conflict list of the one triangle above it: one
contiguous read, one comparison.  When no stored layer clears the point,
the point lies outside the triangulated domain, or the probes and the list
together would cost the scan, the planes are scanned — a query costs
``min(scan, ⌈log2 layers⌉ locates + one list)``.

k lowest planes (``TryLowestPlanes``).  To find the ``k`` lowest planes
along ``l`` with failure probability ``O(δ)``, locate the envelope triangle
of the largest sample of at most ``N δ / k`` planes hit by ``l``; unless
the conflict list is unexpectedly long (``> k/δ²``) or contains fewer than
``k`` planes below the envelope point, the ``k`` lowest planes along ``l``
are exactly the ``k`` lowest conflict-list entries.  On failure every
independent copy is tried, then ``δ`` is halved — the next coarser layer —
and after a bounded number of failures, or once the attempts have read as
many blocks as the scan would (the cap that stands in for the ``k/δ²``
test, whose constant a fan triangulation does not meet at δ = 1/2), the
planes are scanned.  The paper keeps
three independent copies to sharpen the expectation; the number of copies
is a constructor parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.envelope3d import default_domain, nested_envelopes
from repro.geometry.point_location import (LOCATE_SLACK,
                                          ExternalPointLocator,
                                          barycentric_margin)
from repro.geometry.polygons import polygon_area
from repro.geometry.primitives import EPS, Plane3, below_bound
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

#: A layer answers a halfspace query only when its envelope passes above
#: the query point by more than this: what the conflict lists' own
#: strictness (1e-9 at the triangle corners), the point locator's slack and
#: the rounding of nine refinements can add up to, with room to spare.
CLEARANCE = 1e-6


@dataclass
class _Layer:
    """Everything stored for one random sample R_i.

    The point locator maps a query position to a *triangle* of the
    triangulated envelope — its label is the triangle's number and the
    plane ``(a, b, c)`` realising the envelope over it; each triangle's
    conflict list occupies one contiguous span of ``conflict_store``,
    exactly as in the paper.
    """

    sample_size: int
    locator: ExternalPointLocator
    conflict_store: DiskArray   # all conflict lists, packed back to back
    starts: np.ndarray          # list t is records [starts[t], starts[t + 1])

    def span(self, triangle: int) -> Tuple[int, int]:
        start, stop = self.starts[triangle:triangle + 2].tolist()
        return start, stop


@dataclass
class _Copy:
    """One independent replica of the layered sample structure: sample
    ``R_i`` is the first ``2^i`` planes of ``permutation``."""

    permutation: np.ndarray
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
        The threshold ``β = B log_B n`` bounding the finest sample at about
        ``N / β`` planes; defaults to the paper's value.
    domain:
        xy-rectangle the envelopes are triangulated over.  Queries outside
        it fall back to a scan of the full plane set.
    seed:
        Seed for the random permutations.
    """

    #: After this many δ-halvings ``k_lowest`` falls back to a full scan.
    #: Kept small: each extra attempt reads a (larger) conflict list, so a
    #: handful of failures already costs as much as the fallback scan.
    MAX_FAILURES = 4

    def __init__(self, planes: Sequence[Plane3],
                 store: Optional[BlockStore] = None,
                 block_size: int = 64,
                 copies: int = 1,
                 beta: Optional[int] = None,
                 domain: Optional[Tuple[float, float, float, float]] = None,
                 seed: Optional[int] = None):
        if copies < 1:
            raise ValueError("copies must be >= 1")
        if store is None:
            store = BlockStore(block_size=block_size)
        self._store = store
        self._coefficients = np.array(
            [plane.coefficients() for plane in planes],
            dtype=float).reshape(-1, 3)
        self._num_planes = len(self._coefficients)
        self._rng = np.random.default_rng(seed)
        self._scan_blocks = store.blocks_for(self._num_planes)
        blocks = max(2, self._scan_blocks)
        log_term = max(1.0, math.log(blocks) / math.log(max(2, store.block_size)))
        self._beta = beta if beta is not None else max(
            store.block_size, int(round(store.block_size * log_term)))
        if domain is None and self._num_planes:
            domain = default_domain(planes)
        self._domain = domain
        self._blocks_before = store.num_blocks
        # What the disk holds of a plane: its number and its coefficients,
        # all floats (so a block is columnar), one row per plane, gathered
        # by every conflict list the plane is in.
        records = np.column_stack((
            np.arange(self._num_planes, dtype=float), self._coefficients))
        self._all_planes_array = DiskArray.from_matrix(self._store, records)
        self._copies: List[_Copy] = [self._build_copy(records)
                                     for __ in range(copies)
                                     if self._num_planes]
        self._space_blocks = store.num_blocks - self._blocks_before
        # What estimated_halfspace_ios prices a query from, by the first
        # copy: per stored layer, fine to coarse, the share of the planes
        # outside its sample and the blocks of a mean conflict list; and the
        # blocks every copy's ⌈log2 layers⌉ point locations read.
        layers = self._copies[0].layers if self._copies else []
        self._cost_model = [
            (1.0 - layer.sample_size / self._num_planes,
             1.0 + len(layer.conflict_store) / (len(layer.starts) - 1.0)
             / store.block_size)
            for layer in reversed(layers)]
        self._probe_blocks = copies * math.ceil(math.log2(len(layers) + 1)) \
            * sum(layer.locator.mean_path_blocks for layer in layers) \
            / max(1, len(layers))
        #: The most recent query's account.  :meth:`planes_below_point`:
        #: ``layer`` (the sample size read, or None), ``probes`` (point
        #: locations), ``list_blocks`` and ``scanned`` (None, or why:
        #: ``no_layer`` / ``outside_domain`` / ``list_longer_than_data``).
        #: :meth:`k_lowest`: its TryLowestPlanes ``attempts`` (all of them
        #: failures when it fell back, all but the last otherwise) and
        #: ``fallbacks`` (1 when the attempts gave up for the scan; a scan
        #: chosen outright — ``2k >= N``, or no stored sample as small as
        #: ``N / 2k`` — is not one).
        self.last_query: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _max_layer_index(self) -> int:
        if self._num_planes <= 1:
            return 0
        upper = max(1.0, self._num_planes / max(1, self._beta))
        return max(1, int(math.ceil(math.log2(upper))) + 1)

    def _build_copy(self, records: np.ndarray) -> _Copy:
        permutation = self._rng.permutation(self._num_planes)
        sizes = [min(self._num_planes, 2 ** layer_index)
                 for layer_index in range(self._max_layer_index() + 1)]
        if self._num_planes in sizes:
            del sizes[sizes.index(self._num_planes) + 1:]
        # In the copy's own numbering — plane j is ``permutation[j]`` — a
        # sample is a prefix of the planes.
        layers = [
            self._store_layer(size, envelope,
                              [np.sort(permutation[conflict])
                               for conflict in conflicts], records)
            for size, (envelope, conflicts) in zip(sizes, nested_envelopes(
                self._coefficients[permutation], sizes, self._domain))
            # A list of half the planes cannot beat the scan by enough to
            # pay for finding it: such a layer is not stored.
            if 2 * max(map(len, conflicts), default=0) < self._num_planes]
        return _Copy(permutation=permutation, layers=layers)

    def _store_layer(self, sample_size: int, envelope,
                     conflicts: List[np.ndarray],
                     records: np.ndarray) -> _Layer:
        locator = ExternalPointLocator(self._store, [
            ((number, *envelope.planes[triangle.plane_index].coefficients()),
             triangle.xy_vertices())
            for number, triangle in enumerate(envelope.triangles)])
        # Pack every triangle's conflict list back to back in one disk array
        # (the paper's "one contiguous set of blocks" per list) and remember
        # where each triangle's list starts.
        starts = np.zeros(len(conflicts) + 1, dtype=np.int64)
        np.cumsum([len(conflict) for conflict in conflicts], out=starts[1:])
        conflict_store = DiskArray.from_matrix(
            self._store, records[np.concatenate(conflicts)])
        return _Layer(sample_size=sample_size, locator=locator,
                      conflict_store=conflict_store, starts=starts)

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
    def domain(self) -> Optional[Tuple[float, float, float, float]]:
        """The xy-rectangle the envelopes cover (None when empty)."""
        return self._domain

    @property
    def space_blocks(self) -> int:
        """Disk blocks allocated for the structure."""
        return self._space_blocks

    @property
    def num_layers(self) -> int:
        """Stored layers per copy (O(log2 n))."""
        return len(self._copies[0].layers) if self._copies else 0

    def estimated_halfspace_ios(self, x: float, y: float,
                                expected_output: float) -> float:
        """What :meth:`planes_below_point` is expected to read at ``(x, y)``
        when ``expected_output`` planes pass below the point.

        Arithmetic on build-time constants (no block is read).  A sample
        of ``r`` planes clears the point exactly when it holds none of the
        ``T`` answers — for a random sample with probability
        ``(1 - r/N)^T`` — so the finest clearing layer, and with it the
        list read, follows from ``T``: the estimate is the probes, plus
        each stored layer's mean list weighted by the chance that it is
        that layer, plus the scan weighted by the chance that not even the
        coarsest one clears.  A point outside the domain is the scan.
        """
        scan = float(max(1, self._scan_blocks))
        if not self._cost_model or not self._in_domain(x, y):
            return scan
        expected = self._probe_blocks
        finer_clears = 0.0
        for kept_share, list_blocks in self._cost_model:    # fine to coarse
            clears = kept_share ** expected_output
            expected += (clears - finer_clears) * list_blocks
            finer_clears = clears
        return min(scan + self._probe_blocks,
                   expected + (1.0 - finer_clears) * scan)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _in_domain(self, x: float, y: float) -> bool:
        xmin, xmax, ymin, ymax = self._domain
        return xmin <= x <= xmax and ymin <= y <= ymax

    def _planes_along(self, array: DiskArray, start: int,
                      stop: int) -> np.ndarray:
        """The planes stored as records ``[start, stop)`` of ``array``,
        read as one run: an ``(n, 4)`` matrix ``[number, a, b, c]``."""
        if start == stop:
            return np.empty((0, 4))
        return array.read_range_array(start, stop)

    def _list_blocks(self, start: int, stop: int) -> int:
        """Blocks the packed records ``[start, stop)`` touch."""
        if start == stop:
            return 0
        B = self._store.block_size
        return (stop - 1) // B - start // B + 1

    def k_lowest(self, x: float, y: float, k: int) -> List[Tuple[int, float]]:
        """The ``k`` lowest planes along the vertical line through ``(x, y)``.

        Returns ``(plane_index, height_at_xy)`` pairs sorted by height.
        """
        if k <= 0 or not self._num_planes:
            return []
        k = min(k, self._num_planes)
        self.last_query = account = {"attempts": 0, "fallbacks": 0}
        # Close to N the sampling machinery cannot beat a plain scan: the
        # useful samples would have O(1) planes and their conflict lists are
        # the whole input, so scanning directly is both simpler and cheaper
        # (and still O(t) I/Os, since t = Θ(n) in that regime).
        if 2 * k < self._num_planes:
            lowest = self._try_lowest(x, y, k, account)
            if lowest is not None:
                return lowest
            account["fallbacks"] = int(account["attempts"] > 0)
        numbers, heights = _heights(self._planes_along(
            self._all_planes_array, 0, self._num_planes), x, y)
        return _lowest(numbers, heights, k)

    def _try_lowest(self, x: float, y: float, k: int,
                    account: Dict[str, int]
                    ) -> Optional[List[Tuple[int, float]]]:
        """The paper's TryLowestPlanes, δ = 1/2, 1/4, ... down the layers.

        The first attempt reads the largest sample of at most ``N δ / k``
        planes (rounded *down*: at δ = 1/2 the rounded-up sample certifies
        ``k`` planes below its envelope less than half the time); each
        failure halves δ — every copy moves one layer coarser.  None once
        the attempts have failed ``MAX_FAILURES`` times or have read what
        the scan reads, which is also what bounds an unexpectedly long list
        (the paper's ``k/δ²`` test, without its constant).  Each attempt
        counts in ``account["attempts"]``.
        """
        budget = self._scan_blocks
        # Per copy, the finest stored layer of at most N / 2k planes (-1: no
        # sample that small is stored — it could not beat the scan, which is
        # what the caller does next).
        first_rungs = [sum(layer.sample_size * 2 * k <= self._num_planes
                           for layer in copy.layers) - 1
                       for copy in self._copies]
        for failures in range(self.MAX_FAILURES):
            for copy, first_rung in zip(self._copies, first_rungs):
                if first_rung < failures:
                    continue
                layer = copy.layers[first_rung - failures]
                account["attempts"] += 1
                budget -= 1
                label = layer.locator.locate(x, y)
                if label is None:
                    continue
                triangle, a, b, c = label
                start, stop = layer.span(triangle)
                if stop - start < k:
                    continue
                budget -= self._list_blocks(start, stop)
                if budget < 0:
                    return None
                numbers, heights = _heights(self._planes_along(
                    layer.conflict_store, start, stop), x, y)
                below = heights < (a * x + b * y + c) - EPS
                if np.count_nonzero(below) >= k:
                    return _lowest(numbers[below], heights[below], k)
        return None

    def planes_below_point(self, x: float, y: float, z: float) -> List[int]:
        """Indices of every plane passing on or below ``(x, y, z)``, ascending.

        Section 4.2 on one layer: the finest stored sample whose envelope
        clears the point holds every answer in the conflict list of the
        triangle above it.
        """
        if not self._num_planes:
            return []
        inside = self._in_domain(x, y)
        probes, best = self._finest_clearing(x, y, z) if inside else (0, None)
        list_blocks = self._list_blocks(*best[1:]) if best else 0
        if not inside:
            scanned = "outside_domain"
        elif best is None:
            scanned = "no_layer"
        elif probes + list_blocks >= self._scan_blocks:
            scanned = "list_longer_than_data"
        else:
            scanned = None
        if scanned is None:
            layer, start, stop = best
            rows = self._planes_along(layer.conflict_store, start, stop)
        else:
            rows = self._planes_along(self._all_planes_array, 0,
                                      self._num_planes)
        self.last_query = {
            "layer": best[0].sample_size if scanned is None else None,
            "probes": probes,
            "list_blocks": list_blocks if scanned is None else 0,
            "scanned": scanned}
        # On or below: the membership fold over the plane columns.  For
        # p's dual plane (a, b, c) = (-p_1, -p_2, p_3), (-x) * a == x * p_1
        # exactly: the verdict is the constraint's ``below(p)``.
        below = rows[:, 3] <= below_bound((-x, -y), (rows[:, 1], rows[:, 2]),
                                          z)
        return rows[below, 0].astype(np.intp).tolist()

    def _finest_clearing(self, x: float, y: float, z: float
                         ) -> Tuple[int, Optional[Tuple[_Layer, int, int]]]:
        """Probes spent, and the shortest conflict list ``(layer, start,
        stop)`` among each copy's finest layer whose envelope passes above
        ``(x, y, z)`` by more than ``CLEARANCE`` (None when no layer does).

        The envelope of nested samples only sinks as they grow, so the
        layers that clear the point are a prefix: a binary search.
        """
        probes, best = 0, None
        for copy in self._copies:
            low, high = 0, len(copy.layers)     # layers[:low] clear the point
            found = None
            while low < high:
                middle = (low + high) // 2
                layer = copy.layers[middle]
                probes += 1
                label = layer.locator.locate(x, y)
                if label is None or (label[1] * x + label[2] * y
                                     + label[3]) <= z + CLEARANCE:
                    high = middle
                else:
                    low = middle + 1
                    found = (layer, *layer.span(label[0]))
            if found and (best is None
                          or found[2] - found[1] < best[2] - best[1]):
                best = found
        return probes, best

    # ------------------------------------------------------------------
    # structural checker
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError unless every stored layer is what Section
        4.1 says it is, as read back from the disk.

        Per layer: the point locator holds its own relations
        (:meth:`~repro.geometry.point_location.ExternalPointLocator.
        check_invariants`); the triangles tile the domain (by area); the
        plane stored with a triangle is the lowest sample plane at its
        centroid; the conflict spans are contiguous, disjoint and cover
        the conflict store; every list is ascending, holds no sample
        plane, and holds every plane passing below a corner or the
        centroid of its triangle.  Per copy: the envelope height at
        random positions does not rise from one stored layer to the next
        finer one.  The blocks are read from the backend directly, so no
        I/O is charged and the buffer pool is untouched.
        """
        if not self._copies:
            return
        backend = self._store.backend
        xmin, xmax, ymin, ymax = self._domain
        domain_area = (xmax - xmin) * (ymax - ymin)
        positions = np.random.default_rng(0).uniform(
            (xmin, ymin), (xmax, ymax), size=(32, 2)).tolist()
        a_column, b_column, c_column = self._coefficients.T
        for copy_number, copy in enumerate(self._copies):
            previous = [math.inf] * len(positions)
            for layer in copy.layers:
                def check(holds: bool, message: str, *values) -> None:
                    if not holds:
                        raise AssertionError(
                            "copy %d, sample %d: " % (copy_number,
                                                      layer.sample_size)
                            + message % values)

                stored = {label[0]: (label[1:], triangle) for label, triangle
                          in layer.locator.check_invariants().items()}
                starts = layer.starts
                layer.conflict_store.check_invariants()
                listed_numbers = np.concatenate(
                    [np.asarray(backend.get_payload(block_id))[:, 0]
                     for block_id in layer.conflict_store.block_ids]
                    + [np.empty(0)]).astype(np.intp)
                check(sorted(stored) == list(range(len(starts) - 1)),
                      "triangles and conflict spans are numbered differently")
                check(starts[0] == 0 and np.all(np.diff(starts) >= 0)
                      and starts[-1] == len(layer.conflict_store),
                      "conflict spans do not tile the conflict store")
                covered = sum(polygon_area(triangle)
                              for __, triangle in stored.values())
                check(abs(covered - domain_area) <= 1e-6 * domain_area,
                      "triangles cover %.9g of a domain of %.9g",
                      covered, domain_area)
                sample = copy.permutation[:layer.sample_size]
                outside_sample = np.ones(self._num_planes, dtype=bool)
                outside_sample[sample] = False
                for number, ((a, b, c), triangle) in stored.items():
                    start, stop = layer.span(number)
                    listed = np.zeros(self._num_planes, dtype=bool)
                    if stop > start:
                        numbers = listed_numbers[start:stop]
                        check(np.all(np.diff(numbers) > 0),
                              "list of triangle %d is not ascending", number)
                        listed[numbers] = True
                    check(not np.any(listed & ~outside_sample),
                          "list of triangle %d holds a sample plane", number)
                    centroid = np.mean(triangle, axis=0).tolist()
                    # (by linearity a plane below the centroid is below a
                    # corner, up to the rounding the doubled slack allows)
                    for (px, py), slack in (*((corner, 1e-9)
                                              for corner in triangle),
                                            (centroid, 2e-9)):
                        heights = a_column * px + b_column * py + c_column
                        missing = (heights < (a * px + b * py + c) - slack) \
                            & outside_sample & ~listed
                        check(not np.any(missing),
                              "list of triangle %d misses planes %s, which "
                              "pass below (%r, %r)",
                              number, np.flatnonzero(missing)[:3], px, py)
                    check(a * px + b * py + c
                          <= heights[sample].min() + CLEARANCE / 10,
                          "triangle %d does not carry the lowest sample "
                          "plane at its centroid", number)
                for slot, (px, py) in enumerate(positions):
                    # The stored triangle the position lies deepest in
                    # (what the locator's leaf answers, up to ties on an
                    # edge, where the envelope is continuous).
                    margin, (a, b, c) = max(
                        (barycentric_margin(px, py, triangle), abc)
                        for abc, triangle in stored.values())
                    if margin >= -LOCATE_SLACK:
                        height = a * px + b * py + c
                        check(height <= previous[slot] + CLEARANCE / 10,
                              "the envelope rises at (%r, %r)", px, py)
                        previous[slot] = height


def _lowest(numbers: np.ndarray, heights: np.ndarray,
            k: int) -> List[Tuple[int, float]]:
    """The ``k`` lowest ``(number, height)`` pairs, ties by number."""
    order = np.lexsort((numbers, heights))[:k]
    return list(zip(numbers[order].tolist(), heights[order].tolist()))


def _heights(rows: np.ndarray, x: float,
             y: float) -> Tuple[np.ndarray, np.ndarray]:
    """Numbers and heights above ``(x, y)`` of the planes ``rows``
    (:meth:`LowestPlanesIndex._planes_along`): a * x + b * y + c."""
    return rows[:, 0].astype(np.intp), rows[:, 1] * x + rows[:, 2] * y \
        + rows[:, 3]
