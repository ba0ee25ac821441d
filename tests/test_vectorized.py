"""Scalar/vector kernel parity: the vectorized hot path must be invisible.

The batch kernels promise two things: answers identical to the
record-at-a-time loops of ``scan_oracle`` (including points exactly on a
query boundary), and bit-identical I/O counters (vectorization happens
strictly on the memory side of the BlockStore accounting seam).  These tests sweep
dimensions 2–5, duplicate points, on-hyperplane boundary values, empty
blocks, and every storage backend, asserting both properties.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import FullScanIndex, KDBTreeIndex, RTreeIndex
from repro.core import (ConstraintConjunction, HalfplaneIndex2D,
                        HalfspaceIndex3D, HybridIndex3D,
                        PartitionTreeIndex, ShallowPartitionTreeIndex,
                        query_conjunction)
from repro.core import kernels
from repro.geometry.boxes import CELL_RELATIONS
from repro.geometry.primitives import EPS, Hyperplane, LinearConstraint
from repro.geometry.simplex import Halfspace, Simplex
from repro.io.block import as_point_matrix, matrix_to_records
from repro.io.backend import FileBackend, MemoryBackend
from repro.io.disk_array import DiskArray
from repro.io.store import BlockStore

from conftest import assert_answer, cache_info, rows
from geometry_oracle import filter_points, height_at, height_many
from overlaid import OverlaidTree
import scan_oracle
from scan_oracle import read_all, scalar_kernels, scan


def make_cloud(dimension, count, seed, with_boundary=None):
    """A float-tuple cloud; optionally with points EXACTLY on a boundary."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(count, dimension))
    records = [tuple(float(v) for v in row) for row in points]
    if with_boundary is not None:
        hyperplane = with_boundary.hyperplane
        for row in points[: max(3, count // 10)]:
            prefix = tuple(float(v) for v in row[:-1])
            # Place the last coordinate exactly at the scalar height, so
            # the point sits on the hyperplane to the last bit.
            height = height_at(hyperplane, prefix + (0.0,))
            records.append(prefix + (height,))
            records.append(prefix + (height + EPS,))      # still inside
            records.append(prefix + (height + 3 * EPS,))  # just outside
    # Duplicates exercise multiset behaviour.
    records.extend(records[: max(2, len(records) // 8)])
    return records


def constraint_for(dimension, seed):
    rng = np.random.default_rng(seed + 100)
    coeffs = tuple(float(v) for v in rng.uniform(-1.0, 1.0, dimension - 1))
    return LinearConstraint(coeffs=coeffs, offset=float(rng.uniform(-0.5, 0.5)))


# ----------------------------------------------------------------------
# predicate-level parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_below_many_matches_scalar_below(dimension):
    constraint = constraint_for(dimension, dimension)
    records = make_cloud(dimension, 64, dimension, with_boundary=constraint)
    matrix = as_point_matrix(records)
    assert matrix is not None and matrix.shape == (len(records), dimension)
    mask = constraint.below_many(matrix)
    scalar = np.array([constraint.below(record) for record in records])
    assert np.array_equal(mask, scalar)
    filtered = kernels.matrix_rows(matrix[constraint.below_many(matrix)])
    assert filtered == filter_points(constraint, records)


@pytest.mark.parametrize("dimension", [2, 3, 4, 5])
def test_hyperplane_height_many_bit_exact(dimension):
    constraint = constraint_for(dimension, 7 * dimension)
    hyperplane = constraint.hyperplane
    records = make_cloud(dimension, 48, 7 * dimension)
    matrix = as_point_matrix(records)
    heights = height_many(hyperplane, matrix)
    for row, batch_height in zip(records, heights):
        # Bit-exact, not approximately equal: the batch kernel replays
        # the scalar accumulation order.
        assert float(batch_height) == height_at(hyperplane, row)


def test_below_many_empty_matrix():
    constraint = constraint_for(3, 1)
    empty = np.empty((0, 3), dtype=float)
    assert constraint.below_many(empty).shape == (0,)
    assert empty[constraint.below_many(empty)].shape == (0, 3)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_simplex_contains_many_matches_scalar(dimension):
    rng = np.random.default_rng(dimension)
    halfspaces = []
    for __ in range(dimension + 1):
        normal = tuple(float(v) for v in rng.uniform(-1.0, 1.0, dimension))
        halfspaces.append(Halfspace(normal=normal,
                                    offset=float(rng.uniform(0.0, 1.0))))
    simplex = Simplex(halfspaces=tuple(halfspaces))
    records = make_cloud(dimension, 80, dimension + 50)
    matrix = as_point_matrix(records)
    mask = simplex.contains_many(matrix)
    scalar = np.array([simplex.contains(record) for record in records])
    assert np.array_equal(mask, scalar)


def test_simplex_boundary_points_resolve_identically():
    # Points exactly on a facet: normal . x == offset must be inside.
    simplex = Simplex(halfspaces=(Halfspace(normal=(1.0, 0.0), offset=0.5),
                                  Halfspace(normal=(0.0, 1.0), offset=0.5)))
    records = [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5 + EPS, 0.0),
               (0.5 + 3e-9, 0.0), (-0.2, -0.9)]
    matrix = as_point_matrix(records)
    mask = simplex.contains_many(matrix)
    scalar = np.array([simplex.contains(record) for record in records])
    assert np.array_equal(mask, scalar)


@pytest.mark.parametrize("dimension", [2, 4])
def test_conjunction_satisfied_many_matches_scalar(dimension):
    first = constraint_for(dimension, 11)
    second = constraint_for(dimension, 23)
    conjunction = ConstraintConjunction.of(first, second).and_halfspace(
        normal=(1.0,) + (0.0,) * (dimension - 1), offset=0.6)
    records = make_cloud(dimension, 90, 31, with_boundary=first)
    matrix = as_point_matrix(records)
    polytope = conjunction.to_polytope()
    mask = polytope.contains_many(matrix)
    scalar = np.array([polytope.contains(record) for record in records])
    assert np.array_equal(mask, scalar)
    assert np.array_equal(mask, first.below_many(matrix)
                          & second.below_many(matrix) & (matrix[:, 0] <= 0.6
                                                         + EPS))


# ----------------------------------------------------------------------
# columnar payloads
# ----------------------------------------------------------------------
def test_as_point_matrix_rejects_non_point_blocks():
    assert as_point_matrix([]) is None
    assert as_point_matrix(["text", "more"]) is None
    assert as_point_matrix([(1, 2)]) is None                # ints, not floats
    assert as_point_matrix([(1.0, 2.0), (1.0,)]) is None    # ragged widths
    assert as_point_matrix([(1.0, (2.0,))]) is None         # nested
    assert as_point_matrix([[1.0, 2.0]]) is None            # list, not tuple


def test_as_point_matrix_round_trips():
    records = [(0.1, -2.5), (float("inf"), 0.0), (1e-300, 1e300)]
    matrix = as_point_matrix(records)
    assert matrix is not None
    assert not matrix.flags.writeable
    assert matrix_to_records(matrix) == records


@pytest.mark.parametrize("backend_factory",
                         [MemoryBackend, FileBackend])
def test_point_blocks_round_trip_every_backend(backend_factory):
    backend = backend_factory()
    try:
        points = [(0.5, -1.25, 3.0), (2.0, 0.0, -7.5)]
        mixed = [(1.0, 2.0), "a string", (3, 4)]
        backend.put(1, points)
        backend.put(2, mixed)
        assert backend.get(1) == points
        assert backend.get(2) == mixed
        matrix = backend.get_payload(1)
        assert isinstance(matrix, np.ndarray)
        assert matrix_to_records(matrix) == points
        assert backend.get_payload(2) == mixed
    finally:
        backend.close()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_payload_reads_charge_identically_to_record_reads(backend):
    points = [(float(i), float(-i)) for i in range(32)]
    store_a = BlockStore(block_size=8, cache_blocks=2, backend=backend)
    store_b = BlockStore(block_size=8, cache_blocks=2, backend=backend)
    try:
        array_a = DiskArray(store_a, points)
        array_b = DiskArray(store_b, points)
        store_a.reset_stats()
        store_b.reset_stats()
        scalar = list(scan(array_a))
        batched = []
        for matrix in array_b.scan_batches():
            batched.extend(tuple(row) for row in matrix.tolist())
        assert batched == scalar
        # Run both a second time so buffer-pool hits are exercised too.
        list(scan(array_a))
        list(array_b.scan_batches())
        for field in ("reads", "writes", "cache_hits"):
            assert getattr(store_a.stats, field) == \
                getattr(store_b.stats, field)
    finally:
        store_a.close()
        store_b.close()


# ----------------------------------------------------------------------
# index-level parity: answers AND IOStats
# ----------------------------------------------------------------------
def assert_same_ordered_answer(vector, scalar, name):
    """Order-exact parity: both answers are the answer matrix, equal bit
    for bit, and so are their rows."""
    assert rows(vector) == rows(scalar), name
    assert vector.shape == scalar.shape, name
    assert_answer(vector, vector.shape[1])
    assert_answer(scalar, vector.shape[1])
    assert vector.tobytes() == scalar.tobytes(), name
    assert kernels.matrix_rows(vector) == rows(scalar), name


def index_cases(points, block_size=16, backend="memory"):
    """Every batch-kernel index kind, each on a store of its own (the
    caller closes it).  The dynamic tree carries tombstones and a
    non-empty buffer; the last tree's child tables span several blocks
    and its pool holds two; the planar structure's layers are small
    enough for a query to probe several."""
    def store(cache_blocks=4):
        return BlockStore(block_size=block_size, cache_blocks=cache_blocks,
                          backend=backend)

    yield FullScanIndex(points, store=store())
    yield PartitionTreeIndex(points, store=store())
    yield KDBTreeIndex(points, store=store())
    yield RTreeIndex(points, store=store())
    yield ShallowPartitionTreeIndex(points, store=store())
    dynamic = OverlaidTree(points, store=store())
    for point in list(points)[3:40:6]:
        assert dynamic.delete(tuple(point))
    for point in list(points)[:5]:
        dynamic.insert(tuple(0.5 * float(c) for c in point))
    assert dynamic.tombstoned and dynamic.buffered and not dynamic.rebuilds
    yield dynamic
    if len(points[0]) == 3:
        yield HybridIndex3D(points, store=store(), leaf_exponent=1.2, seed=3)
    else:
        yield HalfplaneIndex2D(points, store=store(), seed=4)
    wide = PartitionTreeIndex(points, store=store(cache_blocks=2),
                              max_fanout=3 * block_size)
    assert any(node.child_table.num_blocks > 1
               for node in wide._nodes if not node.is_leaf)
    yield wide


@pytest.mark.parametrize("dimension", [2, 3])
def test_index_answers_and_ios_identical_both_paths(dimension):
    constraint = constraint_for(dimension, 5)
    records = make_cloud(dimension, 300, 5, with_boundary=constraint)
    points = np.asarray(records, dtype=float)
    for backend in ("memory", "file"):
        for index in index_cases(records if dimension != 2 else points,
                                 backend=backend):
            store = index.store
            store.clear_cache()
            store.reset_stats()
            vector = index.query(constraint)
            vector_answer = sorted(rows(vector))
            vector_ios = store.stats.snapshot()
            store.clear_cache()
            store.reset_stats()
            with scalar_kernels():
                scalar = index.query(constraint)
                scalar_answer = sorted(rows(scalar))
            scalar_ios = store.stats.snapshot()
            store.close()
            name = "%s on %s" % (type(index).__name__, backend)
            assert len(vector) > 8, name
            if isinstance(index, HalfplaneIndex2D):
                assert index.last_query["layers_probed"] > 1, name
            assert vector_answer == scalar_answer, name
            assert_same_ordered_answer(vector, scalar, name)
            assert vector_ios.reads == scalar_ios.reads, name
            assert vector_ios.writes == scalar_ios.writes, name
            assert vector_ios.cache_hits == scalar_ios.cache_hits, name


def test_mixed_leaf_block_mid_traversal_keeps_answer_order():
    """A non-columnar leaf in the middle of a walk flushes the deferred
    scan and is filtered in place: the answer is still in visit order."""
    points = [(float(x), float(y)) for x in range(20) for y in range(20)]
    index = PartitionTreeIndex(points, block_size=8)
    constraint = LinearConstraint(coeffs=(0.5,), offset=4.25)
    leaves = [node.points_array for node in index._nodes if node.is_leaf]
    crossed = [array for array in leaves
               if 0 < len(filter_points(constraint, read_all(array))) < len(array)]
    below = [array for array in leaves
             if len(filter_points(constraint, read_all(array))) == len(array)]
    assert len(crossed) > 4 and len(below) > 4
    rewritten = set()
    for array in (crossed[len(crossed) // 2], below[len(below) // 2]):
        # Same values as ints: the block is no longer a float matrix.
        block_id = array.block_ids[0]
        records = [tuple(int(c) for c in record)
                   for record in index.store.read(block_id)]
        index.store.write(block_id, records)
        rewritten.update(records)
        assert isinstance(index.store.read_payload(block_id), list)
    vector = index.query(constraint)
    with scalar_kernels():
        scalar = index.query(constraint)
    assert_same_ordered_answer(vector, scalar, "mixed leaves")
    assert sorted(rows(vector)) == sorted(filter_points(constraint, points))
    inside = [record in rewritten for record in rows(vector)]
    assert any(inside) and not inside[0] and not inside[-1]


def test_partition_tree_simplex_parity():
    rng = np.random.default_rng(17)
    points = rng.uniform(-1.0, 1.0, size=(400, 2))
    index = PartitionTreeIndex(points, block_size=16)
    simplex = Simplex.from_vertices_2d([(-0.8, -0.8), (0.9, -0.5), (0.0, 0.9)])
    store = index.store
    store.clear_cache()
    store.reset_stats()
    vector_rows = index.query(simplex)
    vector = sorted(rows(vector_rows))
    vector_ios = store.stats.snapshot()
    store.clear_cache()
    store.reset_stats()
    with scalar_kernels():
        scalar_rows = index.query(simplex)
        scalar = sorted(rows(scalar_rows))
    scalar_ios = store.stats.snapshot()
    assert vector == scalar
    assert_same_ordered_answer(vector_rows, scalar_rows, "simplex")
    assert vector_ios.reads == scalar_ios.reads
    assert vector_ios.cache_hits == scalar_ios.cache_hits
    expected = sorted(tuple(p) for p in points if simplex.contains(p))
    assert vector == expected


#: A conjunction per dimension whose facets pass through dyadic grid
#: points exactly (every product and sum below is exact).
FACET_CONJUNCTIONS = {
    2: ConstraintConjunction.of(
        LinearConstraint((0.5,), 0.25),
        LinearConstraint((-0.75,), 0.5)).and_halfspace((0.0, -1.0), 0.25),
    3: ConstraintConjunction.of(
        LinearConstraint((0.5, -0.25), 0.25),
        LinearConstraint((-0.75, 0.5), 0.5)).and_halfspace(
            (0.0, 0.0, -1.0), 0.25),
}

#: Every kind the cell-tree walk serves: ``(name, suite, dimension,
#: writes)``; the aliased ``partition_tree`` is the ``dynamic`` tree.
WALK_KINDS = [
    ("partition_tree", ["partition_tree"], 2, False),
    ("shallow_tree", ["shallow_tree"], 2, False),
    ("hybrid3d", ["hybrid3d"], 3, False),
    ("rtree", ["rtree"], 2, False),
    ("quadtree", ["quadtree"], 2, False),
    ("dynamic", ["dynamic"], 3, False),
    ("dynamic", ["dynamic"], 2, True),
    ("partition_tree", ["dynamic", "partition_tree"], 2, False),
]


def facet_grid(dimension):
    """Dyadic grid points on each facet of :data:`FACET_CONJUNCTIONS`
    ``[dimension]`` (the extra one at height -0.25) and off them."""
    axis = np.arange(-8, 9) / 8.0
    prefixes = np.stack(np.meshgrid(*[axis] * (dimension - 1)),
                        axis=-1).reshape(-1, dimension - 1)
    heights = [constraint.offset + prefixes @ np.asarray(constraint.coeffs)
               for constraint in FACET_CONJUNCTIONS[dimension].constraints]
    heights += [np.full(len(prefixes), value) for value in (-0.25, 0.0, 0.5)]
    return np.vstack([np.column_stack((prefixes, height))
                      for height in heights])


@pytest.mark.parametrize("backend", ["memory", "file"])
@pytest.mark.parametrize("name, suite, dimension, writes", WALK_KINDS,
                         ids=["%s-%s%s" % ("+".join(suite), dimension,
                                           "-written" if writes else "")
                              for __, suite, dimension, writes in WALK_KINDS])
def test_every_cell_tree_walks_a_conjunction(name, suite, dimension, writes,
                                             backend, tmp_path):
    """A conjunction walks every cell tree, a written replica's through
    its write overlay's buffer too, as its polytope: on random points and on grid points
    lying on a facet the answer is ``filter_points``', in both
    conjunct orders, and the scalar oracle reads the same blocks and
    answers the same rows in the same order."""
    from repro import QueryEngine
    rng = np.random.default_rng(dimension)
    points = np.vstack([rng.uniform(-1.0, 1.0, size=(700, dimension)),
                        facet_grid(dimension)])
    engine = QueryEngine(block_size=16, seed=5, backend=backend,
                         data_dir=str(tmp_path))
    try:
        engine.register_dataset("d", points, kinds=suite)
        live = points
        if writes:
            grid = facet_grid(dimension)
            for point in grid[::7]:
                assert engine.insert("d", tuple(point)).applied
            for point in points[::9]:
                assert engine.delete("d", tuple(point)).applied
            live = np.vstack([np.delete(points, np.s_[::9], axis=0),
                              grid[::7]])
        replica = engine.catalog.dataset("d")
        conjunction = FACET_CONJUNCTIONS[dimension]
        for query in (conjunction, ConstraintConjunction(
                conjunction.constraints[::-1],
                conjunction.extra_halfspaces)):
            truth = sorted(map(tuple, filter_points(query, live.tolist())))
            assert len(truth) > 20
            answer, ios, __ = replica.run_query(name, query,
                                                clear_cache=True)
            assert sorted(rows(answer)) == truth
            with scalar_kernels():
                scalar, scalar_ios, __ = replica.run_query(
                    name, query, clear_cache=True)
            assert_same_ordered_answer(answer, scalar, name)
            assert (ios.reads, ios.cache_hits) \
                == (scalar_ios.reads, scalar_ios.cache_hits)
            assert sorted(rows(engine.query("d", query).points)) == truth
    finally:
        engine.close()


def test_conjunction_fallback_filter_parity():
    rng = np.random.default_rng(19)
    points = rng.uniform(-1.0, 1.0, size=(256, 2))
    index = FullScanIndex(points, block_size=16)
    conjunction = ConstraintConjunction.of(
        LinearConstraint(coeffs=(0.4,), offset=0.2),
        LinearConstraint(coeffs=(-0.7,), offset=0.5))
    vector = sorted(rows(query_conjunction(index, conjunction)))
    with scalar_kernels():
        scalar = sorted(rows(query_conjunction(index, conjunction)))
    assert vector == scalar
    expected = sorted(map(tuple, filter_points(conjunction, points.tolist())))
    assert vector == expected


@pytest.mark.parametrize("index_type", [FullScanIndex, RTreeIndex,
                                        PartitionTreeIndex])
def test_three_conjunct_answer_is_order_exact_across_paths(index_type):
    """The conjunction masks the first conjunct's matrix directly; the
    scalar loop is the reference for which rows survive, in which order."""
    rng = np.random.default_rng(23)
    points = rng.uniform(-1.0, 1.0, size=(512, 2))
    index = index_type(points, block_size=16)
    conjunction = ConstraintConjunction.of(
        LinearConstraint(coeffs=(0.4,), offset=0.6),
        LinearConstraint(coeffs=(-0.7,), offset=0.5),
        LinearConstraint(coeffs=(0.05,), offset=0.3))
    vector = query_conjunction(index, conjunction)
    with scalar_kernels():
        scalar = query_conjunction(index, conjunction)
    assert len(vector) > 8
    assert_same_ordered_answer(vector, scalar, index_type.__name__)
    assert sorted(rows(vector)) == sorted(
        map(tuple, filter_points(conjunction, points.tolist())))


def test_dynamic_index_answer_is_order_exact_with_and_without_tombstones():
    rng = np.random.default_rng(29)
    points = rng.uniform(-1.0, 1.0, size=(300, 2))
    index = OverlaidTree(points, block_size=16)
    constraint = LinearConstraint(coeffs=(0.3,), offset=0.2)

    def both_paths():
        vector = index.query(constraint)
        with scalar_kernels():
            scalar = index.query(constraint)
        assert_same_ordered_answer(vector, scalar, "dynamic")
        return vector

    for point in rng.uniform(-1.0, 1.0, size=(5, 2)):
        index.insert(tuple(point))           # buffered, no tombstones
    assert index.tombstoned == 0
    untouched = both_paths()
    doomed = rows(untouched)[:7]
    for point in doomed:
        assert index.delete(point)
    assert index.tombstoned > 0
    survivors = both_paths()
    # Exactly the pre-delete answer minus the deleted rows, order kept.
    assert rows(survivors) == [p for p in rows(untouched) if p not in doomed]


def test_vector_results_are_json_serializable():
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.0, 1.0, size=(64, 2))
    index = FullScanIndex(points, block_size=8)
    answer = rows(index.query(LinearConstraint(coeffs=(0.2,), offset=0.3)))
    assert answer
    for record in answer:
        assert type(record) is tuple
        assert all(type(value) is float for value in record)
    json.dumps(answer)


@pytest.mark.parametrize("dimension", [2, 3, 4])
def test_classify_cells_is_the_cell_loop_on_boxes_touching_the_region(
        dimension):
    """A tree whose box corners lie on a constraint's hyperplane or on a
    polytope's facet, exactly or EPS to either side: its in-memory boxes,
    classified in one call, give every table the oracle's cell loop's
    relations over the stored records, in record order."""
    rng = np.random.default_rng(dimension)
    edge = 0.25 + EPS                       # what a fold compares with
    values = np.array([-0.5, 0.0, 0.25, edge, 0.25 + 3 * EPS, 0.5])
    flat = LinearConstraint((0.0,) * (dimension - 1), 0.25)
    regions = [flat, constraint_for(dimension, 41),
               ConstraintConjunction.of(flat).and_halfspace(
                   (1.0,) + (0.0,) * (dimension - 1), 0.25).to_polytope(),
               ConstraintConjunction.of(flat, constraint_for(dimension, 43))
               .to_polytope()]
    store = BlockStore(block_size=4, cache_blocks=0)
    tree = PartitionTreeIndex(rng.choice(values, size=(400, dimension)),
                              store=store)
    costs, order = tree._costs, tree._order
    internal = [slot for slot, node_id in enumerate(costs.node.tolist())
                if not tree._nodes[node_id].is_leaf]
    assert len(internal) > 4
    for region in regions:
        codes = region.classify_boxes(costs.lowers, costs.uppers)
        touched = 0
        for slot in internal:
            children = np.flatnonzero(costs.parent == slot)
            children = children[children != 0]
            children = children[np.argsort(order.start[children])]
            batch = [(int(costs.node[child]), CELL_RELATIONS[codes[child]])
                     for child in children.tolist() if codes[child]]
            table = tree._nodes[costs.node[slot]].child_table
            store.reset_stats()
            loop = list(scan_oracle.classify_cells(table, region))
            assert batch == loop, region
            assert store.stats.reads == table.num_blocks
            touched += len(loop)
        assert 0 < touched < len(costs.node) - 1
    store.close()


def test_kernels_fall_back_on_non_point_blocks():
    store = BlockStore(block_size=4, cache_blocks=0)
    # First block columnar; second block mixes int tuples and ragged
    # widths, so it must take the scalar fallback (per block).
    array = DiskArray(store, [(0.1, 0.2), (0.3, -0.4), (0.5, 0.6),
                              (0.7, -0.8)])
    array.extend([(1, -2), (0.0, 0.0), (0.25, -0.5, 9.0), (-1, -1)])
    constraint = LinearConstraint(coeffs=(0.0,), offset=0.0)
    with scalar_kernels():
        expected = [r for r in scan(array) if constraint.below(r)]
    got = rows(kernels.filter_constraint(array, constraint))
    assert got == expected
    # Fallback records become rows of the answer, values kept.
    assert (1, -2) in got and (-1, -1) in got
    store.close()


def test_deferred_scan_reads_at_visit_time_and_evaluates_once():
    store = BlockStore(block_size=4, cache_blocks=0)
    constraint = LinearConstraint(coeffs=(0.0,), offset=0.0)
    crossed = DiskArray(store, [(float(i), float(i % 3 - 1)) for i in range(10)])
    below = DiskArray(store, [(float(i), 5.0) for i in range(6)])
    mixed = DiskArray(store, [(1, -2), (0.5, 3.0)])
    evaluated = []

    def keep_many(matrix):
        evaluated.append(matrix.shape)
        return matrix[:, -1] <= 0.0

    scan = kernels.DeferredScan(2, SimpleNamespace(contains=constraint.below,
                                                   contains_many=keep_many))
    store.reset_stats()
    scan.add(crossed, filtered=True)
    scan.add(below, filtered=False)
    scan.add(crossed, filtered=True)
    assert store.stats.reads == 3 + 2 + 3       # fetched when visited ...
    assert not evaluated                        # ... nothing judged
    scan.add(mixed, filtered=True)              # a record block ends a stack
    assert evaluated == [(26, 2)]
    scan.add(crossed, filtered=True)
    kept = filter_points(constraint, read_all(crossed))
    answer = scan.flush()
    assert_answer(answer, 2)
    assert rows(answer) == kept + read_all(below) + kept + [(1, -2)] + kept
    assert evaluated == [(26, 2), (10, 2)]
    store.close()


# ----------------------------------------------------------------------
# FullScanIndex dimension handling (satellite)
# ----------------------------------------------------------------------
def test_full_scan_empty_requires_dimension():
    with pytest.raises(ValueError, match="dimension"):
        FullScanIndex([])


def test_full_scan_empty_with_dimension():
    index = FullScanIndex([], dimension=4)
    assert index.dimension == 4
    assert index.size == 0
    assert rows(index.query(constraint_for(4, 2))) == []


def test_full_scan_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        FullScanIndex([(1.0, 2.0)], dimension=3)


def test_full_scan_dimension_consistent_accepted():
    index = FullScanIndex([(1.0, 2.0, 3.0)], dimension=3)
    assert index.dimension == 3


# ----------------------------------------------------------------------
# leaf runs and the whole request path, vector against scalar
# ----------------------------------------------------------------------
def logged_reads(store, monkeypatch):
    """Every block the store is asked for, in order; runs kept apart."""
    log, runs = [], []
    read, read_payload, read_run = (store.read, store.read_payload,
                                    store.read_run)

    def one(method):
        def call(block_id):
            log.append(block_id)
            return method(block_id)
        return call

    def run(block_ids):
        log.extend(block_ids)
        runs.append(list(block_ids))
        return read_run(block_ids)

    monkeypatch.setattr(store, "read", one(read))
    monkeypatch.setattr(store, "read_payload", one(read_payload))
    monkeypatch.setattr(store, "read_run", run)
    return log, runs


def test_leaf_runs_read_the_blocks_the_walk_reads_in_its_order(monkeypatch):
    """A query's blocks, tables and leaves alike, go to the pool as one
    run, in the order of block accesses of the record-at-a-time walk,
    whose tables here span several blocks."""
    constraint = constraint_for(2, 5)
    points = np.asarray(make_cloud(2, 900, 5, with_boundary=constraint))
    store = BlockStore(block_size=16, cache_blocks=2)
    wide = PartitionTreeIndex(points, store=store, max_fanout=3 * 16)
    assert any(node.child_table.num_blocks > 1
               for node in wide._nodes if not node.is_leaf)
    log, runs = logged_reads(store, monkeypatch)
    store.clear_cache()
    store.reset_stats()
    vector = wide.query(constraint)
    vector_log, vector_runs = list(log), list(runs)
    vector_info = cache_info(store)
    del log[:], runs[:]
    store.clear_cache()
    store.reset_stats()
    with scalar_kernels():
        scalar = wide.query(constraint)
    assert not runs and log == vector_log
    scalar_info = cache_info(store)
    assert len(vector_runs) == 1 and len(vector_runs[0]) > 2
    assert (vector_info["hits"], vector_info["misses"]) \
        == (scalar_info["hits"], scalar_info["misses"])
    assert_same_ordered_answer(vector, scalar, "wide tree")


def test_hybrid_batches_below_leaves_and_queries_crossed_ones(monkeypatch):
    points = np.asarray(make_cloud(3, 1500, 9))
    store = BlockStore(block_size=8, cache_blocks=4)
    index = HybridIndex3D(points, store=store, leaf_exponent=1.2, seed=3)
    leaf_blocks = {block_id for node in index._nodes if node.is_leaf
                   for block_id in node.points_array.block_ids}
    tree_blocks = leaf_blocks.union(*(
        node.child_table.block_ids for node in index._nodes
        if not node.is_leaf))
    constraint = LinearConstraint(coeffs=(0.3, -0.2), offset=0.1)
    log, runs = logged_reads(store, monkeypatch)
    vector = index.query(constraint)
    vector_log = list(log)
    assert index.last_query["leaves_queried"] > 0
    # A run holds the tree's own blocks -- tables and the raw copies of
    # BELOW leaves -- or one conflict list of a crossed leaf's own
    # structure, never both.
    assert max(len(leaf_blocks.intersection(run)) for run in runs) > 1
    assert all(tree_blocks.issuperset(run) or tree_blocks.isdisjoint(run)
               for run in runs)
    assert not tree_blocks.issuperset(vector_log)
    del log[:], runs[:]
    with scalar_kernels():
        scalar = index.query(constraint)
    assert log == vector_log
    assert_same_ordered_answer(vector, scalar, "hybrid")


def replay_digest(requests, seed):
    """One engine over the 2-D and 3-D default suites serves ``requests``;
    sha256 of every answer's index, reads, pool hits, count and bytes."""
    from repro import QueryEngine
    from repro.workloads import uniform_points
    import hashlib

    engine = QueryEngine(block_size=16, seed=seed)
    try:
        engine.register_dataset("p2", uniform_points(1500, seed=seed))
        engine.register_dataset("p3", uniform_points(700, dimension=3,
                                                     seed=seed + 1))
        digest = hashlib.sha256()
        served = set()
        for name, constraint in requests:
            answer = engine.query(name, constraint)
            served.add(answer.index_name)
            digest.update(("%s|%d|%d|%d|" % (
                answer.index_name, answer.ios.reads, answer.ios.cache_hits,
                answer.count)).encode())
            digest.update(answer.points.tobytes())
        return digest.hexdigest(), served
    finally:
        engine.close()


def test_replay_of_the_embedded_shape_is_identical_in_both_modes():
    """600 requests alternating a 2-D and a 3-D dataset, 35% of them
    repeats of a hot set: planner routing, pool state and answers evolve
    identically under the vector kernels and under the scalar oracle."""
    from repro.workloads import (halfspace_queries_with_selectivity,
                                 uniform_points)

    seed = 21
    rng = np.random.default_rng(seed)
    requests = []
    for slot, (name, dimension) in enumerate((("p2", 2), ("p3", 3))):
        points = uniform_points(1500 if dimension == 2 else 700,
                                dimension=dimension, seed=seed + slot)
        pool = [halfspace_queries_with_selectivity(
            points, 1, float(selectivity), seed=int(pick))[0]
            for selectivity, pick in zip(
                np.exp(rng.uniform(np.log(0.004), np.log(0.3), 316)),
                rng.integers(0, 1 << 30, 316))]
        hot, fresh = pool[:16], iter(pool[16:])
        requests.append([
            (name, hot[int(rng.integers(0, 16))] if rng.random() < 0.35
             else next(fresh)) for __ in range(300)])
    stream = [request for pair in zip(*requests) for request in pair]
    assert len(stream) == 600
    vector, served = replay_digest(stream, seed)
    assert {"halfplane2d", "partition_tree"} <= served
    with scalar_kernels():
        scalar, __ = replay_digest(stream, seed)
    assert vector == scalar
