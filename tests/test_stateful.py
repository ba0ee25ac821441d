"""The engine against a numpy oracle, under generated writes and re-splits.

One :class:`RuleBasedStateMachine` registers a dataset of dimension 2 to 5
drawn from index suite x {memory, file} backend x {range, hash} sharding x K in {1, 2, 4}
shards x {1, 2} replicas, over degenerate point sets (duplicates,
collinear and axis-parallel sets, points on a query hyperplane, N < B),
then interleaves inserts (copies, grid points, points far outside the
build range — which fill zero-point shards — and points within 3 ulps
of a recently asked constraint's ``EPS`` edge), deletes (present and
absent), queries, conjunctions, re-splits, and closes that reopen an
engine on the same ``data_dir`` over the live points (refused while the
old one is live; after each, the stores and the directory hold what one
fresh registration's do).  The oracle is the live
multiset, kept as a list, and its membership rule is ``below_many``.
After every rule the dataset's ``check_invariants()`` holds, as does
every index's that has a checker and every replica's write overlay's
(and, on files, every replica store's: its log replays to its backend's
books), and its whole answer is the oracle's; a query or a conjunction
is also answered by every index of every replica, by the batch kernels
and by the record loops of ``scan_oracle`` (same answer, same I/Os) —
each over its shard's part of the oracle, whatever its kind — and under
``explain(analyze=True)`` every shard an exactly priced kind
(``conftest.EXACTLY_PRICED``) served was priced at exactly its cold
I/Os.  Half the queries re-ask one of the last few, so result-cache
hits after writes are exercised; after every rule the engine's result
cache passes its checker, and after every write or flush each resident
answer is, index name and bytes, what a ``clear_cache=True`` query of
its key returns.  The worker
mode is the suite's (``REPRO_WORKERS``); the example budget is
``conftest.STATEFUL``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from conftest import EXACTLY_PRICED, STATEFUL, edge_points
from scan_oracle import scalar_kernels

from repro import ConstraintConjunction, LinearConstraint, QueryEngine

#: The suites a dataset is registered with, each taking every write:
#: between them, every kind the catalog builds in the dimension (past 3,
#: the six that take any dimension).  The first is the default suite.
SUITES = {2: [["halfplane2d", "partition_tree", "full_scan"],
              ["dynamic", "quadtree", "paged_cgl"],
              ["shallow_tree", "rtree", "kdb_tree"]],
          3: [["halfspace3d", "partition_tree", "full_scan"],
              ["dynamic", "halfspace3d", "hybrid3d"],
              ["shallow_tree", "rtree", "kdb_tree"]],
          4: [["partition_tree", "shallow_tree", "full_scan"],
              ["dynamic", "rtree", "kdb_tree"]],
          5: [["partition_tree", "shallow_tree", "full_scan"],
              ["dynamic", "rtree", "kdb_tree"]]}
#: Dyadic grid values: sums and products stay exact, so a query plane
#: through a stored point passes exactly through it.
GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
FAR = [-4.0, 3.0, 6.0]
COEFFS = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
#: Reopens per example: a reopen in process mode waits out its
#: workers' shutdown.
REOPENS = 2
#: Constraints the query rule may re-ask.
REASKED = 4
EVERYTHING = {d: LinearConstraint(coeffs=(0.0,) * (d - 1), offset=1e9)
              for d in SUITES}


@st.composite
def layouts(draw):
    """One dataset: its dimension, points, suite, backend and sharding."""
    dimension = draw(st.sampled_from(sorted(SUITES)))
    kinds = draw(st.sampled_from(SUITES[dimension]))
    block_size = draw(st.sampled_from([4, 8]))
    shape = draw(st.sampled_from(
        ["grid", "duplicates", "collinear", "one_leading_value", "below_b"]))
    count = draw(st.integers(1, block_size - 1)) if shape == "below_b" \
        else draw(st.integers(block_size, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    points = rng.choice(GRID, size=(count, dimension))
    if shape == "duplicates":
        points = points[rng.integers(0, 3, size=count)]
    elif shape == "collinear":
        points[:, 1:] = points[:, :1] * 0.5
    elif shape == "one_leading_value":
        points[:, 0] = 0.5      # range shards collapse: zero-point shards
    return {
        "points": points, "block_size": block_size, "kinds": kinds,
        "backend": draw(st.sampled_from(["memory", "file"])),
        "sharding": draw(st.sampled_from(["range", "hash"])),
        "num_shards": draw(st.sampled_from([1, 2, 4])),
        "replicas": draw(st.sampled_from([1, 2])),
    }


def fresh_points(dimension):
    """A grid point, or one far outside the build range."""
    return st.lists(st.sampled_from(GRID + FAR), min_size=dimension,
                    max_size=dimension).map(tuple)


def multiset(points):
    """An answer matrix or a list of points as a sorted list of tuples."""
    return sorted(map(tuple, np.asarray(points, dtype=float).tolist()))


def on_disk(engine, data_dir):
    """What an engine's stores hold: each one's block count and log
    size, and the files in its ``data_dir``, by name and size."""
    stores = []
    for store in engine.catalog.stores("d"):
        if hasattr(store.backend, "sync"):
            store.backend.sync()
        info = store.backend.info()
        stores.append((info["blocks"], info.get("file_bytes")))
    files = sorted((name, os.path.getsize(os.path.join(data_dir, name)))
                   for name in os.listdir(data_dir))
    return stores, files


class EngineMachine(RuleBasedStateMachine):
    """One engine, one dataset ``d``, and ``live``: its oracle multiset."""

    @initialize(layout=layouts(), seed=st.integers(0, 2 ** 16))
    def register(self, layout, seed):
        self.layout, self.seed = layout, seed
        self.data_dir = tempfile.mkdtemp(prefix="stateful-")
        self.engine = self.open_engine(self.data_dir, layout["points"])
        self.sharded = self.engine.catalog.sharded("d")
        self.dimension = layout["points"].shape[1]
        self.fresh = fresh_points(self.dimension)
        self.live = [tuple(p) for p in layout["points"].tolist()]
        #: Writes applied since registration or the last re-split.
        self.writes = 0
        self.reopens = 0
        #: The query rule's latest constraints.
        self.asked = deque(maxlen=REASKED)
        #: The result-cache generation the last comparison saw.
        self.checked = None

    def open_engine(self, data_dir, points, workers=None):
        """An engine on ``data_dir`` with ``points`` registered as ``d``
        in the drawn layout."""
        layout = self.layout
        engine = QueryEngine(
            block_size=layout["block_size"], seed=self.seed, sample_size=8,
            backend=layout["backend"], data_dir=data_dir, workers=workers)
        engine.register_sharded_dataset(
            "d", points, num_shards=layout["num_shards"],
            sharding=layout["sharding"], replicas=layout["replicas"],
            kinds=layout["kinds"])
        return engine

    def teardown(self):
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    @rule(data=st.data(), source=st.sampled_from(["copy", "fresh", "edge"]),
          pick=st.integers(0, 2 ** 16))
    def insert(self, data, source, pick):
        point = self.live[pick % len(self.live)] \
            if source == "copy" and self.live else data.draw(self.fresh)
        if source == "edge" and self.asked:
            # Over a fresh point's leading coordinates, 0-3 ulps off the
            # largest last coordinate a recent constraint admits.
            constraint = self.asked[(pick // 7) % len(self.asked)]
            point = tuple(edge_points(constraint, [point[:-1]],
                                      [pick % 7 - 3])[0].tolist())
        result = self.engine.insert("d", point)
        assert result.applied and result.replicas == len(
            self.sharded.shards[result.shard_id].replicas)
        self.live.append(tuple(map(float, point)))
        self.writes += 1

    @rule(data=st.data(), present=st.booleans(),
          pick=st.integers(0, 2 ** 16))
    def delete(self, data, present, pick):
        point = self.live[pick % len(self.live)] \
            if present and self.live \
            else tuple(map(float, data.draw(self.fresh)))
        result = self.engine.delete("d", point)
        assert result.applied == (point in self.live)
        if result.applied:
            self.live.remove(point)
            self.writes += 1

    @precondition(lambda self: self.sharded.router.scheme == "range"
                  and self.live and self.writes)
    @rule()
    def rebalance(self):
        self.engine.rebalance("d")
        self.writes = 0

    @precondition(lambda self: self.live and self.reopens < REOPENS)
    @rule()
    def reopen(self):
        """Close the engine and open the next on its ``data_dir`` over the
        live points: refused while the first is live, then holding on
        disk exactly what one fresh registration of them holds."""
        points = np.asarray(self.live, dtype=float)
        if self.layout["backend"] == "file":
            with pytest.raises(ValueError, match="another live engine"):
                QueryEngine(backend="file", data_dir=self.data_dir)
        self.engine.close()
        self.engine = self.open_engine(self.data_dir, points)
        self.sharded = self.engine.catalog.sharded("d")
        self.writes = 0
        self.checked = None         # the new engine counts from 0
        self.reopens += 1
        fresh_dir = tempfile.mkdtemp(prefix="stateful-fresh-")
        fresh = self.open_engine(fresh_dir, points, workers="inprocess")
        try:
            assert on_disk(self.engine, self.data_dir) \
                == on_disk(fresh, fresh_dir)
        finally:
            fresh.close()
            shutil.rmtree(fresh_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def constraints(self, draw_coeffs, pick, shift):
        """A plane through a live point (or the origin), shifted."""
        anchor = self.live[pick % len(self.live)] if self.live \
            else (0.0,) * self.dimension
        coeffs = tuple(draw_coeffs)
        offset = anchor[-1] - sum(c * x for c, x in zip(coeffs, anchor))
        return LinearConstraint(coeffs=coeffs, offset=offset + shift)

    def oracle(self, mask_of):
        live = np.asarray(self.live, dtype=float).reshape(-1, self.dimension)
        return multiset(live[mask_of(live)]) if len(live) else []

    def check_every_index(self, query):
        """Every index of every replica, in both kernel modes, at one I/O
        count, answers its shard's part of the oracle through the
        replica's write overlay: the rows every conjunct's
        ``below_many`` admits."""
        live = np.asarray(self.live, dtype=float).reshape(-1, self.dimension)
        routed = self.sharded.router.assign(live)
        for shard in self.sharded.shards:
            part = live[routed[shard.shard_id]]
            truth = multiset(part[np.logical_and.reduce(
                [c.below_many(part) for c in query.constraints])])
            for replica in shard.replicas:
                for name in replica.indexes:
                    vector, vector_ios, __ = replica.run_query(
                        name, query, clear_cache=True)
                    with scalar_kernels():
                        scalar, scalar_ios, __ = replica.run_query(
                            name, query, clear_cache=True)
                    where = (replica.name, name, query)
                    assert multiset(vector) == truth, where
                    assert multiset(scalar) == truth, where
                    assert (vector_ios.reads, vector_ios.cache_hits) == (
                        scalar_ios.reads, scalar_ios.cache_hits), where

    @rule(data=st.data(), pick=st.integers(0, 2 ** 16),
          shift=st.sampled_from([0.0, -0.25, 0.5, -10.0, 10.0]))
    def query(self, data, pick, shift):
        constraint = self.constraints(data.draw(st.lists(
            st.sampled_from(COEFFS), min_size=self.dimension - 1,
            max_size=self.dimension - 1)), pick, shift)
        # An odd pick re-asks a recent constraint instead (no draw of
        # its own, so the machine draws the examples it drew before).
        if pick % 2 and self.asked:
            constraint = self.asked[(pick // 2) % len(self.asked)]
        else:
            self.asked.append(constraint)
        truth = self.oracle(constraint.below_many)
        assert multiset(self.engine.query("d", constraint).points) == truth
        report = self.engine.explain("d", constraint, analyze=True,
                                     clear_cache=True)
        assert report["reported"] == len(truth)
        for entry in report["per_shard"]:
            if entry["index"] in EXACTLY_PRICED:
                assert entry["model_ios"] == entry["observed_cold_ios"], \
                    entry
        self.check_every_index(constraint)

    @rule(data=st.data(), picks=st.tuples(st.integers(0, 2 ** 16),
                                          st.integers(0, 2 ** 16)),
          shift=st.sampled_from([0.0, 0.5, -0.25]))
    def conjunction(self, data, picks, shift):
        draw = st.lists(st.sampled_from(COEFFS), min_size=self.dimension - 1,
                        max_size=self.dimension - 1)
        conjuncts = [self.constraints(data.draw(draw), pick, shift)
                     for pick in picks]
        # An odd first pick leads with a recent constraint instead, whose
        # edge the insert rule may have put points on.
        if picks[0] % 2 and self.asked:
            conjuncts[0] = self.asked[(picks[0] // 2) % len(self.asked)]
        both = ConstraintConjunction.of(*conjuncts)
        truth = self.oracle(lambda live: np.logical_and.reduce(
            [c.below_many(live) for c in both.constraints]))
        answer = self.engine.query("d", both, clear_cache=True)
        assert multiset(answer.points) == truth
        self.check_every_index(both)

    # ------------------------------------------------------------------
    # after every rule
    # ------------------------------------------------------------------
    @invariant()
    def layout_holds_and_answers_the_oracle(self):
        if not hasattr(self, "engine"):
            return
        self.sharded.check_invariants()
        for shard in self.sharded.shards:
            for replica in shard.replicas:
                replica.overlay.check_invariants()
                for index in replica.indexes.values():
                    check = getattr(index, "check_invariants", None)
                    if check is not None:
                        check()
        if self.sharded.recipe.backend == "file":
            # Every replica's log replays to its backend's books.
            for store in self.engine.catalog.stores("d"):
                store.check_invariants()
        if self.engine.cluster is not None:
            self.engine.cluster.check_invariants()
        core = self.engine.executor.core
        resident = core.check_invariants()
        if core.results.generation("d") != self.checked:
            # A write or flush since the last check: what it left must
            # still be what a fresh query returns.
            self.checked = core.results.generation("d")
            for (name, query), (index_name, points) in resident:
                fresh = self.engine.query(name, query, clear_cache=True)
                assert (fresh.index_name, fresh.points.tobytes()) \
                    == (index_name, points.tobytes()), query
        answer = self.engine.query("d", EVERYTHING[self.dimension])
        assert multiset(answer.points) == multiset(self.live)


TestEngineMachine = EngineMachine.TestCase
TestEngineMachine.settings = STATEFUL
