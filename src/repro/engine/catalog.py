"""The engine's catalog: datasets, registered indexes and build statistics.

The :class:`Catalog` is the system-of-record the rest of the engine works
from.  It owns one shared :class:`~repro.io.store.BlockStore` per dataset
(so every index over the same data competes for the same buffer pool, as
it would on a real disk), knows how to bulk-build any combination of
:class:`~repro.core.interface.ExternalIndex` implementations over a
dataset, and records what each build cost (wall-clock, write I/Os, space).

Datasets come in one shape: every registered name is a
:class:`~repro.engine.sharding.ShardedDataset` — a router over K shards,
each shard a list of replica :class:`Dataset` children (one store, one
index suite each).  ``register_dataset`` registers the one-shard,
one-replica instance, whose sole replica keeps the dataset's own name;
the plain-name lookups (:meth:`Catalog.dataset`, :meth:`Catalog.entry`,
:meth:`Catalog.indexes`, ...) are views of that replica.  Every store
follows the catalog's one recipe: its block size, buffer-pool size and
*backend* — an in-memory dict or a real file, see
:mod:`repro.io.backend`.  A dataset's :class:`ReplicaRecipe` is that
recipe with the dataset's replica count, and every replica — registered,
re-split or rebuilt in a worker process — comes out of
:func:`build_replicas`.  Every shard is built with its dataset, a shard
the router gave no points included: a zero-point shard is an ordinary
index suite over ``(0, d)`` that the first insert routed to it fills.
Every replica takes writes, whatever its suite: they land in its
:class:`~repro.engine.overlay.WriteOverlay`, which every query applies
to the answering index and a rebuild folds into a fresh suite.

The catalog also attaches a *selectivity model* (see
:mod:`repro.engine.stats`) to every shard, shared by its replicas: it
evaluates constraints on a small in-memory sample that it owns and that
fills as its data grows (O(sample) arithmetic, zero I/Os).  A dataset's
expected output T is the sum of its shards' estimates, so planning is
priced with shard-local statistics, and the estimate turns the paper's
output-sensitive bounds into concrete per-query cost predictions.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import time
from dataclasses import dataclass, field, replace
from typing import (BinaryIO, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from repro.baselines import (
    FullScanIndex,
    KDBTreeIndex,
    PagedDualIndex2D,
    QuadTreeIndex,
    RTreeIndex,
)
from repro.core import (
    ExternalIndex,
    HalfplaneIndex2D,
    HalfspaceIndex3D,
    HybridIndex3D,
    PartitionTreeIndex,
    ShallowPartitionTreeIndex,
)
from repro.core.conjunction import ConstraintConjunction, query_conjunction
from repro.core.partition_tree import SharedPartitions, sharing_partitions
from repro.engine import tracing
from repro.engine.overlay import WriteOverlay
from repro.engine.sharding import (
    HashShardRouter,
    RangeShardRouter,
    Shard,
    ShardedDataset,
    make_router,
)
from repro.engine.stats import Reservoir, SelectivityModel
from repro.engine.tracing import NULL_TRACE, Tracer, activate
from repro.geometry.primitives import LinearConstraint
from repro.io.backend import BACKEND_NAMES, make_backend
from repro.io.store import BlockStore, IOStats


#: What a dataset answers: one linear constraint, or an AND of several.
Query = Union[LinearConstraint, ConstraintConjunction]


@dataclass(frozen=True)
class IndexKind:
    """One buildable index family: constructor, dimension domain, and
    whether its ``estimated_query_ios`` is exactly its cold I/Os (priced
    from its structure alone, so no write moves the price until a
    rebuild; the other kinds price from the expected output T, which
    every write moves)."""

    name: str
    factory: type
    dimensions: Optional[Tuple[int, ...]]  # None = any dimension >= 2
    exactly_priced: bool

    def supports(self, dimension: int) -> bool:
        """True if this kind can index points of the given dimension."""
        return self.dimensions is None or dimension in self.dimensions


#: Every index family the catalog can build, keyed by its short kind name.
INDEX_KINDS: Dict[str, IndexKind] = {
    kind.name: kind
    for kind in (
        IndexKind("halfplane2d", HalfplaneIndex2D, (2,), False),
        IndexKind("halfspace3d", HalfspaceIndex3D, (3,), False),
        IndexKind("hybrid3d", HybridIndex3D, (3,), False),
        IndexKind("partition_tree", PartitionTreeIndex, None, True),
        IndexKind("shallow_tree", ShallowPartitionTreeIndex, None, True),
        IndexKind("full_scan", FullScanIndex, None, True),
        IndexKind("rtree", RTreeIndex, None, True),
        IndexKind("kdb_tree", KDBTreeIndex, None, False),
        IndexKind("quadtree", QuadTreeIndex, (2,), True),
        IndexKind("paged_cgl", PagedDualIndex2D, (2,), False),
        # The partition tree under a second name: every kind takes writes
        # through its replica's overlay, so "dynamic" is no structure of
        # its own (one_tree_per_replica).
        IndexKind("dynamic", PartitionTreeIndex, None, True),
    )
}


def default_suite(dimension: int) -> List[str]:
    """The kinds the engine builds when the caller does not choose.

    The paper's optimal structure where it has one (d = 2 and 3), the
    linear-size partition tree (handles conjunctions natively), and the
    full scan as the always-correct floor.  Each kind but the floor wins
    some query of ``benchmarks/bench_planner_regret.py``.
    """
    optimal = {2: ["halfplane2d"], 3: ["halfspace3d"]}.get(dimension, [])
    return optimal + ["partition_tree", "full_scan"]


@dataclass
class BuildRecord:
    """What one index build cost (what the catalog's stats report)."""

    dataset: str
    index_name: str
    kind: str
    num_points: int
    space_blocks: int
    build_seconds: float
    build_ios: Optional[IOStats]
    params: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """JSON-friendly view (benchmarks persist these)."""
        return {
            "dataset": self.dataset,
            "index": self.index_name,
            "kind": self.kind,
            "num_points": self.num_points,
            "space_blocks": self.space_blocks,
            "build_seconds": self.build_seconds,
            "build_ios": self.build_ios.total if self.build_ios else None,
        }


@dataclass
class Dataset:
    """One replica of one shard: its store, indexes, statistics and
    write overlay.

    ``points`` are the replica's points when it was made (registration
    or re-split: what the shard's write log starts from).  Every index of
    the suite was built over its overlay's ``rows`` — those points, until
    a rebuild — and the writes the replica took since live in its
    :class:`~repro.engine.overlay.WriteOverlay`, which :meth:`run_query`
    applies to whichever index answers and which :meth:`rebuild` folds
    into a fresh suite.
    """

    name: str
    points: np.ndarray
    store: BlockStore
    #: Selectivity model, owner of the shard's sample (shared by a
    #: shard's replicas).
    stats: SelectivityModel
    indexes: Dict[str, ExternalIndex] = field(default_factory=dict)
    build_records: Dict[str, BuildRecord] = field(default_factory=dict)
    #: Index names that resolve to another name's structure: a
    #: ``partition_tree`` built as the ``dynamic`` tree beside it (see
    #: :func:`one_tree_per_replica`).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: The seed of the randomised builds (the recipe's).
    seed: Optional[int] = None
    #: The builds the suite ran (``kind`` / ``index_name`` / ``params``),
    #: one list per :func:`_build_on_shards` call: what a rebuild replays.
    suite: List[Sequence[Dict[str, object]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.overlay = WriteOverlay(self.store, self.points)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the stored points."""
        return int(self.points.shape[1])

    @property
    def size(self) -> int:
        """Number of points the replica was made with."""
        return int(self.points.shape[0])

    @property
    def exactly_priced(self) -> bool:
        """True when every index of the suite prices a query from its
        structure alone (:attr:`IndexKind.exactly_priced`): then no
        write but a rebuild moves a plan."""
        return all(INDEX_KINDS[record.kind].exactly_priced
                   for record in self.build_records.values())

    @property
    def live_size(self) -> int:
        """Current point count, writes included: the overlay's."""
        return self.overlay.size

    def estimate_output(self, constraint: LinearConstraint) -> int:
        """Expected number of reported points (the paper's T), from the
        shard's selectivity model: pure arithmetic, no I/O."""
        return self.stats.estimate_output(constraint, self.live_size)

    def run_query(self, index_name: str, query: Query,
                  clear_cache: bool = False
                  ) -> Tuple[np.ndarray, IOStats, Dict[str, object]]:
        """Run one constraint or conjunction on one of this dataset's indexes.

        The engine's unit of execution — the executor's local transport
        and the shard-worker process both answer a per-replica query
        here, so the two cannot measure differently.  Returns the
        reported points — the index's read-only ``(n, d)`` float64
        matrix, which every layer above carries as it is — the I/Os the
        store charged for them (``clear_cache`` empties the buffer pool
        first: the cold cost), and the index's own account of how it
        answered (:attr:`ExternalIndex.last_query`).  An alias answers
        through the structure it names.  A conjunction is the shard
        plan's :attr:`~repro.engine.planner.Plan.query`: an index outside
        the cell-tree walk answers its first conjunct, the one the plan
        priced (:func:`~repro.core.conjunction.query_conjunction`).  The
        overlay makes the index's answer the live one
        (:meth:`~repro.engine.overlay.WriteOverlay.answer`), its buffer
        reads charged to the same window.
        """
        with self.store.measured(clear_cache) as ios:
            # Resolved under the store lock, which a rebuild holds.
            index = self.indexes[self.aliases.get(index_name, index_name)]
            if isinstance(query, ConstraintConjunction):
                points = query_conjunction(index, query)
                region = query.to_polytope()
            else:
                points, region = index.query(query), query
            # Read under the store lock: once it is released, the next
            # query on this replica may replace the index's account.
            detail = index.last_query
            points = self.overlay.answer(points, region)
        return points, ios, detail

    def rebuild(self) -> None:
        """Fold the overlay into a fresh suite over the live points.

        The store is emptied first — every block of the old suite and
        overlay is freed, so a rebuilt replica holds what a fresh build
        over its live points holds — then the recorded :attr:`suite`
        replays, call by call, with the seed a fresh build has: the
        parent's replicas and a worker replaying the same writes rebuild
        alike.  The new suite is built aside and swapped in whole, so a
        planner pricing the replica meanwhile reads one suite or the
        other.  Runs inside the caller's measured window (the write that
        set it off is charged), whose store lock keeps queries out.
        """
        live = self.overlay.live_points()
        for block_id in list(self.store.backend.block_ids()):
            self.store.free(block_id)
        self.overlay.reset(live)
        self.overlay.rebuilds += 1
        fresh = Dataset(name=self.name, points=self.points, store=self.store,
                        stats=self.stats, seed=self.seed)
        fresh.overlay = self.overlay
        for builds in self.suite:
            _build_on_shards([(None, [fresh])], self.seed, builds)
        self.indexes, self.build_records, self.aliases, self.suite = (
            fresh.indexes, fresh.build_records, fresh.aliases, fresh.suite)


@dataclass(frozen=True)
class ReplicaRecipe:
    """Everything but its points and index suite that determines a replica.

    The catalog's recipe with the dataset's ``replicas``, fixed at
    registration and kept on the
    :class:`~repro.engine.sharding.ShardedDataset`: a re-split and a
    shard-worker process rebuild from this record, so "the same replica"
    has one definition.
    """

    block_size: int
    cache_blocks: int
    backend: object
    data_dir: Optional[str]
    sample_size: int
    seed: Optional[int]
    replicas: int


def fit_stats(recipe: ReplicaRecipe, array: np.ndarray) -> SelectivityModel:
    """The selectivity model over ``array``, owning its sample.

    The sample is ``array`` itself up to ``recipe.sample_size`` rows,
    else a seeded draw of that many; below that size it fills with the
    inserts the model observes (:class:`~repro.engine.stats.Reservoir`).
    """
    if len(array) <= recipe.sample_size:
        rows = array.copy()
    else:
        rng = np.random.default_rng(recipe.seed)
        rows = array[rng.choice(len(array), size=recipe.sample_size,
                                replace=False)]
    return SelectivityModel(Reservoir(rows, recipe.sample_size, recipe.seed))


def _check_index_free(dataset: Dataset, index_name: str) -> None:
    if index_name in dataset.indexes or index_name in dataset.aliases:
        raise ValueError("index %r already exists on dataset %r"
                         % (index_name, dataset.name))


def _build_index(dataset: Dataset, seed: Optional[int], kind: str,
                 index_name: Optional[str],
                 params: Dict[str, object]) -> BuildRecord:
    """Bulk-build one index of the given kind over one replica."""
    if kind not in INDEX_KINDS:
        raise KeyError("unknown index kind %r (known: %s)"
                       % (kind, sorted(INDEX_KINDS)))
    index_kind = INDEX_KINDS[kind]
    if not index_kind.supports(dataset.dimension):
        raise ValueError("index kind %r does not support dimension %d"
                         % (kind, dataset.dimension))
    index_name = index_name or kind
    _check_index_free(dataset, index_name)
    params = dict(params)
    if seed is not None and kind in ("halfplane2d", "halfspace3d",
                                     "hybrid3d"):
        params.setdefault("seed", seed)
    rows = dataset.overlay.rows
    started = time.perf_counter()
    index = index_kind.factory(rows, store=dataset.store, **params)
    elapsed = time.perf_counter() - started
    record = BuildRecord(
        dataset=dataset.name,
        index_name=index_name,
        kind=kind,
        num_points=len(rows),
        space_blocks=index.space_blocks,
        build_seconds=elapsed,
        build_ios=index.build_ios,
        params=params,
    )
    dataset.indexes[index_name] = index
    dataset.build_records[index_name] = record
    return record


def one_tree_per_replica(builds: Sequence[Dict[str, object]],
                         held: Dict[str, BuildRecord]
                         ) -> Tuple[List[Dict[str, object]], Dict[str, str]]:
    """The builds of ``builds`` that run, in order, and the aliases, on
    a replica already holding the indexes ``held`` (its build records).

    ``dynamic`` is the partition tree under a second name (writes are
    the replica's overlay's, whatever the kind), so a ``partition_tree``
    build whose parameters equal a ``dynamic`` build's — one held, or
    one of ``builds`` — is not built: its name becomes an alias of the
    first such dynamic index, and each replica builds, stores and prices
    one tree.  So a suite resolves alike built call by call (the parent,
    :meth:`Dataset.rebuild`) or from its flat list (a worker, a
    re-split).  With no ``dynamic`` index, ``builds`` run as they are.
    """
    trees = [(name, record.params) for name, record in held.items()
             if record.kind == "dynamic"]
    trees += [(build["index_name"], build["params"])
              for build in builds if build["kind"] == "dynamic"]
    runs: List[Dict[str, object]] = []
    aliases: Dict[str, str] = {}
    for build in builds:
        target = next((name for name, params in trees
                       if params == build["params"]), None) \
            if build["kind"] == "partition_tree" else None
        if target is None:
            runs.append(build)
        else:
            aliases[build["index_name"]] = target
    return runs, aliases


def _alias(dataset: Dataset, aliases: Dict[str, str]) -> None:
    """Give ``dataset`` the aliases of :func:`one_tree_per_replica`."""
    for alias in aliases:
        _check_index_free(dataset, alias)
    dataset.aliases.update(aliases)


def _build_on_shards(shards: Sequence[Tuple[Optional[int], List[Dataset]]],
                     seed: Optional[int], builds: Sequence[Dict[str, object]]
                     ) -> List[BuildRecord]:
    """The one build site: every build of ``builds`` (``kind`` /
    ``index_name`` / ``params``) that :func:`one_tree_per_replica` runs on
    every replica of ``shards`` (``(shard id, replicas)``; a worker's is
    None), shard by shard and, in a shard, in ``builds`` order, each
    build a ``catalog.build_index`` span when a trace is on; the others
    become aliases.  The builds run in one build scope: a shard's chunk is
    cut into its median cuts once, and the cuts are dropped before the
    next shard's chunk is cut.  Returns the records build by build, each
    in shard order.  Every replica holds the same suite, so the first
    one's resolves the call for all."""
    runs, aliases = one_tree_per_replica(builds,
                                         shards[0][1][0].build_records)
    records: List[List[BuildRecord]] = [[] for __ in runs]
    with sharing_partitions() as scope:
        for shard_id, replicas in shards:
            for build, built in zip(runs, records):
                for replica_id, replica in enumerate(replicas):
                    with tracing.span("catalog.build_index",
                                      kind=build["kind"], shard=shard_id,
                                      replica=replica_id) as span:
                        before = (scope.computed, scope.shared)
                        record = _build_index(
                            replica, seed, build["kind"],
                            build["index_name"], build["params"])
                        if span.enabled:
                            _trace_build(span, record,
                                         replica.indexes[record.index_name],
                                         _partition_use(scope, before))
                    built.append(record)
            for replica in replicas:
                _alias(replica, aliases)
                replica.suite.append(builds)
            scope.hierarchies.clear()
    return [record for built in records for record in built]


def _partition_use(scope: SharedPartitions, before: Tuple[int, int]) -> str:
    """What a build did with median-cut hierarchies since the scope's
    counts were ``before``: cut one (``"computed"``), only read the
    scope's (``"shared"``), or neither (``"none"``: no cell tree)."""
    if scope.computed > before[0]:
        return "computed"
    return "shared" if scope.shared > before[1] else "none"


def _trace_build(span: tracing.Span, record: BuildRecord,
                 index: ExternalIndex, partition: str) -> None:
    """A build's figures on its span, and one ``halfplane2d.layer`` child
    per layer of a planar index, read from its layer records."""
    span.set_many({
        "points": record.num_points, "space_blocks": record.space_blocks,
        "build_ios": record.build_ios.total if record.build_ios else 0,
        "build_s": record.build_seconds, "partition": partition})
    if isinstance(index, HalfplaneIndex2D):
        for depth, layer in enumerate(index.layer_builds):
            span.child("halfplane2d.layer", layer=depth,
                       **layer._asdict()).finish()


def build_replicas(names: Sequence[str], chunk: np.ndarray,
                   recipe: ReplicaRecipe,
                   suite_builds: Sequence[Dict[str, object]]
                   ) -> List[Dataset]:
    """One replica per name over the same ``chunk``: the one replica maker.

    Each replica gets its own store (a ``<name>.blocks`` file under the
    recipe's ``data_dir`` for file backends) and a replay of
    ``suite_builds``; all of them share one selectivity model and its
    sample — they hold identical data, and the write path feeds a
    committed write to the model once.  Samples and the randomised
    builds are seeded from the recipe, so the same arguments give the
    same stores and structures in any process: registration, re-split
    and the shard worker all call this (the first two with no builds,
    then build the suite shard by shard), and every build runs in
    :func:`_build_on_shards` — which is what replica parity and process-mode
    I/O parity rest on.  ``chunk`` may hold zero points.
    """
    stats = fit_stats(recipe, chunk)
    replicas: List[Dataset] = []
    for name in names:
        path = None
        if recipe.backend == "file" and recipe.data_dir is not None:
            path = os.path.join(recipe.data_dir,
                                Catalog._block_file_name(name))
        replicas.append(Dataset(
            name=name, points=chunk, stats=stats, seed=recipe.seed,
            store=BlockStore(block_size=recipe.block_size,
                             cache_blocks=recipe.cache_blocks,
                             backend=make_backend(recipe.backend,
                                                  path=path))))
    _build_on_shards([(None, replicas)], recipe.seed, suite_builds)
    return replicas


def _boxed_shard(shard_id: int, replicas: List[Dataset]) -> Shard:
    """A shard over freshly built replicas, boxed by their build points
    (none over zero points: pruned until a write lands on it)."""
    points = replicas[0].points
    if len(points) == 0:
        return Shard(shard_id=shard_id, replicas=replicas)
    return Shard(shard_id=shard_id, replicas=replicas,
                 lows=tuple(points.min(axis=0).tolist()),
                 highs=tuple(points.max(axis=0).tolist()))


#: The file in a file-backed catalog's ``data_dir`` that the catalog
#: holds an exclusive lock on while it is open.
LOCK_FILE = "catalog.lock"


def _claim(data_dir: str) -> BinaryIO:
    """Take ``data_dir`` for one catalog: an exclusive lock on its
    :data:`LOCK_FILE`, held until the handle is unlocked or closed (the
    kernel drops it with the process), and no block file an earlier
    catalog left there — nothing reads one.  Raises ValueError when
    another live catalog, in this process or another, holds it."""
    os.makedirs(data_dir, exist_ok=True)
    handle = open(os.path.join(data_dir, LOCK_FILE), "ab")
    try:
        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        handle.close()
        raise ValueError("data_dir %r belongs to another live engine; close "
                         "it first" % data_dir) from None
    for name in os.listdir(data_dir):
        if name.endswith(".blocks"):
            os.unlink(os.path.join(data_dir, name))
    return handle


class Catalog:
    """Registry of datasets and the indexes built over them.

    Parameters
    ----------
    block_size:
        Block size B of every store.
    cache_blocks:
        Buffer-pool size M of every store.
    sample_size:
        Number of points kept in memory per shard for selectivity
        estimation (the whole shard if smaller).
    seed:
        Seed for sampling and for the randomised index builds.
    backend:
        Storage backend of every store: ``"memory"`` (default) or
        ``"file"`` (see :mod:`repro.io.backend`).
    data_dir:
        Directory for file-backed stores (one ``<replica>.blocks`` file
        each); a temporary file per store when omitted.  A file-backed
        catalog owns its ``data_dir`` until :meth:`close`: a second one
        on the same directory is refused (:data:`LOCK_FILE`), the block
        files an earlier one left there are deleted, and every store it
        places there starts an empty log.
    """

    def __init__(self, block_size: int = 64, cache_blocks: int = 4,
                 sample_size: int = 512, seed: Optional[int] = None,
                 backend: str = "memory", data_dir: Optional[str] = None):
        if backend not in BACKEND_NAMES:
            raise ValueError("backend must be one of %s, got %r"
                             % (", ".join(BACKEND_NAMES), backend))
        #: The one replica recipe; a dataset's is this with its own
        #: ``replicas``.
        self._recipe = ReplicaRecipe(
            block_size=block_size, cache_blocks=cache_blocks,
            backend=backend, data_dir=data_dir, sample_size=sample_size,
            seed=seed, replicas=1)
        self._datasets: Dict[str, ShardedDataset] = {}
        self._claim = _claim(data_dir) \
            if backend == "file" and data_dir is not None else None
        #: The engine's tracer (set by the engine; None: nothing traced).
        self.tracer: Optional[Tracer] = None
        self._build_listeners: List[Callable[[str], None]] = []

    def add_build_listener(self, listener: Callable[[str], None]) -> None:
        """Run ``listener(dataset_name)`` after every index build over a
        dataset: a new kind can change which index answers a query, and
        with it the answer's index name and row order (the engine
        flushes the dataset's cached answers there)."""
        self._build_listeners.append(listener)

    @contextlib.contextmanager
    def registering(self, name: str, operation: str) -> Iterator[None]:
        """Run one registration or re-split of ``name`` in one build
        scope (each chunk's median cuts are cut once) and, while
        :attr:`tracer` is on, as one ``catalog.register`` trace — its
        builds ``catalog.build_index`` spans, the hierarchies it cut and
        the backend writes its stores made on the root; else no span is
        allocated."""
        trace = NULL_TRACE if self.tracer is None else \
            self.tracer.start_trace("catalog.register", dataset=name,
                                    operation=operation)
        try:
            with activate(trace.root), sharing_partitions() as scope:
                yield
                if trace.root.enabled:
                    trace.root.set_many({
                        "partitions_computed": scope.computed,
                        "write_runs": sum(store.write_runs
                                          for store in self.stores(name))})
        finally:
            trace.finish()

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------
    def _check_name_free(self, name: str) -> None:
        if name in self._datasets:
            raise ValueError("dataset %r is already registered" % name)

    def _as_points(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """The registration's point matrix, refused as a write would be:
        a NaN or an infinity breaks the planar walk and every router."""
        array = np.asarray(points, dtype=float)
        if array.ndim != 2 or array.shape[0] == 0 or array.shape[1] < 2:
            raise ValueError("points must have shape (N >= 1, d >= 2), got %r"
                             % (array.shape,))
        finite = np.isfinite(array).all(axis=1)
        if not finite.all():
            raise ValueError("point coordinates must be finite, got %r"
                             % (tuple(array[np.argmin(finite)].tolist()),))
        return array

    @staticmethod
    def _block_file_name(name: str) -> str:
        """Injective dataset-name -> file-name mapping.

        Every character outside [A-Za-z0-9.-] becomes ``_XXXXXX`` (its
        codepoint as exactly six hex digits; ``_`` itself included), so two
        distinct dataset names (e.g. the shard child ``sh#0`` and a plain
        dataset ``sh_0``, or ``€`` vs ``ac``-with-junk) can never
        collide on one block file: the escape is fixed-width, hence
        prefix-free.
        """
        safe = "".join(
            ch if (ch.isascii() and ch.isalnum()) or ch in ".-"
            else "_%06x" % ord(ch)
            for ch in name)
        return "%s.blocks" % safe

    def register_dataset(self, name: str,
                         points: Sequence[Sequence[float]]) -> Dataset:
        """Register a point set under ``name`` with its own shared store.

        The one-shard, one-replica case of
        :meth:`register_sharded_dataset`: a trivial router, the points'
        bounding box, and a single replica — returned — that keeps the
        dataset's own name (so its block file and metric labels carry no
        ``#0`` suffix).
        """
        self._check_name_free(name)
        array = self._as_points(points)
        [replica] = build_replicas([name], array, self._recipe, [])
        self._datasets[name] = ShardedDataset(
            name=name, points=array, router=HashShardRouter(1),
            recipe=self._recipe, shards=[_boxed_shard(0, [replica])])
        return replica

    @staticmethod
    def _replica_names(name: str, shard_id: int, count: int,
                       generation: int) -> List[str]:
        """Child-dataset names of one shard's replicas (first = primary).

        Re-split generations get a ``@g<G>`` infix so a rebuilt shard's
        block file can never collide with (and empty) the file its
        predecessor still serves from.
        """
        base = name if generation == 0 else "%s@g%d" % (name, generation)
        return ["%s#%d" % (base, shard_id)] + [
            "%s#%d@r%d" % (base, shard_id, replica_id)
            for replica_id in range(1, count)]

    def _make_shards(self, name: str, array: np.ndarray, router,
                     recipe: ReplicaRecipe, generation: int) -> List[Shard]:
        """The router's layout of ``array``: one boxed shard per chunk, a
        zero-point chunk included, with no index built yet."""
        return [_boxed_shard(shard_id, build_replicas(
                    self._replica_names(name, shard_id, recipe.replicas,
                                        generation),
                    array[rows], recipe, []))
                for shard_id, rows in enumerate(router.assign(array))]

    def register_sharded_dataset(self, name: str,
                                 points: Sequence[Sequence[float]],
                                 num_shards: int,
                                 sharding: str = "range",
                                 shard_attribute: int = 0,
                                 replicas: int = 1) -> ShardedDataset:
        """Partition ``points`` across ``num_shards`` per-shard stores.

        ``sharding`` picks the router (``"range"`` on ``shard_attribute``,
        or ``"hash"``); each shard — one the router gave no points too —
        gets ``replicas`` child datasets — the primary named
        ``<name>#<shard>``, further replicas ``<name>#<shard>@r<replica>``
        — each with its own store, sharing the shard's
        selectivity model, and records the bounding box of its points
        for pruning.  Replicas
        hold identical copies of the shard's points, so the executor can
        overlap concurrent queries on the same shard by picking the
        least-loaded replica.  The resolved :class:`ReplicaRecipe` is
        kept on the returned
        :class:`~repro.engine.sharding.ShardedDataset`, so every later
        rebuild (re-split, worker process) uses identical settings.
        """
        self._check_name_free(name)
        if replicas < 1:
            raise ValueError("replicas must be >= 1, got %r" % replicas)
        array = self._as_points(points)
        router = make_router(sharding, array, num_shards,
                             attribute=shard_attribute)
        recipe = replace(self._recipe, replicas=replicas)
        sharded = ShardedDataset(
            name=name, points=array, router=router, recipe=recipe,
            shards=self._make_shards(name, array, router, recipe, 0))
        self._datasets[name] = sharded
        return sharded

    def resplit_sharded_dataset(self, name: str) -> Dict[str, object]:
        """Re-split a range-sharded dataset at fresh quantiles.

        Collects the live points of every shard (from each shard's
        planning replica, so post-mutation data is included), computes new
        quantile boundaries on the original shard attribute, rebuilds the
        per-shard child datasets — stores, samples, selectivity models
        and the recorded index-suite kinds — with the registration-time
        parameters, and swaps them into the existing
        :class:`~repro.engine.sharding.ShardedDataset` *in place* (so
        references held by the planner and executor stay valid), bumping
        its ``generation``.  The old shards' stores are closed afterwards.

        This is the mechanism under
        :class:`~repro.engine.sharding.RebalanceManager`; callers above
        the catalog should go through the manager (or the engine facade),
        which also invalidates result caches and restarts worker fleets.
        """
        sharded = self.sharded(name)
        if not isinstance(sharded.router, RangeShardRouter):
            raise ValueError(
                "only range-sharded datasets can be re-split; %r uses %r "
                "routing" % (name, sharded.router.scheme))
        # Hold the dataset's write barrier for the whole
        # collect-swap-rebuild window: an engine-level write holds the
        # same lock for its route+fanout, so no mutation can land in the
        # retiring shards after their live points were collected (it
        # would vanish from the rebuilt layout), and no write routes
        # against a half-swapped router/shard list or a suite that is
        # still being rebuilt.
        with sharded.write_lock, self.registering(name, "resplit"):
            old_sizes = sharded.shard_live_sizes()
            chunks = [shard.planning_dataset().overlay.live_points()
                      for shard in sharded.shards]
            chunks = [chunk for chunk in chunks if len(chunk)]
            if not chunks:
                raise ValueError("cannot re-split %r: it holds no live "
                                 "points" % name)
            array = np.concatenate(chunks)
            router = RangeShardRouter.from_points(
                array, sharded.router.num_shards,
                attribute=sharded.router.attribute)
            generation = sharded.generation + 1
            old_stores = self.stores(name)
            shards = self._make_shards(name, array, router, sharded.recipe,
                                       generation)
            _build_on_shards([(shard.shard_id, shard.replicas)
                              for shard in shards],
                             sharded.recipe.seed, sharded.suite_builds)
            sharded.points = array
            sharded.router = router
            sharded.shards = shards
            sharded.generation = generation
        for store in old_stores:
            # Close under the store's lock: an in-flight fan-out that
            # still holds references to the retiring layout finishes its
            # shard read before the store (and its file) disappears.
            with store.lock:
                store.close()
                if self._claim is not None:     # placed under data_dir
                    os.unlink(store.backend.path)
        return {
            "dataset": name,
            "generation": generation,
            "old_sizes": old_sizes,
            "new_sizes": [shard.size for shard in sharded.shards],
            "boundaries": list(router.boundaries),
            "num_points": int(len(array)),
        }

    def sharded(self, name: str) -> ShardedDataset:
        """Look up a registered dataset (KeyError with the known names)."""
        if name not in self._datasets:
            raise KeyError("unknown dataset %r (registered: %s)"
                           % (name, self.datasets() or "none"))
        return self._datasets[name]

    def _sole_replica(self, name: str) -> Optional[Dataset]:
        """The replica of a ``register_dataset`` name, else None.

        Such a replica keeps its dataset's own name; every other
        replica's name carries a ``#<shard>`` suffix.
        """
        primary = self.sharded(name).shards[0].planning_dataset()
        return primary if primary.name == name else None

    def dataset(self, name: str) -> Dataset:
        """The sole replica of a ``register_dataset`` name."""
        replica = self._sole_replica(name)
        if replica is None:
            raise KeyError("dataset %r is sharded; use sharded(%r)"
                           % (name, name))
        return replica

    def is_sharded(self, name: str) -> bool:
        """True if ``name`` was registered by ``register_sharded_dataset``."""
        return name in self._datasets and self._sole_replica(name) is None

    def entry(self, name: str) -> Union[Dataset, ShardedDataset]:
        """:meth:`dataset` for a ``register_dataset`` name, else
        :meth:`sharded`."""
        return self._sole_replica(name) or self.sharded(name)

    def datasets(self) -> List[str]:
        """Names of every registered dataset."""
        return sorted(self._datasets)

    def stores(self, name: str) -> List[BlockStore]:
        """Every store backing a dataset: one per shard replica."""
        return [replica.store
                for shard in self.sharded(name).shards
                for replica in shard.replicas]

    def close(self) -> None:
        """Close every store's backend (file handles, temp files), then
        give up the ``data_dir``."""
        for name in self.datasets():
            for store in self.stores(name):
                store.close()
        if self._claim is not None:
            # Unlocked, not just closed: a process forked meanwhile holds
            # the same open file, and its copy would keep the lock.
            fcntl.flock(self._claim, fcntl.LOCK_UN)
            self._claim.close()
            self._claim = None

    # ------------------------------------------------------------------
    # index builds
    # ------------------------------------------------------------------
    def build_index(self, dataset_name: str, kind: str,
                    index_name: Optional[str] = None,
                    **params) -> BuildRecord:
        """Bulk-build one index over a ``register_dataset`` dataset.

        The index shares the dataset's store; the returned record captures
        the build's wall-clock time, write I/Os and space — the named
        tree's, when the build is an alias (:func:`one_tree_per_replica`).
        For sharded datasets use :meth:`build_sharded_index` (one build
        per shard).
        """
        if self.is_sharded(dataset_name):
            raise ValueError("dataset %r is sharded; use "
                             "build_sharded_index()" % dataset_name)
        self.build_sharded_index(dataset_name, kind, index_name, **params)
        replica = self.dataset(dataset_name)
        name = index_name or kind
        return replica.build_records[replica.aliases.get(name, name)]

    def build_sharded_index(self, dataset_name: str, kind: str,
                            index_name: Optional[str] = None,
                            **params) -> List[BuildRecord]:
        """Build one kind on every replica of every shard.

        The build — kind, index name *and* parameters — is recorded on
        the sharded dataset's ``suite_builds`` so a re-split
        (:meth:`resplit_sharded_dataset`) rebuilds the identical suite
        over the new shards.
        """
        return self._build_recorded(dataset_name, [{
            "kind": kind, "index_name": index_name or kind,
            "params": dict(params)}])

    def build_suite(self, dataset_name: str,
                    kinds: Optional[Sequence[str]] = None) -> List[BuildRecord]:
        """Build a set of kinds (default: :func:`default_suite`) over a dataset.

        Every kind is built on every replica of every shard, shard by
        shard (see :func:`_build_on_shards`) — but ``partition_tree``
        beside ``dynamic``, which names the same tree
        (:func:`one_tree_per_replica`); the records are returned in
        shard order per kind built, and each kind is recorded as
        :meth:`build_sharded_index` records it.
        """
        chosen = list(kinds) if kinds is not None else default_suite(
            self.sharded(dataset_name).dimension)
        return self._build_recorded(dataset_name, [
            {"kind": kind, "index_name": kind, "params": {}}
            for kind in chosen])

    def _build_recorded(self, dataset_name: str,
                        builds: List[Dict[str, object]]) -> List[BuildRecord]:
        """Run ``builds`` on every shard, then record each on the sharded
        dataset's ``suite_builds`` (an index name once)."""
        sharded = self.sharded(dataset_name)
        records = _build_on_shards([(shard.shard_id, shard.replicas)
                                    for shard in sharded.shards],
                                   sharded.recipe.seed, builds)
        # Record only after the builds succeeded: a phantom entry for a
        # failed build would make every later re-split fail mid-rebuild.
        for build in builds:
            if all(built["index_name"] != build["index_name"]
                   for built in sharded.suite_builds):
                sharded.suite_builds.append(build)
        for listener in self._build_listeners:
            listener(dataset_name)
        return records

    @staticmethod
    def _sharded_key(shard_id: int, replica_id: int, index_name: str) -> str:
        """The catalog's flat key for one shard replica's index."""
        if replica_id == 0:
            return "%d/%s" % (shard_id, index_name)
        return "%d@r%d/%s" % (shard_id, replica_id, index_name)

    def _per_index(self, dataset_name: str,
                   attribute: str) -> Dict[str, object]:
        """One per-replica dict (``indexes`` / ``build_records``), flat.

        Keyed by bare index name for a ``register_dataset`` name, else
        ``<shard_id>/<index_name>`` (primary replica) and
        ``<shard_id>@r<replica>/<index_name>``.
        """
        sole = self._sole_replica(dataset_name)
        if sole is not None:
            return dict(getattr(sole, attribute))
        return {
            self._sharded_key(shard.shard_id, replica_id, index_name): value
            for shard in self.sharded(dataset_name).shards
            for replica_id, replica in enumerate(shard.replicas)
            for index_name, value in getattr(replica, attribute).items()
        }

    def indexes(self, dataset_name: str) -> Dict[str, ExternalIndex]:
        """Every index registered on a dataset (keys: :meth:`_per_index`)."""
        return self._per_index(dataset_name, "indexes")

    def build_records(self, dataset_name: str) -> Dict[str, BuildRecord]:
        """Build statistics for every index on a dataset, keyed alike."""
        return self._per_index(dataset_name, "build_records")
