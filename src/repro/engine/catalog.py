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
one-replica instance, whose sole replica keeps the dataset's own name and
whose selectivity model is the dataset-level one; the plain-name lookups
(:meth:`Catalog.dataset`, :meth:`Catalog.entry`, :meth:`Catalog.indexes`,
...) are views of that replica.  Each store's *backend* — in-memory dict
or a real file — is chosen per catalog or per dataset; see
:mod:`repro.io.backend`.  A dataset's replica settings are resolved once,
at registration, into a :class:`ReplicaRecipe`, and every replica —
registered, re-split or rebuilt in a worker process — comes out of
:func:`build_replicas`.  Every shard is built with its dataset, a shard
the router gave no points included: a zero-point shard is an ordinary
index suite over ``(0, d)`` that the first insert routed to it fills.

The catalog also attaches a pluggable *selectivity model* (see
:mod:`repro.engine.stats`) to every dataset — and to every shard child,
so sharded planning is priced with shard-local statistics.  The default
``"uniform"`` model evaluates constraints on a small in-memory sample
that it owns and that fills as its data grows (O(sample) arithmetic,
zero I/Os); ``"histogram"`` maintains equi-depth
directional histograms that resolve skewed data like the §1.2 diagonal;
``"ensemble"`` runs both side by side and blends them with online
e-value-style weights learned from observed per-query q-error.
Either way the estimate turns the paper's output-sensitive bounds into
concrete per-query cost predictions.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines import (
    FullScanIndex,
    KDBTreeIndex,
    PagedDualIndex2D,
    QuadTreeIndex,
    RTreeIndex,
)
from repro.core import (
    DynamicPartitionTreeIndex,
    ExternalIndex,
    HalfplaneIndex2D,
    HalfspaceIndex3D,
    HybridIndex3D,
    PartitionTreeIndex,
    ShallowPartitionTreeIndex,
)
from repro.core.conjunction import ConstraintConjunction, query_conjunction
from repro.engine import tracing
from repro.engine.sharding import (
    HashShardRouter,
    RangeShardRouter,
    Shard,
    ShardedDataset,
    make_router,
)
from repro.engine.stats import Reservoir, SelectivityModel, make_model
from repro.engine.tracing import NULL_TRACE, Tracer, activate
from repro.geometry.primitives import LinearConstraint
from repro.io.backend import make_backend
from repro.io.store import BlockStore, IOStats


#: What a dataset answers: one linear constraint, or an AND of several.
Query = Union[LinearConstraint, ConstraintConjunction]


@dataclass(frozen=True)
class IndexKind:
    """One buildable index family: constructor plus its dimension domain."""

    name: str
    factory: type
    dimensions: Optional[Tuple[int, ...]] = None  # None = any dimension >= 2

    def supports(self, dimension: int) -> bool:
        """True if this kind can index points of the given dimension."""
        return self.dimensions is None or dimension in self.dimensions


#: Every index family the catalog can build, keyed by its short kind name.
INDEX_KINDS: Dict[str, IndexKind] = {
    kind.name: kind
    for kind in (
        IndexKind("halfplane2d", HalfplaneIndex2D, (2,)),
        IndexKind("halfspace3d", HalfspaceIndex3D, (3,)),
        IndexKind("hybrid3d", HybridIndex3D, (3,)),
        IndexKind("partition_tree", PartitionTreeIndex, None),
        IndexKind("shallow_tree", ShallowPartitionTreeIndex, None),
        IndexKind("full_scan", FullScanIndex, None),
        IndexKind("rtree", RTreeIndex, None),
        IndexKind("kdb_tree", KDBTreeIndex, None),
        IndexKind("quadtree", QuadTreeIndex, (2,)),
        IndexKind("paged_cgl", PagedDualIndex2D, (2,)),
        IndexKind("dynamic", DynamicPartitionTreeIndex, None),
    )
}


def default_suite(dimension: int) -> List[str]:
    """The kinds the engine builds when the caller does not choose.

    One optimal structure for the dimension (when the paper provides one),
    the linear-size partition tree (handles conjunctions natively), and
    the full scan as the always-correct floor.
    """
    if dimension == 2:
        return ["halfplane2d", "partition_tree", "full_scan"]
    if dimension == 3:
        return ["halfspace3d", "partition_tree", "full_scan"]
    return ["partition_tree", "shallow_tree", "full_scan"]


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
    """One replica of one shard: its store, indexes and statistics."""

    name: str
    points: np.ndarray
    store: BlockStore
    #: Pluggable selectivity model, owner of the shard's sample (shared
    #: by a shard's replicas).
    stats: SelectivityModel
    indexes: Dict[str, ExternalIndex] = field(default_factory=dict)
    build_records: Dict[str, BuildRecord] = field(default_factory=dict)
    #: Set by the engine's write path once a write committed on this
    #: replica.  Statically-built sibling indexes are stale from that
    #: point on, so the planner stops routing to them.
    mutated: bool = False
    #: The thread inside :func:`~repro.engine.writes.apply_mutation` on
    #: this replica (None: none) — the one writer the veto lets through.
    writer: Optional[int] = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        """Ambient dimension of the stored points."""
        return int(self.points.shape[1])

    @property
    def size(self) -> int:
        """Number of stored points at build time (the paper's N)."""
        return int(self.points.shape[0])

    @property
    def live_size(self) -> int:
        """Current point count, observed mutations included."""
        return self.stats.size

    def estimate_selectivity(self, constraint: LinearConstraint) -> float:
        """Fraction of points expected to satisfy ``constraint``.

        Delegated to the dataset's selectivity model (sample scan or
        directional histograms); pure arithmetic either way — estimation
        never touches the simulated disk.
        """
        return self.stats.estimate_selectivity(constraint)

    def estimate_output(self, constraint: LinearConstraint) -> int:
        """Expected number of reported points (the paper's T)."""
        return self.stats.estimate_output(constraint)

    def refuse_direct_write(self) -> None:
        """The veto the catalog wires onto every dynamic index it builds:
        a write not made by :func:`~repro.engine.writes.apply_mutation`
        raises before it lands (it would reach no sibling replica,
        statistic, cache or worker)."""
        if self.writer != threading.get_ident():
            raise ValueError(
                "index on %r is engine-owned; mutating it directly would "
                "desynchronise it from its replicas, statistics and caches "
                "— route the write through QueryEngine.insert/delete"
                % self.name)

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
        answered (:attr:`ExternalIndex.last_query`).
        """
        index = self.indexes[index_name]
        with self.store.measured(clear_cache) as ios:
            if isinstance(query, ConstraintConjunction):
                points = query_conjunction(index, query)
            else:
                points = index.query(query)
        return points, ios, index.last_query


@dataclass(frozen=True)
class ReplicaRecipe:
    """Everything but its points and index suite that determines a replica.

    Resolved once per dataset, at registration, from the ``register_*``
    overrides and the catalog-wide defaults, and kept on the
    :class:`~repro.engine.sharding.ShardedDataset`: a re-split and a
    shard-worker process rebuild from this record, so "the same replica"
    has one definition.
    ``stats_params`` already has the override rule applied — a
    per-dataset ``stats_model`` does *not* inherit the catalog-wide
    params, which belong to the catalog's model kind (histogram bucket
    counts would crash a uniform model).
    """

    block_size: int
    cache_blocks: int
    backend: object
    data_dir: Optional[str]
    sample_size: int
    seed: Optional[int]
    stats_model: object
    stats_params: Dict[str, object]
    replicas: int


def fit_stats(recipe: ReplicaRecipe, array: np.ndarray) -> SelectivityModel:
    """The recipe's selectivity model over ``array``, owning its sample.

    The sample is ``array`` itself up to ``recipe.sample_size`` rows,
    else a seeded draw of that many; below that size it fills with the
    inserts the model observes (:class:`~repro.engine.stats.Reservoir`).
    Histogram and ensemble models need at least one build point, so a
    zero-point array gets the uniform model whatever kind is configured,
    until its dataset's next re-split.
    """
    if len(array) <= recipe.sample_size:
        rows = array.copy()
    else:
        rng = np.random.default_rng(recipe.seed)
        rows = array[rng.choice(len(array), size=recipe.sample_size,
                                replace=False)]
    sample = Reservoir(rows, recipe.sample_size, recipe.seed)
    model, params = recipe.stats_model, recipe.stats_params
    if len(array) == 0:
        model, params = "uniform", {}
    return make_model(model, array, sample, seed=recipe.seed, **params)


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
    if index_name in dataset.indexes:
        raise ValueError("index %r already exists on dataset %r"
                         % (index_name, dataset.name))
    params = dict(params)
    if seed is not None and kind in ("halfplane2d", "halfspace3d",
                                     "hybrid3d"):
        params.setdefault("seed", seed)
    started = time.perf_counter()
    index = index_kind.factory(dataset.points, store=dataset.store,
                               **params)
    elapsed = time.perf_counter() - started
    # Every engine-owned dynamic index — registered, re-split, built late
    # or rebuilt in a worker — takes writes through the write path alone.
    if isinstance(index, DynamicPartitionTreeIndex):
        index.add_pre_mutation_listener(dataset.refuse_direct_write)
    record = BuildRecord(
        dataset=dataset.name,
        index_name=index_name,
        kind=kind,
        num_points=dataset.size,
        space_blocks=index.space_blocks,
        build_seconds=elapsed,
        build_ios=index.build_ios,
        params=params,
    )
    dataset.indexes[index_name] = index
    dataset.build_records[index_name] = record
    return record


def _build_on_shards(shards: Sequence[Shard], seed: Optional[int], kind: str,
                     index_name: Optional[str],
                     params: Dict[str, object]) -> List[BuildRecord]:
    """One index of ``kind`` on every replica of ``shards``, in shard
    order, each build a ``catalog.build_index`` span when a trace is on."""
    records = []
    for shard in shards:
        for replica_id, replica in enumerate(shard.replicas):
            with tracing.span("catalog.build_index", kind=kind,
                              shard=shard.shard_id,
                              replica=replica_id) as span:
                record = _build_index(replica, seed, kind, index_name, params)
                if span.enabled:
                    _trace_build(span, record,
                                 replica.indexes[record.index_name])
            records.append(record)
    return records


def _trace_build(span: tracing.Span, record: BuildRecord,
                 index: ExternalIndex) -> None:
    """A build's figures on its span, and one ``halfplane2d.layer`` child
    per layer of a planar index, read from its layer records."""
    span.set_many({
        "points": record.num_points, "space_blocks": record.space_blocks,
        "build_ios": record.build_ios.total if record.build_ios else 0,
        "build_s": record.build_seconds})
    if isinstance(index, HalfplaneIndex2D):
        for depth, layer in enumerate(index.layer_builds):
            span.child("halfplane2d.layer", layer=depth,
                       **layer._asdict()).finish()


def build_replicas(names: Sequence[str], chunk: np.ndarray,
                   recipe: ReplicaRecipe,
                   suite_builds: Sequence[Dict[str, object]]
                   ) -> List[Dataset]:
    """One replica per name over the same ``chunk``: the one build site.

    Each replica gets its own store (a ``<name>.blocks`` file under the
    recipe's ``data_dir`` for file backends) and a replay of
    ``suite_builds``; all of them share one selectivity model and its
    sample — they hold identical data, and the write path feeds a
    committed write to the model once.  Samples and the randomised
    builds are seeded from the recipe, so the same arguments give the
    same stores and structures in any process: registration, re-split
    and the shard worker all call this, which is what replica parity and
    process-mode I/O parity rest on (the first two with no builds, then
    build each kind on every replica in turn, each replica's suite in the
    same order).  ``chunk`` may hold zero points.
    """
    stats = fit_stats(recipe, chunk)
    replicas: List[Dataset] = []
    for name in names:
        path = None
        if recipe.backend in ("file", "mmap") and recipe.data_dir is not None:
            path = os.path.join(recipe.data_dir,
                                Catalog._block_file_name(name))
        replica = Dataset(
            name=name, points=chunk, stats=stats,
            store=BlockStore(block_size=recipe.block_size,
                             cache_blocks=recipe.cache_blocks,
                             backend=make_backend(recipe.backend, path=path)))
        for build in suite_builds:
            _build_index(replica, recipe.seed, build["kind"],
                         build["index_name"], build["params"])
        replicas.append(replica)
    return replicas


def _boxed_shard(shard_id: int, replicas: List[Dataset]) -> Shard:
    """A shard over freshly built replicas, boxed by their build points
    (none over zero points: pruned until a write makes the box stale)."""
    points = replicas[0].points
    if len(points) == 0:
        return Shard(shard_id=shard_id, replicas=replicas)
    return Shard(shard_id=shard_id, replicas=replicas,
                 lows=tuple(points.min(axis=0).tolist()),
                 highs=tuple(points.max(axis=0).tolist()))


class Catalog:
    """Registry of datasets and the indexes built over them.

    Parameters
    ----------
    block_size:
        Default block size B for datasets registered without one.
    cache_blocks:
        Default buffer-pool size for each dataset's shared store.
    sample_size:
        Number of points kept in memory per dataset for selectivity
        estimation (the whole dataset if smaller).
    seed:
        Seed for sampling and for the randomised index builds.
    backend:
        Default storage backend for every dataset's store(s): ``"memory"``
        (default), ``"file"``, ``"mmap"``, or a factory (see
        :func:`repro.io.backend.make_backend`).
    data_dir:
        Directory for file-backed (``"file"``/``"mmap"``) stores
        registered without an explicit path (one ``<dataset>.blocks`` file
        each); a temporary file per store when omitted.
    stats_model / stats_params:
        Default selectivity model for every dataset (and shard child):
        ``"uniform"`` (default), ``"histogram"``, ``"ensemble"``, or a
        factory — see
        :func:`repro.engine.stats.make_model`; ``stats_params`` are
        forwarded to the model constructor.
    """

    def __init__(self, block_size: int = 64, cache_blocks: int = 4,
                 sample_size: int = 512, seed: Optional[int] = None,
                 backend: object = "memory",
                 data_dir: Optional[str] = None,
                 stats_model: object = "uniform",
                 stats_params: Optional[Dict[str, object]] = None):
        #: Catalog-wide replica settings; each registration resolves its
        #: overrides against these once (:meth:`_recipe`).
        self._defaults = ReplicaRecipe(
            block_size=block_size, cache_blocks=cache_blocks,
            backend=backend, data_dir=data_dir, sample_size=sample_size,
            seed=seed, stats_model=stats_model,
            stats_params=dict(stats_params or {}), replicas=1)
        self._datasets: Dict[str, ShardedDataset] = {}
        #: The engine's tracer (set by the engine; None: nothing traced).
        self.tracer: Optional[Tracer] = None

    @contextlib.contextmanager
    def registering(self, name: str, operation: str) -> Iterator[None]:
        """Run one registration or re-split of ``name`` as one
        ``catalog.register`` trace, its builds as ``catalog.build_index``
        spans, while :attr:`tracer` is on; else no span is allocated."""
        trace = NULL_TRACE if self.tracer is None else \
            self.tracer.start_trace("catalog.register", dataset=name,
                                    operation=operation)
        try:
            with activate(trace.root):
                yield
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

    def _recipe(self, block_size: Optional[int],
                cache_blocks: Optional[int], backend: object,
                stats_model: object,
                stats_params: Optional[Dict[str, object]],
                replicas: int) -> ReplicaRecipe:
        """Resolve one registration's overrides against the defaults."""
        defaults = self._defaults
        if stats_model is None:
            stats_model = defaults.stats_model
            if stats_params is None:
                stats_params = defaults.stats_params
        return replace(
            defaults, block_size=block_size or defaults.block_size,
            cache_blocks=(defaults.cache_blocks if cache_blocks is None
                          else cache_blocks),
            backend=defaults.backend if backend is None else backend,
            stats_model=stats_model, stats_params=dict(stats_params or {}),
            replicas=replicas)

    def register_dataset(self, name: str, points: Sequence[Sequence[float]],
                         block_size: Optional[int] = None,
                         cache_blocks: Optional[int] = None,
                         backend: object = None,
                         stats_model: object = None,
                         stats_params: Optional[Dict[str, object]] = None
                         ) -> Dataset:
        """Register a point set under ``name`` with its own shared store.

        The one-shard, one-replica case of
        :meth:`register_sharded_dataset`: a trivial router, the points'
        bounding box, and a single replica — returned — that keeps the
        dataset's own name (so its block file and metric labels carry no
        ``#0`` suffix) and whose selectivity model is also the
        dataset-level one.  ``stats_model`` / ``stats_params`` override
        the catalog-wide selectivity model for this dataset.
        """
        self._check_name_free(name)
        array = self._as_points(points)
        recipe = self._recipe(block_size, cache_blocks, backend,
                              stats_model, stats_params, 1)
        [replica] = build_replicas([name], array, recipe, [])
        self._datasets[name] = ShardedDataset(
            name=name, points=array,
            router=HashShardRouter(1), stats=replica.stats, recipe=recipe,
            shards=[_boxed_shard(0, [replica])])
        return replica

    @staticmethod
    def _replica_names(name: str, shard_id: int, count: int,
                       generation: int) -> List[str]:
        """Child-dataset names of one shard's replicas (first = primary).

        Re-split generations get a ``@g<G>`` infix so a rebuilt shard's
        block file can never collide with (and recover blocks from) the
        file its predecessor used.
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
                                 replicas: int = 1,
                                 block_size: Optional[int] = None,
                                 cache_blocks: Optional[int] = None,
                                 backend: object = None,
                                 stats_model: object = None,
                                 stats_params: Optional[Dict[str, object]]
                                 = None) -> ShardedDataset:
        """Partition ``points`` across ``num_shards`` per-shard stores.

        ``sharding`` picks the router (``"range"`` on ``shard_attribute``,
        or ``"hash"``); each shard — one the router gave no points too —
        gets ``replicas`` child datasets — the primary named
        ``<name>#<shard>``, further replicas ``<name>#<shard>@r<replica>``
        — each with its own store (and backend), sharing the shard's
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
        recipe = self._recipe(block_size, cache_blocks, backend,
                              stats_model, stats_params, replicas)
        sharded = ShardedDataset(
            name=name, points=array, router=router,
            stats=fit_stats(recipe, array), recipe=recipe,
            shards=self._make_shards(name, array, router, recipe, 0))
        self._datasets[name] = sharded
        return sharded

    def _remove_store_file(self, store: BlockStore) -> None:
        """Delete a retired store's block file, if the catalog assigned it.

        Temp-file backends delete themselves on close; files the catalog
        placed under ``data_dir`` do not (the backend does not own an
        explicit path), so a re-split would otherwise orphan one full
        copy of the dataset per generation.  Files outside ``data_dir``
        (caller-managed backends) are left alone.
        """
        path = getattr(store.backend, "path", None)
        data_dir = self._defaults.data_dir
        if not path or data_dir is None:
            return
        directory = os.path.dirname(os.path.abspath(path))
        if directory != os.path.abspath(data_dir):
            return
        try:
            os.unlink(path)
        except OSError:
            pass

    @staticmethod
    def mutable_index_name(dataset: Dataset) -> Optional[str]:
        """The name of a (child) dataset's write target — its first
        dynamic partition tree — or None.

        The one answer to "which index is mutable": the write path
        writes it, a re-split reads its live points, the planner routes
        to it alone once the replica has mutated, and a worker is sent
        writes only when its suite holds it.
        """
        return next((name for name, index in dataset.indexes.items()
                     if isinstance(index, DynamicPartitionTreeIndex)), None)

    @staticmethod
    def mutable_index_of(dataset: Dataset) -> ExternalIndex:
        """The (child) dataset's mutable index — the write target.

        A suite built without one cannot be upgraded in place (its
        statically-built structures would silently go stale), so the
        error says how to register the dataset writable instead.
        """
        name = Catalog.mutable_index_name(dataset)
        if name is not None:
            return dataset.indexes[name]
        raise ValueError(
            "dataset %r accepts no engine-level writes: its index suite "
            "was built statically (no mutation-capable index).  Register "
            "it with kinds including 'dynamic' (e.g. kinds=[\"dynamic\", "
            "\"full_scan\"]) to route inserts and deletes through it."
            % dataset.name)

    @staticmethod
    def live_points_of(dataset: Dataset) -> np.ndarray:
        """A (child) dataset's current points, mutations included.

        The mutable index's exact live set when the suite has one (the
        build array no longer reflects the data after writes), else the
        build array.  Read from memory: no I/O is charged.
        """
        name = Catalog.mutable_index_name(dataset)
        if name is None:
            return dataset.points
        return np.asarray(dataset.indexes[name].live_points(),
                          dtype=float).reshape(-1, dataset.dimension)

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
            chunks = [self.live_points_of(shard.planning_dataset())
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
            for build in sharded.suite_builds:
                _build_on_shards(shards, sharded.recipe.seed, build["kind"],
                                 build["index_name"], build["params"])
            sharded.points = array
            sharded.stats = fit_stats(sharded.recipe, array)
            sharded.router = router
            sharded.shards = shards
            sharded.generation = generation
        for store in old_stores:
            # Close under the store's lock: an in-flight fan-out that
            # still holds references to the retiring layout finishes its
            # shard read before the store (and its file) disappears.
            with store.lock:
                store.close()
                self._remove_store_file(store)
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
        """Close every store's backend (file handles, temp files)."""
        for name in self.datasets():
            for store in self.stores(name):
                store.close()

    # ------------------------------------------------------------------
    # index builds
    # ------------------------------------------------------------------
    def build_index(self, dataset_name: str, kind: str,
                    index_name: Optional[str] = None,
                    **params) -> BuildRecord:
        """Bulk-build one index over a ``register_dataset`` dataset.

        The index shares the dataset's store; the returned record captures
        the build's wall-clock time, write I/Os and space.  For sharded
        datasets use :meth:`build_sharded_index` (one build per shard).
        """
        if self.is_sharded(dataset_name):
            raise ValueError("dataset %r is sharded; use "
                             "build_sharded_index()" % dataset_name)
        return self.build_sharded_index(dataset_name, kind, index_name,
                                        **params)[0]

    def build_sharded_index(self, dataset_name: str, kind: str,
                            index_name: Optional[str] = None,
                            **params) -> List[BuildRecord]:
        """Build one kind on every replica of every shard.

        The build — kind, index name *and* parameters — is recorded on
        the sharded dataset's ``suite_builds`` so a re-split
        (:meth:`resplit_sharded_dataset`) rebuilds the identical suite
        over the new shards.
        """
        sharded = self.sharded(dataset_name)
        records = _build_on_shards(sharded.shards, sharded.recipe.seed, kind,
                                   index_name, params)
        # Record only after the builds succeeded: a phantom entry for a
        # failed build would make every later re-split fail mid-rebuild.
        effective_name = index_name or kind
        if all(build["index_name"] != effective_name
               for build in sharded.suite_builds):
            sharded.suite_builds.append({
                "kind": kind, "index_name": effective_name,
                "params": dict(params)})
        return records

    def build_suite(self, dataset_name: str,
                    kinds: Optional[Sequence[str]] = None) -> List[BuildRecord]:
        """Build a set of kinds (default: :func:`default_suite`) over a dataset.

        Every kind is built on every replica of every shard (the records
        are returned in shard order per kind).
        """
        chosen = list(kinds) if kinds is not None else default_suite(
            self.sharded(dataset_name).dimension)
        return [record for kind in chosen
                for record in self.build_sharded_index(dataset_name, kind)]

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
