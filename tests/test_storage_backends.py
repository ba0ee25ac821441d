"""Storage-backend conformance suite plus cache/store edge cases.

Every :class:`~repro.io.backend.StorageBackend` must behave like a dict of
blocks; the shared ``TestBackendConformance`` class runs the same contract
against each implementation.  The remaining classes cover the I/O-model
edge cases the engine depends on: buffer-pool resizing semantics,
free-then-read errors, and cache-hit accounting parity across backends.
"""

import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.io import backend as backend_module
from repro.io.backend import (
    FileBackend,
    MemoryBackend,
    StorageBackend,
    make_backend,
    stored_form,
)
from repro.io.cache import LRUCache
from repro.io.store import BlockStore

from build_oracle import oracle_put_run
from conftest import cache_info, compact_at, replayed


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    """One instance of every backend implementation."""
    if request.param == "memory":
        instance = MemoryBackend()
    else:
        instance = FileBackend(str(tmp_path / "blocks.log"))
    yield instance
    instance.close()


class TestBackendConformance:
    """The contract every backend must satisfy (shared across params)."""

    def test_put_get_roundtrip_returns_fresh_copy(self, backend):
        backend.put(0, [1, 2, 3])
        first = backend.get(0)
        assert first == [1, 2, 3]
        first.append(99)
        assert backend.get(0) == [1, 2, 3]

    def test_put_overwrites_existing_block(self, backend):
        backend.put(0, [1])
        backend.put(0, [2, 3])
        assert backend.get(0) == [2, 3]
        assert len(backend) == 1

    def test_get_missing_block_raises_keyerror(self, backend):
        with pytest.raises(KeyError):
            backend.get(42)

    def test_delete_forgets_block(self, backend):
        backend.put(7, ["x"])
        backend.delete(7)
        assert not backend.contains(7)
        assert len(backend) == 0
        with pytest.raises(KeyError):
            backend.get(7)
        with pytest.raises(KeyError):
            backend.delete(7)

    def test_contains_and_in_operator(self, backend):
        backend.put(3, [0.5])
        assert backend.contains(3) and 3 in backend
        assert not backend.contains(4) and 4 not in backend

    def test_block_ids_enumerates_live_blocks(self, backend):
        for block_id in (2, 5, 9):
            backend.put(block_id, [block_id])
        backend.delete(5)
        assert sorted(backend.block_ids()) == [2, 9]

    def test_handles_tuple_records(self, backend):
        records = [(1.0, 2.0), (3.0, 4.0)]
        backend.put(0, records)
        assert backend.get(0) == records

    def test_put_matrix_stores_the_block_put_of_its_rows_stores(self, backend):
        matrix = np.array([[1.0, -0.0], [2.5, 5e-324], [2.5, 5e-324]])
        matrix.setflags(write=False)
        backend.put(1, [("an", "overwritten"), ("record", "block")])
        assert backend.put(0, matrix) is matrix
        backend.put(1, matrix[:2])
        rows = [tuple(row) for row in matrix.tolist()]
        for block_id, expected in ((0, rows), (1, rows[:2])):
            records = backend.get(block_id)
            assert repr(records) == repr(expected)
            records.append("mine")                  # a fresh list
            assert backend.get(block_id) == expected
            payload = backend.get_payload(block_id)
            assert not payload.flags.writeable
            assert payload.tobytes() == matrix[:len(expected)].tobytes()
        assert backend.put(2, rows).tobytes() == matrix.tobytes()
        assert backend.get_payload(2).tobytes() == matrix.tobytes()
        backend.put(0, [("records", "again")])
        assert backend.get_payload(0) == [("records", "again")]
        backend.delete(1)
        assert sorted(backend.block_ids()) == [0, 2]

    def test_info_reports_backend_name_and_blocks(self, backend):
        backend.put(0, [1])
        info = backend.info()
        assert info["backend"] in ("memory", "file")
        assert info["blocks"] == 1


class TestFileBackend:
    """File-specific behaviour: persistence, compaction, temp cleanup."""

    def test_reopening_a_path_starts_an_empty_log(self, tmp_path):
        path = str(tmp_path / "store.log")
        first = FileBackend(path)
        first.put(0, [1, 2])
        first.put(1, ["a"])
        first.put(0, [3, 4])      # supersedes the first version
        first.delete(1)
        first.close()
        assert replayed(path)[0] == {0: [3, 4]}    # the log replays ...
        reopened = FileBackend(path)               # ... and is not reread
        assert len(reopened) == 0 and os.path.getsize(path) == 0
        reopened.put(2, ["b"])
        reopened.check_invariants()
        reopened.close()
        assert replayed(path)[0] == {2: ["b"]}

    def test_a_store_over_a_reopened_path_starts_empty(self, tmp_path):
        path = str(tmp_path / "store.log")
        store = BlockStore(block_size=4, backend=FileBackend(path))
        store.allocate([1, 2, 3])
        store.close()
        written = os.path.getsize(path)
        again = BlockStore(block_size=4, backend=FileBackend(path))
        assert again.num_blocks == 0 and len(again.backend) == 0
        again.allocate([1, 2, 3])
        again.backend.sync()
        assert os.path.getsize(path) == written
        again.close()

    def test_compact_drops_superseded_versions(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store.log"))
        with compact_at(0):
            for __ in range(10):
                backend.put(0, list(range(8)))
        before = backend.info()["file_bytes"]
        backend.compact()
        after = backend.info()["file_bytes"]
        assert after < before
        assert backend.get(0) == list(range(8))
        assert backend.compactions == 1
        backend.close()

    def test_auto_compaction_bounds_file_size(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store.log"))
        with compact_at(2.0):
            for __ in range(50):
                backend.put(0, list(range(32)))
        assert backend.compactions > 0
        info = backend.info()
        assert info["file_bytes"] <= 2.0 * info["live_bytes"] + 256
        backend.close()

    def test_tiny_payloads_do_not_thrash_compaction(self, tmp_path):
        # Header bytes must count as live: with payloads smaller than the
        # record header, a payload-only threshold is unsatisfiable and
        # compaction would run on every single put (O(n^2) writes).
        backend = FileBackend(str(tmp_path / "tiny.log"))
        assert backend_module.AUTO_COMPACT_RATIO == 4.0
        for block_id in range(64):
            backend.put(block_id, [])
        assert backend.compactions == 0
        assert all(backend.get(block_id) == [] for block_id in range(64))
        backend.close()

    def test_temp_file_removed_on_close(self):
        backend = FileBackend()
        path = backend.path
        backend.put(0, [1])
        assert os.path.exists(path)
        backend.close()
        assert not os.path.exists(path)
        backend.close()          # idempotent

    def test_named_file_kept_on_close(self, tmp_path):
        path = str(tmp_path / "kept.log")
        backend = FileBackend(path)
        backend.put(0, [1])
        backend.close()
        assert os.path.exists(path)

    def test_operations_after_close_raise(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store.log"))
        backend.close()
        with pytest.raises(ValueError):
            backend.put(0, [1])

    def test_byte_counters_track_traffic(self, tmp_path):
        backend = FileBackend(str(tmp_path / "store.log"))
        backend.put(0, list(range(16)))
        assert backend.bytes_written > 0
        assert backend.bytes_read == 0
        backend.get(0)
        assert backend.bytes_read > 0
        backend.close()

    def test_check_invariants_catches_a_torn_tail_record(self, tmp_path):
        # A header whose payload never arrived, behind the backend's back:
        # the replay keeps every complete record and stops there, and the
        # backend's check says its log ends short of the file.
        path = str(tmp_path / "torn.log")
        backend = FileBackend(path)
        backend.put(0, [1, 2])
        backend.put(1, ["ok"])
        backend.sync()
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<qq", 2, 10_000))  # header only
            handle.write(b"partial")                     # truncated payload
        assert replayed(path) == ({0: [1, 2], 1: ["ok"]}, intact)
        with pytest.raises(AssertionError, match="records end at"):
            backend.check_invariants()
        backend.close()


class _AskingBackend(FileBackend):
    """The compaction trigger as it was before the log kept its own end
    offset: the size is asked of the file, a seek and a tell per put
    (each record written before it is asked)."""

    def _maybe_compact_locked(self):
        if not backend_module.AUTO_COMPACT_RATIO or not self._index:
            return
        self._write_appended()
        self._handle.seek(0, os.SEEK_END)
        if self._handle.tell() > backend_module.AUTO_COMPACT_RATIO * max(
                1, self._live_file_bytes()):
            self._compact_locked()


class TestLogEndOffset:
    """The log knows where it ends without asking the file."""

    @pytest.mark.parametrize("ratio", [0, 1.0, 1.5, 4.0])
    def test_compacts_at_the_same_operations_as_a_seeking_log(
            self, tmp_path, ratio):
        rng = np.random.default_rng(int(ratio * 10))
        kept = FileBackend(str(tmp_path / "kept.log"))
        asked = _AskingBackend(str(tmp_path / "asked.log"))
        compacted_at = []
        with compact_at(ratio):
            for step in range(400):
                block_id = int(rng.integers(0, 12))
                roll = rng.random()
                for backend in (kept, asked):
                    if roll < 0.2 and backend.contains(block_id):
                        backend.delete(block_id)
                    elif roll < 0.5:
                        backend.put(block_id, np.full(
                            (1 + step % 7, 2), float(step)))
                    elif roll < 0.6:
                        backend.get(block_id) if backend.contains(block_id) \
                            else None
                    else:
                        backend.put(block_id,
                                    ["x" * (step % 40)] * (step % 5))
                if kept.compactions > len(compacted_at):
                    compacted_at.append(step)
                assert kept.compactions == asked.compactions, step
                assert kept.bytes_written == asked.bytes_written, step
                assert kept.info() == dict(asked.info(), path=kept.path), \
                    step
                kept.sync()
                assert kept.info()["file_bytes"] \
                    == os.path.getsize(kept.path)
        assert bool(compacted_at) == bool(ratio)
        blocks = {block_id: _block_bytes(kept.get_payload(block_id))
                  for block_id in kept.block_ids()}
        assert blocks
        for backend in (kept, asked):
            # The log replays to the same blocks, ending where it says.
            backend.check_invariants()
            backend.close()
            logged, end = replayed(backend.path)
            assert {block_id: _block_bytes(block)
                    for block_id, block in logged.items()} == blocks
            assert end == os.path.getsize(backend.path)

    def test_a_torn_tail_is_not_counted_in_the_end_offset(self, tmp_path):
        path = str(tmp_path / "torn.log")
        backend = FileBackend(path)
        backend.put(0, np.ones((3, 2)))
        backend.close()
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x07" * 11)          # less than one header
        blocks, end = replayed(path)
        assert end == intact
        assert blocks[0].tolist() == [[1.0, 1.0]] * 3


def _read_only(matrix):
    matrix = np.array(matrix, dtype=float).reshape(len(matrix), -1)
    matrix.setflags(write=False)
    return matrix


finite = st.floats(allow_nan=False, width=64)
log_blocks = st.one_of(
    st.integers(1, 4).flatmap(lambda d: st.lists(
        st.lists(finite, min_size=d, max_size=d), min_size=1, max_size=5)
        .map(_read_only)),                                     # a matrix
    st.lists(st.tuples(finite, finite), min_size=1, max_size=5),  # float rows
    st.lists(st.one_of(st.integers(), st.text(max_size=3),
                       st.tuples(st.integers(), finite)), max_size=5))
log_scripts = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 4), log_blocks),
    st.tuples(st.just("delete"), st.integers(0, 4))), min_size=1, max_size=10)


def _stored(block):
    """The form ``put`` stores ``block`` in."""
    if isinstance(block, np.ndarray):
        return block
    if block and all(isinstance(record, tuple) and len(record) == 2
                     and all(type(c) is float for c in record)
                     for record in block):
        return np.array(block)
    return list(block)


def _same_blocks(blocks, expected):
    """``blocks`` (id -> stored form) are ``expected``'s, form and bytes."""
    assert sorted(blocks) == sorted(expected)
    for block_id, block in expected.items():
        stored = blocks[block_id]
        assert type(stored) is type(block), block_id
        if isinstance(block, np.ndarray):
            assert not stored.flags.writeable
            assert stored.shape == block.shape
            assert stored.tobytes() == block.tobytes()
        else:
            assert repr(stored) == repr(block)


@settings(max_examples=40, deadline=None)
@given(script=log_scripts, data=st.data())
def test_a_torn_log_replays_to_its_complete_record_prefix(script, data):
    """Cut a log at every record boundary and inside every header and
    payload: the replay holds the blocks of the complete records before
    the cut and ends where that prefix ends."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "full.log")
        writer = FileBackend(path)
        states, boundaries, model = [{}], [0], {}
        with compact_at(0):                 # one record per step
            for step in script:
                if step[0] == "put":
                    writer.put(step[1], step[2])
                    model[step[1]] = _stored(step[2])
                elif writer.contains(step[1]):
                    writer.delete(step[1])
                    del model[step[1]]
                else:
                    continue
                states.append(dict(model))
                boundaries.append(writer.info()["file_bytes"])
        writer.close()
        assert os.path.getsize(path) == boundaries[-1]
        cuts = list(boundaries)
        for start, end in zip(boundaries, boundaries[1:]):
            cuts.append(data.draw(st.integers(start + 1, start + 15)))
            if end > start + 16:            # tombstones have no payload
                cuts.append(data.draw(st.integers(start + 16, end - 1)))
        for cut in cuts:
            prefix = max(k for k, end in enumerate(boundaries) if end <= cut)
            blocks, end = replayed(path, cut)
            _same_blocks(blocks, states[prefix])
            assert end == boundaries[prefix]


@st.composite
def log_runs(draw):
    """A run of writes: stretches of up to 40 same-shape matrices and
    single blocks of any form (record lists between matrices), under
    fresh ascending ids, as a store writes them, or under ids drawn from
    a few (duplicates within the run, ids the history superseded)."""
    blocks = []
    for __ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            values = np.random.default_rng(draw(st.integers(0, 99))) \
                .standard_normal((draw(st.integers(1, 40)),) + shape)
            blocks += [_read_only(value) for value in values]
        else:
            blocks.append(draw(log_blocks))
    if draw(st.booleans()):
        ids = range(draw(st.integers(0, 9)), 99)
    else:
        ids = draw(st.lists(st.integers(0, 9), min_size=len(blocks),
                            max_size=len(blocks)))
    return list(zip(ids, blocks))


def _matrices(count, rows=2, first=0.0):
    return [_read_only(np.full((rows, 2), first + k)) for k in range(count)]


@pytest.mark.parametrize("kind", [FileBackend])
@settings(max_examples=60, deadline=None)
@given(ratio=st.sampled_from([1.0, 1.5, 4.0]), script=log_scripts,
       runs=st.lists(log_runs(), min_size=1, max_size=3))
# A repeated id within one run of same-shape matrices.
@example(ratio=4.0, script=[("put", 0, ["x"])],
         runs=[list(zip([5, 6, 5, 7], _matrices(4)))])
# Garbage left by the history: the compaction threshold is crossed
# inside a run of fresh ids.
@example(ratio=1.0, script=[("put", 0, ["x" * 40]), ("put", 0, ["y"]),
                            ("put", 1, ["z" * 40]), ("delete", 1)],
         runs=[list(zip(range(10, 50), _matrices(40, rows=3)))])
def test_a_run_is_its_one_block_puts(kind, ratio, script, runs):
    """After any history of puts and deletes (a delete leaves garbage
    and checks nothing), each run compacts where its one-block puts
    would, and where the record-at-a-time encoder's one write
    (``build_oracle.oracle_put_run``) would, and leaves the same books,
    counters and log bytes; each log then replays to the same blocks."""
    with tempfile.TemporaryDirectory() as directory, compact_at(ratio):
        paths = [os.path.join(directory, name)
                 for name in ("run.log", "puts.log", "oracle.log")]
        backends = [kind(path) for path in paths]
        for backend in backends:
            for step in script:
                if step[0] == "put":
                    backend.put(step[1], step[2])
                elif backend.contains(step[1]):
                    backend.delete(step[1])
        for run in runs:
            one_write, per_block, oracle = backends
            block_ids = [block_id for block_id, __ in run]
            one_write.put_run(block_ids,
                              [stored_form(block) for __, block in run])
            for block_id, block in run:
                per_block.put(block_id, block)
            oracle_put_run(oracle, block_ids,
                           [stored_form(block) for __, block in run])
            for backend in backends:
                backend.check_invariants()
                backend.sync()
            for backend in backends[1:]:
                assert one_write.info() == dict(backend.info(),
                                                path=one_write.path)
            logs = []
            for path in paths:
                with open(path, "rb") as handle:
                    logs.append(handle.read())
            assert logs[0] == logs[1] == logs[2]
            replays = [replayed(path) for path in paths]
            forms = [{block_id: _block_bytes(block)
                      for block_id, block in blocks.items()}
                     for blocks, __ in replays]
            assert forms[0] == forms[1] == forms[2]
            assert sorted(forms[0]) == sorted(one_write.block_ids())
            assert [end for __, end in replays] == [len(logs[0])] * 3
        for backend in backends:
            backend.close()


def _block_bytes(block):
    if isinstance(block, np.ndarray):
        return block.shape, block.tobytes()
    return repr(block)


@pytest.mark.parametrize("kind", [FileBackend])
def test_a_run_cut_inside_its_kth_payload_keeps_its_first_k_minus_one(
        kind, tmp_path):
    """A run is one write, and a crash can cut it anywhere: cut inside
    the k-th payload, the log replays to the blocks before the run and
    the run's first k - 1 blocks, and ends after them."""
    path = str(tmp_path / "run.log")
    backend = kind(path)
    backend.put(0, ["before the run"])
    start = backend.info()["file_bytes"]
    run = [_read_only(np.arange(6.0).reshape(3, 2)), ["a", ("pickled", 1)],
           _read_only([[0.5]]), [], _read_only(np.ones((4, 3)))]
    backend.put_run(range(1, 6), run)
    backend.check_invariants()
    backend.close()
    with open(path, "rb") as handle:
        log = handle.read()
    record_starts = [start]
    for __ in run:
        length = struct.unpack_from("<qq", log, record_starts[-1])[1]
        record_starts.append(record_starts[-1] + 16 + length)
    assert record_starts[-1] == len(log)
    for k in range(1, len(run) + 1):
        payload_start = record_starts[k - 1] + 16
        for cut in {payload_start, (payload_start + record_starts[k]) // 2,
                    record_starts[k] - 1}:
            if not record_starts[k - 1] < cut < record_starts[k]:
                continue
            blocks, end = replayed(path, cut)
            _same_blocks(blocks, {0: ["before the run"],
                                  **dict(zip(range(1, k), run))})
            assert end == record_starts[k - 1]


def test_check_invariants_catches_a_log_that_disagrees(tmp_path):
    backend = FileBackend(str(tmp_path / "books.log"))
    backend.put_run([0, 1], [["a"], ["b"]])
    backend.delete(0)
    backend.check_invariants()
    backend._live_bytes += 1                        # behind the log's back
    with pytest.raises(AssertionError):
        backend.check_invariants()
    backend._live_bytes -= 1
    backend._index[1] = (backend._index[1][0] + 1, backend._index[1][1])
    with pytest.raises(AssertionError):
        backend.check_invariants()
    backend.close()


class TestMakeBackend:
    def test_none_and_memory_specs(self):
        assert isinstance(make_backend(None), MemoryBackend)
        assert isinstance(make_backend("memory"), MemoryBackend)

    def test_file_spec_with_path(self, tmp_path):
        backend = make_backend("file", path=str(tmp_path / "b.log"))
        assert isinstance(backend, FileBackend)
        backend.close()

    def test_instance_passthrough_and_factory(self):
        instance = MemoryBackend()
        assert make_backend(instance) is instance
        # A factory is no spec: a backend is named or handed over built.
        with pytest.raises(ValueError):
            make_backend(MemoryBackend)

    def test_rejects_unknown_spec_and_bad_factory(self):
        for spec in ("tape", lambda: object()):
            with pytest.raises(ValueError):
                make_backend(spec)


def _exercise(store: BlockStore):
    """A fixed op sequence whose accounting must not depend on the backend."""
    ids = store.allocate_many(list(range(23)))
    for block_id in ids:
        store.read(block_id)
    store.write(ids[0], [99] * 4)
    store.read(ids[0])
    store.free(ids[-1])
    store.clear_cache()
    store.read(ids[1])
    return ids


class TestAccountingParityAcrossBackends:
    """Same operations, same counters — the backend never changes the model."""

    def test_identical_io_counts(self, tmp_path):
        memory_store = BlockStore(block_size=4, cache_blocks=2)
        file_store = BlockStore(block_size=4, cache_blocks=2,
                                backend=FileBackend(str(tmp_path / "p.log")))
        _exercise(memory_store)
        _exercise(file_store)
        for attribute in ("reads", "writes", "allocations", "frees",
                          "cache_hits"):
            assert getattr(memory_store.stats, attribute) == \
                getattr(file_store.stats, attribute), attribute
        file_store.close()

    def test_identical_contents(self, tmp_path):
        memory_store = BlockStore(block_size=4, cache_blocks=2)
        file_store = BlockStore(block_size=4, cache_blocks=2,
                                backend=FileBackend(str(tmp_path / "c.log")))
        memory_ids = _exercise(memory_store)
        file_ids = _exercise(file_store)
        for memory_id, file_id in zip(memory_ids[:-1], file_ids[:-1]):
            assert memory_store.read(memory_id) == file_store.read(file_id)
        file_store.close()


class TestLRUCacheResize:
    def test_shrink_evicts_least_recently_used_first(self):
        cache = LRUCache(4)
        for key in "abcd":
            cache.put(key, key.upper())
        cache.get("a")            # refresh: LRU order is now b, c, d, a
        cache.resize(2)
        assert cache.get("b") is None
        assert cache.get("c") is None
        assert cache.get("d") == "D"
        assert cache.get("a") == "A"

    def test_grow_keeps_entries_and_allows_more(self):
        cache = LRUCache(1)
        cache.put("a", 1)
        cache.resize(3)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == 1 and cache.get("b") == 2

    def test_eviction_order_intact_after_resize(self):
        cache = LRUCache(3)
        for key in "abc":
            cache.put(key, key)
        cache.resize(2)           # evicts "a" (oldest)
        cache.put("d", "d")       # evicts "b"
        assert cache.get("a") is None and cache.get("b") is None
        assert cache.get("c") == "c" and cache.get("d") == "d"

    def test_resize_to_zero_disables_caching(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.resize(0)
        assert len(cache) == 0
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_resize_rejects_negative(self):
        with pytest.raises(ValueError):
            LRUCache(2).resize(-1)


class TestBlockStoreEdgeCases:
    def test_eviction_order_after_cache_resize(self):
        store = BlockStore(block_size=2, cache_blocks=4)
        ids = store.allocate_many(list(range(8)))    # 4 blocks, all cached
        store.read(ids[0])                            # refresh block 0
        store.resize_cache(2)                         # keeps ids[3], ids[0]
        reads_before = store.stats.reads
        store.read(ids[0])
        store.read(ids[3])
        assert store.stats.reads == reads_before      # both still resident
        store.read(ids[1])                            # evicted -> charged
        assert store.stats.reads == reads_before + 1

    def test_free_then_read_and_free_then_write_raise(self):
        store = BlockStore(block_size=4, cache_blocks=2)
        block_id = store.allocate([1, 2])
        store.free(block_id)
        with pytest.raises(KeyError):
            store.read(block_id)
        with pytest.raises(KeyError):
            store.write(block_id, [3])

    def test_freed_block_not_served_from_cache(self):
        # The allocate/read path caches contents; free must invalidate them.
        store = BlockStore(block_size=4, cache_blocks=4)
        block_id = store.allocate([1, 2])
        store.read(block_id)
        store.free(block_id)
        with pytest.raises(KeyError):
            store.read(block_id)

    def test_cache_hit_accounting_across_resize(self):
        store = BlockStore(block_size=2, cache_blocks=0)
        ids = store.allocate_many([1, 2, 3, 4])
        store.read(ids[0])
        assert store.stats.cache_hits == 0
        store.resize_cache(2)
        store.read(ids[0])                            # miss (pool was empty)
        store.read(ids[0])                            # hit
        assert store.stats.cache_hits == 1
        info = cache_info(store)
        assert info["hits"] >= 1 and info["capacity"] == 2

    def test_resize_cache_returns_previous_capacity(self):
        store = BlockStore(block_size=4, cache_blocks=3)
        assert store.resize_cache(8) == 3
        assert store.resize_cache(3) == 8
        assert store.cache_blocks == 3
