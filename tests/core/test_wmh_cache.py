"""Weighted MinHash minima memo cache: bit-identity and bounds.

The cache's one invariant: it can change sketching *time*, never
sketching *bits*.  Cold, warm, disabled, private, mid-eviction, or
served from record streams, the scalar and batch paths must produce
identical sketches; the LRU must respect its byte budget over both
entry kinds; and eviction must keep accounting exact.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import wmh
from repro.core.wmh import (
    DEFAULT_L,
    MinimaCache,
    WeightedMinHash,
    _key_span,
    shared_minima_cache,
    simulate_block_minima_grouped,
    simulate_block_records,
)
from repro.vectors.sparse import SparseMatrix, SparseVector


def make_corpus(rows: int = 25, seed: int = 0) -> list[SparseVector]:
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(rows):
        nnz = int(rng.integers(4, 40))
        indices = rng.choice(300, size=nnz, replace=False)
        vectors.append(SparseVector(indices, rng.normal(size=nnz), n=300))
    return vectors


def bank_columns(sketcher, corpus):
    bank = sketcher.sketch_batch(SparseMatrix.from_rows(corpus))
    return {name: column.copy() for name, column in bank.columns.items()}


class TestCacheEquivalence:
    def test_cold_warm_disabled_and_private_agree(self):
        corpus = make_corpus()
        reference = bank_columns(
            WeightedMinHash(m=32, seed=9, L=1 << 16, cache_bytes=0), corpus
        )
        shared = WeightedMinHash(m=32, seed=9, L=1 << 16)
        shared_minima_cache().clear()
        cold = bank_columns(shared, corpus)
        warm = bank_columns(shared, corpus)  # served from the cache
        private = bank_columns(
            WeightedMinHash(m=32, seed=9, L=1 << 16, cache_bytes=1 << 20), corpus
        )
        for name in reference:
            np.testing.assert_array_equal(cold[name], reference[name])
            np.testing.assert_array_equal(warm[name], reference[name])
            np.testing.assert_array_equal(private[name], reference[name])

    def test_scalar_path_uses_and_fills_cache(self):
        corpus = make_corpus(rows=8, seed=3)
        sketcher = WeightedMinHash(m=16, seed=2, L=1 << 14, cache_bytes=1 << 20)
        cache = sketcher._cache
        first = [sketcher.sketch(v) for v in corpus]
        assert len(cache) > 0
        hits_before = cache.hits
        second = [sketcher.sketch(v) for v in corpus]
        assert cache.hits > hits_before
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.hashes, b.hashes)
            np.testing.assert_array_equal(a.values, b.values)

    def test_eviction_pressure_keeps_results_identical(self):
        corpus = make_corpus(rows=30, seed=5)
        # Budget of a handful of columns: constant eviction churn.
        tiny = WeightedMinHash(m=32, seed=9, L=1 << 16, cache_bytes=2048)
        reference = bank_columns(
            WeightedMinHash(m=32, seed=9, L=1 << 16, cache_bytes=0), corpus
        )
        for _ in range(2):
            got = bank_columns(tiny, corpus)
            for name in reference:
                np.testing.assert_array_equal(got[name], reference[name])
        assert tiny._cache.evictions > 0
        assert tiny._cache.nbytes <= 2048

    def test_cache_shared_across_same_seed_sketchers_only(self):
        corpus = make_corpus(rows=6, seed=1)
        cache = MinimaCache(1 << 20)
        a = WeightedMinHash(m=8, seed=1, L=1 << 12)
        a._cache = cache
        [a.sketch(v) for v in corpus]
        filled = cache.stats()
        for other in (
            WeightedMinHash(m=8, seed=2, L=1 << 12),  # different seed
            WeightedMinHash(m=16, seed=1, L=1 << 12),  # different m
            WeightedMinHash(m=8, seed=1, L=1 << 13),  # different L
        ):
            other._cache = cache
            before = cache.hits
            [other.sketch(v) for v in corpus]
            assert cache.hits == before
        twin = WeightedMinHash(m=8, seed=1, L=1 << 12)
        twin._cache = cache
        before = cache.misses
        [twin.sketch(v) for v in corpus]
        assert cache.misses == before
        assert cache.hits > filled["hits"]


def column_dict(cache: MinimaCache, key: tuple) -> dict:
    """The block's columns by occupancy."""
    entry = cache._entries[key]
    assert isinstance(entry, wmh._BlockColumns)
    return {k: entry.columns[row] for k, row in entry.rows.items()}


class TestCacheMechanics:
    def test_lru_evicts_least_recently_used(self):
        column = np.zeros((1, 4))  # 32 bytes
        cache = MinimaCache(96)  # room for three columns
        for key in ("a", "b", "c"):
            cache.add_columns((key,), [1], column)
        cache.entry(("a",))  # refresh "a"; "b" becomes the LRU entry
        cache.add_columns(("d",), [1], column)
        assert cache.entry(("b",)) is None
        assert cache.entry(("a",)) is not None
        assert cache.entry(("d",)) is not None
        assert cache.evictions == 1

    def test_growing_entry_is_accounted_by_its_delta(self):
        cache = MinimaCache(1 << 10)
        cache.add_columns(("k",), [3, 5], np.zeros((2, 8)))
        cache.add_columns(("k",), [5, 9], np.ones((2, 8)))  # 5 is replaced
        assert len(cache) == 1
        assert cache.nbytes == 3 * 8 * 8
        assert sorted(column_dict(cache, ("k",))) == [3, 5, 9]
        np.testing.assert_array_equal(column_dict(cache, ("k",))[5], np.ones(8))

    def test_add_columns_accounts_and_evicts(self):
        cache = MinimaCache(10 * 8 * 4)  # ten 4-double columns
        block = np.arange(48.0).reshape(12, 4)
        for i in range(6):  # six blocks of two columns
            cache.add_columns((i,), [1, 2], block[2 * i : 2 * i + 2])
        assert cache.nbytes <= cache.max_bytes
        assert cache.evictions == 1
        assert cache.entry((0,)) is None  # the oldest block went first
        np.testing.assert_array_equal(column_dict(cache, (5,))[2], block[11])

    def test_stream_replaces_the_columns_it_outweighs(self):
        sketcher = WeightedMinHash(m=4, seed=1, L=1 << 8)
        (stream,) = sketcher._simulate_streams(np.array([7]))
        cache = MinimaCache(1 << 12)
        cache.add_columns(("b",), [1, 2, 3], np.zeros((3, 4)))
        cache.add_columns(("c",), [1], np.zeros((1, 4)))
        cache.put_stream(("b",), stream)
        assert cache.entry(("b",)) is stream
        assert cache.nbytes == stream.nbytes + 4 * 8

    def test_entry_larger_than_the_budget_is_not_stored(self):
        sketcher = WeightedMinHash(m=4, seed=1, L=1 << 8)
        (stream,) = sketcher._simulate_streams(np.array([7]))
        cache = MinimaCache(stream.nbytes - 1)
        cache.add_columns(("c",), [1], np.zeros((1, 4)))
        cache.put_stream(("b",), stream)
        assert cache.entry(("b",)) is None
        assert cache.entry(("c",)) is not None
        assert cache.evictions == 0
        # A column dict that outgrows the budget is dropped whole.
        cache.add_columns(("c",), list(range(2, 100)), np.zeros((98, 4)))
        assert len(cache) == 0 and cache.nbytes == 0

    def test_zero_budget_disables_storage(self):
        cache = MinimaCache(0)
        cache.add_columns(("k",), [1], np.zeros((1, 4)))
        (stream,) = WeightedMinHash(m=4, L=1 << 8)._simulate_streams(np.array([1]))
        cache.put_stream(("j",), stream)
        assert len(cache) == 0
        assert not cache.enabled

    def test_clear_resets_counters_payload(self):
        cache = MinimaCache(1 << 10)
        cache.add_columns(("k",), [1], np.zeros((1, 4)))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_sketcher_pickles_without_cache_payload(self):
        import pickle

        sketcher = WeightedMinHash(m=16, seed=4, L=1 << 14)
        shared_minima_cache().clear()
        [sketcher.sketch(v) for v in make_corpus(rows=5)]
        assert len(shared_minima_cache()) > 0
        payload = pickle.dumps(sketcher)
        # The pickle must stay configuration-sized even with a hot
        # shared cache (a 256 MB cache must never ride along to
        # parallel workers).
        assert len(payload) < 4096
        clone = pickle.loads(payload)
        assert (clone.m, clone.seed, clone.L) == (16, 4, 1 << 14)
        assert clone._cache is shared_minima_cache()


class TestCacheMemoryBound:
    def test_column_entries_own_their_buffers(self):
        cache = MinimaCache(1 << 20)
        batch = np.arange(128.0).reshape(32, 4)
        cache.add_columns((0,), list(range(8)), batch[8:16])
        cache.add_columns((0,), list(range(8, 16)), batch[16:24])
        # A block's columns must not alias the caller's buffer (a
        # surviving view would pin the whole batch allocation past
        # eviction, breaking the max_bytes bound), when it is new or
        # when it grows.
        columns = cache.entry((0,)).columns
        assert columns.base is None
        assert not np.shares_memory(columns, batch)
        batch[:] = -1.0
        np.testing.assert_array_equal(column_dict(cache, (0,))[3], [44.0, 45.0, 46.0, 47.0])
        np.testing.assert_array_equal(column_dict(cache, (0,))[11], [76.0, 77.0, 78.0, 79.0])
        assert cache.nbytes == columns.nbytes == 16 * 4 * 8


def resolve(sketcher: WeightedMinHash, block: int, counts) -> np.ndarray:
    """Minima of one block at ascending ``counts`` through the cache."""
    counts = np.asarray(counts, dtype=np.int64)
    blocks = np.full(counts.size, block, dtype=np.int64)
    return np.concatenate([minima for _, _, minima in sketcher._pair_minima_chunks(blocks, counts)])


class TestRecordStreams:
    @pytest.mark.parametrize("m, L", [(7, 1 << 10), (64, DEFAULT_L)])
    def test_lookups_match_the_grouped_simulator(self, m, L):
        rng = np.random.default_rng(m)
        sketcher = WeightedMinHash(m=m, seed=11, L=L, cache_bytes=0)
        block_ids = np.sort(rng.choice(10**9, size=5, replace=False))
        streams = sketcher._simulate_streams(block_ids)
        offsets, positions, _ = simulate_block_records(11, m, block_ids, np.full(5, L))
        offsets_by_rep = np.arange(m) * _key_span(m)
        for j, (block, stream) in enumerate(zip(block_ids, streams)):
            # On and either side of every record position of the
            # block's first repetitions, plus both ends and random k.
            at = positions[offsets[j * m] : offsets[j * m + 3]].astype(np.int64)
            counts = np.concatenate([at - 1, at, at + 1, [1, L], rng.integers(1, L + 1, 20)])
            counts = np.unique(np.clip(counts, 1, L))
            got = np.empty((counts.size, m))
            stream.minima(counts, offsets_by_rep, got)
            expected = simulate_block_minima_grouped(
                11, m, np.array([block]), np.array([0, counts.size]), counts
            )
            np.testing.assert_array_equal(got, expected.T)

    def test_block_converts_once_past_the_break_even(self, monkeypatch):
        m, L = 16, 1 << 10
        break_even = wmh._break_even_columns(m, L)  # 15.0: the 16th column converts
        assert 15 <= break_even < 16
        sketcher = WeightedMinHash(m=m, seed=3, L=L, cache_bytes=1 << 20)
        cache = sketcher._cache
        reference = WeightedMinHash(m=m, seed=3, L=L, cache_bytes=0)
        simulated = []
        real = wmh.simulate_block_records
        monkeypatch.setattr(
            wmh,
            "simulate_block_records",
            lambda *args: simulated.append(args[2]) or real(*args),
        )
        counts = np.arange(1, 200, 13)  # 16 distinct occupancies
        first, second, third = counts[:10], counts[10:15], counts[15:]
        for part in (first, second):
            np.testing.assert_array_equal(resolve(sketcher, 5, part), resolve(reference, 5, part))
        assert sorted(column_dict(cache, (3, m, L, 5))) == counts[:15].tolist()
        assert cache.nbytes == 15 * 8 * m
        assert not simulated

        misses, held = cache.misses, cache.nbytes
        np.testing.assert_array_equal(resolve(sketcher, 5, third), resolve(reference, 5, third))
        stream = cache.entry((3, m, L, 5))
        assert isinstance(stream, wmh._BlockStream)
        assert len(simulated) == 1
        assert cache.nbytes == held - 15 * 8 * m + stream.nbytes
        assert cache.misses == misses + third.size

        hits, misses = cache.hits, cache.misses
        every = np.unique(np.concatenate([counts, [1, 2, L - 1, L], np.arange(300, L, 97)]))
        np.testing.assert_array_equal(resolve(sketcher, 5, every), resolve(reference, 5, every))
        assert len(simulated) == 1
        assert (cache.hits, cache.misses) == (hits + every.size, misses)

    def test_byte_bound_holds_with_mixed_entries(self, monkeypatch):
        # Every block with a second occupancy converts, so the cache
        # churns through both entry kinds.
        monkeypatch.setattr(wmh, "_break_even_columns", lambda m, L: 1.0)
        corpus = make_corpus(rows=40, seed=8)
        reference = bank_columns(WeightedMinHash(m=8, seed=2, L=1 << 12, cache_bytes=0), corpus)
        budget = 6000
        sketcher = WeightedMinHash(m=8, seed=2, L=1 << 12, cache_bytes=budget)
        cache = sketcher._cache
        for start in range(0, 40, 5):
            got = bank_columns(sketcher, corpus[start : start + 10])
            for name in reference:
                np.testing.assert_array_equal(got[name], reference[name][start : start + 10])
            kinds = {type(entry) for entry in cache._entries.values()}
            assert cache.nbytes <= budget
            assert cache.nbytes == sum(map(wmh._entry_nbytes, cache._entries.values()))
        assert kinds == {wmh._BlockColumns, wmh._BlockStream}
        assert cache.evictions > 0


def test_threads_sharing_a_cache_keep_bits_and_accounting(monkeypatch):
    """Eight threads sketch overlapping slices through one small cache
    while blocks convert and evict; a lost update in the entry
    bookkeeping would leave ``nbytes`` off the entries' true size."""
    monkeypatch.setattr(wmh, "_break_even_columns", lambda m, L: 3.0)
    corpus = make_corpus(rows=40, seed=21)
    reference = bank_columns(WeightedMinHash(m=8, seed=6, L=1 << 12, cache_bytes=0), corpus)
    sketcher = WeightedMinHash(m=8, seed=6, L=1 << 12, cache_bytes=20_000)
    cache = sketcher._cache
    failures: list[BaseException] = []

    def work(i: int) -> None:
        try:
            for j in range(6):
                start = (5 * i + 3 * j) % 30
                got = bank_columns(sketcher, corpus[start : start + 10])
                for name in reference:
                    np.testing.assert_array_equal(got[name], reference[name][start : start + 10])
        except BaseException as exc:  # reported below, from the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert cache.nbytes == sum(map(wmh._entry_nbytes, cache._entries.values()))
    assert cache.nbytes <= cache.max_bytes
    assert cache.evictions > 0
