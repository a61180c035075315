"""Streamed batch kernel: chunk boundaries, ties, a bounded working set,
and the miss simulation split across threads."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core import wmh
from repro.core.wmh import WeightedMinHash
from repro.datasearch.table import Table
from repro.parallel.streaming import NO_CLAMP_ENV, shutdown_pools
from repro.store import LakeStore
from repro.vectors.sparse import SparseMatrix, SparseVector


def tie_corpus() -> list[SparseVector]:
    """Rows over a 30-block domain that share blocks and whole pairs.

    Each non-empty row holds 6-12 blocks, so with two blocks per chunk
    it spans at least three chunks.
    """
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(12):
        nnz = int(rng.integers(6, 13))
        indices = rng.choice(30, size=nnz, replace=False)
        rows.append(SparseVector(indices, rng.normal(size=nnz), n=30))
    rows.append(rows[0].scaled(3.0))  # the same pairs as row 0
    rows.append(SparseVector.from_dense(np.zeros(30)))
    return rows


def constant_minima(seed, m, block_ids, query_indptr, query_counts):
    return np.full((m, np.asarray(query_counts).size), 0.5)


def patterned_minima(seed, m, block_ids, query_indptr, query_counts):
    """Two levels, so each row ties at its minimum over several blocks."""
    blocks = np.repeat(np.asarray(block_ids), np.diff(query_indptr))
    low = (blocks[None, :] + np.arange(m)[:, None]) % 3 == 0
    return np.where(low, 0.25, 0.5)


def constant_records(seed, m, block_ids, limits, max_rounds=512):
    """One record per stream, at slot 1: :func:`constant_minima`'s
    value at every occupancy."""
    cells = m * np.asarray(block_ids).size
    return np.arange(cells + 1), np.ones(cells), np.full(cells, 0.5)


def patterned_records(seed, m, block_ids, limits, max_rounds=512):
    """One record per stream with :func:`patterned_minima`'s value."""
    cells = m * np.asarray(block_ids).size
    low = (np.asarray(block_ids)[:, None] + np.arange(m)[None, :]) % 3 == 0
    return np.arange(cells + 1), np.ones(cells), np.where(low, 0.25, 0.5).ravel()


@pytest.fixture
def two_blocks_per_chunk(monkeypatch):
    monkeypatch.setattr(wmh, "_SIM_CELL_TARGET", 8)  # m = 4


@pytest.mark.usefixtures("two_blocks_per_chunk")
class TestChunkBoundariesAndTies:
    @pytest.mark.parametrize(
        "simulators",
        [None, (constant_minima, constant_records), (patterned_minima, patterned_records)],
    )
    @pytest.mark.parametrize("streams", ["at_break_even", "from_two_columns"])
    def test_batch_matches_scalar_loop(self, monkeypatch, simulators, streams):
        if simulators is not None:
            monkeypatch.setattr(wmh, "simulate_block_minima_grouped", simulators[0])
            monkeypatch.setattr(wmh, "simulate_block_records", simulators[1])
        if streams == "from_two_columns":
            # Every block with a second occupancy converts, so warm
            # calls are served from record streams.
            monkeypatch.setattr(wmh, "_break_even_columns", lambda m, L: 1.0)
        corpus = tie_corpus()
        reference = WeightedMinHash(m=4, seed=5, L=1 << 12, cache_bytes=0)
        expected = [reference.sketch(v) for v in corpus]
        for cache_bytes in (0, 1 << 20):
            sketcher = WeightedMinHash(m=4, seed=5, L=1 << 12, cache_bytes=cache_bytes)
            for _ in range(2):  # cold, then warm when cached
                bank = sketcher.sketch_batch(SparseMatrix.from_rows(corpus))
                for i, sketch in enumerate(expected):
                    np.testing.assert_array_equal(bank.columns["hashes"][i], sketch.hashes)
                    np.testing.assert_array_equal(bank.columns["values"][i], sketch.values)
                    assert bank.columns["norms"][i] == sketch.norm

    def test_cache_sees_the_same_gets_and_puts(self, monkeypatch):
        monkeypatch.setattr(wmh, "simulate_block_minima_grouped", constant_minima)
        monkeypatch.setattr(wmh, "simulate_block_records", constant_records)
        corpus = tie_corpus()
        # 40 columns of 4 float64 each: the first call already evicts.
        sketcher = WeightedMinHash(m=4, seed=5, L=1 << 12, cache_bytes=40 * 32)
        cache = sketcher._cache
        seen = []
        for run in (
            lambda: sketcher.sketch_batch(corpus),
            lambda: sketcher.sketch_batch(corpus),
            lambda: [sketcher.sketch(v) for v in corpus[:3]],
            lambda: sketcher.sketch_batch(corpus[2:]),
        ):
            run()
            seen.append((cache.hits, cache.misses, cache.evictions))
        # Recorded with one cache entry per block (evictions count
        # blocks); no block here reaches its break-even, so every entry
        # holds columns.  An empty cache is not consulted, so the first
        # call counts no lookups.
        assert seen == [(0, 0, 18), (38, 65, 38), (46, 82, 43), (75, 148, 70)]


def disjoint_rows(rows: int, nnz: int = 16) -> SparseMatrix:
    """``rows`` rows on pairwise disjoint blocks: every entry is a pair."""
    rng = np.random.default_rng(rows)
    indptr = np.arange(rows + 1) * nnz
    return SparseMatrix(indptr, np.arange(rows * nnz), rng.uniform(0.5, 2.0, rows * nnz))


def traced_peak(sketcher: WeightedMinHash, matrix: SparseMatrix) -> int:
    """Peak traced bytes allocated by one ``sketch_batch`` call."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sketcher.sketch_batch(matrix)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_working_set_grows_with_the_bank_not_the_pairs(monkeypatch):
    """Four times the rows on disjoint blocks may add the larger output
    bank and a few int64 index arrays per entry, never ``pairs x m``
    floats (``8 * m`` = 512 bytes a pair per copy here)."""
    monkeypatch.setattr(wmh, "_SIM_CELL_TARGET", 64 * 64)
    m, rows, nnz = 64, 64, 16
    sketcher = WeightedMinHash(m=m, seed=1, L=1 << 16, cache_bytes=0)
    small = traced_peak(sketcher, disjoint_rows(rows, nnz))
    large = traced_peak(sketcher, disjoint_rows(4 * rows, nnz))
    bank_bytes = 4 * rows * (2 * m + 1) * 8
    index_bytes = 256 * 3 * rows * nnz
    slack = 256 * 1024
    assert large - small <= bank_bytes + index_bytes + slack, (small, large)


# ----------------------------------------------------------------------
# the miss simulation split across threads
# ----------------------------------------------------------------------


@pytest.fixture(params=[1, 2, 3], ids=["one_thread", "two_parts", "three_parts"])
def kernel_threads(request, monkeypatch):
    """The kernel's thread count, with every chunk of two or more
    cells split (the floor patched down)."""
    monkeypatch.setattr(wmh, "_KERNEL_THREADS", request.param)
    monkeypatch.setattr(wmh, "_MIN_PART_CELLS", 1)
    return request.param


def bank_bits(bank) -> dict[str, np.ndarray]:
    return {name: column.view(np.uint64).copy() for name, column in bank.columns.items()}


class TestSplitKernel:
    @pytest.mark.parametrize(
        "simulators",
        [None, (constant_minima, constant_records), (patterned_minima, patterned_records)],
        ids=["real", "constant", "patterned"],
    )
    def test_split_matches_one_thread_and_scalar(self, monkeypatch, kernel_threads, simulators):
        monkeypatch.setattr(wmh, "_SIM_CELL_TARGET", 8 * 4)  # 8 blocks a chunk at m = 4
        if simulators is not None:
            monkeypatch.setattr(wmh, "simulate_block_minima_grouped", simulators[0])
            monkeypatch.setattr(wmh, "simulate_block_records", simulators[1])
        grouped = wmh.simulate_block_minima_grouped
        calls = []
        monkeypatch.setattr(
            wmh,
            "simulate_block_minima_grouped",
            lambda *args: calls.append(threading.current_thread().name) or grouped(*args),
        )
        corpus = tie_corpus()
        with monkeypatch.context() as one_thread:
            one_thread.setattr(wmh, "_KERNEL_THREADS", 1)
            reference = WeightedMinHash(m=4, seed=5, L=1 << 12, cache_bytes=0)
            scalar = [reference.sketch(v) for v in corpus]
            del calls[:]
            expected = bank_bits(reference.sketch_batch(SparseMatrix.from_rows(corpus)))
        unsplit = len(calls)
        for name in ("hashes", "values"):
            column = np.array([getattr(sketch, name) for sketch in scalar])
            np.testing.assert_array_equal(column.view(np.uint64), expected[name])
        for cache_bytes in (0, 1 << 20):
            sketcher = WeightedMinHash(m=4, seed=5, L=1 << 12, cache_bytes=cache_bytes)
            for _ in range(2):  # cold, then warm when cached
                del calls[:]
                got = bank_bits(sketcher.sketch_batch(SparseMatrix.from_rows(corpus)))
                for name in expected:
                    np.testing.assert_array_equal(got[name], expected[name])
            if cache_bytes == 0:
                # Every chunk of the uncached run split in parts.
                assert len(calls) > unsplit if kernel_threads > 1 else len(calls) == unsplit

    def test_split_keeps_the_cache_gets_and_puts(self, monkeypatch, kernel_threads):
        monkeypatch.setattr(wmh, "_SIM_CELL_TARGET", 8)  # m = 4
        TestChunkBoundariesAndTies().test_cache_sees_the_same_gets_and_puts(monkeypatch)

    def test_a_helper_thread_simulates_a_part_at_idle_priority(self, monkeypatch):
        monkeypatch.setattr(wmh, "_KERNEL_THREADS", 2)
        monkeypatch.setattr(wmh, "_MIN_PART_CELLS", 1)
        real = wmh.simulate_block_minima_grouped
        caller = threading.get_ident()
        helper_ran = threading.Event()
        seen = {}

        def spy(*args):
            if threading.get_ident() == caller:
                # The helper holds the other part: the caller cannot
                # take it back once it has started.
                assert helper_ran.wait(60)
            else:
                seen["thread"] = threading.current_thread().name
                if sys.platform.startswith("linux"):  # a thread id is a pid there
                    seen["nice"] = os.getpriority(os.PRIO_PROCESS, threading.get_native_id())
                helper_ran.set()
            return real(*args)

        monkeypatch.setattr(wmh, "simulate_block_minima_grouped", spy)
        blocks = np.arange(6, dtype=np.int64)
        indptr = np.array([0, 1, 3, 4, 6, 7, 8])
        counts = np.array([5, 1, 90, 7, 2, 40, 1, 3000])
        got = wmh._simulate_split(3, 8, blocks, indptr, counts)
        assert got.flags.c_contiguous and got.shape == (8, 8)
        np.testing.assert_array_equal(
            got.view(np.uint64), real(3, 8, blocks, indptr, counts).T.copy().view(np.uint64)
        )
        assert seen["thread"].startswith("wmh-kernel")
        assert seen.get("nice", 19) == 19


def _sketch_in_child(sketcher, matrix, send) -> None:
    fresh = wmh._helper is None
    hashes = sketcher.sketch_batch(matrix).columns["hashes"]
    alive = wmh._helper is not None and any(t.is_alive() for t in wmh._helper._threads)
    send.send((fresh, alive, hashes))


def lake_tables() -> list[Table]:
    rng = np.random.default_rng(9)
    tables = []
    for i in range(6):
        keys = [f"k{j}" for j in rng.choice(300, 90, replace=False)]
        tables.append(Table(f"t{i}", keys, {"v": rng.normal(size=90)}))
    return tables


def store_bytes(path) -> dict[str, bytes]:
    return {
        entry.name: entry.read_bytes() for entry in sorted(path.iterdir()) if entry.name != ".lock"
    }


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestFork:
    @pytest.fixture(autouse=True)
    def _split(self, monkeypatch):
        monkeypatch.setattr(wmh, "_KERNEL_THREADS", 2)
        monkeypatch.setattr(wmh, "_MIN_PART_CELLS", 1)

    def test_forked_child_starts_its_own_helper(self):
        sketcher = WeightedMinHash(m=8, seed=2, L=1 << 12, cache_bytes=0)
        matrix = SparseMatrix.from_rows(tie_corpus())
        expected = sketcher.sketch_batch(matrix).columns["hashes"]
        assert wmh._helper is not None
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=_sketch_in_child, args=(sketcher, matrix, send))
        child.start()
        try:
            assert receive.poll(120), "the forked child's kernel did not answer"
            fresh, alive, hashes = receive.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.terminate()
        assert fresh and alive
        np.testing.assert_array_equal(hashes.view(np.uint64), expected.view(np.uint64))

    def test_pooled_append_after_a_threaded_sketch_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_CLAMP_ENV, "1")
        tables = lake_tables()
        sketcher = WeightedMinHash(m=16, seed=4, L=1 << 14)
        sketcher.sketch_batch(SparseMatrix.from_rows(tie_corpus()))
        assert wmh._helper is not None
        shutdown_pools()  # the pool below forks beside the helper
        fingerprints = []
        for workers in (None, 2):
            with LakeStore.create(tmp_path / f"lake{workers}", sketcher) as store:
                store.append(tables, workers=workers, chunk_bytes=1)
            fingerprints.append(store_bytes(tmp_path / f"lake{workers}"))
        assert fingerprints[0] == fingerprints[1]
