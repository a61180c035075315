"""Streamed batch kernel: chunk boundaries, ties and a bounded working set."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core import wmh
from repro.core.wmh import WeightedMinHash
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
