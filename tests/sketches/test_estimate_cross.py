"""``estimate_cross`` contract tests, across every registered sketcher.

The multi-query serving primitive must be *exactly* the stacked
``estimate_many`` loop — same floats, bit for bit — for the vectorized
overrides (WMH, MH, JL, CS) and the generic fallback alike, including
the degenerate shapes a serving layer actually sees (empty query
batches, empty banks, zero-vector rows).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SketchMismatchError
from repro.data.synthetic import SyntheticConfig, generate_pair
from repro.experiments.runner import method_registry
from repro.sketches.bbit import BbitMinHash
from repro.vectors.sparse import SparseVector

REGISTRY = method_registry()
ALL_METHODS = sorted(REGISTRY)

#: Methods with a vectorized estimate_cross kernel (KMV's scores one
#: query at a time against the whole bank); the rest use the
#: base-class scalar fallback.
CROSS_VECTORIZED = ("WMH", "MH", "KMV", "JL", "CS")


def build(name: str, storage: int = 300, seed: int = 3):
    if name == "bbit":
        return BbitMinHash.from_storage(storage, seed=seed)
    return REGISTRY[name].build(storage, seed)


@pytest.fixture(scope="module")
def corpus() -> list[SparseVector]:
    vectors: list[SparseVector] = []
    for i in range(6):
        a, b = generate_pair(SyntheticConfig(n=1_500, nnz=100, overlap=0.3), seed=i)
        vectors.append(a)
        vectors.append(b)
    vectors.append(SparseVector.zero())          # empty row
    vectors.append(SparseVector([7], [3.25]))    # single-entry row
    return vectors


@pytest.fixture(scope="module")
def query_corpus(corpus) -> list[SparseVector]:
    # A query batch that includes an empty (zero-norm) query row.
    return corpus[:5] + [SparseVector.zero()]


class TestCrossEqualsLoop:
    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    def test_cross_is_bitwise_identical_to_loop(self, name, corpus, query_corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        query_bank = sketcher.sketch_batch(query_corpus)
        cross = sketcher.estimate_cross(query_bank, bank)
        loop = np.stack(
            [
                sketcher.estimate_many(sketcher.bank_row(query_bank, i), bank)
                for i in range(len(query_bank))
            ]
        )
        assert cross.shape == (len(query_corpus), len(corpus))
        # Bitwise, not just ==: even -0.0 vs +0.0 divergence between
        # the batched and looped paths would be a kernel difference.
        np.testing.assert_array_equal(
            cross.view(np.uint64), loop.view(np.uint64)
        )

    @pytest.mark.parametrize("name", CROSS_VECTORIZED)
    def test_vectorized_methods_override_the_fallback(self, name):
        sketcher = build(name)
        from repro.core.base import Sketcher

        assert type(sketcher).estimate_cross is not Sketcher.estimate_cross

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_cross_rows_match_pack_bank_queries(self, name, corpus):
        """Queries packed from scalar sketches score like batch-built ones."""
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        packed = sketcher.pack_bank([sketcher.sketch(v) for v in corpus[:4]])
        batch = sketcher.sketch_batch(corpus[:4])
        np.testing.assert_array_equal(
            sketcher.estimate_cross(packed, bank),
            sketcher.estimate_cross(batch, bank),
        )


class TestCrossEdgeShapes:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_empty_query_batch(self, name, corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        empty = sketcher.sketch_batch([])
        out = sketcher.estimate_cross(empty, bank)
        assert out.shape == (0, len(corpus))

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_empty_bank(self, name, corpus):
        sketcher = build(name)
        empty = sketcher.sketch_batch([])
        queries = sketcher.sketch_batch(corpus[:3])
        out = sketcher.estimate_cross(queries, empty)
        assert out.shape == (3, 0)

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_all_zero_queries_and_rows(self, name):
        sketcher = build(name)
        zeros = [SparseVector.zero(), SparseVector.zero()]
        bank = sketcher.sketch_batch(zeros)
        out = sketcher.estimate_cross(bank, bank)
        np.testing.assert_array_equal(out, np.zeros((2, 2)))
        # Exact +0.0, no negative-zero leaks from inf arithmetic.
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_single_row_each_side(self, name, corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus[:1])
        queries = sketcher.sketch_batch(corpus[1:2])
        out = sketcher.estimate_cross(queries, bank)
        assert out.shape == (1, 1)
        expected = sketcher.estimate(
            sketcher.sketch(corpus[1]), sketcher.sketch(corpus[0])
        )
        np.testing.assert_array_equal(out, [[expected]])


class TestCrossSafety:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_rejects_mismatched_query_bank(self, name, corpus):
        ours = build(name, seed=1)
        theirs = build(name, seed=2)
        bank = ours.sketch_batch(corpus[:3])
        foreign = theirs.sketch_batch(corpus[:2])
        with pytest.raises(SketchMismatchError):
            ours.estimate_cross(foreign, bank)
        with pytest.raises(SketchMismatchError):
            ours.estimate_cross(bank, foreign)



class TestWMHKernel:
    def test_cross_equals_scalar_bitwise(self, corpus, query_corpus):
        # The kernel reuses one zeroed terms block for every query and
        # chunk; a leftover term or a -0.0 would show up here.
        sketcher = build("WMH")
        bank = sketcher.sketch_batch(corpus)
        queries = [sketcher.sketch(v) for v in query_corpus]
        cross = sketcher.estimate_cross(sketcher.pack_bank(queries), bank)
        scalar = np.array(
            [
                [sketcher.estimate(q, sketcher.bank_row(bank, j)) for j in range(len(bank))]
                for q in queries
            ]
        )
        assert (cross == 0.0).any()
        np.testing.assert_array_equal(cross.view(np.uint64), scalar.view(np.uint64))

    def test_chunked_cross_equals_unchunked(self, corpus, query_corpus, monkeypatch):
        # 4-row chunks and a 2-row tail: the reused work blocks are sliced
        # per chunk and must stay clean across chunk boundaries.
        import repro.core.wmh as wmh_module

        sketcher = build("WMH")
        bank = sketcher.sketch_batch(corpus)
        queries = sketcher.sketch_batch(query_corpus)
        whole = sketcher.estimate_cross(queries, bank)
        monkeypatch.setattr(wmh_module, "_ESTIMATE_CELL_TARGET", 4 * sketcher.m)
        chunked = sketcher.estimate_cross(queries, bank)
        assert len(bank) % 4 == 2
        np.testing.assert_array_equal(chunked.view(np.uint64), whole.view(np.uint64))
