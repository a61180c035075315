"""Batch-contract tests, parametrized across every registered sketcher.

Three contracts every sketcher must honor:

* **equivalence** — ``sketch_batch`` / ``estimate_many`` results are
  *exactly* equal (same seed) to the scalar loop, not just close;
* **storage** — ``from_storage(w)`` never overshoots the word budget by
  more than one sampling entry (1.5 words);
* **safety** — ``estimate`` and ``estimate_many`` raise
  :class:`SketchMismatchError` on mismatched seed / size / ``L``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SketchMismatchError
from repro.core.wmh import WeightedMinHash
from repro.data.synthetic import SyntheticConfig, generate_pair
from repro.experiments.runner import method_registry
from repro.sketches.bbit import BbitMinHash
from repro.vectors.sparse import SparseMatrix, SparseVector

REGISTRY = method_registry()
ALL_METHODS = sorted(REGISTRY)

#: Every storable kind: all pack fixed-layout columnar banks whose rows
#: rebuild the scalar sketches exactly.
COLUMNAR = ALL_METHODS + ["bbit"]


def build(name: str, storage: int = 300, seed: int = 3):
    if name == "bbit":
        return BbitMinHash.from_storage(storage, seed=seed)
    return REGISTRY[name].build(storage, seed)


@pytest.fixture(scope="module")
def corpus() -> list[SparseVector]:
    vectors: list[SparseVector] = []
    for i in range(8):
        a, b = generate_pair(SyntheticConfig(n=1_500, nnz=120, overlap=0.3), seed=i)
        vectors.append(a)
        vectors.append(b)
    vectors.append(SparseVector.zero())          # empty row
    vectors.append(SparseVector([7], [3.25]))    # single-entry row
    return vectors


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    def test_estimate_many_equals_scalar_loop(self, name, corpus):
        sketcher = build(name)
        scalar_sketches = [sketcher.sketch(vector) for vector in corpus]
        bank = sketcher.sketch_batch(SparseMatrix.from_rows(corpus))
        assert len(bank) == len(corpus)
        for query_index in (0, 3, len(corpus) - 1):
            query = scalar_sketches[query_index]
            batch = sketcher.estimate_many(query, bank)
            loop = np.array(
                [sketcher.estimate(query, sketch) for sketch in scalar_sketches]
            )
            np.testing.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_bank_rows_reconstruct_scalar_sketches(self, name, corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        for i, vector in enumerate(corpus):
            scalar = sketcher.sketch(vector)
            row = sketcher.bank_row(bank, i)
            for field in scalar.__dataclass_fields__:
                expected = getattr(scalar, field)
                actual = getattr(row, field)
                if isinstance(expected, np.ndarray):
                    np.testing.assert_array_equal(actual, expected)
                    assert actual.dtype == expected.dtype, f"{name}.{field}"
                else:
                    assert actual == expected, f"{name}.{field} differs at row {i}"

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bank_slices_preserve_estimates(self, name, corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        query = sketcher.sketch(corpus[0])
        full = sketcher.estimate_many(query, bank)
        np.testing.assert_array_equal(
            sketcher.estimate_many(query, bank[2:9]), full[2:9]
        )

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_pack_bank_matches_sketch_batch(self, name, corpus):
        sketcher = build(name)
        packed = sketcher.pack_bank([sketcher.sketch(vector) for vector in corpus])
        batch = sketcher.sketch_batch(corpus)
        query = sketcher.sketch(corpus[1])
        np.testing.assert_array_equal(
            sketcher.estimate_many(query, packed),
            sketcher.estimate_many(query, batch),
        )
        layout = {
            column: (tuple(shape), np.dtype(dtype))
            for column, (shape, dtype) in sketcher.bank_layout().items()
        }
        for bank in (packed, batch):
            assert {
                column: (array.shape[1:], array.dtype)
                for column, array in bank.columns.items()
            } == layout
        for column in layout:
            np.testing.assert_array_equal(packed.columns[column], batch.columns[column])


class TestStorageContract:
    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    @pytest.mark.parametrize("words", [4, 16, 100, 301, 1000])
    def test_from_storage_respects_budget(self, name, words):
        sketcher = build(name, storage=words)
        assert sketcher.storage_words() <= words + 1.5

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bank_storage_accounting(self, name, corpus):
        sketcher = build(name)
        bank = sketcher.sketch_batch(corpus)
        assert bank.storage_words() == pytest.approx(
            sketcher.storage_words() * len(corpus)
        )


class TestCrossSketchSafety:
    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    def test_estimate_rejects_mismatched_seed(self, name, small_pair):
        a, b = small_pair
        ours = build(name, seed=1)
        theirs = build(name, seed=2)
        with pytest.raises(SketchMismatchError):
            ours.estimate(ours.sketch(a), theirs.sketch(b))

    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    def test_estimate_rejects_mismatched_size(self, name, small_pair):
        a, b = small_pair
        ours = build(name, storage=300, seed=1)
        theirs = build(name, storage=150, seed=1)
        with pytest.raises(SketchMismatchError):
            ours.estimate(ours.sketch(a), theirs.sketch(b))

    @pytest.mark.parametrize("name", ALL_METHODS + ["bbit"])
    def test_estimate_many_rejects_mismatched_bank(self, name, small_pair):
        a, b = small_pair
        ours = build(name, seed=1)
        theirs = build(name, seed=2)
        bank = theirs.sketch_batch([b])
        with pytest.raises(SketchMismatchError):
            ours.estimate_many(ours.sketch(a), bank)

    def test_wmh_rejects_mismatched_L(self, small_pair):
        a, b = small_pair
        ours = WeightedMinHash(m=64, seed=1, L=1 << 16)
        theirs = WeightedMinHash(m=64, seed=1, L=1 << 20)
        with pytest.raises(SketchMismatchError):
            ours.estimate(ours.sketch(a), theirs.sketch(b))
        with pytest.raises(SketchMismatchError):
            ours.estimate_many(ours.sketch(a), theirs.sketch_batch([b]))

    def test_estimate_many_rejects_foreign_bank_kind(self, small_pair):
        a, b = small_pair
        wmh = build("WMH")
        minhash = build("MH")
        with pytest.raises(SketchMismatchError):
            wmh.estimate_many(wmh.sketch(a), minhash.sketch_batch([b]))


class TestExplicitZeroEntries:
    """CSR inputs may carry explicit zeros that SparseVector drops;
    every batch kernel must behave as if they were never there."""

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_batch_matches_scalar_on_explicit_zero_matrix(self, name):
        matrix = SparseMatrix(
            np.array([0, 3, 4, 6]),
            np.array([1, 2, 3, 5, 2, 9]),
            np.array([1.0, 0.0, 2.0, 0.0, -1.5, 0.5]),
        )
        sketcher = build(name)
        bank = sketcher.sketch_batch(matrix)
        for i in range(matrix.num_rows):
            query = sketcher.sketch(matrix.row(i))
            batch = sketcher.estimate_many(query, bank)
            loop = np.array(
                [
                    sketcher.estimate(query, sketcher.sketch(matrix.row(j)))
                    for j in range(matrix.num_rows)
                ]
            )
            np.testing.assert_array_equal(batch, loop)

    def test_without_explicit_zeros_is_identity_when_clean(self):
        clean = SparseMatrix.from_rows(
            [SparseVector([1, 4], [1.0, 2.0]), SparseVector.zero()]
        )
        assert clean.without_explicit_zeros() is clean
