"""Tests for the SketchBank container and the generic batch fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bank import SketchBank
from repro.core.median import MedianBoosted
from repro.core.wmh import WeightedMinHash
from repro.sketches.minhash import MinHash
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix


def make_vectors(count: int = 6, seed: int = 0) -> list[SparseVector]:
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(count):
        indices = rng.choice(500, size=40, replace=False)
        vectors.append(SparseVector(indices, rng.normal(size=40)))
    return vectors


class TestSketchBank:
    def test_requires_columns(self):
        with pytest.raises(ValueError, match="at least one column"):
            SketchBank(kind="x", params={}, columns={})

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="disagree"):
            SketchBank(
                kind="x",
                params={},
                columns={"a": np.zeros(3), "b": np.zeros((4, 2))},
            )

    def test_len_and_storage(self):
        sketcher = WeightedMinHash(m=16, seed=0)
        bank = sketcher.sketch_batch(make_vectors(5))
        assert len(bank) == 5
        assert bank.storage_words() == pytest.approx(5 * sketcher.storage_words())

    def test_slicing_is_row_selection(self):
        sketcher = WeightedMinHash(m=16, seed=0)
        bank = sketcher.sketch_batch(make_vectors(6))
        part = bank[1:4]
        assert len(part) == 3
        np.testing.assert_array_equal(
            part.columns["hashes"], bank.columns["hashes"][1:4]
        )
        single = bank[2]
        assert len(single) == 1

    def test_boolean_mask_selection(self):
        sketcher = WeightedMinHash(m=16, seed=0)
        bank = sketcher.sketch_batch(make_vectors(6))
        mask = np.array([True, False, True, False, True, False])
        assert len(bank[mask]) == 3

    def test_concat_roundtrip(self):
        sketcher = WeightedMinHash(m=16, seed=0)
        vectors = make_vectors(6)
        whole = sketcher.sketch_batch(vectors)
        glued = SketchBank.concat([whole[0:2], whole[2:6]])
        np.testing.assert_array_equal(
            glued.columns["hashes"], whole.columns["hashes"]
        )

    def test_concat_rejects_mismatched_params(self):
        a = WeightedMinHash(m=16, seed=0).sketch_batch(make_vectors(2))
        b = WeightedMinHash(m=16, seed=1).sketch_batch(make_vectors(2))
        with pytest.raises(ValueError, match="cannot concatenate"):
            SketchBank.concat([a, b])


def median_sketcher() -> MedianBoosted:
    return MedianBoosted(lambda seed: MinHash(m=16, seed=seed), t=3)


class TestGenericFallback:
    """Wrappers without a bank layout keep the object-bank fallback."""

    def test_object_bank_shape(self):
        sketcher = median_sketcher()
        assert sketcher.bank_layout() is None
        bank = sketcher.sketch_batch(make_vectors(4))
        assert bank.is_object_bank()
        assert len(bank) == 4

    def test_estimate_many_matches_scalar(self):
        sketcher = median_sketcher()
        vectors = make_vectors(5)
        bank = sketcher.sketch_batch(vectors)
        query = sketcher.sketch(vectors[0])
        loop = np.array(
            [sketcher.estimate(query, sketcher.sketch(v)) for v in vectors]
        )
        np.testing.assert_array_equal(sketcher.estimate_many(query, bank), loop)

    def test_bank_row_returns_scalar_sketch(self):
        sketcher = median_sketcher()
        vectors = make_vectors(3)
        bank = sketcher.sketch_batch(vectors)
        row = sketcher.bank_row(bank, 1)
        expected = sketcher.sketch(vectors[1])
        for got, want in zip(row.parts, expected.parts):
            np.testing.assert_array_equal(got.hashes, want.hashes)


class TestSparseMatrix:
    def test_from_rows_roundtrip(self):
        vectors = make_vectors(4)
        matrix = SparseMatrix.from_rows(vectors)
        assert matrix.num_rows == 4
        assert matrix.nnz == sum(v.nnz for v in vectors)
        for i, vector in enumerate(vectors):
            assert matrix.row(i) == vector

    def test_from_dense(self):
        dense = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 3.0]])
        matrix = SparseMatrix.from_dense(dense)
        np.testing.assert_array_equal(matrix.row(1).to_dense(3), dense[1])

    def test_empty_rows_kept(self):
        matrix = SparseMatrix.from_rows([SparseVector.zero(), make_vectors(1)[0]])
        assert matrix.num_rows == 2
        assert matrix.row(0).nnz == 0

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix([1, 2], [0], [1.0])

    def test_as_sparse_matrix_coercions(self):
        vectors = make_vectors(2)
        assert isinstance(as_sparse_matrix(vectors), SparseMatrix)
        matrix = SparseMatrix.from_rows(vectors)
        assert as_sparse_matrix(matrix) is matrix
        assert as_sparse_matrix(np.eye(3)).num_rows == 3
        with pytest.raises(TypeError, match="single SparseVector"):
            as_sparse_matrix(vectors[0])

    def test_iteration(self):
        vectors = make_vectors(3)
        matrix = SparseMatrix.from_rows(vectors)
        assert [v.nnz for v in matrix] == [v.nnz for v in vectors]
