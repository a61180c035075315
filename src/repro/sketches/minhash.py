"""Unweighted MinHash inner-product sketch (Algorithms 1 and 2).

The warm-up method of Section 3 and the experimental baseline "MH".
Per repetition ``i``, hash every non-zero index with an independent
function ``h_i`` and keep the minimum hash together with the vector
value at the arg-min index.  Estimation (Algorithm 2):

    Ũ   = m / Σ_i min(H_hash_a[i], H_hash_b[i]) - 1      (union size)
    est = (Ũ/m) Σ_i 1[H_hash_a[i] = H_hash_b[i]] · H_val_a[i] · H_val_b[i]

Ũ is a Flajolet–Martin style distinct-elements estimate of
``|A ∪ B|`` (Lemma 1); matched repetitions are uniform samples from
``A ∩ B`` (Fact 3).  Theorem 4: for entries bounded in ``[-c, c]`` the
error is ``ε c² sqrt(max(|A|,|B|)·|A∩B|)`` — which degrades badly under
heavy entries, the failure mode Weighted MinHash fixes.

Hashing follows the paper's experiments: 2-wise Carter–Wegman functions
modulo the 31-bit Mersenne prime, stored as 32-bit values (hence the
1.5-words-per-sample storage accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import WORDS_PER_SAMPLE_SAMPLING, Sketcher
from repro.core.segments import chunk_boundaries
from repro.hashing.universal import TwoWiseHashFamily, fold_to_domain
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = ["MinHashSketch", "MinHash"]

#: Batch working-set cap (elements of the per-chunk (m, nnz) matrices).
_BATCH_CELL_TARGET = 500_000


@dataclass(frozen=True)
class MinHashSketch:
    """Output of Algorithm 1: ``{H_hash, H_val}``."""

    hashes: np.ndarray
    values: np.ndarray
    m: int
    seed: int

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.m


class MinHash(Sketcher):
    """Unweighted (augmented) MinHash sampling sketch."""

    name = "MH"

    def __init__(self, m: int, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"sample count m must be positive, got {m}")
        self.m = int(m)
        self.seed = int(seed)
        self._family = TwoWiseHashFamily(self.m, seed=self.seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "MinHash":
        m = int(words / WORDS_PER_SAMPLE_SAMPLING)
        return cls(m=max(m, 1), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.m

    def sketch(self, vector: SparseVector) -> MinHashSketch:
        if vector.nnz == 0:
            return MinHashSketch(
                hashes=np.full(self.m, np.inf),
                values=np.zeros(self.m),
                m=self.m,
                seed=self.seed,
            )
        folded = fold_to_domain(vector.indices)
        hashes = self._family.hash_unit(folded)  # (m, nnz)
        best = np.argmin(hashes, axis=1)
        rows = np.arange(self.m)
        return MinHashSketch(
            hashes=hashes[rows, best],
            values=vector.values[best],
            m=self.m,
            seed=self.seed,
        )

    def estimate(self, sketch_a: MinHashSketch, sketch_b: MinHashSketch) -> float:
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "MinHash sketches built with different (m, seed)",
        )
        if not np.isfinite(sketch_a.hashes).any() or not np.isfinite(sketch_b.hashes).any():
            return 0.0
        minima = np.minimum(sketch_a.hashes, sketch_b.hashes)
        union_estimate = sketch_a.m / float(minima.sum()) - 1.0
        matches = sketch_a.hashes == sketch_b.hashes
        matched_products = float(
            np.sum(np.where(matches, sketch_a.values * sketch_b.values, 0.0))
        )
        return (union_estimate / sketch_a.m) * matched_products

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {
            "hashes": ((self.m,), "<f8"),
            "values": ((self.m,), "<f8"),
        }

    def _check_query(self, sketch: MinHashSketch) -> None:
        self._require(
            sketch.m == self.m and sketch.seed == self.seed,
            f"query sketch (m={sketch.m}, seed={sketch.seed}) does not match "
            f"sketcher (m={self.m}, seed={self.seed})",
        )

    def pack_bank(self, sketches: Sequence[MinHashSketch]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        shape = (len(sketches), self.m)
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "hashes": np.array([s.hashes for s in sketches], np.float64).reshape(shape),
                "values": np.array([s.values for s in sketches], np.float64).reshape(shape),
            },
            words_per_sketch=self.storage_words(),
        )

    def signature_length(self) -> int:
        return self.m

    def signature_key(self, sketch: MinHashSketch) -> np.ndarray:
        """Per-repetition minimum hashes, the banded-LSH signature."""
        self._check_query(sketch)
        return sketch.hashes

    def signature_keys(self, bank: SketchBank) -> np.ndarray:
        self._check_bank(bank)
        return bank.columns["hashes"]

    def bank_row(self, bank: SketchBank, i: int) -> MinHashSketch:
        self._check_bank(bank)
        return MinHashSketch(
            hashes=bank.columns["hashes"][i],
            values=bank.columns["values"][i],
            m=self.m,
            seed=self.seed,
        )

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Sketch all rows with one hash pass over the distinct indices.

        The ``m`` Carter–Wegman functions are evaluated once per
        distinct folded index in the matrix (indices shared across rows
        — common vocabulary, common keys — are hashed once).  The
        per-row reduction then runs entirely on packed integer keys
        ``raw_hash << 32 | entry_position``: one unsigned minimum per
        segment yields the minimum hash *and* its first position in a
        single pass, with no float division and no complex temporaries.
        ``(h, position)`` ordering is exactly ``np.argmin`` ordering on
        the unit-interval hashes — ``(h + 1) / p`` is strictly monotone
        in ``h`` — so results are bit-identical to the scalar loop,
        including genuine 31-bit hash-collision ties.
        """
        rows = as_sparse_matrix(matrix).without_explicit_zeros()
        total = rows.num_rows
        hashes = np.full((total, self.m), np.inf)
        values = np.zeros((total, self.m))

        sizes = rows.row_sizes()
        active = sizes > 0
        if active.any():
            # Empty rows contribute no entries, so the concatenated
            # index/value arrays are exactly the active rows' entries.
            row_index = np.flatnonzero(active)
            row_values = rows.values
            indptr = np.concatenate([[0], np.cumsum(sizes[active])])

            folded = fold_to_domain(rows.indices)
            unique_folded, inverse = np.unique(folded, return_inverse=True)
            # (U, m) row-major so each entry's gather is one contiguous
            # row copy; pre-shifted so the chunk loop only adds
            # positions.
            unique_keys = np.ascontiguousarray(
                self._family.hash_ints(unique_folded).T
            ) << np.uint64(32)

            for lo, hi in chunk_boundaries(
                indptr, _BATCH_CELL_TARGET // max(self.m, 1)
            ):
                lo_nnz, hi_nnz = int(indptr[lo]), int(indptr[hi])
                if hi_nnz - lo_nnz >= 1 << 32:
                    raise ValueError(
                        "a single row exceeds 2**32 non-zeros; cannot pack "
                        "positions into the reduction keys"
                    )
                gathered = unique_keys[inverse[lo_nnz:hi_nnz]]
                gathered += np.arange(hi_nnz - lo_nnz, dtype=np.uint64)[:, None]
                reduced = np.minimum.reduceat(
                    gathered, (indptr[lo:hi] - lo_nnz), axis=0
                )
                argpos = (reduced & np.uint64(0xFFFFFFFF)).astype(np.int64) + lo_nnz
                chunk_rows = row_index[lo:hi]
                hashes[chunk_rows] = (
                    (reduced >> np.uint64(32)).astype(np.float64) + 1.0
                ) / self._family.prime
                values[chunk_rows] = row_values[argpos]

        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"hashes": hashes, "values": values},
            words_per_sketch=self.storage_words(),
        )

    def _estimate_block(
        self,
        query_hashes: np.ndarray,
        query_values: np.ndarray,
        bank_hashes: np.ndarray,
        bank_values: np.ndarray,
    ) -> np.ndarray:
        """Algorithm 2 of one query against a ``(rows, m)`` bank block.

        Each row's full-width arithmetic is the scalar estimator's, so
        every value is bit-identical to it.  A non-empty sketch's hashes
        are all finite, so an empty row (all ``+inf``) matches nothing
        and its estimate comes out exactly ``+0.0`` — no activity mask
        needed.
        """
        minima = np.minimum(query_hashes, bank_hashes)
        union_estimate = self.m / minima.sum(axis=-1) - 1.0
        matches = query_hashes == bank_hashes
        matched_products = np.sum(
            np.where(matches, query_values * bank_values, 0.0), axis=-1
        )
        return (union_estimate / self.m) * matched_products

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """Algorithm 2 for every query/row pair, one bank traversal.

        Every entry is bit-identical to the scalar :meth:`estimate`.
        Bank-chunk-outer / query-inner loop nest: each bounded
        ``(row_chunk, m)`` bank slice (about :data:`_BATCH_CELL_TARGET`
        elements) stays cache-resident while the whole query batch
        scores against it, so the bank streams through memory once per
        batch instead of once per query.
        """
        self._check_bank(query_bank)
        self._check_bank(bank)
        num_queries = len(query_bank)
        count = len(bank)
        out = np.zeros((num_queries, count))
        if num_queries == 0 or count == 0:
            return out
        q_hashes = query_bank.columns["hashes"]
        q_values = query_bank.columns["values"]
        bank_hashes = bank.columns["hashes"]
        bank_values = bank.columns["values"]
        row_chunk = max(1, _BATCH_CELL_TARGET // max(self.m, 1))
        for lo in range(0, count, row_chunk):
            hi = min(lo + row_chunk, count)
            block_hashes = bank_hashes[lo:hi]
            block_values = bank_values[lo:hi]
            for qi in range(num_queries):
                out[qi, lo:hi] = self._estimate_block(
                    q_hashes[qi], q_values[qi], block_hashes, block_values
                )
        # Empty queries estimate exact +0.0; an (empty query, empty
        # row) pair would otherwise produce -0.0 through the inf
        # min-sum.
        out[~np.isfinite(q_hashes).any(axis=1), :] = 0.0
        return out
