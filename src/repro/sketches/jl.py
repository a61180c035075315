"""Johnson–Lindenstrauss / AMS sign projection (baseline "JL").

The classic linear sketch of Fact 1: ``S(a) = Πa`` for a random
``m x n`` matrix ``Π`` with i.i.d. ``±1/sqrt(m)`` entries, estimated by
the sketch inner product ``<S(a), S(b)>``.  This is the "tug-of-war" /
AMS sketch of Alon–Matias–Szegedy and the dense-projection JL transform
of Achlioptas (binary-coin variant).

Guarantee (Fact 1): with ``m = O(log(1/δ)/ε²)`` rows,
``|<S(a),S(b)> - <a,b>| <= ε ||a|| ||b||`` with probability ``1 - δ`` —
optimal for dense vectors, but insensitive to support overlap, which is
exactly the weakness Theorem 2 exploits.

Implementation: the matrix is never materialized.  Column ``j`` of
``Π`` is derived on demand from a splitmix64 stream keyed on
``(seed, j)``, so sketching touches only the non-zero entries
(``O(nnz * m)``) and works over open index domains, while two machines
sketching different vectors still agree on ``Π``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.hashing.splitmix import counter_uniform, derive_key_grid
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = ["JLSketch", "JohnsonLindenstrauss"]


@dataclass(frozen=True)
class JLSketch:
    """A linear sketch ``Πa``: ``m`` doubles (1 word each)."""

    projection: np.ndarray
    m: int
    seed: int

    def storage_words(self) -> float:
        return float(self.m)


class JohnsonLindenstrauss(Sketcher):
    """Dense ±1 random projection sized ``m`` rows."""

    name = "JL"

    def __init__(self, m: int, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"row count m must be positive, got {m}")
        self.m = int(m)
        self.seed = int(seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "JohnsonLindenstrauss":
        """Linear sketches store one 64-bit double per row: ``m = words``."""
        return cls(m=max(int(words), 1), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return float(self.m)

    def _signs(self, indices: np.ndarray) -> np.ndarray:
        """The ``(m, nnz)`` block of ``Π`` restricted to ``indices``.

        Entry ``(r, j)`` is ``+1`` or ``-1`` according to one uniform
        draw of the stream keyed on ``(seed, r, indices[j])``.
        """
        keys = derive_key_grid(self.seed, np.arange(self.m, dtype=np.int64), indices)
        uniforms = counter_uniform(keys, 0)
        return np.where(uniforms < 0.5, -1.0, 1.0)

    def sketch(self, vector: SparseVector) -> JLSketch:
        if vector.nnz == 0:
            return JLSketch(projection=np.zeros(self.m), m=self.m, seed=self.seed)
        signs = self._signs(vector.indices)
        # einsum (not BLAS matvec) so the contraction order is
        # deterministic and identical to the batch path.
        projection = np.einsum("mn,n->m", signs, vector.values) / np.sqrt(self.m)
        return JLSketch(projection=projection, m=self.m, seed=self.seed)

    def estimate(self, sketch_a: JLSketch, sketch_b: JLSketch) -> float:
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "JL sketches built with different (m, seed) are not comparable",
        )
        # einsum (not BLAS dot) so the scalar path reduces in exactly
        # the same order as estimate_cross's row-wise contraction.
        return float(np.einsum("m,m->", sketch_a.projection, sketch_b.projection))

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {"projections": ((self.m,), "<f8")}

    def _check_query(self, sketch: JLSketch) -> None:
        self._require(
            sketch.m == self.m and sketch.seed == self.seed,
            f"query sketch (m={sketch.m}, seed={sketch.seed}) does not match "
            f"sketcher (m={self.m}, seed={self.seed})",
        )

    def pack_bank(self, sketches: Sequence[JLSketch]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "projections": np.array(
                    [s.projection for s in sketches], dtype=np.float64
                ).reshape(len(sketches), self.m)
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> JLSketch:
        self._check_bank(bank)
        return JLSketch(
            projection=bank.columns["projections"][i], m=self.m, seed=self.seed
        )

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Project all rows, deriving each distinct column of ``Π`` once.

        The expensive part of JL sketching is deriving the sign columns
        (five mixing passes per ``(row, index)`` cell); indices shared
        across matrix rows are derived once here.  Each row's projection
        is then the same ``signs @ values`` contraction the scalar path
        runs, so results are bit-identical.
        """
        rows = as_sparse_matrix(matrix)
        projections = np.zeros((rows.num_rows, self.m))
        if rows.nnz:
            unique_indices, inverse = np.unique(rows.indices, return_inverse=True)
            unique_signs = self._signs(unique_indices)  # (m, U)
            scale = np.sqrt(self.m)
            indptr = rows.indptr
            for i in range(rows.num_rows):
                lo, hi = int(indptr[i]), int(indptr[i + 1])
                if lo == hi:
                    continue
                # ascontiguousarray: column gathers come out F-ordered,
                # which would change the reduction order vs. the scalar
                # path's C-ordered sign matrix.
                signs = np.ascontiguousarray(unique_signs[:, inverse[lo:hi]])
                projections[i] = np.einsum("mn,n->m", signs, rows.values[lo:hi]) / scale
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"projections": projections},
            words_per_sketch=self.storage_words(),
        )

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """All pairwise projection inner products in one contraction.

        einsum's sequential sum-of-products kernel reduces the shared
        ``m`` axis in the same order as the scalar :meth:`estimate`,
        so every entry is bit-identical to the scalar call.
        """
        self._check_bank(query_bank)
        self._check_bank(bank)
        return np.einsum(
            "qm,nm->qn", query_bank.columns["projections"], bank.columns["projections"]
        )
