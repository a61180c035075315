"""CountSketch (baseline "CS"), Charikar–Chen–Farach-Colton 2002.

A sparse linear sketch: each repetition hashes every index to one of
``w`` buckets with a random sign, and the bucket accumulates the signed
value.  The inner product of two tables is an unbiased estimate of
``<a, b>``; following the paper (and Larsen–Pagh–Tětek 2021), we use
**5 independent repetitions and take the median** of the per-repetition
estimates, with the storage budget split evenly across repetitions.

Both the bucket hash and the sign hash are Carter–Wegman 2-wise
functions modulo the 31-bit Mersenne prime, which is all the analysis
requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.hashing.universal import TwoWiseHashFamily, fold_to_domain
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = ["CountSketchData", "CountSketch", "DEFAULT_REPETITIONS"]

#: The paper follows Larsen et al.: 5 repetitions, median estimate.
DEFAULT_REPETITIONS = 5

#: Cell cap for the per-chunk (queries, rows, repetitions) temporary of
#: ``estimate_cross`` (a few MB), so batched serving never materializes
#: a lake-sized intermediate.
_CROSS_CELL_TARGET = 500_000


@dataclass(frozen=True)
class CountSketchData:
    """``(repetitions, width)`` table of signed bucket sums."""

    table: np.ndarray
    repetitions: int
    width: int
    seed: int

    def storage_words(self) -> float:
        return float(self.repetitions * self.width)


class CountSketch(Sketcher):
    """CountSketch with median-of-repetitions estimation.

    Parameters
    ----------
    width:
        Buckets per repetition.
    repetitions:
        Independent tables; the estimate is their median (default 5).
    seed:
        Seed for the bucket/sign hash families.
    """

    name = "CS"

    def __init__(
        self,
        width: int,
        repetitions: int = DEFAULT_REPETITIONS,
        seed: int = 0,
    ) -> None:
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        if repetitions <= 0:
            raise ValueError(f"repetitions must be positive, got {repetitions}")
        self.width = int(width)
        self.repetitions = int(repetitions)
        self.seed = int(seed)
        # Two independent CW families: bucket placement and signs.
        self._buckets = TwoWiseHashFamily(repetitions, seed=seed * 2 + 1)
        self._signs = TwoWiseHashFamily(repetitions, seed=seed * 2 + 2)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "CountSketch":
        """Split the word budget evenly across the repetitions."""
        repetitions = int(kwargs.pop("repetitions", DEFAULT_REPETITIONS))
        width = max(int(words) // repetitions, 1)
        return cls(width=width, repetitions=repetitions, seed=seed, **kwargs)

    def storage_words(self) -> float:
        return float(self.repetitions * self.width)

    def sketch(self, vector: SparseVector) -> CountSketchData:
        table = np.zeros((self.repetitions, self.width), dtype=np.float64)
        if vector.nnz:
            folded = fold_to_domain(vector.indices)
            buckets = self._buckets.hash_ints(folded) % np.uint64(self.width)
            signs = np.where(
                self._signs.hash_ints(folded) & np.uint64(1), 1.0, -1.0
            )
            for rep in range(self.repetitions):
                np.add.at(
                    table[rep],
                    buckets[rep].astype(np.int64),
                    signs[rep] * vector.values,
                )
        return CountSketchData(
            table=table,
            repetitions=self.repetitions,
            width=self.width,
            seed=self.seed,
        )

    def estimate(self, sketch_a: CountSketchData, sketch_b: CountSketchData) -> float:
        self._require(
            sketch_a.repetitions == sketch_b.repetitions
            and sketch_a.width == sketch_b.width
            and sketch_a.seed == sketch_b.seed,
            "CountSketch tables built with different parameters",
        )
        per_repetition = np.einsum("rw,rw->r", sketch_a.table, sketch_b.table)
        return float(np.median(per_repetition))

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------

    def _bank_params(self) -> dict[str, Any]:
        return {"repetitions": self.repetitions, "width": self.width, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {"tables": ((self.repetitions, self.width), "<f8")}

    def _check_query(self, sketch: CountSketchData) -> None:
        self._require(
            sketch.repetitions == self.repetitions
            and sketch.width == self.width
            and sketch.seed == self.seed,
            f"query table (r={sketch.repetitions}, w={sketch.width}, "
            f"seed={sketch.seed}) does not match sketcher "
            f"(r={self.repetitions}, w={self.width}, seed={self.seed})",
        )

    def pack_bank(self, sketches: Sequence[CountSketchData]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "tables": np.array(
                    [s.table for s in sketches], dtype=np.float64
                ).reshape(len(sketches), self.repetitions, self.width)
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> CountSketchData:
        self._check_bank(bank)
        return CountSketchData(
            table=bank.columns["tables"][i],
            repetitions=self.repetitions,
            width=self.width,
            seed=self.seed,
        )

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Accumulate all rows' tables from one hash pass.

        Bucket and sign hashes are evaluated once per distinct folded
        index in the matrix, then scattered into the per-row tables with
        one ``np.add.at`` per repetition.  The scatter visits entries in
        row order, matching the scalar accumulation order exactly.
        """
        rows = as_sparse_matrix(matrix)
        tables = np.zeros((rows.num_rows, self.repetitions, self.width))
        if rows.nnz:
            folded = fold_to_domain(rows.indices)
            unique_folded, inverse = np.unique(folded, return_inverse=True)
            buckets = (
                self._buckets.hash_ints(unique_folded) % np.uint64(self.width)
            ).astype(np.int64)
            signs = np.where(self._signs.hash_ints(unique_folded) & np.uint64(1), 1.0, -1.0)
            row_ids = np.repeat(np.arange(rows.num_rows), rows.row_sizes())
            for rep in range(self.repetitions):
                np.add.at(
                    tables[:, rep, :],
                    (row_ids, buckets[rep][inverse]),
                    signs[rep][inverse] * rows.values,
                )
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"tables": tables},
            words_per_sketch=self.storage_words(),
        )

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """Median-of-repetitions estimates for every query/row pair.

        The ``w``-contraction runs per bounded bank chunk, so the
        ``(Q, chunk, repetitions)`` per-repetition temporary never
        scales with the lake; einsum reduces ``w`` in the same
        sequential order as the scalar :meth:`estimate` and the median
        is per-pair, so every entry is bit-identical to the scalar
        call.
        """
        self._check_bank(query_bank)
        self._check_bank(bank)
        num_queries = len(query_bank)
        count = len(bank)
        out = np.zeros((num_queries, count))
        if num_queries == 0 or count == 0:
            return out
        query_tables = query_bank.columns["tables"]
        bank_tables = bank.columns["tables"]
        row_chunk = max(
            1, _CROSS_CELL_TARGET // max(num_queries * self.repetitions, 1)
        )
        for lo in range(0, count, row_chunk):
            hi = min(lo + row_chunk, count)
            per_repetition = np.einsum(
                "qrw,nrw->qnr", query_tables, bank_tables[lo:hi]
            )
            out[:, lo:hi] = np.median(per_repetition, axis=2)
        return out
