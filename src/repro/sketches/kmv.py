"""K-Minimum-Values sketch (baseline "KMV"), Beyer et al. 2007.

Closely related to MinHash but samples *without* replacement: one hash
function ``h`` is applied to every non-zero index and the ``k`` pairs
``(h(j), a[j])`` with the smallest hashes are kept.  Unlike MinHash,
only one hash function is ever evaluated, so sketching costs
``O(nnz + k log k)``.

Estimation follows Beyer et al. (distinct values under multiset
operations) augmented with values as in Santos et al. 2021
(correlation sketches):

* merge the two sketches' distinct hashes and keep the bottom ``k``;
  let ``τ`` be the largest retained hash;
* ``Û = (k - 1) / τ`` estimates ``|A ∪ B|`` (hashes are uniform on
  ``(0, 1]``);
* retained hashes present in *both* sketches are uniform samples of
  ``A ∩ B``; the inner product estimate is
  ``(Û / k) · Σ_matched a[j]·b[j]``.

When a vector has fewer than ``k`` non-zeros the sketch is exact
(stores the whole support) and the union estimator switches to the
exact count of merged distinct hashes.

The batch path stores sketches in inf-padded ``(count, k)`` arrays and
scores each query against every row with one vectorized merge; the
scalar ``estimate`` delegates to the same kernel, so scalar and batch
results are bit-identical by construction.
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

__all__ = ["KMVSketch", "KMinimumValues"]

#: Batch working-set cap (elements of the per-chunk padded matrices).
_BATCH_CELL_TARGET = 8_000_000


@dataclass(frozen=True)
class KMVSketch:
    """Bottom-``k`` hash/value pairs, sorted by hash.

    ``exact`` marks sketches that contain the entire support (vector
    had ``nnz <= k``), in which case no extrapolation is needed.
    """

    hashes: np.ndarray
    values: np.ndarray
    k: int
    seed: int
    exact: bool

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.k


class KMinimumValues(Sketcher):
    """KMV sampling sketch sized to ``k`` retained minima."""

    name = "KMV"

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 1:
            raise ValueError(f"KMV needs k >= 2, got {k}")
        self.k = int(k)
        self.seed = int(seed)
        self._family = TwoWiseHashFamily(1, seed=self.seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "KMinimumValues":
        k = int(words / WORDS_PER_SAMPLE_SAMPLING)
        return cls(k=max(k, 2), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.k

    def sketch(self, vector: SparseVector) -> KMVSketch:
        if vector.nnz == 0:
            return KMVSketch(
                hashes=np.empty(0),
                values=np.empty(0),
                k=self.k,
                seed=self.seed,
                exact=True,
            )
        folded = fold_to_domain(vector.indices)
        raw = self._family.single_ints(0, folded)
        # Bottom-k on packed ``raw_hash << 32 | position`` keys: the
        # integer order is exactly the (hash, first-position) order the
        # estimator's stable merge assumes, hash ties included, and one
        # argpartition + k-element sort replaces the float boundary
        # bookkeeping.  O(nnz + k log k).
        keys = (raw << np.uint64(32)) | np.arange(raw.size, dtype=np.uint64)
        if keys.size <= self.k:
            order = np.argsort(keys)
        else:
            candidates = np.argpartition(keys, self.k - 1)[: self.k]
            order = candidates[np.argsort(keys[candidates])]
        return KMVSketch(
            hashes=(raw[order].astype(np.float64) + 1.0) / self._family.prime,
            values=vector.values[order],
            k=self.k,
            seed=self.seed,
            exact=raw.size <= self.k,
        )

    def estimate_union_size(self, sketch_a: KMVSketch, sketch_b: KMVSketch) -> float:
        """Distinct-elements estimate of ``|A ∪ B|`` (Beyer et al.)."""
        merged = np.union1d(sketch_a.hashes, sketch_b.hashes)
        if merged.size == 0:
            return 0.0
        if sketch_a.exact and sketch_b.exact:
            return float(merged.size)
        k_used = min(self.k, merged.size)
        tau = float(merged[k_used - 1])
        return (k_used - 1) / tau

    def estimate(self, sketch_a: KMVSketch, sketch_b: KMVSketch) -> float:
        self._require(
            sketch_a.k == sketch_b.k and sketch_a.seed == sketch_b.seed,
            "KMV sketches built with different (k, seed)",
        )
        self._check_query(sketch_a)
        # Single source of truth: the scalar estimate is the one-row
        # case of the vectorized merge kernel.
        return float(self._estimate_rows(sketch_a, self.pack_bank([sketch_b]))[0])

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------

    def _bank_params(self) -> dict[str, Any]:
        return {"k": self.k, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {
            "hashes": ((self.k,), "<f8"),
            "values": ((self.k,), "<f8"),
            "sizes": ((), "<i8"),
            "exact": ((), "|b1"),
        }

    def _check_query(self, sketch: KMVSketch) -> None:
        self._require(
            sketch.k == self.k and sketch.seed == self.seed,
            f"query sketch (k={sketch.k}, seed={sketch.seed}) does not match "
            f"sketcher (k={self.k}, seed={self.seed})",
        )

    def pack_bank(self, sketches: Sequence[KMVSketch]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        count = len(sketches)
        hashes = np.full((count, self.k), np.inf)
        values = np.zeros((count, self.k))
        sizes = np.zeros(count, dtype=np.int64)
        exact = np.zeros(count, dtype=bool)
        for i, sketch in enumerate(sketches):
            stored = sketch.hashes.size
            hashes[i, :stored] = sketch.hashes
            values[i, :stored] = sketch.values
            sizes[i] = stored
            exact[i] = sketch.exact
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"hashes": hashes, "values": values, "sizes": sizes, "exact": exact},
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> KMVSketch:
        self._check_bank(bank)
        stored = int(bank.columns["sizes"][i])
        return KMVSketch(
            hashes=bank.columns["hashes"][i, :stored],
            values=bank.columns["values"][i, :stored],
            k=self.k,
            seed=self.seed,
            exact=bool(bank.columns["exact"][i]),
        )

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Sketch all rows with one hash pass over the distinct indices.

        The single KMV hash function is evaluated once per distinct
        folded index in the matrix; the per-row bottom-``k`` selection
        then runs as a padded ``argpartition`` over packed
        ``raw_hash << 32 | position`` keys — ``O(width)`` per row plus a
        ``k``-element sort, instead of a full-width stable argsort.
        The packed-key order is the scalar path's (hash, position)
        order, so results are bit-identical to the scalar loop.
        """
        rows = as_sparse_matrix(matrix).without_explicit_zeros()
        total = rows.num_rows
        hashes = np.full((total, self.k), np.inf)
        values = np.zeros((total, self.k))
        sizes = np.zeros(total, dtype=np.int64)
        exact = np.zeros(total, dtype=bool)

        row_sizes = rows.row_sizes()
        sizes[:] = np.minimum(row_sizes, self.k)
        exact[:] = row_sizes <= self.k

        active = row_sizes > 0
        if active.any():
            row_index = np.flatnonzero(active)
            indptr = np.concatenate([[0], np.cumsum(row_sizes[active])])
            # One multiply-mod per entry is cheaper than deduplicating:
            # KMV evaluates a single hash function, so the sort inside
            # np.unique would cost more than it saves.
            folded = fold_to_domain(rows.indices)
            entry_keys = self._family.single_ints(0, folded) << np.uint64(32)
            # Padding sorts after every real key: its high 32 bits are
            # all-ones, a raw hash is at most prime - 1 < 2**31.
            pad_key = np.uint64(np.iinfo(np.uint64).max)

            for lo, hi in chunk_boundaries(indptr, _BATCH_CELL_TARGET):
                lo_nnz, hi_nnz = int(indptr[lo]), int(indptr[hi])
                if hi_nnz - lo_nnz >= 1 << 32:
                    raise ValueError(
                        "a single row exceeds 2**32 non-zeros; cannot pack "
                        "positions into the selection keys"
                    )
                chunk_sizes = np.diff(indptr[lo : hi + 1])
                width = int(chunk_sizes.max())
                count = hi - lo
                padded = np.full((count, width), pad_key, dtype=np.uint64)
                local_rows = np.repeat(np.arange(count), chunk_sizes)
                local_cols = (
                    np.arange(hi_nnz - lo_nnz)
                    - np.repeat(indptr[lo:hi] - lo_nnz, chunk_sizes)
                )
                padded[local_rows, local_cols] = entry_keys[
                    lo_nnz:hi_nnz
                ] | np.arange(hi_nnz - lo_nnz, dtype=np.uint64)
                keep = min(self.k, width)
                chosen = np.partition(padded, keep - 1, axis=1)[:, :keep]
                chosen.sort(axis=1)
                positions = np.minimum(
                    (chosen & np.uint64(0xFFFFFFFF)).astype(np.int64) + lo_nnz,
                    hi_nnz - 1,  # padding decodes out of range; masked below
                )
                chunk_rows = row_index[lo:hi]
                hashes[chunk_rows, :keep] = (
                    (chosen >> np.uint64(32)).astype(np.float64) + 1.0
                ) / self._family.prime
                values[chunk_rows, :keep] = rows.values[positions]
            # Padding keys decode to garbage hashes/values; restore the
            # sentinel layout (inf hash, zero value) beyond each row's
            # stored size.
            pad_mask = np.arange(self.k)[None, :] >= sizes[:, None]
            hashes[pad_mask] = np.inf
            values[pad_mask] = 0.0

        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"hashes": hashes, "values": values, "sizes": sizes, "exact": exact},
            words_per_sketch=self.storage_words(),
        )

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """Beyer-et-al. estimation for every query/row pair, one query
        at a time (see :meth:`_estimate_rows`)."""
        self._check_bank(query_bank)
        self._check_bank(bank)
        out = np.zeros((len(query_bank), len(bank)))
        for qi in range(len(query_bank)):
            out[qi] = self._estimate_rows(self.bank_row(query_bank, qi), bank)
        return out

    def _estimate_rows(self, query_sketch: KMVSketch, bank: SketchBank) -> np.ndarray:
        """Beyer-et-al. estimation of one query against every bank row.

        Per row the kernel stable-merges the query's and the row's
        sorted hash arrays (ties place the row's copy first, marking a
        shared coordinate), recovers the ``k``-th smallest distinct
        hash ``τ``, and Horvitz–Thompson-weights the matched products —
        the same quantities the classic ``union1d``/``intersect1d``
        formulation produces.  The merge runs over row chunks so its
        ``(rows, 2k)`` merge/argsort temporaries stay bounded on large
        lakes; each row's value is bit-identical to the unchunked pass.
        """
        count = len(bank)
        out = np.zeros(count)
        if query_sketch.hashes.size == 0:
            return out
        width = bank.columns["hashes"].shape[1]
        chunk = max(1, _BATCH_CELL_TARGET // max(width + query_sketch.hashes.size, 1))
        for lo in range(0, count, chunk):
            hi = min(lo + chunk, count)
            out[lo:hi] = self._estimate_block(
                query_sketch,
                bank.columns["hashes"][lo:hi],
                bank.columns["values"][lo:hi],
                bank.columns["sizes"][lo:hi],
                bank.columns["exact"][lo:hi],
            )
        return out

    def _estimate_block(
        self,
        query_sketch: KMVSketch,
        bank_hashes: np.ndarray,
        bank_values: np.ndarray,
        bank_sizes: np.ndarray,
        bank_exact: np.ndarray,
    ) -> np.ndarray:
        """The merge kernel for one chunk of bank rows."""
        count = bank_hashes.shape[0]
        query_hashes = query_sketch.hashes
        query_values = query_sketch.values
        sq = query_hashes.size
        width = bank_hashes.shape[1]

        # Merged view: row hashes first, query hashes appended; stable
        # argsort keeps the row copy of a shared hash before the query
        # copy, so "equal to predecessor" identifies common coordinates.
        combined = np.concatenate(
            [bank_hashes, np.broadcast_to(query_hashes, (count, sq))], axis=1
        )
        order = np.argsort(combined, axis=1, kind="stable")
        merged = np.take_along_axis(combined, order, axis=1)
        from_query = order >= width

        previous = np.empty_like(merged)
        previous[:, 0] = -np.inf
        previous[:, 1:] = merged[:, :-1]
        prev_from_query = np.zeros_like(from_query)
        prev_from_query[:, 1:] = from_query[:, :-1]
        prev_order = np.zeros_like(order)
        prev_order[:, 1:] = order[:, :-1]

        finite = np.isfinite(merged)
        duplicate = (merged == previous) & (from_query != prev_from_query) & finite

        # Distinct union: merged size and the k_used-th smallest value.
        distinct = (~duplicate) & finite
        union_sizes = distinct.sum(axis=1)
        empty_rows = union_sizes == 0
        k_used = np.minimum(self.k, np.maximum(union_sizes, 1))
        distinct_rank = np.cumsum(distinct, axis=1)  # 1-based among distinct
        tau_mask = distinct & (distinct_rank == k_used[:, None])
        tau = np.max(np.where(tau_mask, merged, -np.inf), axis=1)

        # Matched products: at a duplicate position the pair
        # (predecessor, current) holds one row copy and one query copy.
        row_pos = np.where(from_query, prev_order, order)
        query_pos = np.where(from_query, order, prev_order) - width
        query_pos = np.clip(query_pos, 0, sq - 1)
        row_ids = np.arange(count)[:, None]
        products = bank_values[row_ids, np.clip(row_pos, 0, width - 1)] * query_values[
            query_pos
        ]
        within = duplicate & (merged <= tau[:, None])
        matched = np.where(within, products, 0.0).sum(axis=1)

        both_exact = bank_exact & bool(query_sketch.exact)
        with np.errstate(divide="ignore", invalid="ignore"):
            union_estimate = np.where(
                both_exact, union_sizes.astype(np.float64), (k_used - 1) / tau
            )
            scaled = (union_estimate / k_used) * matched
        out = np.where(both_exact, matched, scaled)
        out[empty_rows] = 0.0
        out[bank_sizes == 0] = 0.0
        return out
