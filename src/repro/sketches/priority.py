"""Coordinated priority (sequential Poisson) sampling sketch.

The paper's Related Work groups "weighted versions of coordinated
random sampling [Cohen and Kaplan 2007, 2013]" into the Weighted
MinHash family it builds on.  This module implements that member of the
family: **priority sampling** with *coordinated* randomness.

Per index ``j`` with weight ``w_j = a[j]²`` (the same squared-magnitude
measure as Algorithm 3), draw a shared uniform ``u_j`` — shared because
it is a pure function of ``(seed, j)``, so every vector sketched with
the same seed uses the *same* ``u_j`` (Cohen–Kaplan coordination).  The
priority of ``j`` is ``w_j / u_j``; the sketch keeps the ``k`` highest
priorities plus the threshold ``τ`` = the (k+1)-th priority.  Index
``j`` then appears in the sketch with probability ``min(1, w_j / τ)``
(conditionally on τ), and Horvitz–Thompson reweighting gives unbiased
subset-sum estimates.

For inner products between two coordinated sketches: because the
samples share ``u_j``, index ``j`` is in *both* sketches exactly when
``w^a_j / u_j ≥ τ_a`` and ``w^b_j / u_j ≥ τ_b``, i.e. with probability
``min(1, w^a_j/τ_a, w^b_j/τ_b)``; the estimator divides each matched
product by that joint inclusion probability (Cohen & Kaplan, "What you
can do with coordinated samples").

Compared to Weighted MinHash this sketch samples *without* replacement
(k distinct coordinates) and needs no discretization parameter; it is
included as a second, independently-derived member of the weighted
coordinated family — useful both as a baseline and as a cross-check on
WMH's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import WORDS_PER_SAMPLE_SAMPLING, Sketcher
from repro.hashing.splitmix import counter_uniform, derive_key, mix64
from repro.vectors.sparse import SparseVector, as_sparse_matrix

__all__ = ["PrioritySketch", "PrioritySampling"]


@dataclass(frozen=True)
class PrioritySketch:
    """Top-k coordinated priority sample of one vector.

    ``indices``/``values`` are the sampled coordinates, ``weights``
    their sampling weights (squared values), ``threshold`` the (k+1)-th
    priority (``inf`` when the whole support fit, making inclusion
    certain).
    """

    indices: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    threshold: float
    k: int
    seed: int

    def storage_words(self) -> float:
        # index (32-bit) + value (64-bit) per sample, plus the threshold.
        return WORDS_PER_SAMPLE_SAMPLING * self.k + 1.0


class PrioritySampling(Sketcher):
    """Coordinated priority-sampling sketcher with ``k`` retained samples."""

    name = "PS"

    def __init__(self, k: int, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError(f"sample count k must be positive, got {k}")
        self.k = int(k)
        self.seed = int(seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "PrioritySampling":
        k = int(words / WORDS_PER_SAMPLE_SAMPLING)
        return cls(k=max(k, 1), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.k + 1.0

    def _shared_uniforms(self, indices: np.ndarray) -> np.ndarray:
        """The coordinated ``u_j`` — a pure function of ``(seed, j)``."""
        keys = mix64(
            np.asarray(indices, dtype=np.uint64)
            + np.uint64(derive_key(self.seed, 0x5EED))
        )
        return counter_uniform(np.asarray(keys, dtype=np.uint64), 0)

    def sketch(self, vector: SparseVector) -> PrioritySketch:
        if vector.nnz == 0:
            return PrioritySketch(
                indices=np.empty(0, np.int64),
                values=np.empty(0),
                weights=np.empty(0),
                threshold=np.inf,
                k=self.k,
                seed=self.seed,
            )
        weights = vector.values**2
        uniforms = self._shared_uniforms(vector.indices)
        priorities = weights / uniforms
        chosen, threshold = self._select(priorities)
        return PrioritySketch(
            indices=vector.indices[chosen].copy(),
            values=vector.values[chosen].copy(),
            weights=weights[chosen].copy(),
            threshold=threshold,
            k=self.k,
            seed=self.seed,
        )

    def _select(self, priorities: np.ndarray) -> tuple[np.ndarray, float]:
        """Top-``k`` positions by priority plus the (k+1)-th threshold.

        Stable descending order (ties keep the earlier coordinate) so
        the scalar and batch paths select identically.
        """
        order = np.argsort(-priorities, kind="stable")
        if priorities.size <= self.k:
            return order, np.inf  # every coordinate included with certainty
        return order[: self.k], float(priorities[order[self.k]])

    def _bank_params(self) -> dict[str, Any]:
        return {"k": self.k, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {
            "indices": ((self.k,), "<i8"),
            "values": ((self.k,), "<f8"),
            "weights": ((self.k,), "<f8"),
            "counts": ((), "<i8"),
            "thresholds": ((), "<f8"),
        }

    def pack_bank(self, sketches: Sequence[PrioritySketch]) -> SketchBank:
        """Zero-padded ``(N, k)`` sample columns plus per-row counts."""
        count = len(sketches)
        indices = np.zeros((count, self.k), dtype=np.int64)
        values = np.zeros((count, self.k))
        weights = np.zeros((count, self.k))
        counts = np.zeros(count, dtype=np.int64)
        thresholds = np.zeros(count)
        for i, sketch in enumerate(sketches):
            self._require(
                sketch.k == self.k and sketch.seed == self.seed,
                f"query sketch (k={sketch.k}, seed={sketch.seed}) does not "
                f"match sketcher (k={self.k}, seed={self.seed})",
            )
            stored = sketch.indices.size
            indices[i, :stored] = sketch.indices
            values[i, :stored] = sketch.values
            weights[i, :stored] = sketch.weights
            counts[i] = stored
            thresholds[i] = sketch.threshold
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "indices": indices,
                "values": values,
                "weights": weights,
                "counts": counts,
                "thresholds": thresholds,
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> PrioritySketch:
        self._check_bank(bank)
        stored = int(bank.columns["counts"][i])
        return PrioritySketch(
            indices=bank.columns["indices"][i, :stored],
            values=bank.columns["values"][i, :stored],
            weights=bank.columns["weights"][i, :stored],
            threshold=float(bank.columns["thresholds"][i]),
            k=self.k,
            seed=self.seed,
        )

    def sketch_batch(self, matrix: Any) -> SketchBank:
        """Coordinated sampling of all rows from one uniform derivation.

        The coordinated ``u_j`` are a pure function of ``(seed, j)``,
        so the mixing passes — the expensive part of priority sampling —
        run once per *distinct* index in the matrix instead of once per
        ``(row, index)`` cell; the per-row top-``k`` selection then works
        on array slices.  Results are bit-identical to the scalar loop.
        """
        rows = as_sparse_matrix(matrix).without_explicit_zeros()
        indptr = rows.indptr
        all_indices = rows.indices
        all_values = rows.values
        sketches: list[PrioritySketch] = []
        if all_indices.size:
            unique_indices, inverse = np.unique(all_indices, return_inverse=True)
            uniforms = self._shared_uniforms(unique_indices)[inverse]
            weights = all_values**2
            priorities = weights / uniforms
        empty = PrioritySketch(
            indices=np.empty(0, np.int64),
            values=np.empty(0),
            weights=np.empty(0),
            threshold=np.inf,
            k=self.k,
            seed=self.seed,
        )
        for i in range(rows.num_rows):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            if lo == hi:
                sketches.append(empty)
                continue
            chosen, threshold = self._select(priorities[lo:hi])
            sketches.append(
                PrioritySketch(
                    indices=all_indices[lo:hi][chosen],
                    values=all_values[lo:hi][chosen],
                    weights=weights[lo:hi][chosen],
                    threshold=threshold,
                    k=self.k,
                    seed=self.seed,
                )
            )
        return self.pack_bank(sketches)

    def estimate(self, sketch_a: PrioritySketch, sketch_b: PrioritySketch) -> float:
        self._require(
            sketch_a.k == sketch_b.k and sketch_a.seed == sketch_b.seed,
            "priority sketches built with different (k, seed)",
        )
        if sketch_a.indices.size == 0 or sketch_b.indices.size == 0:
            return 0.0
        common, pos_a, pos_b = np.intersect1d(
            sketch_a.indices, sketch_b.indices, return_indices=True
        )
        del common
        if pos_a.size == 0:
            return 0.0
        products = sketch_a.values[pos_a] * sketch_b.values[pos_b]
        # Joint inclusion probability under coordination: the shared u_j
        # must clear both thresholds.
        inclusion_a = (
            np.minimum(1.0, sketch_a.weights[pos_a] / sketch_a.threshold)
            if np.isfinite(sketch_a.threshold)
            else np.ones(pos_a.size)
        )
        inclusion_b = (
            np.minimum(1.0, sketch_b.weights[pos_b] / sketch_b.threshold)
            if np.isfinite(sketch_b.threshold)
            else np.ones(pos_b.size)
        )
        joint = np.minimum(inclusion_a, inclusion_b)
        return float(np.sum(products / joint))

    def estimate_sum(self, sketch: PrioritySketch) -> float:
        """Horvitz–Thompson estimate of ``Σ_j a[j]`` from one sketch."""
        if sketch.indices.size == 0:
            return 0.0
        if not np.isfinite(sketch.threshold):
            return float(sketch.values.sum())
        inclusion = np.minimum(1.0, sketch.weights / sketch.threshold)
        return float(np.sum(sketch.values / inclusion))
