"""Ioffe's Improved Consistent Weighted Sampling (ICWS, ICDM 2010).

The paper's Section 5 ("Efficient Weighted Hashing") points at the
Consistent Weighted Sampling family — Manasse et al., Ioffe, Wu et
al. — as the practical way to compute Weighted MinHash without any
expansion at all: ICWS sketches in ``O(nnz * m)`` with **no
discretization parameter L whatsoever**, handling real-valued weights
exactly.  We implement it as the "fast-WMH" extension and cross-check
that its collision rate equals the weighted Jaccard similarity, like
the expansion-based sketch.

Per repetition ``i`` and non-zero index ``j`` with weight
``w_j = ã[j]^2`` (the same squared-normalized sampling measure as
Algorithm 3), draw from the stream keyed ``(seed, i, j)``:

    r ~ Gamma(2,1),  c ~ Gamma(2,1),  β ~ Uniform(0,1)
    t      = floor(ln w_j / r + β)
    ln y   = r (t - β)
    ln s   = ln c - ln y - r

and select ``j* = argmin_j s_j``, emitting the pair ``(j*, t_{j*})``.
Ioffe proves ``Pr[(j*, t*) match] = weighted Jaccard`` of the two
weight vectors, and that the scheme is *consistent*: shrinking a
weight can only move the sample monotonically.

Inner-product estimation: ICWS produces no uniform minimum hash, so
the Flajolet–Martin weighted-union estimator of Algorithm 5 is
unavailable.  Instead we use the identity (valid because both weight
vectors sum to 1): ``M = Σ max = 2/(1 + J̄)``, estimating ``J̄`` by the
observed match rate — the "jaccard" estimator variant of
:mod:`repro.core.estimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import WORDS_PER_SAMPLE_SAMPLING, Sketcher
from repro.core.estimator import estimate_weighted_union_from_jaccard
from repro.hashing.splitmix import counter_uniform, derive_key_grid, mix64
from repro.vectors.sparse import SparseVector

__all__ = ["ICWSSketch", "ICWS"]


@dataclass(frozen=True)
class ICWSSketch:
    """Per repetition: a sample key ``mix(j*, t*)`` and the value ``ã[j*]``."""

    keys: np.ndarray
    values: np.ndarray
    norm: float
    m: int
    seed: int

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.m + 1.0


class ICWS(Sketcher):
    """Consistent Weighted Sampling sketcher over squared-normalized weights."""

    name = "ICWS"

    def __init__(self, m: int, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"sample count m must be positive, got {m}")
        self.m = int(m)
        self.seed = int(seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "ICWS":
        m = int(words / WORDS_PER_SAMPLE_SAMPLING)
        return cls(m=max(m, 1), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.m + 1.0

    def sketch(self, vector: SparseVector) -> ICWSSketch:
        if vector.nnz == 0:
            return ICWSSketch(
                keys=np.zeros(self.m, dtype=np.uint64),
                values=np.zeros(self.m),
                norm=0.0,
                m=self.m,
                seed=self.seed,
            )
        norm = vector.norm()
        unit_values = vector.values / norm
        weights = unit_values**2
        log_w = np.log(weights)

        keys = derive_key_grid(
            self.seed, np.arange(self.m, dtype=np.int64), vector.indices
        )
        # Gamma(2,1) = -ln(u1 * u2); five stream draws per (rep, index).
        r = -np.log(counter_uniform(keys, 0) * counter_uniform(keys, 1))
        c = -np.log(counter_uniform(keys, 2) * counter_uniform(keys, 3))
        beta = counter_uniform(keys, 4)

        t = np.floor(log_w[None, :] / r + beta)
        log_y = r * (t - beta)
        log_score = np.log(c) - log_y - r

        best = np.argmin(log_score, axis=1)
        rows = np.arange(self.m)
        chosen_index = vector.indices[best]
        chosen_t = t[rows, best].astype(np.int64)
        # Combine (index, t) into one comparable 64-bit sample key.
        with np.errstate(over="ignore"):
            sample_keys = mix64(
                chosen_index.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                ^ chosen_t.astype(np.uint64)
            )
        return ICWSSketch(
            keys=np.asarray(sample_keys, dtype=np.uint64),
            values=unit_values[best],
            norm=norm,
            m=self.m,
            seed=self.seed,
        )

    def estimate_weighted_jaccard(self, sketch_a: ICWSSketch, sketch_b: ICWSSketch) -> float:
        """Match-rate estimate of the weighted Jaccard similarity."""
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "ICWS sketches built with different (m, seed)",
        )
        return float(np.mean(sketch_a.keys == sketch_b.keys))

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "seed": self.seed}

    def signature_length(self) -> int:
        return self.m

    def signature_key(self, sketch: ICWSSketch) -> np.ndarray:
        """ICWS sample keys — equality certifies a repetition match."""
        self._check_query(sketch)
        return sketch.keys

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {
            "keys": ((self.m,), "<u8"),
            "values": ((self.m,), "<f8"),
            "norms": ((), "<f8"),
        }

    def _check_query(self, sketch: ICWSSketch) -> None:
        self._require(
            sketch.m == self.m and sketch.seed == self.seed,
            f"query sketch (m={sketch.m}, seed={sketch.seed}) does not match "
            f"sketcher (m={self.m}, seed={self.seed})",
        )

    def pack_bank(self, sketches: Sequence[ICWSSketch]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        shape = (len(sketches), self.m)
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "keys": np.array([s.keys for s in sketches], np.uint64).reshape(shape),
                "values": np.array([s.values for s in sketches], np.float64).reshape(shape),
                "norms": np.array([s.norm for s in sketches], np.float64),
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> ICWSSketch:
        self._check_bank(bank)
        return ICWSSketch(
            keys=bank.columns["keys"][i],
            values=bank.columns["values"][i],
            norm=float(bank.columns["norms"][i]),
            m=self.m,
            seed=self.seed,
        )

    def signature_keys(self, bank: SketchBank) -> np.ndarray:
        self._check_bank(bank)
        return bank.columns["keys"]

    def estimate(self, sketch_a: ICWSSketch, sketch_b: ICWSSketch) -> float:
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "ICWS sketches built with different (m, seed)",
        )
        if sketch_a.norm == 0.0 or sketch_b.norm == 0.0:
            return 0.0
        matches = sketch_a.keys == sketch_b.keys
        m_hat = estimate_weighted_union_from_jaccard(float(matches.mean()))
        q = np.minimum(sketch_a.values**2, sketch_b.values**2)
        products = sketch_a.values * sketch_b.values
        terms = np.where(
            matches & (q > 0.0), products / np.where(q > 0.0, q, 1.0), 0.0
        )
        scaled_sum = (m_hat / self.m) * float(terms.sum())
        return sketch_a.norm * sketch_b.norm * scaled_sum
