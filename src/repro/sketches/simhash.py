"""SimHash — 1-bit random-projection cosine sketch (Charikar 2002).

Related work in the paper (Section 2, "Locality Sensitive Hashing"):
SimHash stores only the *sign* of each random projection,
``bit_r = sign(<g_r, a>)`` with Gaussian ``g_r``, so a sample costs one
bit instead of one double.  The probability that two vectors disagree
on a bit equals ``θ/π`` (θ = angle between them), giving the estimator

    cos_hat = cos(π · (1 - agreement_fraction))
    <a, b>  ≈ ||a|| ||b|| · cos_hat.

SimHash can be viewed as a 1-bit quantized JL sketch; the paper cites
it when discussing sketch quantization as future work.  We include it
as an extension baseline in the ablation benchmarks: at equal *storage*
it gets 64x more samples than JL, but its per-sample information is far
lower, and its error does not benefit from support sparsity.

Projection vectors are derived on demand: entry ``g[r, j]`` comes from
a Box–Muller transform of two splitmix64 stream draws keyed on
``(seed, r, j)``, so sketches computed independently agree on ``g``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.hashing.splitmix import counter_uniform, derive_key_grid
from repro.vectors.sparse import SparseVector

__all__ = ["SimHashSketch", "SimHash"]

#: SimHash samples are single bits: 64 of them per 64-bit word.
BITS_PER_WORD = 64


@dataclass(frozen=True)
class SimHashSketch:
    """``m`` projection-sign bits plus the vector norm."""

    bits: np.ndarray
    norm: float
    m: int
    seed: int

    def storage_words(self) -> float:
        # Bits pack 64 per word; the norm costs one more word.
        return self.m / BITS_PER_WORD + 1.0


class SimHash(Sketcher):
    """1-bit Gaussian projection sketch with ``m`` bits."""

    name = "SimHash"

    def __init__(self, m: int, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"bit count m must be positive, got {m}")
        self.m = int(m)
        self.seed = int(seed)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "SimHash":
        bits = max(int((words - 1) * BITS_PER_WORD), 1)
        return cls(m=bits, seed=seed, **kwargs)

    def storage_words(self) -> float:
        return self.m / BITS_PER_WORD + 1.0

    def _gaussians(self, indices: np.ndarray) -> np.ndarray:
        """``(m, nnz)`` Gaussian projection entries via Box–Muller."""
        keys = derive_key_grid(self.seed, np.arange(self.m, dtype=np.int64), indices)
        u1 = counter_uniform(keys, 0)
        u2 = counter_uniform(keys, 1)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)

    def sketch(self, vector: SparseVector) -> SimHashSketch:
        if vector.nnz == 0:
            return SimHashSketch(
                bits=np.zeros(self.m, dtype=bool),
                norm=0.0,
                m=self.m,
                seed=self.seed,
            )
        projections = self._gaussians(vector.indices) @ vector.values
        return SimHashSketch(
            bits=projections >= 0.0,
            norm=vector.norm(),
            m=self.m,
            seed=self.seed,
        )

    def estimate_cosine(self, sketch_a: SimHashSketch, sketch_b: SimHashSketch) -> float:
        """Estimate ``cos(angle(a, b))`` from bit agreement."""
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "SimHash sketches built with different (m, seed)",
        )
        agreement = float(np.mean(sketch_a.bits == sketch_b.bits))
        return math.cos(math.pi * (1.0 - agreement))

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {"bits": ((self.m,), "|b1"), "norms": ((), "<f8")}

    def pack_bank(self, sketches: Sequence[SimHashSketch]) -> SketchBank:
        for sketch in sketches:
            self._require(
                sketch.m == self.m and sketch.seed == self.seed,
                f"query sketch (m={sketch.m}, seed={sketch.seed}) does not "
                f"match sketcher (m={self.m}, seed={self.seed})",
            )
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "bits": np.array([s.bits for s in sketches], bool).reshape(
                    len(sketches), self.m
                ),
                "norms": np.array([s.norm for s in sketches], np.float64),
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> SimHashSketch:
        self._check_bank(bank)
        return SimHashSketch(
            bits=bank.columns["bits"][i],
            norm=float(bank.columns["norms"][i]),
            m=self.m,
            seed=self.seed,
        )

    def estimate(self, sketch_a: SimHashSketch, sketch_b: SimHashSketch) -> float:
        self._require(
            sketch_a.m == sketch_b.m and sketch_a.seed == sketch_b.seed,
            "SimHash sketches built with different (m, seed)",
        )
        if sketch_a.norm == 0.0 or sketch_b.norm == 0.0:
            return 0.0
        return sketch_a.norm * sketch_b.norm * self.estimate_cosine(sketch_a, sketch_b)
