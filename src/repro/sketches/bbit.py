"""b-bit minwise hashing (Li & König, WWW 2010).

Related work in Section 2 of the paper: instead of storing each MinHash
minimum in full, store only its lowest ``b`` bits.  Two minima that
truly coincide (probability = the Jaccard similarity ``J``) always
agree on those bits; two distinct minima still collide by chance with
probability ``~2^-b``.  Inverting

    P[bits match] = J + (1 - J) * 2^-b

turns the observed bit-match rate into an unbiased Jaccard estimate at
``b/64``-th the storage of a full hash — the classic storage/variance
trade-off that motivated the paper's own interest in compact sketches.

Set-intersection estimation additionally stores the exact support
sizes (two integers): ``|A ∩ B| = J/(1+J) * (|A| + |B|)``.  This
sketch targets *binary* vectors (sets); it complements rather than
replaces the value-augmented sketches used for general inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.hashing.universal import TwoWiseHashFamily, fold_to_domain
from repro.vectors.sparse import SparseVector

__all__ = ["BbitSketch", "BbitMinHash"]


@dataclass(frozen=True)
class BbitSketch:
    """``m`` b-bit fingerprints plus the exact support size."""

    bits: np.ndarray
    support_size: int
    m: int
    b: int
    seed: int

    def storage_words(self) -> float:
        # m fingerprints of b bits each, plus one 64-bit size counter.
        return (self.m * self.b) / 64.0 + 1.0


class BbitMinHash(Sketcher):
    """b-bit minwise hashing for set (binary-vector) similarity.

    Parameters
    ----------
    m:
        Number of independent MinHash repetitions.
    b:
        Bits kept per repetition, ``1 <= b <= 32``.
    """

    name = "bbit"

    def __init__(self, m: int, b: int = 1, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"sample count m must be positive, got {m}")
        if not 1 <= b <= 32:
            raise ValueError(f"bit width b must be in [1, 32], got {b}")
        self.m = int(m)
        self.b = int(b)
        self.seed = int(seed)
        self._family = TwoWiseHashFamily(self.m, seed=self.seed)
        self._mask = np.uint64((1 << b) - 1)

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "BbitMinHash":
        b = int(kwargs.pop("b", 1))
        m = max(int((words - 1) * 64 / b), 1)
        return cls(m=m, b=b, seed=seed, **kwargs)

    def storage_words(self) -> float:
        return (self.m * self.b) / 64.0 + 1.0

    def sketch(self, vector: SparseVector) -> BbitSketch:
        """Fingerprint the *support* of ``vector`` (values are ignored)."""
        if vector.nnz == 0:
            return BbitSketch(
                bits=np.zeros(self.m, dtype=np.uint64),
                support_size=0,
                m=self.m,
                b=self.b,
                seed=self.seed,
            )
        folded = fold_to_domain(vector.indices)
        hashes = self._family.hash_ints(folded)  # (m, nnz) integers in [0, p)
        minima_positions = np.argmin(hashes, axis=1)
        rows = np.arange(self.m)
        minima = hashes[rows, minima_positions]
        return BbitSketch(
            bits=minima & self._mask,
            support_size=vector.nnz,
            m=self.m,
            b=self.b,
            seed=self.seed,
        )

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "b": self.b, "seed": self.seed}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {"bits": ((self.m,), "<u8"), "support_sizes": ((), "<i8")}

    def pack_bank(self, sketches: Sequence[BbitSketch]) -> SketchBank:
        for sketch in sketches:
            self._require(
                sketch.m == self.m and sketch.b == self.b and sketch.seed == self.seed,
                f"query sketch (m={sketch.m}, b={sketch.b}, seed={sketch.seed}) "
                f"does not match sketcher (m={self.m}, b={self.b}, seed={self.seed})",
            )
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "bits": np.array([s.bits for s in sketches], np.uint64).reshape(
                    len(sketches), self.m
                ),
                "support_sizes": np.array(
                    [s.support_size for s in sketches], np.int64
                ),
            },
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> BbitSketch:
        self._check_bank(bank)
        return BbitSketch(
            bits=bank.columns["bits"][i],
            support_size=int(bank.columns["support_sizes"][i]),
            m=self.m,
            b=self.b,
            seed=self.seed,
        )

    def estimate_jaccard(self, sketch_a: BbitSketch, sketch_b: BbitSketch) -> float:
        """Collision-corrected Jaccard estimate, clamped to [0, 1]."""
        self._require(
            sketch_a.m == sketch_b.m
            and sketch_a.b == sketch_b.b
            and sketch_a.seed == sketch_b.seed,
            "b-bit sketches built with different (m, b, seed)",
        )
        if sketch_a.support_size == 0 or sketch_b.support_size == 0:
            return 0.0
        match_rate = float(np.mean(sketch_a.bits == sketch_b.bits))
        floor = 2.0**-sketch_a.b
        corrected = (match_rate - floor) / (1.0 - floor)
        return min(max(corrected, 0.0), 1.0)

    def estimate_intersection(
        self, sketch_a: BbitSketch, sketch_b: BbitSketch
    ) -> float:
        """``|A ∩ B| = J/(1+J) * (|A| + |B|)`` from the Jaccard estimate."""
        jaccard = self.estimate_jaccard(sketch_a, sketch_b)
        if jaccard == 0.0:
            return 0.0
        return (
            jaccard
            / (1.0 + jaccard)
            * (sketch_a.support_size + sketch_b.support_size)
        )

    def estimate(self, sketch_a: BbitSketch, sketch_b: BbitSketch) -> float:
        """Inner product = intersection size, valid for binary vectors."""
        return self.estimate_intersection(sketch_a, sketch_b)
