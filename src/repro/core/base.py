"""Common interface for inner-product sketchers.

Every method evaluated in the paper — linear (JL, CountSketch) and
sampling-based (MinHash, KMV, Weighted MinHash) — fits one contract:

* ``sketch(vector)``  — independently compress one vector;
* ``estimate(sa, sb)`` — approximate ``<a, b>`` from two sketches built
  with identical configuration (same seed / sample count);
* ``sketch_batch(matrix)`` — compress every row of a matrix into a
  columnar :class:`~repro.core.bank.SketchBank`;
* ``estimate_cross(query_bank, bank)`` — approximate every pairwise
  inner product between two banks, returning a ``(Q, N)`` matrix (the
  bank kernel: a batch of analyst queries traverses the stored bank
  once instead of once per query);
* ``estimate_many(query, bank)`` — one query against every bank row,
  the ``Q = 1`` row of ``estimate_cross``.

The batch half of the contract has a correct-but-generic default that
wraps the scalar path (a Python loop over rows and pairs), so every
sketcher is batch-capable out of the box; the methods on the paper's
critical path (WMH, MinHash, KMV, JL, CountSketch) override
``sketch_batch`` and ``estimate_cross`` with truly vectorized kernels
that produce bit-identical results.  Every storable method packs its
banks into fixed-width columns (:meth:`Sketcher.bank_layout`).

The contract also carries the paper's *storage accounting*
(Section 5, "Storage Size"): experiments compare methods at equal
storage measured in 64-bit words.  Linear sketches cost one word per
row; sampling sketches cost 1.5 words per sample (64-bit value +
32-bit hash).  ``from_storage`` converts a word budget into the
method's sample-count parameter so sweeps stay storage-equalized.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.core.bank import OBJECT_COLUMN, SketchBank
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = [
    "Sketcher",
    "SketchBank",
    "SketchMismatchError",
    "WORDS_PER_SAMPLE_SAMPLING",
]

#: A sampling sketch entry = 64-bit value + 32-bit hash = 1.5 words.
WORDS_PER_SAMPLE_SAMPLING = 1.5


class SketchMismatchError(ValueError):
    """Raised when two sketches were not built with matching parameters."""


class Sketcher(abc.ABC):
    """Abstract base for all inner-product sketching methods."""

    #: Human-readable method name used in experiment reports.
    name: str = "abstract"

    @abc.abstractmethod
    def sketch(self, vector: SparseVector) -> Any:
        """Compress ``vector`` into this method's sketch object."""

    @abc.abstractmethod
    def estimate(self, sketch_a: Any, sketch_b: Any) -> float:
        """Estimate ``<a, b>`` from two compatible sketches."""

    @abc.abstractmethod
    def storage_words(self) -> float:
        """Storage footprint of one sketch, in 64-bit words."""

    @classmethod
    @abc.abstractmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "Sketcher":
        """Construct the method sized to a storage budget of ``words``."""

    def estimate_pair(self, a: SparseVector, b: SparseVector) -> float:
        """Convenience: sketch both vectors and estimate in one call."""
        return self.estimate(self.sketch(a), self.sketch(b))

    # ------------------------------------------------------------------
    # batch contract (generic fallbacks; hot methods override)
    # ------------------------------------------------------------------

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Sketch every row of ``matrix`` into one :class:`SketchBank`.

        The default wraps the scalar path row by row and stacks the
        results with :meth:`pack_bank`; vectorized sketchers override
        this with a single pass over the CSR arrays.  Rows are
        independent, so callers may split a matrix into row chunks
        (the streaming ingest pipeline of :mod:`repro.parallel` does,
        across worker processes) and concatenate the banks: the result
        is bit-identical to one call over the whole matrix.
        """
        rows = as_sparse_matrix(matrix)
        return self.pack_bank([self.sketch(row) for row in rows])

    def estimate_many(self, query_sketch: Any, bank: SketchBank) -> np.ndarray:
        """Estimate ``<query, row_i>`` for every bank row.

        Returns a float64 array of length ``len(bank)``: the one-query
        case of :meth:`estimate_cross`, so every sketcher has exactly
        one bank kernel.
        """
        return self.estimate_cross(self.pack_bank([query_sketch]), bank)[0]

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """Estimate ``<query_i, row_j>`` for every query/row pair.

        Returns a float64 array of shape ``(len(query_bank), len(bank))``.
        The default loops the scalar :meth:`estimate` over every pair;
        vectorized sketchers override it to traverse ``bank`` once for
        the whole query batch.
        """
        self._check_bank(query_bank)
        self._check_bank(bank)
        rows = self.bank_to_sketches(bank)
        out = np.zeros((len(query_bank), len(bank)))
        for i in range(len(query_bank)):
            query = self.bank_row(query_bank, i)
            out[i] = [self.estimate(query, row) for row in rows]
        return out

    # ------------------------------------------------------------------
    # signature keys (LSH candidate generation; sampling methods only)
    # ------------------------------------------------------------------

    def signature_length(self) -> int | None:
        """Entries in this method's per-repetition signature, or ``None``.

        Sampling sketchers whose repetitions certify matches by key
        equality (WMH/MinHash hash values, ICWS sample keys) expose
        their signatures for banded LSH candidate generation
        (:mod:`repro.mips.lsh`); linear sketches return ``None``.
        """
        return None

    def signature_key(self, sketch: Any) -> np.ndarray | None:
        """One sketch's signature keys (1-D, ``signature_length`` long)."""
        return None

    def signature_keys(self, bank: SketchBank) -> np.ndarray | None:
        """Signature keys for every bank row (2-D, one row per sketch).

        Methods with a signature override this with a zero-copy view of
        their key column; ``None`` when the method has no signature.
        """
        return None

    def pack_bank(self, sketches: Sequence[Any]) -> SketchBank:
        """Stack scalar sketch objects into a bank.

        The generic fallback keeps the objects in one object-dtype
        column — enough for in-memory use by reference sketchers and
        wrappers.  Every storable kind (``SKETCHER_CLASSES`` in
        :mod:`repro.store.config`) overrides this to stack real field
        arrays matching its :meth:`bank_layout`.
        """
        column = np.empty(len(sketches), dtype=object)
        for i, sketch in enumerate(sketches):
            column[i] = sketch
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={OBJECT_COLUMN: column},
            words_per_sketch=self.storage_words(),
        )

    def bank_row(self, bank: SketchBank, i: int) -> Any:
        """Materialize bank row ``i`` as this method's scalar sketch."""
        self._check_bank(bank)
        if not bank.is_object_bank():
            raise TypeError(
                f"{type(self).__name__} stores banks as object columns; "
                f"got columns {sorted(bank.columns)}"
            )
        return bank.columns[OBJECT_COLUMN][i]

    def bank_to_sketches(self, bank: SketchBank) -> list[Any]:
        """Materialize every bank row as a scalar sketch object."""
        return [self.bank_row(bank, i) for i in range(len(bank))]

    def _bank_params(self) -> dict[str, Any]:
        """Configuration two banks must share to be comparable.

        Subclasses return their identifying parameters (seed, sample
        count, ...).  Used by :meth:`_check_bank` to reject cross-seed
        / cross-size comparisons at the bank level.
        """
        return {}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]] | None:
        """Fixed per-row column layout of this sketcher's banks, if any.

        Maps each bank column name to ``(row_shape, dtype_str)``, where
        ``row_shape`` is the shape of **one row's** entry (``()`` for a
        scalar per row) and ``dtype_str`` is the numpy dtype string
        (e.g. ``"<f8"``).  A non-``None`` layout promises that
        :meth:`sketch_batch` and :meth:`pack_bank` over ``N`` rows
        return exactly these columns with shapes ``(N, *row_shape)`` —
        which lets the streaming ingest pipeline pre-size a shard file
        and let chunk workers write their rows at exact byte offsets,
        and lets a store check every shard it opens.  Every storable
        kind has one; only in-memory sketchers on the object-column
        fallback return ``None``.
        """
        return None

    def _check_bank(self, bank: SketchBank) -> None:
        # Messages are formatted only on failure: every estimate call
        # runs this check.
        if bank.kind != self.name:
            raise SketchMismatchError(
                f"bank holds {bank.kind!r} sketches, sketcher is {self.name!r}"
            )
        expected = self._bank_params()
        if bank.params != expected:
            raise SketchMismatchError(
                f"bank parameters {dict(bank.params)} do not match "
                f"sketcher parameters {expected}"
            )

    @staticmethod
    def _require(condition: bool, message: str) -> None:
        if not condition:
            raise SketchMismatchError(message)
