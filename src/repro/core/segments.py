"""Row chunking for batch sketching.

Batch sketchers lay the non-zeros of many vectors out as one
concatenated axis (the CSR layout of
:class:`~repro.vectors.sparse.SparseMatrix`) and run their per-entry
work — hashing, selection — in vectorized passes over groups of whole
rows.  :func:`chunk_boundaries` picks those groups so each pass's
working set stays bounded however large the matrix is.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chunk_boundaries"]


def chunk_boundaries(indptr: np.ndarray, target_nnz: int) -> list[tuple[int, int]]:
    """Split rows into chunks of roughly ``target_nnz`` total non-zeros.

    Returns ``(row_lo, row_hi)`` pairs covering ``[0, num_rows)``; every
    chunk holds at least one row, so a single huge row still processes.
    Batch sketchers use this to bound the ``(m, chunk_nnz)`` working-set
    size while keeping each numpy call large enough to amortize.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    num_rows = indptr.size - 1
    chunks: list[tuple[int, int]] = []
    lo = 0
    while lo < num_rows:
        hi = int(np.searchsorted(indptr, indptr[lo] + max(target_nnz, 1), side="right")) - 1
        hi = min(max(hi, lo + 1), num_rows)
        chunks.append((lo, hi))
        lo = hi
    return chunks
