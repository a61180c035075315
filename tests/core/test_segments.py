"""Row chunking for batch sketching."""

from __future__ import annotations

import numpy as np

from repro.core.segments import chunk_boundaries


class TestChunkBoundaries:
    def test_covers_all_rows(self):
        indptr = np.array([0, 5, 5, 9, 40, 41])
        chunks = chunk_boundaries(indptr, target_nnz=10)
        covered = [r for lo, hi in chunks for r in range(lo, hi)]
        assert covered == list(range(5))
