"""Tests for the fast Weighted MinHash sketcher (Algorithm 3)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounding import round_vector
from repro.core.wmh import DEFAULT_L, WeightedMinHash, simulate_block_minima
from repro.vectors.ops import weighted_jaccard_similarity
from repro.vectors.sparse import SparseVector


class TestConstruction:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m must be positive"):
            WeightedMinHash(m=0)

    def test_rejects_bad_L(self):
        with pytest.raises(ValueError, match="L must be >= 1"):
            WeightedMinHash(m=4, L=0)

    def test_from_storage_applies_sampling_cost(self):
        # 1.5 words per sample: 300 words -> 200 samples.
        sketcher = WeightedMinHash.from_storage(300, seed=1)
        assert sketcher.m == 200
        assert sketcher.L == DEFAULT_L

    def test_from_storage_floor_at_one(self):
        assert WeightedMinHash.from_storage(1).m == 1

    def test_storage_words(self):
        assert WeightedMinHash(m=100).storage_words() == pytest.approx(151.0)


class TestSketchBasics:
    def test_deterministic(self, small_pair):
        a, _ = small_pair
        first = WeightedMinHash(m=32, seed=9, L=1 << 16).sketch(a)
        second = WeightedMinHash(m=32, seed=9, L=1 << 16).sketch(a)
        np.testing.assert_array_equal(first.hashes, second.hashes)
        np.testing.assert_array_equal(first.values, second.values)

    def test_different_seeds_differ(self, small_pair):
        a, _ = small_pair
        first = WeightedMinHash(m=32, seed=1, L=1 << 16).sketch(a)
        second = WeightedMinHash(m=32, seed=2, L=1 << 16).sketch(a)
        assert not np.array_equal(first.hashes, second.hashes)

    def test_shapes_and_metadata(self, small_pair):
        a, _ = small_pair
        sketch = WeightedMinHash(m=64, seed=0, L=1 << 16).sketch(a)
        assert sketch.hashes.shape == (64,)
        assert sketch.values.shape == (64,)
        assert sketch.m == 64
        assert sketch.norm == pytest.approx(a.norm())

    def test_hashes_in_unit_interval(self, small_pair):
        a, _ = small_pair
        sketch = WeightedMinHash(m=64, seed=0, L=1 << 16).sketch(a)
        assert sketch.hashes.min() > 0.0
        assert sketch.hashes.max() < 1.0

    def test_values_come_from_rounded_vector(self, small_pair):
        a, _ = small_pair
        L = 1 << 16
        sketch = WeightedMinHash(m=64, seed=0, L=L).sketch(a)
        rounded_values = set(round_vector(a, L).values.tolist())
        assert set(sketch.values.tolist()) <= rounded_values

    def test_zero_vector_sketch(self):
        sketch = WeightedMinHash(m=8, seed=0).sketch(SparseVector.zero())
        assert sketch.norm == 0.0
        assert np.all(np.isinf(sketch.hashes))
        assert np.all(sketch.values == 0.0)

    def test_scale_invariance_of_hashes_and_values(self, small_pair):
        # Algorithm 3 sketches a/||a||, so sketches of a and 1000a
        # differ only in the stored norm.
        a, _ = small_pair
        sketcher = WeightedMinHash(m=48, seed=3, L=1 << 18)
        base = sketcher.sketch(a)
        scaled = sketcher.sketch(a.scaled(1000.0))
        np.testing.assert_array_equal(base.hashes, scaled.hashes)
        np.testing.assert_array_equal(base.values, scaled.values)
        assert scaled.norm == pytest.approx(1000.0 * base.norm)

    def test_identical_vectors_fully_collide(self, small_pair):
        a, _ = small_pair
        sketcher = WeightedMinHash(m=64, seed=5, L=1 << 16)
        np.testing.assert_array_equal(
            sketcher.sketch(a).hashes, sketcher.sketch(a).hashes
        )

    def test_sketch_rounded_requires_matching_L(self, small_pair):
        a, _ = small_pair
        rounded = round_vector(a, 1 << 10)
        with pytest.raises(ValueError, match="L="):
            WeightedMinHash(m=8, L=1 << 12).sketch_rounded(rounded)


class TestRecordSimulation:
    def test_minimum_of_k_uniforms_distribution(self):
        # For a single block with k slots, the simulated minimum must be
        # distributed as the min of k uniforms: mean 1/(k+1).
        for k in (1, 4, 64):
            minima = simulate_block_minima(
                seed=0, m=20_000, block_ids=np.array([7]), counts=np.array([k])
            ).ravel()
            assert minima.mean() == pytest.approx(1.0 / (k + 1), rel=0.05)

    def test_k_equals_one_uses_first_record_only(self):
        minima = simulate_block_minima(
            seed=3, m=100, block_ids=np.array([1]), counts=np.array([1])
        )
        again = simulate_block_minima(
            seed=3, m=100, block_ids=np.array([1]), counts=np.array([1])
        )
        np.testing.assert_array_equal(minima, again)

    def test_nested_prefix_consistency(self):
        # The min over a longer prefix is <= the min over a shorter one,
        # and they agree exactly when no record lands in between.
        short = simulate_block_minima(
            seed=1, m=500, block_ids=np.array([42]), counts=np.array([100])
        ).ravel()
        long = simulate_block_minima(
            seed=1, m=500, block_ids=np.array([42]), counts=np.array([10_000])
        ).ravel()
        assert np.all(long <= short + 1e-18)
        # Agreement probability should be about 100/10000 = 1% ... but
        # conditioned on the record structure it is exactly the fraction
        # of repetitions whose overall argmin falls in the first 100.
        agreement = float(np.mean(long == short))
        assert agreement == pytest.approx(0.01, abs=0.02)

    def test_blocks_are_independent(self):
        minima = simulate_block_minima(
            seed=2,
            m=4_000,
            block_ids=np.array([1, 2]),
            counts=np.array([50, 50]),
        )
        correlation = np.corrcoef(minima[:, 0], minima[:, 1])[0, 1]
        assert abs(correlation) < 0.05

    def test_rejects_zero_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            simulate_block_minima(
                seed=0, m=4, block_ids=np.array([1]), counts=np.array([0])
            )


class TestCollisionStatistics:
    def test_collision_rate_matches_weighted_jaccard(self, pair_factory):
        # Fact 5 claim 1, aggregated over seeds for tight confidence.
        a, b = pair_factory(n=300, nnz=60, overlap=0.3, seed=3)
        expected = weighted_jaccard_similarity(a, b)
        rates = []
        for seed in range(20):
            sketcher = WeightedMinHash(m=500, seed=seed, L=1 << 16)
            rates.append(
                float(
                    np.mean(
                        sketcher.sketch(a).hashes == sketcher.sketch(b).hashes
                    )
                )
            )
        assert np.mean(rates) == pytest.approx(expected, rel=0.15)

    def test_disjoint_vectors_never_collide(self):
        a = SparseVector(np.arange(0, 50), np.ones(50))
        b = SparseVector(np.arange(100, 150), np.ones(50))
        sketcher = WeightedMinHash(m=300, seed=0, L=1 << 14)
        matches = sketcher.sketch(a).hashes == sketcher.sketch(b).hashes
        assert matches.sum() == 0

    def test_matched_values_are_consistent(self, pair_factory):
        # Fact 5 claim 2: on a hash match, stored values must be the
        # rounded entries of the *same* index in both vectors.
        a, b = pair_factory(n=200, nnz=80, overlap=0.5, seed=4)
        L = 1 << 16
        rounded_a = round_vector(a, L)
        rounded_b = round_vector(b, L)

        def indices_for(rounded, value):
            return {
                int(i)
                for i, v in zip(rounded.indices, rounded.values)
                if v == value
            }

        sketcher = WeightedMinHash(m=400, seed=6, L=L)
        sketch_a = sketcher.sketch(a)
        sketch_b = sketcher.sketch(b)
        matches = sketch_a.hashes == sketch_b.hashes
        assert matches.any()
        for position in np.flatnonzero(matches):
            candidates_a = indices_for(rounded_a, sketch_a.values[position])
            candidates_b = indices_for(rounded_b, sketch_b.values[position])
            # The matched sample must be explainable by a shared index.
            assert candidates_a & candidates_b


class TestGroupedSimulation:
    """The fused grouped simulator against the scalar reference."""

    def test_matches_scalar_per_query(self):
        from repro.core.wmh import simulate_block_minima_grouped

        rng = np.random.default_rng(0)
        blocks = np.sort(rng.choice(500, size=12, replace=False))
        indptr = [0]
        counts: list[int] = []
        for _ in blocks:
            ks = sorted(set(rng.integers(1, 10_000, size=3).tolist()))
            counts.extend(ks)
            indptr.append(len(counts))
        grouped = simulate_block_minima_grouped(
            11, 9, blocks, np.array(indptr), np.array(counts)
        )
        column = 0
        for j, block in enumerate(blocks):
            for k in counts[indptr[j] : indptr[j + 1]]:
                reference = simulate_block_minima(
                    11, 9, np.array([block]), np.array([k])
                )
                np.testing.assert_array_equal(grouped[:, column], reference[:, 0])
                column += 1

    def test_rejects_unsorted_counts_within_block(self):
        from repro.core.wmh import simulate_block_minima_grouped

        with pytest.raises(ValueError, match="ascending"):
            simulate_block_minima_grouped(
                0, 4, np.array([3]), np.array([0, 2]), np.array([9, 5])
            )

    def test_descending_across_block_boundary_allowed(self):
        from repro.core.wmh import simulate_block_minima_grouped

        result = simulate_block_minima_grouped(
            0, 4, np.array([3, 7]), np.array([0, 1, 2]), np.array([9, 5])
        )
        assert result.shape == (4, 2)

    def test_tiny_max_rounds_raises(self):
        from repro.core.wmh import simulate_block_minima_grouped

        # ~18 records per stream at k = 2**26: two rounds cannot finish.
        with pytest.raises(RuntimeError, match="did not converge"):
            simulate_block_minima_grouped(
                0, 4, np.array([3]), np.array([0, 1]), np.array([1 << 26]), max_rounds=2
            )


@st.composite
def grouped_queries(draw):
    """``(seed, m, block_ids, query_indptr, query_counts)`` for the
    grouped simulator: blocks with one query or about a break-even's
    worth, each sorted, with duplicates, ``k = 1``, ``k = L``, and
    counts on and beside the block's real record positions."""
    from repro.core.wmh import _break_even_columns, simulate_block_records

    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.sampled_from([1, 3, 8]))
    L = draw(st.sampled_from([1, 5, 1 << 12, 1 << 26]))
    block_ids = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True))
    sizes = [1, math.ceil(_break_even_columns(m, L))]
    indptr, counts = [0], []
    for block in block_ids:
        _, positions, _ = simulate_block_records(seed, m, np.array([block]), np.array([L]))
        records = sorted({int(p) for p in positions})
        boundary = [k for p in records for k in (p - 1, p, p + 1) if 1 <= k <= L]
        pool = st.one_of(
            st.sampled_from([1, L]), st.sampled_from(boundary), st.integers(1, L)
        )
        size = draw(st.sampled_from(sizes))
        block_counts = sorted(draw(st.lists(pool, min_size=size, max_size=size)))
        counts += block_counts
        indptr.append(len(counts))
    return seed, m, np.array(block_ids), np.array(indptr), np.array(counts)


class TestGroupedSimulationProperties:
    """Every column of the fused simulator, unsplit and split across
    threads, equals the record simulator's last record at ``<= k``."""

    @staticmethod
    def reference(seed, m, block_ids, query_indptr, query_counts) -> np.ndarray:
        blocks = np.repeat(block_ids, np.diff(query_indptr))
        return simulate_block_minima(seed, m, blocks, query_counts)

    @settings(deadline=None, max_examples=60)
    @given(case=grouped_queries())
    def test_matches_the_record_simulator_column_by_column(self, case):
        from repro.core.wmh import simulate_block_minima_grouped

        expected = self.reference(*case)
        got = simulate_block_minima_grouped(*case)
        assert got.shape == expected.shape
        for q in range(got.shape[1]):
            np.testing.assert_array_equal(
                got[:, q].view(np.uint64), expected[:, q].view(np.uint64)
            )

    @settings(deadline=None, max_examples=30)
    @given(case=grouped_queries())
    def test_split_matches_the_record_simulator(self, case):
        from repro.core import wmh

        expected = self.reference(*case)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(wmh, "_KERNEL_THREADS", 2)
            patch.setattr(wmh, "_MIN_PART_CELLS", 1)
            got = wmh._simulate_split(*case)
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.uint64), expected.T.copy().view(np.uint64))


class TestBatchZeroRows:
    def test_explicit_zero_rows_get_empty_sentinel(self):
        from repro.vectors.sparse import SparseMatrix

        # The CSR constructor, unlike SparseVector, keeps explicit
        # zeros; an all-zero row is the zero vector and must sketch to
        # the empty sentinel, not crash the rounding.
        matrix = SparseMatrix(
            np.array([0, 2, 4]),
            np.array([1, 2, 3, 4]),
            np.array([0.0, 0.0, 1.0, 2.0]),
        )
        sketcher = WeightedMinHash(m=8, seed=1, L=1 << 12, cache_bytes=0)
        bank = sketcher.sketch_batch(matrix)
        zero_row = sketcher.bank_row(bank, 0)
        assert np.all(np.isinf(zero_row.hashes))
        assert np.all(zero_row.values == 0.0)
        assert zero_row.norm == 0.0
        # Mixed rows (explicit zero next to real entries) must match
        # the scalar path, which drops the zeros in SparseVector.
        scalar = sketcher.sketch(matrix.row(1))
        live_row = sketcher.bank_row(bank, 1)
        np.testing.assert_array_equal(live_row.hashes, scalar.hashes)
        np.testing.assert_array_equal(live_row.values, scalar.values)
