"""Tests for the Figure 3 vector encodings."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datasearch.table import Table
from repro.datasearch.vectorize import (
    indicator_vector,
    key_to_index,
    keys_to_indices,
    squared_value_vector,
    table_row_arrays,
    value_vector,
)
from repro.hashing.primes import MERSENNE_31


@pytest.fixture
def figure2_tables():
    table_a = Table(
        "T_A",
        keys=[1, 3, 4, 5, 6, 7, 8, 9, 11],
        columns={"V": [6.0, 2.0, 6.0, 1.0, 4.0, 2.0, 2.0, 8.0, 3.0]},
    )
    table_b = Table(
        "T_B",
        keys=[2, 4, 5, 8, 10, 11, 12, 15, 16],
        columns={"V": [1.0, 5.0, 1.0, 2.0, 4.0, 2.5, 6.0, 6.0, 3.7]},
    )
    return table_a, table_b


class TestKeyDigests:
    def test_deterministic_across_calls(self):
        assert key_to_index("2022-06-01") == key_to_index("2022-06-01")

    def test_within_domain(self):
        for key in (0, 1, "x", b"y", 3.5, ("a", 1)):
            assert 0 <= key_to_index(key) < MERSENNE_31

    def test_int_and_string_keys_disagree(self):
        # int 1 and "1" are distinct keys.
        assert key_to_index(1) != key_to_index("1")

    def test_numpy_integers_match_python_ints(self):
        assert key_to_index(np.int64(42)) == key_to_index(42)

    def test_collision_free_on_realistic_key_sets(self):
        dates = [f"2022-{month:02d}-{day:02d}" for month in range(1, 13) for day in range(1, 29)]
        digests = keys_to_indices(dates)
        assert np.unique(digests).size == len(dates)

    def test_custom_domain(self):
        assert 0 <= key_to_index("k", domain=101) < 101


class TestEncodings:
    def test_indicator_is_binary(self, figure2_tables):
        table_a, _ = figure2_tables
        vector = indicator_vector(table_a)
        assert np.all(vector.values == 1.0)
        assert vector.nnz == 9

    def test_indicator_inner_product_is_join_size(self, figure2_tables):
        # <x_1[K_A], x_1[K_B]> = |K_A ∩ K_B| = 4 (Figure 2).
        table_a, table_b = figure2_tables
        assert indicator_vector(table_a).dot(indicator_vector(table_b)) == 4.0

    def test_value_indicator_product_is_post_join_sum(self, figure2_tables):
        # <x_{V_A}, x_1[K_B]> = SUM(V_A after join) = 12.0.
        table_a, table_b = figure2_tables
        assert value_vector(table_a, "V").dot(
            indicator_vector(table_b)
        ) == pytest.approx(12.0)

    def test_value_value_product_is_post_join_inner_product(self, figure2_tables):
        # <x_{V_A}, x_{V_B}> = 42.5 (Figure 2/3, bold entries).
        table_a, table_b = figure2_tables
        assert value_vector(table_a, "V").dot(
            value_vector(table_b, "V")
        ) == pytest.approx(42.5)

    def test_squared_value_vector(self, figure2_tables):
        # <x_{V_A^2}, x_1[K_B]> = 36 + 1 + 4 + 9 = 50 (post-join second moment).
        table_a, table_b = figure2_tables
        assert squared_value_vector(table_a, "V").dot(
            indicator_vector(table_b)
        ) == pytest.approx(50.0)

    def test_consistent_indices_across_encodings(self, figure2_tables):
        table_a, _ = figure2_tables
        np.testing.assert_array_equal(
            indicator_vector(table_a).indices, value_vector(table_a, "V").indices
        )

    def test_string_keys_work(self):
        table = Table("t", keys=["a", "b"], columns={"v": [1.0, 2.0]})
        assert value_vector(table, "v").nnz == 2

    def test_zero_values_drop_from_value_vector(self):
        table = Table("t", keys=[1, 2], columns={"v": [0.0, 2.0]})
        assert value_vector(table, "v").nnz == 1
        assert indicator_vector(table).nnz == 2

    @pytest.mark.parametrize("bad", [float("nan"), 1e200])  # 1e200 squared overflows
    def test_fused_encoder_rejects_what_the_per_row_encoders_reject(self, bad):
        table = Table("t", keys=[1, 2, 3], columns={"v": [bad, 1.0, 2.0]})
        with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
            squared_value_vector(table, "v")
        with pytest.raises(ValueError, match="finite"):
            table_row_arrays(table)

    @pytest.mark.parametrize(
        "scale, row",
        [(1e-200, "column 'v'"), (1e-100, "column 'v' \\(squared\\)")],
    )
    def test_row_whose_norm_underflows_is_rejected_by_column(self, scale, row):
        # 1e-200: the value row's squares underflow; 1e-100: the
        # squared row's.  Either norm is 0, which no sketch can scale.
        columns = {"ok": [1.0, 2.0, 3.0], "v": [scale, 2 * scale, 3 * scale]}
        table = Table("t", keys=[1, 2, 3], columns=columns)
        with pytest.raises(ValueError, match=f"{row}: values too small"):
            table_row_arrays(table)

    @pytest.mark.parametrize("scale", [1e78, 1e153])
    def test_row_whose_norm_overflows_is_rejected_by_column(self, scale):
        # Both squares are finite, but the squared row's sum of squares
        # (its norm squared) overflows from about 1e77 / n^(1/4).
        columns = {"ok": [1.0, 2.0, 3.0], "v": [scale, 2 * scale, 3 * scale]}
        table = Table("t", keys=[1, 2, 3], columns=columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a typed error, not an overflow warning
            with pytest.raises(ValueError, match=r"column 'v' \(squared\): values too large"):
                table_row_arrays(table)

    @pytest.mark.parametrize(
        "values",
        [
            [1e-75, 2e-75, 3e-75],  # the smallest scale whose rows all sketch
            [1e-200, 1.0, 0.0],  # one tiny entry beside a normal one
            [1e-300, -1e-300, 5.0],  # a pair that cancels
            [1e76, 2e76, 3e76],  # the squared row's norm is still finite
        ],
    )
    def test_rows_near_the_limit_still_encode_and_sketch(self, values):
        from repro.core.wmh import WeightedMinHash
        from repro.datasearch.vectorize import table_vectors

        table = Table("t", keys=[1, 2, 3], columns={"v": values})
        fused = table_row_arrays(table)
        per_row = [
            indicator_vector(table),
            value_vector(table, "v"),
            squared_value_vector(table, "v"),
        ]
        for (indices, row), vector in zip(fused, per_row):
            np.testing.assert_array_equal(indices, vector.indices)
            np.testing.assert_array_equal(row.view(np.uint64), vector.values.view(np.uint64))
        sketcher = WeightedMinHash(m=16, seed=1, L=1 << 16, cache_bytes=0)
        bank = sketcher.sketch_batch(table_vectors(table))
        for i, vector in enumerate(per_row):
            np.testing.assert_array_equal(bank.columns["hashes"][i], sketcher.sketch(vector).hashes)
