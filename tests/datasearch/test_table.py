"""Tests for tables and exact join statistics (the Figure 2 example)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasearch.table import AGGREGATORS, Table


@pytest.fixture
def figure2_tables():
    """The exact tables T_A and T_B from Figure 2 of the paper."""
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


class TestTableConstruction:
    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", keys=[1, 1], columns={"v": [1.0, 2.0]})

    def test_rejects_misaligned_column(self):
        with pytest.raises(ValueError, match="align"):
            Table("t", keys=[1, 2], columns={"v": [1.0]})

    def test_string_keys_allowed(self):
        table = Table("t", keys=["2022-01-01", "2022-01-02"], columns={"v": [1.0, 2.0]})
        assert table.num_rows == 2

    def test_column_access(self, figure2_tables):
        table_a, _ = figure2_tables
        assert table_a.column("V")[0] == 6.0

    def test_repr(self, figure2_tables):
        table_a, _ = figure2_tables
        assert "T_A" in repr(table_a)


class TestAggregation:
    def test_aggregated_sum(self):
        table = Table.aggregated(
            "t", keys=[1, 1, 2], columns={"v": [1.0, 2.0, 5.0]}, how="sum"
        )
        assert table.num_rows == 2
        assert table.column("v")[0] == 3.0

    @pytest.mark.parametrize(
        "how,expected",
        [("sum", 3.0), ("mean", 1.5), ("min", 1.0), ("max", 2.0), ("first", 1.0), ("count", 2.0)],
    )
    def test_all_aggregators(self, how, expected):
        table = Table.aggregated("t", keys=[7, 7], columns={"v": [1.0, 2.0]}, how=how)
        assert table.column("v")[0] == expected

    def test_aggregator_registry_complete(self):
        assert set(AGGREGATORS) == {"sum", "mean", "min", "max", "first", "count"}

    def test_unknown_aggregator(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            Table.aggregated("t", keys=[1], columns={"v": [1.0]}, how="mode")

    def test_key_order_preserved(self):
        table = Table.aggregated("t", keys=[5, 3, 5], columns={"v": [1.0, 2.0, 3.0]})
        assert table.keys == [5, 3]

    @staticmethod
    def reduced_key_by_key(keys, columns, how):
        """The per-key reduction, one aggregator call per key and column."""
        order: dict = {}
        for position, key in enumerate(keys):
            order.setdefault(key, []).append(position)
        return list(order), {
            name: np.array([AGGREGATORS[how](np.asarray(values)[order[key]]) for key in order])
            for name, values in columns.items()
        }

    @pytest.mark.parametrize("how", sorted(AGGREGATORS))
    @pytest.mark.parametrize(
        "keys",
        [["a", "b", "c", "d", "e"], ["a", "b", "a", "c", "b"], [], ["only"]],
        ids=["unique", "mixed_duplicates", "empty", "one_row"],
    )
    def test_equals_the_per_key_reduction_bit_for_bit(self, keys, how):
        values = [-0.0, 0.0, 2.5, -1e-300, 1e300, 7.0][: len(keys)]
        columns = {"v": values, "w": values[::-1]}
        table = Table.aggregated("t", keys=keys, columns=columns, how=how)
        expected_keys, expected = self.reduced_key_by_key(keys, columns, how)
        assert table.keys == expected_keys
        assert table.columns.keys() == expected.keys()
        for name, column in expected.items():
            assert table.column(name).dtype == np.float64
            assert table.column(name).tobytes() == column.astype(np.float64).tobytes()

    @pytest.mark.parametrize("keys", [[1, 2, 3], [1, 1, 2]], ids=["unique", "duplicates"])
    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["short", "long"])
    def test_misaligned_column_is_rejected(self, keys, values):
        with pytest.raises(ValueError, match="'v' must align with the 3 keys"):
            Table.aggregated("t", keys=keys, columns={"v": values})

    def test_unique_keys_do_not_alias_the_callers_column(self):
        values = np.array([1.0, 2.0])
        table = Table.aggregated("t", keys=[1, 2], columns={"v": values})
        values[0] = 9.0
        assert table.column("v").tolist() == [1.0, 2.0]


class TestFigure2Join:
    def test_join_keys(self, figure2_tables):
        table_a, table_b = figure2_tables
        join = table_a.join(table_b)
        assert set(join.keys) == {4, 5, 8, 11}

    def test_size(self, figure2_tables):
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).size == 4

    def test_sum_left(self, figure2_tables):
        # SUM(V_A after join) = 6 + 1 + 2 + 3 = 12.0 (Figure 2).
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).sum("left", "V") == pytest.approx(12.0)

    def test_sum_right(self, figure2_tables):
        # SUM(V_B after join) = 5 + 1 + 2 + 2.5 = 10.5 (Figure 2).
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).sum("right", "V") == pytest.approx(10.5)

    def test_mean_left(self, figure2_tables):
        # MEAN(V_A after join) = 12.0 / 4 = 3.0 (Figure 2).
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).mean("left", "V") == pytest.approx(3.0)

    def test_post_join_inner_product(self, figure2_tables):
        # <V_A, V_B> over joined rows = 6*5 + 1*1 + 2*2 + 3*2.5 = 42.5.
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).inner_product("V", "V") == pytest.approx(42.5)

    def test_join_symmetry_of_size(self, figure2_tables):
        table_a, table_b = figure2_tables
        assert table_a.join(table_b).size == table_b.join(table_a).size

    def test_invalid_side(self, figure2_tables):
        table_a, table_b = figure2_tables
        with pytest.raises(ValueError, match="side"):
            table_a.join(table_b).sum("middle", "V")


class TestJoinStatistics:
    def test_empty_join(self):
        left = Table("l", keys=[1], columns={"v": [1.0]})
        right = Table("r", keys=[2], columns={"v": [1.0]})
        join = left.join(right)
        assert join.size == 0
        assert math.isnan(join.mean("left", "v"))
        assert math.isnan(join.correlation("v", "v"))

    def test_covariance_manual(self):
        left = Table("l", keys=[1, 2, 3], columns={"x": [1.0, 2.0, 3.0]})
        right = Table("r", keys=[1, 2, 3], columns={"y": [2.0, 4.0, 6.0]})
        join = left.join(right)
        x = np.array([1.0, 2.0, 3.0])
        y = 2 * x
        expected = float(np.mean(x * y) - x.mean() * y.mean())
        assert join.covariance("x", "y") == pytest.approx(expected)

    def test_correlation_perfect(self):
        left = Table("l", keys=[1, 2, 3], columns={"x": [1.0, 2.0, 3.0]})
        right = Table("r", keys=[1, 2, 3], columns={"y": [5.0, 7.0, 9.0]})
        assert left.join(right).correlation("x", "y") == pytest.approx(1.0)

    def test_correlation_degenerate_column(self):
        left = Table("l", keys=[1, 2], columns={"x": [1.0, 1.0]})
        right = Table("r", keys=[1, 2], columns={"y": [1.0, 2.0]})
        assert math.isnan(left.join(right).correlation("x", "y"))
