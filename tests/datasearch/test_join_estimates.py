"""Tests for sketched join statistics against exact ground truth."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.wmh import WeightedMinHash
from repro.datasearch.join_estimates import JoinSketch, JoinStatisticsEstimator
from repro.datasearch.table import Table
from repro.datasearch.vectorize import (
    indicator_vector,
    squared_value_vector,
    value_vector,
)
from repro.sketches.jl import JohnsonLindenstrauss


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


@pytest.fixture
def estimator(figure2_tables):
    """A high-budget WMH estimator over the Figure 2 tables."""
    table_a, table_b = figure2_tables
    sketcher = WeightedMinHash(m=4_000, seed=5, L=1 << 20)
    return JoinStatisticsEstimator(
        JoinSketch.build(table_a, sketcher), JoinSketch.build(table_b, sketcher)
    )


class TestJoinSketch:
    def test_build_covers_all_columns(self, figure2_tables):
        table_a, _ = figure2_tables
        sketch = JoinSketch.build(table_a, WeightedMinHash(m=32, seed=0))
        assert set(sketch.values) == {"V"}
        assert set(sketch.squares) == {"V"}
        assert sketch.num_rows == 9

    def test_storage_accounting(self, figure2_tables):
        table_a, _ = figure2_tables
        sketcher = WeightedMinHash(m=32, seed=0)
        sketch = JoinSketch.build(table_a, sketcher)
        # indicator + (value + square) per column = 3 sketches.
        assert sketch.storage_words() == pytest.approx(3 * sketcher.storage_words())

    @pytest.mark.parametrize(
        "sketcher",
        [WeightedMinHash(m=32, seed=2, L=1 << 16), JohnsonLindenstrauss(m=32, seed=2)],
    )
    def test_build_matches_the_per_vector_encoders(self, sketcher):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(2, 50))
        values[0, ::7] = 0.0  # exact zeros leave the value supports
        table = Table(
            "mixed",
            keys=[f"k{j}" for j in rng.choice(500, size=50, replace=False)],
            columns={"a": values[0], "b": values[1]},
        )
        built = JoinSketch.build(table, sketcher)
        vectors = [indicator_vector(table)]
        vectors += [value_vector(table, c) for c in ("a", "b")]
        vectors += [squared_value_vector(table, c) for c in ("a", "b")]
        expected = sketcher.bank_to_sketches(sketcher.sketch_batch(vectors))
        got = [built.indicator, built.values["a"], built.values["b"]]
        got += [built.squares["a"], built.squares["b"]]
        for ours, theirs in zip(got, expected):
            for name, field in vars(theirs).items():
                if isinstance(field, np.ndarray):
                    np.testing.assert_array_equal(getattr(ours, name), field)
                else:
                    assert getattr(ours, name) == field

    def test_mixed_methods_rejected(self, figure2_tables):
        table_a, table_b = figure2_tables
        left = JoinSketch.build(table_a, WeightedMinHash(m=32, seed=0))
        right = JoinSketch.build(table_b, JohnsonLindenstrauss(m=32, seed=0))
        with pytest.raises(ValueError, match="same method"):
            JoinStatisticsEstimator(left, right)


class TestFigure2Estimates:
    """Sketched estimates track the exact Figure 2 statistics."""

    def test_join_size(self, estimator):
        assert estimator.join_size() == pytest.approx(4.0, abs=0.6)

    def test_sum_left(self, estimator):
        assert estimator.sum_left("V") == pytest.approx(12.0, abs=2.0)

    def test_sum_right(self, estimator):
        assert estimator.sum_right("V") == pytest.approx(10.5, abs=2.0)

    def test_mean_left(self, estimator):
        assert estimator.mean_left("V") == pytest.approx(3.0, abs=0.8)

    def test_inner_product(self, estimator):
        assert estimator.inner_product("V", "V") == pytest.approx(42.5, abs=7.0)

    def test_join_size_clamped_nonnegative(self, figure2_tables):
        table_a, _ = figure2_tables
        disjoint = Table("d", keys=[100, 200], columns={"V": [1.0, 1.0]})
        sketcher = WeightedMinHash(m=256, seed=1)
        estimator = JoinStatisticsEstimator(
            JoinSketch.build(table_a, sketcher), JoinSketch.build(disjoint, sketcher)
        )
        assert estimator.join_size() >= 0.0


class TestDerivedStatistics:
    def _make_estimator(self, correlation_sign: float, m: int = 4_000):
        rng = np.random.default_rng(3)
        keys = list(range(200))
        x = rng.normal(size=200)
        y = correlation_sign * x + 0.2 * rng.normal(size=200)
        left = Table("l", keys=keys, columns={"x": x})
        right = Table("r", keys=keys, columns={"y": y})
        sketcher = WeightedMinHash(m=m, seed=2, L=1 << 20)
        return (
            JoinStatisticsEstimator(
                JoinSketch.build(left, sketcher), JoinSketch.build(right, sketcher)
            ),
            left.join(right),
        )

    def test_variance_estimate(self):
        estimator, join = self._make_estimator(1.0)
        exact = float(np.var(join.left_columns["x"]))
        assert estimator.variance_left("x") == pytest.approx(exact, rel=0.4)

    def test_positive_correlation_detected(self):
        estimator, join = self._make_estimator(1.0)
        exact = join.correlation("x", "y")
        assert exact > 0.9
        assert estimator.correlation("x", "y") > 0.5

    def test_negative_correlation_detected(self):
        estimator, join = self._make_estimator(-1.0)
        assert estimator.correlation("x", "y") < -0.5

    def test_correlation_clamped(self):
        estimator, _ = self._make_estimator(1.0, m=64)
        correlation = estimator.correlation("x", "y")
        assert math.isnan(correlation) or -1.0 <= correlation <= 1.0

    def test_mean_nan_for_empty_join(self):
        left = Table("l", keys=[1], columns={"x": [1.0]})
        right = Table("r", keys=[999], columns={"y": [1.0]})
        sketcher = WeightedMinHash(m=256, seed=0)
        estimator = JoinStatisticsEstimator(
            JoinSketch.build(left, sketcher), JoinSketch.build(right, sketcher)
        )
        assert math.isnan(estimator.mean_left("x"))

    def test_variance_clamped_nonnegative(self):
        estimator, _ = self._make_estimator(1.0, m=32)
        variance = estimator.variance_left("x")
        assert math.isnan(variance) or variance >= 0.0
