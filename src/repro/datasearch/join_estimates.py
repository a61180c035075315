"""Sketched post-join statistics (Figure 2 reductions).

Every statistic the paper lists for the dataset-search application is
an inner product of the Figure 3 vector encodings:

========================  =====================================================
statistic                 inner-product reduction
========================  =====================================================
``SIZE(T_A ⋈ T_B)``       ``<x_1[K_A], x_1[K_B]>``
``SUM(V_A⋈)``             ``<x_{V_A}, x_1[K_B]>``
``MEAN(V_A⋈)``            ``SUM / SIZE``
``<V_A⋈, V_B⋈>``          ``<x_{V_A}, x_{V_B}>``
``E[V_A²]`` after join    ``<x_{V_A²}, x_1[K_B]> / SIZE``
``COV, CORR``             combinations of the above (Santos et al. 2021)
========================  =====================================================

:class:`JoinSketch` pre-computes one sketch per encoded vector so a
table is sketched **once** and can then be compared against any other
table's sketch — the whole point of sketch-based dataset search.
:class:`JoinStatisticsEstimator` pairs two such sketches and exposes
the estimated statistics; ``exact_*`` counterparts on
:class:`repro.datasearch.table.JoinResult` provide ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.base import Sketcher
from repro.datasearch.table import Table
from repro.datasearch.vectorize import table_vectors

__all__ = ["JoinSketch", "JoinStatisticsEstimator"]


@dataclass
class JoinSketch:
    """All sketches needed to answer join statistics about one table.

    Holds the sketched indicator vector plus, per numeric column, the
    sketched value and squared-value vectors.
    """

    table_name: str
    sketcher: Sketcher
    indicator: Any
    values: dict[str, Any] = field(default_factory=dict)
    squares: dict[str, Any] = field(default_factory=dict)
    num_rows: int = 0

    @classmethod
    def build(cls, table: Table, sketcher: Sketcher) -> "JoinSketch":
        """Sketch the table's key column and every numeric column.

        All of the table's encoded vectors (indicator + per-column
        value and squared-value vectors) come from the fused
        :func:`table_vectors` encoder, which hashes the keys once, and
        go through one ``sketch_batch`` call.
        """
        columns = list(table.columns)
        bank = sketcher.sketch_batch(table_vectors(table))
        sketches = sketcher.bank_to_sketches(bank)
        sketch = cls(
            table_name=table.name,
            sketcher=sketcher,
            indicator=sketches[0],
            num_rows=table.num_rows,
        )
        for position, column in enumerate(columns):
            sketch.values[column] = sketches[1 + position]
            sketch.squares[column] = sketches[1 + len(columns) + position]
        return sketch

    def storage_words(self) -> float:
        """Total storage of all per-table sketches, in 64-bit words."""
        per_sketch = self.sketcher.storage_words()
        return per_sketch * (1 + 2 * len(self.values))


class JoinStatisticsEstimator:
    """Estimate Figure 2 statistics between two sketched tables."""

    def __init__(self, left: JoinSketch, right: JoinSketch) -> None:
        if type(left.sketcher) is not type(right.sketcher):
            raise ValueError("both tables must be sketched with the same method")
        self.left = left
        self.right = right
        self._sketcher = left.sketcher

    # ------------------------------------------------------------------
    # primitive estimates
    # ------------------------------------------------------------------

    def join_size(self) -> float:
        """``SIZE`` ≈ ``<x_1[K_A], x_1[K_B]>``; clamped to ``>= 0``."""
        return max(
            self._sketcher.estimate(self.left.indicator, self.right.indicator), 0.0
        )

    def sum_left(self, column: str) -> float:
        """``SUM`` of a left column over joined rows."""
        return self._sketcher.estimate(
            self.left.values[column], self.right.indicator
        )

    def sum_right(self, column: str) -> float:
        """``SUM`` of a right column over joined rows."""
        return self._sketcher.estimate(
            self.left.indicator, self.right.values[column]
        )

    def sum_squares_left(self, column: str) -> float:
        """``SUM`` of squared left-column values over joined rows."""
        return self._sketcher.estimate(
            self.left.squares[column], self.right.indicator
        )

    def sum_squares_right(self, column: str) -> float:
        """``SUM`` of squared right-column values over joined rows."""
        return self._sketcher.estimate(
            self.left.indicator, self.right.squares[column]
        )

    def inner_product(self, left_column: str, right_column: str) -> float:
        """Post-join ``<V_A, V_B>``."""
        return self._sketcher.estimate(
            self.left.values[left_column], self.right.values[right_column]
        )

    # ------------------------------------------------------------------
    # derived estimates
    # ------------------------------------------------------------------

    def mean_left(self, column: str) -> float:
        """``MEAN = SUM / SIZE``; NaN when the size estimate is ~0."""
        size = self.join_size()
        if size < 0.5:
            return math.nan
        return self.sum_left(column) / size

    def mean_right(self, column: str) -> float:
        size = self.join_size()
        if size < 0.5:
            return math.nan
        return self.sum_right(column) / size

    def variance_left(self, column: str) -> float:
        """Post-join population variance via ``E[X²] - E[X]²``.

        Negative intermediate values (possible with noisy estimates)
        are clamped to zero.
        """
        size = self.join_size()
        if size < 0.5:
            return math.nan
        mean = self.sum_left(column) / size
        second_moment = self.sum_squares_left(column) / size
        return max(second_moment - mean * mean, 0.0)

    def variance_right(self, column: str) -> float:
        size = self.join_size()
        if size < 0.5:
            return math.nan
        mean = self.sum_right(column) / size
        second_moment = self.sum_squares_right(column) / size
        return max(second_moment - mean * mean, 0.0)

    def covariance(self, left_column: str, right_column: str) -> float:
        """``E[XY] - E[X]E[Y]`` over joined rows."""
        size = self.join_size()
        if size < 0.5:
            return math.nan
        mean_product = self.inner_product(left_column, right_column) / size
        return mean_product - self.mean_left(left_column) * self.mean_right(
            right_column
        )

    def correlation(self, left_column: str, right_column: str) -> float:
        """Pearson correlation estimate, clamped to ``[-1, 1]``.

        This is the join-correlation query of Santos et al. 2021, the
        paper's flagship dataset-search use case.
        """
        variance_l = self.variance_left(left_column)
        variance_r = self.variance_right(right_column)
        if not (variance_l > 0.0 and variance_r > 0.0):
            return math.nan
        raw = self.covariance(left_column, right_column) / math.sqrt(
            variance_l * variance_r
        )
        return max(-1.0, min(1.0, raw))
