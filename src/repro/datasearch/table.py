"""Minimal relational tables for the dataset-search application.

Section 1.2 of the paper frames dataset search over tables
``T = (K, V_1, ..., V_c)`` with a key column ``K`` and numeric value
columns, joined one-to-one on keys.  This module provides exactly that
data model plus the *exact* join statistics (Figure 2) that the
sketched estimators in :mod:`repro.datasearch.join_estimates` are
validated against.

Many-to-many inputs are reduced to the one-to-one setting by
aggregating duplicate keys, the standard approach the paper cites
(Santos et al. 2021/2022, Kanter & Veeramachaneni 2015).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Table", "JoinResult", "AGGREGATORS"]

#: Named reduction functions for collapsing duplicate keys.
AGGREGATORS: Mapping[str, Callable[[np.ndarray], float]] = {
    "sum": lambda arr: float(arr.sum()),
    "mean": lambda arr: float(arr.mean()),
    "min": lambda arr: float(arr.min()),
    "max": lambda arr: float(arr.max()),
    "first": lambda arr: float(arr[0]),
    "count": lambda arr: float(arr.size),
}


@dataclass(frozen=True)
class JoinResult:
    """Materialized one-to-one join of two tables on their keys."""

    keys: tuple
    left_columns: Mapping[str, np.ndarray]
    right_columns: Mapping[str, np.ndarray]

    @property
    def size(self) -> int:
        """``SIZE`` — number of joined rows (key-intersection size)."""
        return len(self.keys)

    def sum(self, side: str, column: str) -> float:
        """Post-join ``SUM`` of one column (``side`` is 'left'/'right')."""
        return float(self._column(side, column).sum())

    def mean(self, side: str, column: str) -> float:
        """Post-join ``MEAN``; NaN on an empty join."""
        if self.size == 0:
            return float("nan")
        return self.sum(side, column) / self.size

    def inner_product(self, left_column: str, right_column: str) -> float:
        """Post-join ``<V_A, V_B>`` — the Figure 2 headline quantity."""
        return float(
            np.dot(self.left_columns[left_column], self.right_columns[right_column])
        )

    def covariance(self, left_column: str, right_column: str) -> float:
        """Population covariance of two columns over the joined rows."""
        if self.size == 0:
            return float("nan")
        lhs = self.left_columns[left_column]
        rhs = self.right_columns[right_column]
        return float(np.mean(lhs * rhs) - lhs.mean() * rhs.mean())

    def correlation(self, left_column: str, right_column: str) -> float:
        """Pearson correlation over the joined rows; NaN if degenerate."""
        if self.size == 0:
            return float("nan")
        lhs = self.left_columns[left_column]
        rhs = self.right_columns[right_column]
        lhs_std = float(lhs.std())
        rhs_std = float(rhs.std())
        if lhs_std == 0.0 or rhs_std == 0.0:
            return float("nan")
        return self.covariance(left_column, right_column) / (lhs_std * rhs_std)

    def _column(self, side: str, column: str) -> np.ndarray:
        if side == "left":
            return self.left_columns[column]
        if side == "right":
            return self.right_columns[column]
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


@dataclass
class Table:
    """A named table with one key column and numeric value columns.

    Keys may be any hashable values (ints, strings, dates-as-strings);
    they are compared by equality for joins and digested to integer
    vector indices by :mod:`repro.datasearch.vectorize`.
    """

    name: str
    keys: Sequence
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.keys = list(self.keys)
        converted = {}
        for column_name, values in self.columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1 or arr.size != len(self.keys):
                raise ValueError(
                    f"column {column_name!r} must align with the {len(self.keys)} keys"
                )
            converted[column_name] = arr
        self.columns = converted
        if len(set(self.keys)) != len(self.keys):
            raise ValueError(
                f"table {self.name!r} has duplicate keys; call "
                "Table.aggregated(...) to reduce to one row per key"
            )

    @classmethod
    def aggregated(
        cls,
        name: str,
        keys: Iterable,
        columns: Mapping[str, Iterable[float]],
        how: str = "sum",
    ) -> "Table":
        """Build a table, collapsing duplicate keys with ``how``.

        This is the many-to-many → one-to-one reduction (paper,
        footnote 3): dataset-search systems aggregate repeated keys so
        joins become one-to-one.  Keys that are already unique skip the
        per-key reduction: every aggregator but ``count`` reduces one
        value to itself.
        """
        if how not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {how!r}; choose from {sorted(AGGREGATORS)}")
        reduce_fn = AGGREGATORS[how]
        key_list = list(keys)
        column_arrays = {c: np.array(v, dtype=np.float64) for c, v in columns.items()}
        for column_name, values in column_arrays.items():
            if values.shape != (len(key_list),):
                raise ValueError(
                    f"column {column_name!r} must align with the {len(key_list)} keys"
                )
        if how != "count" and len(set(key_list)) == len(key_list):
            if how in ("sum", "mean"):
                for values in column_arrays.values():
                    values += 0.0  # a one-value sum is the value, but -0.0 sums to +0.0
            return cls(name=name, keys=key_list, columns=column_arrays)
        order: dict = {}
        for position, key in enumerate(key_list):
            order.setdefault(key, []).append(position)
        unique_keys = list(order.keys())
        reduced = {
            column_name: np.array(
                [reduce_fn(values[order[key]]) for key in unique_keys]
            )
            for column_name, values in column_arrays.items()
        }
        return cls(name=name, keys=unique_keys, columns=reduced)

    @property
    def num_rows(self) -> int:
        return len(self.keys)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def join(self, other: "Table") -> JoinResult:
        """Exact one-to-one inner join on keys (ground truth)."""
        left_positions = {key: pos for pos, key in enumerate(self.keys)}
        joined_keys = [key for key in other.keys if key in left_positions]
        left_rows = np.array(
            [left_positions[key] for key in joined_keys], dtype=np.int64
        )
        right_positions = {key: pos for pos, key in enumerate(other.keys)}
        right_rows = np.array(
            [right_positions[key] for key in joined_keys], dtype=np.int64
        )
        return JoinResult(
            keys=tuple(joined_keys),
            left_columns={
                name: values[left_rows] for name, values in self.columns.items()
            },
            right_columns={
                name: values[right_rows] for name, values in other.columns.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={self.num_rows}, "
            f"columns={sorted(self.columns)})"
        )
