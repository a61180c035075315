"""Full-lake reference scorer for dataset search (a test oracle).

Answers one query the slow, obvious way: per-query ``estimate_many``
calls over the *whole* banks (no candidate pruning, no batching), a
Python joinability filter, and the scalar correlation formula of
:class:`~repro.datasearch.join_estimates.JoinStatisticsEstimator` per
candidate column.  The production pipeline
(:meth:`~repro.datasearch.search.DatasetSearch.search_many`) must
reproduce its rankings bit for bit: every bank row's estimate depends
only on that row, so pruning and batching may change the work, never
the answer.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datasearch.join_estimates import JoinSketch
from repro.datasearch.search import DatasetSearch, SearchHit


def correlation(
    size: float,
    sum_left: float,
    sum_squares_left: float,
    sum_right: float,
    sum_squares_right: float,
    inner_product: float,
) -> float:
    """Pearson correlation from the six primitive estimates.

    Mirrors :class:`~repro.datasearch.join_estimates.JoinStatisticsEstimator`
    exactly: NaN when the join-size estimate is below 0.5 or a variance
    degenerates, clamped to ``[-1, 1]`` otherwise.
    """
    if size < 0.5:
        return math.nan
    mean_left = sum_left / size
    mean_right = sum_right / size
    variance_left = max(sum_squares_left / size - mean_left * mean_left, 0.0)
    variance_right = max(sum_squares_right / size - mean_right * mean_right, 0.0)
    if not (variance_left > 0.0 and variance_right > 0.0):
        return math.nan
    covariance = inner_product / size - mean_left * mean_right
    raw = covariance / math.sqrt(variance_left * variance_right)
    return max(-1.0, min(1.0, raw))


def _shortlist(engine: DatasetSearch, query: JoinSketch, candidates: str) -> set[int] | None:
    """The LSH candidate table positions, or ``None`` for a scan."""
    if candidates == "scan":
        return None
    lake_index = engine.index.lsh_index(
        target_sim=engine.min_containment, target_recall=engine.lsh_target_recall
    )
    return set(lake_index.candidate_rows(engine.index.sketcher, query.indicator).tolist())


def full_lake_joinable(
    engine: DatasetSearch, query: JoinSketch, candidates: str | None = None
) -> list[tuple[int, float, float]]:
    """``(table position, join size, containment)`` of every joinable
    table, by containment descending with ties in table order."""
    index = engine.index
    if not index.table_names():
        return []
    sizes = np.maximum(
        index.sketcher.estimate_many(query.indicator, index.indicator_bank), 0.0
    )
    allowed = _shortlist(engine, query, candidates or engine.candidates)
    joinable = []
    for position, size in enumerate(sizes.tolist()):
        containment = size / max(query.num_rows, 1)
        if containment >= engine.min_containment and (
            allowed is None or position in allowed
        ):
            joinable.append((position, size, containment))
    joinable.sort(key=lambda item: -item[2])
    return joinable


def full_lake_search(
    engine: DatasetSearch,
    query: JoinSketch,
    query_column: str,
    top_k: int = 10,
    by: str = "correlation",
    candidates: str | None = None,
) -> list[SearchHit]:
    """What ``engine.search`` must return, computed on the full lake."""
    index = engine.index
    sketcher = index.sketcher
    joinable = full_lake_joinable(engine, query, candidates)
    if not joinable:
        return []
    rank = {position: r for r, (position, _, _) in enumerate(joinable)}
    stats = {position: (size, containment) for position, size, containment in joinable}
    values = query.values[query_column]
    squares = query.squares[query_column]
    sum_left = sketcher.estimate_many(values, index.indicator_bank)
    sum_squares_left = sketcher.estimate_many(squares, index.indicator_bank)
    sum_right = sketcher.estimate_many(query.indicator, index.value_bank)
    sum_squares_right = sketcher.estimate_many(query.indicator, index.square_bank)
    inner_products = sketcher.estimate_many(values, index.value_bank)

    names = index.table_names()
    ranked = []
    for row, (table_name, column) in enumerate(index.value_owners()):
        position = names.index(table_name)
        if position not in rank:
            continue
        size, containment = stats[position]
        corr = correlation(
            size,
            float(sum_left[position]),
            float(sum_squares_left[position]),
            float(sum_right[row]),
            float(sum_squares_right[row]),
            float(inner_products[row]),
        )
        if by == "correlation":
            score = 0.0 if math.isnan(corr) else abs(corr)
        else:
            score = abs(float(inner_products[row]))
        hit = SearchHit(
            table_name=table_name,
            column=column,
            join_size=size,
            containment=containment,
            score=score,
            correlation=math.nan if math.isnan(corr) else corr,
        )
        ranked.append(((-score, rank[position], row), hit))
    ranked.sort(key=lambda item: item[0])
    return [hit for _, hit in ranked][:top_k]
