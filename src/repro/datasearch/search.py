"""Dataset search: rank a data lake against a query table.

Implements the two-stage discovery loop from the paper's motivating
example (taxi ridership vs weather):

1. **joinability** — estimate the join size between the query table's
   keys and every indexed table's keys; keep tables whose estimated key
   overlap clears a threshold;
2. **relevance** — among joinable tables, estimate the statistical
   relationship (post-join correlation or inner product) between the
   query column and every candidate column, and rank by magnitude.

Everything runs on sketches and the index's columnar banks, through
**one** pipeline, :meth:`DatasetSearch.search_many`; :meth:`~DatasetSearch.search`
is its one-query case.  The pipeline makes two structural promises:

* **candidate pruning** — only the joinability filter touches the whole
  lake (one ``estimate_cross`` over the indicator bank, or over an LSH
  shortlist of it).  The five relevance statistics of Figure 2 are then
  estimated on *joinable rows only*, selected out of the banks with one
  gather, so per-column work scales with the candidate set, not the
  lake.  Because every bank row's estimate depends only on that row,
  the rankings are bit-identical to scoring the full lake (the test
  suite keeps that full-lake scorer as its oracle);
* **multi-query batching** — a batch of analyst queries is answered
  with one ``estimate_cross`` call per statistic over the union of the
  queries' candidate rows, so the banks are traversed once per batch
  instead of once per query, and each query's hits are identical to
  running it alone.

No join is ever materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.bank import SketchBank
from repro.datasearch.index import SketchIndex
from repro.datasearch.join_estimates import JoinSketch
from repro.datasearch.lshindex import DEFAULT_TARGET_RECALL
from repro.datasearch.table import Table

__all__ = ["SearchHit", "DatasetSearch"]


def _no_mark(name: str) -> None:
    """Disabled-telemetry phase mark: one call, no clock reads."""


@dataclass(frozen=True)
class SearchHit:
    """One ranked search result."""

    table_name: str
    column: str
    join_size: float
    containment: float
    score: float
    correlation: float

    def __repr__(self) -> str:
        return (
            f"SearchHit({self.table_name}.{self.column}: score={self.score:.3f}, "
            f"corr={self.correlation:.3f}, join~{self.join_size:.0f})"
        )


class DatasetSearch:
    """Sketch-based joinable-and-related table search."""

    def __init__(
        self,
        index: SketchIndex,
        min_containment: float = 0.05,
        candidates: str = "scan",
        lsh_target_recall: float = DEFAULT_TARGET_RECALL,
    ) -> None:
        """``min_containment``: minimum estimated fraction of query keys
        that must appear in a candidate table for it to be considered
        joinable.  ``candidates`` picks the
        joinability candidate generator: ``"scan"`` estimates against
        every indicator row (exact, O(lake)), ``"lsh"`` shortlists rows
        via the banded signature index (sublinear; the exact filter
        re-checks the shortlist, so the *full ranking* is a subset of
        the scan path's with identical statistics per surviving hit —
        under a ``top_k`` cut, a shortlist miss can promote the next
        lower-scored survivor — with expected recall ≥
        ``lsh_target_recall`` at ``min_containment`` for the auto-tuned
        banding)."""
        if not 0.0 <= min_containment <= 1.0:
            raise ValueError(
                f"min_containment must be in [0, 1], got {min_containment}"
            )
        self._check_candidates(candidates)
        self.index = index
        self.min_containment = min_containment
        self.candidates = candidates
        self.lsh_target_recall = lsh_target_recall

    def sketch_query(self, table: Table) -> JoinSketch:
        """Sketch the analyst's query table with the index's method."""
        return JoinSketch.build(table, self.index.sketcher)

    def _check_candidates(self, candidates: str) -> None:
        if candidates not in ("scan", "lsh"):
            raise ValueError(
                f"unknown candidate generator {candidates!r}; "
                f"choose 'scan' or 'lsh'"
            )

    def _resolve_candidates(self, candidates: str | None) -> str:
        if candidates is None:
            return self.candidates
        self._check_candidates(candidates)
        return candidates

    def _shortlists(
        self, queries: Sequence[JoinSketch], candidates: str
    ) -> list[np.ndarray] | None:
        """Per-query candidate table rows, or ``None`` for the scan path.

        ``"lsh"`` probes the index's banded signature index; a sketcher
        without signature keys cannot serve LSH candidates and raises.
        """
        if candidates == "scan":
            return None
        lake_index = self.index.lsh_index(
            target_sim=self.min_containment,
            target_recall=self.lsh_target_recall,
        )
        if lake_index is None:
            raise ValueError(
                f"candidates='lsh' needs a sketcher with signature keys "
                f"(WMH, MH, or ICWS); {self.index.sketcher.name!r} has none "
                f"— use candidates='scan'"
            )
        return lake_index.candidates_many(
            self.index.sketcher, [query.indicator for query in queries]
        )

    def _join_sizes(
        self, indicator_queries: SketchBank, shortlists: list[np.ndarray] | None
    ) -> np.ndarray:
        """Estimated join size of every query with every indexed table.

        Returns a ``(Q, tables)`` array from one ``estimate_cross`` pass
        over the indicator bank.  With LSH ``shortlists`` only the union
        of the per-query candidate rows is estimated and each query's
        rows are scattered back; sizes of a query's non-candidates stay
        0 and are masked out of its joinable set by
        :meth:`_joinable_order`.  Shortlisted estimates are bit-identical
        to the full scan because every bank row's estimate depends only
        on that row.
        """
        sketcher = self.index.sketcher
        if shortlists is None:
            return np.maximum(
                sketcher.estimate_cross(indicator_queries, self.index.indicator_bank),
                0.0,
            )
        sizes = np.zeros((len(indicator_queries), len(self.index)))
        union = np.unique(np.concatenate(shortlists))
        if union.size:
            cross = np.maximum(
                sketcher.estimate_cross(
                    indicator_queries, self.index.indicator_bank[union]
                ),
                0.0,
            )
            for qi, rows in enumerate(shortlists):
                sizes[qi, rows] = cross[qi, np.searchsorted(union, rows)]
        return sizes

    def _joinable_order(
        self,
        sizes: np.ndarray,
        num_rows: int,
        shortlist: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions of joinable tables plus the containment array.

        Returns ``(order, containments)`` where ``order`` holds the
        table positions clearing ``min_containment``, sorted by
        containment descending with ties in table order (the stable
        order the tuple API has always produced), and ``containments``
        covers every table.  A ``shortlist`` restricts the joinable set
        to those positions (the LSH candidate path), which is what
        keeps LSH hits a strict subset of the scan hits even at
        ``min_containment == 0``.
        """
        containments = sizes / max(num_rows, 1)
        keep_mask = containments >= self.min_containment
        if shortlist is not None:
            allowed = np.zeros(sizes.size, dtype=bool)
            allowed[shortlist] = True
            keep_mask &= allowed
        keep = np.flatnonzero(keep_mask)
        order = keep[np.argsort(-containments[keep], kind="stable")]
        return order, containments

    def joinable(
        self, query: JoinSketch, candidates: str | None = None
    ) -> list[tuple[str, float, float]]:
        """Tables passing the joinability filter.

        Returns ``(name, estimated_join_size, estimated_containment)``
        sorted by containment, where containment is the estimated join
        size divided by the query's row count.  ``candidates`` overrides
        the engine's candidate generator for this call.
        """
        mode = self._resolve_candidates(candidates)
        names = self.index.table_names()
        if not names:
            return []
        shortlists = self._shortlists([query], mode)
        sizes = self._join_sizes(
            self.index.sketcher.pack_bank([query.indicator]), shortlists
        )[0]
        order, containments = self._joinable_order(
            sizes, query.num_rows, None if shortlists is None else shortlists[0]
        )
        return [
            (names[i], float(sizes[i]), float(containments[i]))
            for i in order.tolist()
        ]

    @staticmethod
    def _check_criterion(by: str) -> None:
        if by not in ("correlation", "inner_product"):
            raise ValueError(f"unknown ranking criterion {by!r}")

    @staticmethod
    def _check_query_column(query: JoinSketch, query_column: str) -> None:
        if query_column not in query.values:
            raise KeyError(
                f"query table {query.table_name!r} has no column "
                f"{query_column!r}; available: {sorted(query.values)}"
            )

    def _candidate_rows(
        self, order: np.ndarray, num_tables: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row selections for one query's joinable candidate set.

        Returns ``(rank_of_table, table_rows, val_rows)``: per-table
        joinability rank (``-1`` for filtered-out tables), the ascending
        indicator-bank rows of joinable tables, and the ascending
        value/square-bank rows they own.
        """
        rank_of_table = np.full(num_tables, -1, dtype=np.int64)
        rank_of_table[order] = np.arange(order.size, dtype=np.int64)
        table_rows = np.flatnonzero(rank_of_table >= 0)
        val_rows = np.flatnonzero(rank_of_table[self.index.owner_positions()] >= 0)
        return rank_of_table, table_rows, val_rows

    def search(
        self,
        query: JoinSketch,
        query_column: str,
        top_k: int = 10,
        by: str = "correlation",
        candidates: str | None = None,
    ) -> list[SearchHit]:
        """Rank all indexed columns by estimated relationship strength.

        ``by`` selects the relevance score: ``"correlation"`` (absolute
        estimated post-join Pearson correlation, the Santos et al.
        query) or ``"inner_product"`` (absolute estimated post-join
        inner product).  The one-query case of :meth:`search_many`.
        """
        return self.search_many(
            [query], [query_column], top_k=top_k, by=by, candidates=candidates
        )[0]

    def search_many(
        self,
        queries: Sequence[JoinSketch],
        query_columns: str | Sequence[str],
        top_k: int = 10,
        by: str = "correlation",
        candidates: str | None = None,
    ) -> list[list[SearchHit]]:
        """Rank the lake against a batch of queries: one hit list each.

        ``query_columns`` is one column name applied to every query, or
        one name per query.  The whole batch is answered with **one**
        ``estimate_cross`` call per statistic.  With
        ``candidates="scan"`` the joinability pass (join size per table)
        is the only full-lake estimate; ``candidates="lsh"`` replaces
        even that with a banded-signature shortlist per query, so the
        whole query scales with the candidate set.  Either way the
        remaining five Figure 2 statistics — left/right sums, left/right
        second moments, and the cross inner product — are estimated
        against the *union* of the queries' joinable rows only.  Every
        query's candidate set is its own, so its hits are identical to
        running it alone.
        """
        self._check_criterion(by)
        mode = self._resolve_candidates(candidates)
        queries = list(queries)
        if isinstance(query_columns, str):
            columns = [query_columns] * len(queries)
        else:
            columns = list(query_columns)
            if len(columns) != len(queries):
                raise ValueError(
                    f"got {len(queries)} queries but {len(columns)} query columns"
                )
        for query, column in zip(queries, columns):
            self._check_query_column(query, column)
        num_tables = len(self.index)
        if not queries or not num_tables:
            return [[] for _ in queries]

        # Per-call accounting: rec is None when telemetry is fully
        # disabled, and every phase mark below degrades to one no-op
        # call — the fast path the obs benchmarks gate at <2%.
        rec = obs.recorder()
        mark = rec.mark if rec is not None else _no_mark
        sketcher = self.index.sketcher
        indicator_queries = sketcher.pack_bank([q.indicator for q in queries])
        value_queries = sketcher.pack_bank(
            [q.values[c] for q, c in zip(queries, columns)]
        )
        square_queries = sketcher.pack_bank(
            [q.squares[c] for q, c in zip(queries, columns)]
        )
        mark("pack")
        shortlists = self._shortlists(queries, mode)
        mark("candidates")

        # The join-size pass feeds both the joinability filter and the
        # correlation formula.
        sizes_all = self._join_sizes(indicator_queries, shortlists)
        selections: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for qi, query in enumerate(queries):
            order, containments = self._joinable_order(
                sizes_all[qi],
                query.num_rows,
                None if shortlists is None else shortlists[qi],
            )
            rank_of_table, table_rows, val_rows = self._candidate_rows(
                order, num_tables
            )
            selections.append((containments, rank_of_table, table_rows, val_rows))
        # The batch's candidate rows, ascending: O(candidates), not O(lake).
        union_tables = np.unique(np.concatenate([rows for _, _, rows, _ in selections]))
        union_vals = np.unique(np.concatenate([rows for _, _, _, rows in selections]))
        mark("joinability")

        results: list[list[SearchHit]] = [[] for _ in queries]
        if union_vals.size:
            # Gathering bank copies only pays off when the filter is
            # selective; a union covering the whole lake scores the
            # full banks in place (same estimates, zero copies).
            if (
                union_tables.size == num_tables
                and union_vals.size == self.index.owner_positions().size
            ):
                indicator_bank = self.index.indicator_bank
                value_bank = self.index.value_bank
                square_bank = self.index.square_bank
            else:
                indicator_bank = self.index.indicator_bank[union_tables]
                value_bank = self.index.value_bank[union_vals]
                square_bank = self.index.square_bank[union_vals]
            mark("gather")
            # Per-table statistics, then per-column statistics.
            sum_left_all = sketcher.estimate_cross(value_queries, indicator_bank)
            mark("estimate.sum_left")
            sum_squares_left_all = sketcher.estimate_cross(
                square_queries, indicator_bank
            )
            mark("estimate.sum_squares_left")
            sum_right_all = sketcher.estimate_cross(indicator_queries, value_bank)
            mark("estimate.sum_right")
            sum_squares_right_all = sketcher.estimate_cross(
                indicator_queries, square_bank
            )
            mark("estimate.sum_squares_right")
            inner_products_all = sketcher.estimate_cross(value_queries, value_bank)
            mark("estimate.inner_product")

            for qi, (containments, rank_of_table, table_rows, val_rows) in enumerate(
                selections
            ):
                if val_rows.size == 0:
                    continue
                # Each query's candidate rows are a subset of the union
                # rows; both are ascending, so the gather is a
                # searchsorted.
                table_local = np.searchsorted(union_tables, table_rows)
                val_local = np.searchsorted(union_vals, val_rows)
                results[qi] = self._score_candidates(
                    sizes_all[qi],
                    containments,
                    rank_of_table,
                    table_rows,
                    val_rows,
                    sum_left_all[qi][table_local],
                    sum_squares_left_all[qi][table_local],
                    sum_right_all[qi][val_local],
                    sum_squares_right_all[qi][val_local],
                    inner_products_all[qi][val_local],
                    top_k,
                    by,
                )
            mark("score")
        if rec is not None:
            self._record(
                rec,
                mode,
                queries,
                columns,
                shortlists,
                selections,
                union_tables,
                num_tables,
                results,
            )
        return results

    @staticmethod
    def _record(
        rec: "obs.PhaseRecorder",
        mode: str,
        queries: list[JoinSketch],
        columns: list[str],
        shortlists: list[np.ndarray] | None,
        selections: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        union_tables: np.ndarray,
        lake_tables: int,
        results: list[list[SearchHit]],
    ) -> None:
        """Fold one :meth:`search_many` call into the registry and trace.

        Per call: one ``query.latency_ms`` and one set of
        ``query.phase_ms.*`` observations, and a ``query.search`` root
        span with one child per recorded phase, naming every query's
        table, column and shortlist size.  Per query: the count,
        route, shortlist-size, joinable-count and pruning-selectivity
        metrics (``query.*``).
        """
        obs.count("query.count", len(selections))
        obs.count(f"query.route.{mode}", len(selections))
        for rows in shortlists or ():
            obs.observe("query.shortlist_size", int(rows.size))
        for _, _, table_rows, _ in selections:
            obs.observe("query.joinable_tables", int(table_rows.size))
            obs.observe(
                "query.pruning_selectivity_pct",
                100.0 * table_rows.size / lake_tables,
            )
        obs.record_phases(
            rec,
            "query.search",
            "query",
            attrs={
                "queries": len(selections),
                "tables": [query.table_name for query in queries],
                "columns": columns,
                "shortlists": None
                if shortlists is None
                else [int(rows.size) for rows in shortlists],
                "route": mode,
                "lake_tables": lake_tables,
                "joinable": int(union_tables.size),
                "hits": sum(len(hits) for hits in results),
            },
        )

    def _score_candidates(
        self,
        sizes: np.ndarray,
        containments: np.ndarray,
        rank_of_table: np.ndarray,
        table_rows: np.ndarray,
        val_rows: np.ndarray,
        sum_left: np.ndarray,
        sum_squares_left: np.ndarray,
        sum_right: np.ndarray,
        sum_squares_right: np.ndarray,
        inner_products: np.ndarray,
        top_k: int,
        by: str,
    ) -> list[SearchHit]:
        """Rank one query's candidate columns from the six statistics.

        ``sizes``/``containments``/``rank_of_table`` cover every table;
        ``sum_left``/``sum_squares_left`` align with ``table_rows`` and
        the remaining statistics with ``val_rows``.  Scoring is one
        vectorized pass over the candidates (the arithmetic of
        :class:`~repro.datasearch.join_estimates.JoinStatisticsEstimator`),
        followed by an argpartition top-k cut.
        """
        owner_pos = self.index.owner_positions()
        cand_owner = owner_pos[val_rows]
        # Index into the pruned per-table arrays: table_rows is the
        # ascending set of joinable table positions, and every
        # candidate's owner is one of them.
        cand_table = np.searchsorted(table_rows, cand_owner)
        size = sizes[cand_owner]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_left = sum_left[cand_table] / size
            mean_right = sum_right / size
            variance_left = np.maximum(
                sum_squares_left[cand_table] / size - mean_left * mean_left, 0.0
            )
            variance_right = np.maximum(
                sum_squares_right / size - mean_right * mean_right, 0.0
            )
            covariance = inner_products / size - mean_left * mean_right
            raw = covariance / np.sqrt(variance_left * variance_right)
        correlations = np.clip(raw, -1.0, 1.0)
        correlations[
            (size < 0.5) | ~(variance_left > 0.0) | ~(variance_right > 0.0)
        ] = np.nan
        if by == "correlation":
            scores = np.where(np.isnan(correlations), 0.0, np.abs(correlations))
        else:
            scores = np.abs(inner_products)
        ranks = rank_of_table[cand_owner]

        # Top-k cut via argpartition instead of sorting every score in
        # the candidate set; boundary ties survive the cut and the
        # exact order — score desc, joinability rank asc, row order asc
        # (what the old pair of stable sorts produced) — is resolved on
        # the survivors alone.
        if 0 < top_k < scores.size:
            kth = np.partition(scores, scores.size - top_k)[scores.size - top_k]
            candidates = np.flatnonzero(scores >= kth)
        else:
            candidates = np.arange(scores.size)
        order = np.lexsort((candidates, ranks[candidates], -scores[candidates]))
        chosen = candidates[order][:top_k]

        owners = self.index.value_owners()
        hits: list[SearchHit] = []
        for c in chosen.tolist():
            table_name, column = owners[int(val_rows[c])]
            owner = int(cand_owner[c])
            correlation = float(correlations[c])
            hits.append(
                SearchHit(
                    table_name=table_name,
                    column=column,
                    join_size=float(sizes[owner]),
                    containment=float(containments[owner]),
                    score=float(scores[c]),
                    # the math.nan singleton, so hit tuples stay
                    # comparable with == (identity shortcut)
                    correlation=math.nan if math.isnan(correlation) else correlation,
                )
            )
        return hits
