"""Query pipeline tests: the one ranking pipeline against its oracle.

:meth:`DatasetSearch.search_many` is the only ranking pipeline
(``search`` is its one-query case).  Its two structural promises are
asserted bit-for-bit across every storable sketcher:

* **candidate pruning** — estimating the five relevance statistics on
  joinable rows only returns *identical* hits to the full-lake oracle
  (:mod:`search_oracle`: per-query ``estimate_many`` over the whole
  banks, ranked with the scalar correlation formula), for both
  candidate generators, both ranking criteria, and the degenerate
  shapes (``top_k=0``, no candidates, all candidates, single-row lake,
  zero-norm query column);
* **multi-query batching** — a batch returns exactly the hit lists of
  running each query alone.

Each hit's join size and correlation are also checked against the
pairwise :class:`~repro.datasearch.join_estimates.JoinStatisticsEstimator`.
"""

from __future__ import annotations

import functools
import math
import struct

import numpy as np
import pytest

from repro.core.wmh import WeightedMinHash
from repro.datasearch.index import SketchIndex
from repro.datasearch.join_estimates import JoinStatisticsEstimator
from repro.datasearch.search import DatasetSearch
from repro.datasearch.table import Table
from repro.store.config import SKETCHER_CLASSES

from .search_oracle import correlation, full_lake_joinable, full_lake_search

#: Every sketcher a lake store can persist.
STORABLE = sorted(SKETCHER_CLASSES)


def build_sketcher(name: str, storage: int = 120, seed: int = 5):
    return SKETCHER_CLASSES[name].from_storage(storage, seed=seed)


def candidate_modes(name: str) -> list[str]:
    """``scan`` always; ``lsh`` for sketchers with signature keys."""
    if build_sketcher(name).signature_length() is None:
        return ["scan"]
    return ["scan", "lsh"]


#: (sketcher, candidates) for every storable sketcher.
MATRIX = [(name, mode) for name in STORABLE for mode in candidate_modes(name)]


def make_lake(seed: int = 0, tables: int = 12, rows: int = 60) -> list[Table]:
    """Half the tables share the query key domain, half are disjoint."""
    rng = np.random.default_rng(seed)
    lake = []
    for i in range(tables):
        if i % 2 == 0:
            keys = [f"k{j}" for j in rng.choice(150, size=rows, replace=False)]
        else:
            keys = [f"only{i}-{j}" for j in range(rows)]
        lake.append(
            Table(
                f"t{i}",
                keys,
                {"a": rng.normal(size=rows), "b": rng.normal(size=rows)},
            )
        )
    return lake


def make_queries(count: int = 4, seed: int = 99, rows: int = 50) -> list[Table]:
    rng = np.random.default_rng(seed)
    queries = []
    for qi in range(count):
        keys = [f"k{j}" for j in rng.choice(150, size=rows, replace=False)]
        queries.append(Table(f"q{qi}", keys, {"v": rng.normal(size=rows)}))
    return queries


def build_index(name: str, lake) -> SketchIndex:
    index = SketchIndex(build_sketcher(name))
    index.add_all(lake)
    return index


@functools.lru_cache(maxsize=None)
def lake_index(name: str) -> SketchIndex:
    """The default lake's index per sketcher, built once; tests only
    read it (the scalar-fallback sketchers are slow to build)."""
    return build_index(name, make_lake())


def bits(hits) -> list[tuple]:
    """Hits with every float field as its exact IEEE-754 bytes."""
    return [
        (h.table_name, h.column)
        + tuple(
            struct.pack("<d", x)
            for x in (h.join_size, h.containment, h.score, h.correlation)
        )
        for h in hits
    ]


def assert_matches_oracle(engine, query, column="v", **kwargs) -> list:
    """The pipeline's hits are bit-identical to the full-lake oracle."""
    hits = engine.search(query, column, **kwargs)
    assert bits(hits) == bits(full_lake_search(engine, query, column, **kwargs))
    return hits


def assert_matches_pairwise(engine, query, hits, column="v") -> None:
    """Each hit's statistics agree with the pairwise estimator."""
    for hit in hits:
        pairwise = JoinStatisticsEstimator(query, engine.index.get(hit.table_name))
        assert hit.join_size == pytest.approx(pairwise.join_size(), rel=1e-9)
        expected = pairwise.correlation(column, hit.column)
        if math.isnan(expected):
            assert math.isnan(hit.correlation)
        else:
            assert hit.correlation == pytest.approx(expected, rel=1e-9)


class TestPipelineEqualsFullLakeOracle:
    @pytest.mark.parametrize("name,candidates", MATRIX)
    @pytest.mark.parametrize("by", ["correlation", "inner_product"])
    def test_hits_identical(self, name, candidates, by):
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.2, candidates=candidates)
        queries = [engine.sketch_query(t) for t in make_queries(3)]
        alone = []
        for query in queries:
            hits = assert_matches_oracle(engine, query, top_k=5, by=by)
            assert_matches_pairwise(engine, query, hits)
            alone.append(hits)
        # A Q-query batch equals each query run alone.
        assert engine.search_many(queries, "v", top_k=5, by=by) == alone

    @pytest.mark.parametrize("name,candidates", MATRIX)
    def test_full_ranking_identical(self, name, candidates):
        """No top-k cut: every joinable column, in order."""
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.2, candidates=candidates)
        query = engine.sketch_query(make_queries(1)[0])
        assert_matches_oracle(engine, query, top_k=1_000)

    @pytest.mark.parametrize("name,candidates", MATRIX)
    def test_joinable_matches_oracle(self, name, candidates):
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.2, candidates=candidates)
        query = engine.sketch_query(make_queries(1)[0])
        names = index.table_names()
        assert engine.joinable(query) == [
            (names[position], size, containment)
            for position, size, containment in full_lake_joinable(engine, query)
        ]

    @pytest.mark.parametrize("name", STORABLE)
    def test_every_statistic_survives_row_selection(self, name):
        """Each of the six Figure 2 statistics is bit-identical when the
        bank is pruned to candidate rows first."""
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.0)
        query = engine.sketch_query(make_queries(1)[0])
        sketcher = index.sketcher
        table_rows = np.array([0, 2, 5, 11])
        val_rows = np.flatnonzero(np.isin(index.owner_positions(), table_rows))
        statistics = [
            (query.indicator, index.indicator_bank, table_rows),   # SIZE
            (query.values["v"], index.indicator_bank, table_rows),  # SUM left
            (query.squares["v"], index.indicator_bank, table_rows),  # E[V^2] left
            (query.indicator, index.value_bank, val_rows),          # SUM right
            (query.indicator, index.square_bank, val_rows),         # E[V^2] right
            (query.values["v"], index.value_bank, val_rows),        # <Va, Vb>
        ]
        for sketch, bank, rows in statistics:
            np.testing.assert_array_equal(
                sketcher.estimate_many(sketch, bank[rows]),
                sketcher.estimate_many(sketch, bank)[rows],
            )

    @pytest.mark.parametrize("name,candidates", MATRIX)
    @pytest.mark.parametrize("by", ["correlation", "inner_product"])
    def test_top_k_zero(self, name, candidates, by):
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.0, candidates=candidates)
        query = engine.sketch_query(make_queries(1)[0])
        assert assert_matches_oracle(engine, query, top_k=0, by=by) == []

    @pytest.mark.parametrize("name,candidates", MATRIX)
    def test_empty_candidate_set(self, name, candidates):
        """A lake with no joinable table returns [] like the oracle."""
        rng = np.random.default_rng(1)
        lake = [
            Table(f"t{i}", [f"only{i}-{j}" for j in range(30)],
                  {"a": rng.normal(size=30)})
            for i in range(4)
        ]
        index = build_index(name, lake)
        engine = DatasetSearch(index, min_containment=0.5, candidates=candidates)
        sketch = engine.sketch_query(make_queries(1)[0])
        assert assert_matches_oracle(engine, sketch) == []
        assert engine.search_many([sketch, sketch], "v") == [[], []]

    @pytest.mark.parametrize("name,candidates", MATRIX)
    @pytest.mark.parametrize("by", ["correlation", "inner_product"])
    def test_all_candidate_set(self, name, candidates, by):
        """min_containment=0 keeps every scanned table: the candidate set
        is the whole lake (scored in place, no gather) and must still
        match; LSH keeps exactly its shortlist."""
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.0, candidates=candidates)
        query = engine.sketch_query(make_queries(1)[0])
        hits = assert_matches_oracle(engine, query, top_k=1_000, by=by)
        if candidates == "scan":
            assert {h.table_name for h in hits} == set(index.table_names())

    def test_single_row_lake(self):
        rng = np.random.default_rng(3)
        keys = [f"k{j}" for j in range(40)]
        lake = [Table("only", keys, {"a": rng.normal(size=40)})]
        index = SketchIndex(WeightedMinHash(m=32, seed=2, L=1 << 16))
        index.add_all(lake)
        engine = DatasetSearch(index, min_containment=0.0)
        query = engine.sketch_query(Table("q", keys[:30], {"v": rng.normal(size=30)}))
        hits = assert_matches_oracle(engine, query)
        assert len(hits) == 1 and hits[0].table_name == "only"
        assert engine.search_many([query], "v") == [hits]

    @pytest.mark.parametrize("name,candidates", MATRIX)
    def test_zero_norm_query_column(self, name, candidates):
        """An all-zero query column sketches to a zero-norm vector; the
        pipeline, the oracle, and a batch must agree exactly."""
        index = lake_index(name)
        engine = DatasetSearch(index, min_containment=0.1, candidates=candidates)
        rng = np.random.default_rng(7)
        keys = [f"k{j}" for j in rng.choice(150, size=40, replace=False)]
        query = engine.sketch_query(Table("qz", keys, {"v": np.zeros(40)}))
        hits = assert_matches_oracle(engine, query)
        other = engine.sketch_query(make_queries(1)[0])
        assert engine.search_many([query, other], "v") == [
            hits,
            engine.search(other, "v"),
        ]


class TestScoreArithmetic:
    def test_vectorized_correlation_matches_scalar_reference(self):
        """``_score_candidates`` computes, column by column, exactly the
        scalar reference formula — degenerate sizes and variances
        included."""
        index = lake_index("WMH")
        engine = DatasetSearch(index)
        rng = np.random.default_rng(11)
        tables = len(index)
        owners = index.owner_positions()
        sizes = rng.uniform(0.0, 40.0, size=tables)
        sizes[:4] = [0.0, 0.3, 0.5, 1e-300]  # around the 0.5 NaN cut
        sum_left = rng.normal(size=tables) * sizes
        sum_squares_left = rng.uniform(0.0, 3.0, size=tables) * sizes
        sum_squares_left[4] = 0.0  # zero left variance
        sum_right = rng.normal(size=owners.size) * sizes[owners]
        sum_squares_right = rng.uniform(0.0, 3.0, size=owners.size) * sizes[owners]
        inner = rng.normal(size=owners.size) * 5.0 * sizes[owners]  # some clip at ±1
        hits = engine._score_candidates(
            sizes,
            sizes / 50.0,
            np.arange(tables),
            np.arange(tables),
            np.arange(owners.size),
            sum_left,
            sum_squares_left,
            sum_right,
            sum_squares_right,
            inner,
            top_k=owners.size,
            by="correlation",
        )
        assert len(hits) == owners.size
        rows = {owner: row for row, owner in enumerate(index.value_owners())}
        for hit in hits:
            row = rows[(hit.table_name, hit.column)]
            table = owners[row]
            expected = correlation(
                float(sizes[table]),
                float(sum_left[table]),
                float(sum_squares_left[table]),
                float(sum_right[row]),
                float(sum_squares_right[row]),
                float(inner[row]),
            )
            assert struct.pack("<d", hit.correlation) == struct.pack("<d", expected)


class TestSearchMany:
    def test_per_query_columns(self):
        """One column name per query, mixed across the batch."""
        rng = np.random.default_rng(13)
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.1)
        keys = [f"k{j}" for j in rng.choice(150, size=45, replace=False)]
        table = Table(
            "multi", keys,
            {"x": rng.normal(size=45), "y": rng.normal(size=45)},
        )
        query = engine.sketch_query(table)
        batched = engine.search_many([query, query], ["x", "y"], top_k=4)
        assert batched == [
            engine.search(query, "x", top_k=4),
            engine.search(query, "y", top_k=4),
        ]

    def test_mismatched_column_count_rejected(self):
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.1)
        query = engine.sketch_query(make_queries(1)[0])
        with pytest.raises(ValueError, match="query columns"):
            engine.search_many([query, query], ["v"])

    def test_unknown_column_rejected(self):
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.1)
        query = engine.sketch_query(make_queries(1)[0])
        with pytest.raises(KeyError, match="no column"):
            engine.search_many([query], "nope")

    def test_empty_batch(self):
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.1)
        assert engine.search_many([], "v") == []

    def test_empty_index(self):
        engine = DatasetSearch(
            SketchIndex(WeightedMinHash(m=32, seed=2, L=1 << 16)),
            min_containment=0.1,
        )
        probe = DatasetSearch(
            lake_index("WMH"), min_containment=0.1
        )
        query = probe.sketch_query(make_queries(1)[0])
        assert engine.search_many([query], "v") == [[]]

    def test_mixed_joinable_and_disjoint_queries(self):
        """Queries with disjoint candidate sets batch correctly."""
        rng = np.random.default_rng(21)
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.2)
        joinable = engine.sketch_query(make_queries(1)[0])
        disjoint = engine.sketch_query(
            Table("qd", [f"zz{j}" for j in range(30)],
                  {"v": rng.normal(size=30)})
        )
        batched = engine.search_many([joinable, disjoint], "v")
        assert batched[0] == engine.search(joinable, "v")
        assert batched[1] == []


class TestJoinableFilter:
    def test_matches_python_reference(self):
        """The numpy containment filter/sort reproduces the old
        list-of-tuples implementation, stable ties included."""
        engine = DatasetSearch(
            lake_index("WMH"), min_containment=0.25
        )
        names = [f"t{i}" for i in range(6)]
        sizes = np.array([10.0, 30.0, 30.0, 5.0, 50.0, 30.0])
        num_rows = 100

        containments = sizes / max(num_rows, 1)
        reference = [
            (name, float(size), float(containment))
            for name, size, containment in zip(names, sizes, containments)
            if containment >= engine.min_containment
        ]
        reference.sort(key=lambda item: item[2], reverse=True)

        order, got = engine._joinable_order(sizes, num_rows)
        assert [
            (names[i], float(sizes[i]), float(got[i])) for i in order.tolist()
        ] == reference

    def test_empty_lake(self):
        engine = DatasetSearch(
            lake_index("WMH"), min_containment=0.25
        )
        order, containments = engine._joinable_order(np.zeros(0), 10)
        assert order.size == 0 and containments.size == 0
        assert DatasetSearch(
            SketchIndex(WeightedMinHash(m=32, seed=2, L=1 << 16))
        ).joinable(engine.sketch_query(make_queries(1)[0])) == []

    def test_joinable_api_unchanged(self):
        index = lake_index("WMH")
        engine = DatasetSearch(index, min_containment=0.2)
        query = engine.sketch_query(make_queries(1)[0])
        joinable = engine.joinable(query)
        assert joinable
        for name, size, containment in joinable:
            assert isinstance(name, str)
            assert isinstance(size, float)
            assert isinstance(containment, float)
        # sorted by containment descending
        conts = [c for _, _, c in joinable]
        assert conts == sorted(conts, reverse=True)


class TestOwnerPositions:
    def test_matches_value_owners(self):
        index = lake_index("WMH")
        names = index.table_names()
        owners = index.value_owners()
        positions = index.owner_positions()
        assert positions.shape == (len(owners),)
        for (table, _), pos in zip(owners, positions.tolist()):
            assert names[pos] == table

    def test_append_extends_cache(self):
        lake = make_lake()
        index = build_index("WMH", lake[:8])
        first = index.owner_positions()
        assert first.size == 16
        index.add(lake[8])
        second = index.owner_positions()
        assert second.size == 18
        np.testing.assert_array_equal(second[:16], first)

    def test_replacement_invalidates_cache(self):
        rng = np.random.default_rng(17)
        lake = make_lake()
        index = build_index("WMH", lake[:4])
        assert index.owner_positions().size == 8
        # Replace table 1 with a three-column version: the entry moves
        # to the end of the table order (live-span order) and its value
        # rows move with it.
        keys = [f"k{j}" for j in range(30)]
        index.add(
            Table(
                "t1",
                keys,
                {
                    "a": rng.normal(size=30),
                    "b": rng.normal(size=30),
                    "c": rng.normal(size=30),
                },
            )
        )
        assert index.table_names() == ["t0", "t2", "t3", "t1"]
        positions = index.owner_positions()
        assert positions.size == 9
        assert index.value_owners()[6:9] == [("t1", "a"), ("t1", "b"), ("t1", "c")]
        np.testing.assert_array_equal(positions[6:9], [3, 3, 3])
