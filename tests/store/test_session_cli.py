"""Tests for the query-session front end and the ``repro.store`` CLI."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.core.wmh import WeightedMinHash
from repro.datasearch.table import Table
from repro.store import LakeStore, QuerySession
from repro.store.cli import load_csv_table, main


def make_tables(count: int = 3, seed: int = 0, rows: int = 100) -> list[Table]:
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        keys = [f"k{j}" for j in rng.choice(400, size=rows, replace=False)]
        tables.append(
            Table(f"table{i}", keys, {"value": rng.normal(size=rows)})
        )
    return tables


def make_query(seed: int = 42, rows: int = 150) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(400, size=rows, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=rows)})


def fresh_store(tmp_path, tables=None):
    store = LakeStore.create(tmp_path / "lake", WeightedMinHash(m=32, seed=3, L=1 << 16))
    if tables:
        store.append(tables)
    return store


class TestQuerySession:
    def test_search_matches_engine(self, tmp_path):
        tables = make_tables()
        store = fresh_store(tmp_path, tables)
        session = QuerySession(store)
        query = make_query()
        engine = session.engine
        direct = engine.search(engine.sketch_query(query), "signal", top_k=5)
        via_session = session.search(query, "signal", top_k=5)
        assert [(h.table_name, h.column, h.score) for h in via_session] == [
            (h.table_name, h.column, h.score) for h in direct
        ]
        store.close()

    def test_query_sketch_cached_per_name(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        session = QuerySession(store)
        query = make_query()
        first = session.sketch(query)
        assert session.sketch(query) is first
        session.clear_cache()
        assert session.sketch(query) is not first
        store.close()

    def test_session_sees_appends(self, tmp_path):
        tables = make_tables(3)
        store = fresh_store(tmp_path, tables[:2])
        session = QuerySession(store, min_containment=0.0)
        assert len(session.engine.index) == 2
        store.append([tables[2]])
        assert len(session.engine.index) == 3
        store.close()

    def test_unknown_query_column(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        with pytest.raises(KeyError, match="no column"):
            QuerySession(store).search(make_query(), "nope")
        store.close()

    def test_stats_include_cache(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        session = QuerySession(store)
        session.sketch(make_query())
        assert session.stats()["cached_query_sketches"] == 1
        store.close()

    def test_engine_cached_on_index_identity(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        session = QuerySession(store)
        assert session.engine is session.engine
        store.close()

    def test_engine_survives_appends(self, tmp_path):
        """Appends mutate the index in place: the cached engine stays
        valid *and* sees the new tables."""
        tables = make_tables(3)
        store = fresh_store(tmp_path, tables[:2])
        session = QuerySession(store, min_containment=0.0)
        engine = session.engine
        store.append([tables[2]])
        assert session.engine is engine
        assert len(session.engine.index) == 3
        store.close()

    def test_engine_invalidated_by_compact(self, tmp_path):
        tables = make_tables(3)
        store = fresh_store(tmp_path, tables[:2])
        store.append([tables[2]])  # second shard so compact rebuilds
        session = QuerySession(store, min_containment=0.0)
        engine = session.engine
        store.compact()
        fresh = session.engine
        assert fresh is not engine
        assert fresh.index is store.index
        store.close()

    def test_engine_tracks_min_containment_mutation(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        session = QuerySession(store, min_containment=0.0)
        first = session.engine
        assert first.min_containment == 0.0
        session.min_containment = 0.5
        second = session.engine
        assert second is not first
        assert second.min_containment == 0.5
        store.close()

    def test_search_many_matches_search_loop(self, tmp_path):
        store = fresh_store(tmp_path, make_tables(4))
        session = QuerySession(store, min_containment=0.0)
        queries = []
        for s in (42, 43, 44):
            rng = np.random.default_rng(s)
            keys = [f"k{j}" for j in rng.choice(400, size=150, replace=False)]
            queries.append(
                Table(f"query{s}", keys, {"signal": rng.normal(size=150)})
            )
        batched = session.search_many(queries, "signal", top_k=4)
        loop = [session.search(q, "signal", top_k=4) for q in queries]
        assert batched == loop
        # All query sketches landed in the session cache.
        assert session.stats()["cached_query_sketches"] == 3
        store.close()


def write_csv(path, keys, columns):
    names = list(columns)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["key", *names])
        for i, key in enumerate(keys):
            writer.writerow([key, *[columns[name][i] for name in names]])


@pytest.fixture
def csv_lake(tmp_path):
    """Three ingestible CSVs + one query CSV over shared keys."""
    rng = np.random.default_rng(11)
    paths = []
    for t in range(3):
        keys = [f"k{j}" for j in rng.choice(300, size=90, replace=False)]
        path = tmp_path / f"table{t}.csv"
        write_csv(
            path,
            keys,
            {"price": rng.normal(size=90), "volume": rng.uniform(1, 9, size=90)},
        )
        paths.append(path)
    qkeys = [f"k{j}" for j in rng.choice(300, size=120, replace=False)]
    qpath = tmp_path / "query.csv"
    write_csv(qpath, qkeys, {"demand": rng.normal(size=120)})
    return tmp_path / "lake.d", paths, qpath


class TestLoadCsvTable:
    def test_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], {"x": [1.0, 2.0]})
        table = load_csv_table(path)
        assert table.name == "t"
        assert table.keys == ["a", "b"]
        np.testing.assert_array_equal(table.columns["x"], [1.0, 2.0])

    def test_duplicate_keys_aggregate(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "a", "b"], {"x": [1.0, 2.0, 5.0]})
        table = load_csv_table(path, aggregate="sum")
        assert table.keys == ["a", "b"]
        np.testing.assert_array_equal(table.columns["x"], [3.0, 5.0])

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("key,x\na,hello\n")
        with pytest.raises(ValueError, match="not numeric"):
            load_csv_table(path)

    def test_missing_key_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], {"x": [1.0]})
        with pytest.raises(ValueError, match="key column"):
            load_csv_table(path, key_column="nope")


class TestCli:
    def test_ingest_query_stats_compact(self, csv_lake, capsys):
        lake, tables, query = csv_lake
        assert main(["ingest", str(lake), str(tables[0]), str(tables[1])]) == 0
        assert "2 table(s)" in capsys.readouterr().out

        # Second ingest opens the existing store (keeps its config).
        assert main(["ingest", str(lake), str(tables[2])]) == 0
        capsys.readouterr()

        assert main(["stats", str(lake)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["tables"] == 3
        assert stats["shards"] == 2

        assert (
            main(
                [
                    "query",
                    str(lake),
                    str(query),
                    "--column",
                    "demand",
                    "--top-k",
                    "3",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [entry["query"] for entry in payload] == ["query"]
        hits = payload[0]["hits"]
        assert 0 < len(hits) <= 3
        assert {"table", "column", "score", "correlation"} <= set(hits[0])

        assert main(["compact", str(lake)]) == 0
        assert "compacted 2 shard(s) -> 1" in capsys.readouterr().out

    def test_query_human_output(self, csv_lake, capsys):
        lake, tables, query = csv_lake
        main(["ingest", str(lake), *map(str, tables)])
        capsys.readouterr()
        assert main(["query", str(lake), str(query), "--column", "demand"]) == 0
        out = capsys.readouterr().out
        assert "score=" in out and "containment=" in out

    def test_query_missing_store_errors(self, tmp_path, capsys):
        code = main(
            ["query", str(tmp_path / "absent"), str(tmp_path / "q.csv"), "--column", "x"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cli_results_match_library(self, csv_lake, capsys):
        lake, tables, query = csv_lake
        main(["ingest", str(lake), *map(str, tables)])
        capsys.readouterr()
        main(["query", str(lake), str(query), "--column", "demand", "--json"])
        cli_hits = json.loads(capsys.readouterr().out)[0]["hits"]

        store = LakeStore.open(lake)
        lib_hits = QuerySession(store).search(
            load_csv_table(query), "demand", top_k=10
        )
        store.close()
        assert [(h["table"], h["column"], h["score"]) for h in cli_hits] == [
            (h.table_name, h.column, h.score) for h in lib_hits
        ]

    def test_batched_query_matches_single_queries(self, csv_lake, tmp_path, capsys):
        """Several query CSVs serve as one batch, results identical to
        querying each file on its own."""
        lake, tables, query = csv_lake
        rng = np.random.default_rng(23)
        qkeys = [f"k{j}" for j in rng.choice(300, size=80, replace=False)]
        query2 = tmp_path / "query2.csv"
        write_csv(query2, qkeys, {"demand": rng.normal(size=80)})
        main(["ingest", str(lake), *map(str, tables)])
        capsys.readouterr()

        assert (
            main(
                ["query", str(lake), str(query), str(query2),
                 "--column", "demand", "--json"]
            )
            == 0
        )
        batched = json.loads(capsys.readouterr().out)
        assert [entry["query"] for entry in batched] == ["query", "query2"]

        # Single-file queries emit the same wrapped schema; their hits
        # must equal the batched entries exactly.
        singles = []
        for path in (query, query2):
            main(["query", str(lake), str(path), "--column", "demand", "--json"])
            single = json.loads(capsys.readouterr().out)
            assert len(single) == 1
            singles.append(single[0]["hits"])
        assert [entry["hits"] for entry in batched] == singles

    def test_batched_query_human_output(self, csv_lake, tmp_path, capsys):
        lake, tables, query = csv_lake
        rng = np.random.default_rng(29)
        qkeys = [f"k{j}" for j in rng.choice(300, size=80, replace=False)]
        query2 = tmp_path / "query2.csv"
        write_csv(query2, qkeys, {"demand": rng.normal(size=80)})
        main(["ingest", str(lake), *map(str, tables)])
        capsys.readouterr()
        assert (
            main(["query", str(lake), str(query), str(query2), "--column", "demand"])
            == 0
        )
        out = capsys.readouterr().out
        assert "for query.demand" in out and "for query2.demand" in out


class TestSessionCandidates:
    """The candidates knob on the serving session."""

    def test_lsh_search_subset_of_scan(self, tmp_path):
        store = fresh_store(tmp_path, make_tables(8))
        session = QuerySession(store, min_containment=0.2)
        query = make_query()
        scan = session.search(query, "signal", top_k=10)
        lsh = session.search(query, "signal", top_k=10, candidates="lsh")
        assert {(h.table_name, h.column, h.score) for h in lsh} <= {
            (h.table_name, h.column, h.score) for h in scan
        }
        store.close()

    def test_session_level_default(self, tmp_path):
        store = fresh_store(tmp_path, make_tables(8))
        session = QuerySession(store, min_containment=0.2, candidates="lsh")
        assert session.engine.candidates == "lsh"
        query = make_query()
        assert session.search(query, "signal") == session.search(
            query, "signal", candidates="lsh"
        )
        store.close()

    def test_engine_tracks_candidates_mutation(self, tmp_path):
        store = fresh_store(tmp_path, make_tables(3))
        session = QuerySession(store)
        first = session.engine
        session.candidates = "lsh"
        second = session.engine
        assert second is not first
        assert second.candidates == "lsh"
        store.close()

    def test_search_many_lsh_matches_loop(self, tmp_path):
        store = fresh_store(tmp_path, make_tables(8))
        session = QuerySession(store, min_containment=0.2, candidates="lsh")
        query = make_query()
        batched = session.search_many([query], "signal", top_k=5)
        single = [session.search(query, "signal", top_k=5)]
        assert batched == single
        store.close()


class TestCliCandidates:
    def test_query_candidates_lsh_subset(self, csv_lake, capsys):
        lake, tables, query = csv_lake
        main(["ingest", str(lake), *map(str, tables)])
        capsys.readouterr()
        base = [
            "query",
            str(lake),
            str(query),
            "--column",
            "demand",
            "--min-containment",
            "0.1",
            "--json",
        ]
        assert main(base) == 0
        scan = json.loads(capsys.readouterr().out)[0]["hits"]
        assert main([*base, "--candidates", "lsh"]) == 0
        lsh = json.loads(capsys.readouterr().out)[0]["hits"]
        as_keys = lambda hits: {  # noqa: E731
            (h["table"], h["column"], h["score"]) for h in hits
        }
        assert as_keys(lsh) <= as_keys(scan)

    def test_ingest_no_index(self, csv_lake, capsys):
        lake, tables, query = csv_lake
        assert main(["ingest", str(lake), str(tables[0]), "--no-index"]) == 0
        capsys.readouterr()
        assert main(["stats", str(lake)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["lsh_index"] is None
        # Indexed ingest afterwards restores the section.
        assert main(["ingest", str(lake), str(tables[1])]) == 0
        capsys.readouterr()
        assert main(["stats", str(lake)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["lsh_index"]["tables"] == 2
