"""End-to-end accounting: query/ingest metrics, session stats, CLI knobs."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro import obs
from repro.core.wmh import WeightedMinHash
from repro.datasearch.table import Table
from repro.parallel.streaming import NO_CLAMP_ENV, SourceTable
from repro.store import LakeStore, QuerySession
from repro.store.cli import main


@pytest.fixture(autouse=True)
def clean_registry():
    """Each test sees a fresh, enabled global registry."""
    registry = obs.get_registry()
    was_enabled = registry.enabled
    registry.reset()
    registry.enabled = True
    yield registry
    registry.reset()
    registry.enabled = was_enabled


def make_tables(count: int = 3, seed: int = 0, rows: int = 80) -> list[Table]:
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        keys = [f"k{j}" for j in rng.choice(300, size=rows, replace=False)]
        tables.append(Table(f"table{i}", keys, {"value": rng.normal(size=rows)}))
    return tables


def make_query(seed: int = 42, rows: int = 100) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(300, size=rows, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=rows)})


def fresh_store(tmp_path, tables=None):
    store = LakeStore.create(
        tmp_path / "lake", WeightedMinHash(m=32, seed=3, L=1 << 16)
    )
    if tables:
        store.append(tables)
    return store


class TestQueryAccounting:
    def test_search_records_metrics(self, tmp_path, clean_registry):
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store)
            session.search(make_query(), "signal", top_k=5)
        finally:
            store.close()
        assert clean_registry.counter_value("query.count") == 1
        assert clean_registry.counter_value("query.route.scan") == 1
        assert clean_registry.counter_value("query.route.lsh") == 0
        latency = clean_registry.histogram("query.latency_ms")
        assert latency is not None and latency.count == 1
        # scan mode has no LSH shortlist to account
        assert clean_registry.histogram("query.shortlist_size") is None
        # phases tile the search: each per-phase histogram saw the query
        for phase in ("candidates", "joinability", "score"):
            hist = clean_registry.histogram(f"query.phase_ms.{phase}")
            assert hist is not None and hist.count == 1, phase

    def test_lsh_route_counted_with_shortlist(self, tmp_path, clean_registry):
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store, candidates="lsh")
            session.search(make_query(), "signal", top_k=5)
        finally:
            store.close()
        assert clean_registry.counter_value("query.route.lsh") == 1
        shortlist = clean_registry.histogram("query.shortlist_size")
        assert shortlist is not None and shortlist.count == 1

    def test_batch_accounting(self, tmp_path, clean_registry):
        """A batch is one call (latency, phases) of three queries
        (count, route, joinability), in the one query.* vocabulary."""
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store, candidates="lsh")
            queries = [make_query(seed=40 + i) for i in range(3)]
            session.search_many(queries, "signal", top_k=5)
        finally:
            store.close()
        assert clean_registry.counter_value("query.count") == 3
        assert clean_registry.counter_value("query.route.lsh") == 3
        for name in (
            "query.shortlist_size",
            "query.joinable_tables",
            "query.pruning_selectivity_pct",
        ):
            hist = clean_registry.histogram(name)
            assert hist is not None and hist.count == 3, name
        latency = clean_registry.histogram("query.latency_ms")
        assert latency is not None and latency.count == 1
        for phase in ("pack", "candidates", "joinability", "score"):
            hist = clean_registry.histogram(f"query.phase_ms.{phase}")
            assert hist is not None and hist.count == 1, phase
        snapshot = clean_registry.snapshot()
        assert not [
            name
            for kind in ("counters", "histograms")
            for name in snapshot[kind]
            if name.startswith("query.batch.")
        ]

    def test_batch_traces_one_root_span(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        trace_path = tmp_path / "trace.jsonl"
        try:
            session = QuerySession(store)
            queries = [make_query(seed=40 + i) for i in range(3)]
            with obs.tracing(trace_path):
                session.search_many(queries, "signal", top_k=5)
        finally:
            store.close()
        events = obs.read_trace(trace_path)
        obs.validate_trace(events)
        roots = [event for event in events if event["name"] == "query.search"]
        assert len(roots) == 1
        assert roots[0]["attrs"]["queries"] == 3
        names = [query.name for query in queries]
        assert roots[0]["attrs"]["tables"] == names
        assert roots[0]["attrs"]["columns"] == ["signal"] * 3
        (session_span,) = [e for e in events if e["name"] == "session.search"]
        assert roots[0]["parent_id"] == session_span["span_id"]
        assert session_span["attrs"]["tables"] == names
        assert session_span["attrs"]["columns"] == "signal"

    def test_single_query_trace_names_table_and_column(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        trace_path = tmp_path / "trace.jsonl"
        try:
            session = QuerySession(store)
            query = make_query()
            with obs.tracing(trace_path):
                session.search(query, "signal", top_k=5, candidates="lsh")
        finally:
            store.close()
        events = obs.read_trace(trace_path)
        (root,) = [e for e in events if e["name"] == "query.search"]
        (session_span,) = [e for e in events if e["name"] == "session.search"]
        assert root["attrs"]["tables"] == [query.name]
        assert root["attrs"]["columns"] == ["signal"]
        assert root["attrs"]["route"] == "lsh"
        (shortlist,) = root["attrs"]["shortlists"]
        assert isinstance(shortlist, int) and shortlist >= 0
        assert session_span["attrs"]["tables"] == [query.name]
        assert session_span["attrs"]["columns"] == ["signal"]

    def test_sketch_cache_counters(self, tmp_path, clean_registry):
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store)
            query = make_query()
            session.sketch(query)
            session.sketch(query)
        finally:
            store.close()
        assert clean_registry.counter_value("session.sketch_cache.misses") == 1
        assert clean_registry.counter_value("session.sketch_cache.hits") == 1

    def test_disabled_metrics_record_nothing(self, tmp_path, clean_registry):
        store = fresh_store(tmp_path, make_tables())
        try:
            obs.enable_metrics(False)
            session = QuerySession(store)
            session.search(make_query(), "signal", top_k=5)
        finally:
            obs.enable_metrics(True)
            store.close()
        assert clean_registry.counter_value("query.count") == 0
        assert clean_registry.histogram("query.latency_ms") is None


class TestIngestAccounting:
    def expected_rows(self, tables):
        return sum(table.num_rows for table in tables)

    def test_serial_ingest_metrics(self, tmp_path, clean_registry):
        tables = make_tables()
        store = fresh_store(tmp_path)
        try:
            store.append(tables, chunk_bytes=1)  # one table per chunk
        finally:
            store.close()
        assert clean_registry.counter_value("ingest.chunks") == len(tables)
        assert clean_registry.counter_value("ingest.tables") == len(tables)
        assert clean_registry.counter_value("ingest.input_rows") == (
            self.expected_rows(tables)
        )
        assert clean_registry.counter_value("ingest.bank_bytes") > 0
        sketch_ms = clean_registry.histogram("ingest.chunk_ms.sketch")
        assert sketch_ms is not None and sketch_ms.count == len(tables)

    def test_pooled_ingest_metrics_cross_process(
        self, tmp_path, clean_registry, monkeypatch
    ):
        # Chunks run in pool workers; their private registry snapshots
        # must fold back into this process's registry with the same
        # totals the serial path records.
        monkeypatch.setenv(NO_CLAMP_ENV, "1")
        tables = make_tables(count=4)
        store = fresh_store(tmp_path)
        try:
            store.append(tables, workers=2, chunk_bytes=1)
        finally:
            store.close()
        assert clean_registry.counter_value("ingest.chunks") == len(tables)
        assert clean_registry.counter_value("ingest.tables") == len(tables)
        assert clean_registry.counter_value("ingest.input_rows") == (
            self.expected_rows(tables)
        )
        chunk_bytes = clean_registry.histogram("ingest.chunk_bytes")
        assert chunk_bytes is not None and chunk_bytes.count == len(tables)

    def test_report_carries_stage_units(self, tmp_path):
        tables = make_tables()
        store = fresh_store(tmp_path)
        try:
            _, report = store.append_sources(
                [SourceTable.from_table(table) for table in tables]
            )
        finally:
            store.close()
        assert report.input_rows == self.expected_rows(tables)
        assert report.nnz > 0
        assert report.bank_bytes > 0

    def test_store_counters(self, tmp_path, clean_registry):
        tables = make_tables()
        store = fresh_store(tmp_path, tables)
        store.close()
        assert clean_registry.counter_value("store.appends") == 1
        assert clean_registry.counter_value("store.manifest_commits") >= 1
        assert clean_registry.counter_value("store.fsyncs") >= 2
        assert clean_registry.counter_value("store.shard_bytes_written") > 0
        with LakeStore.open(tmp_path / "lake") as store:
            assert clean_registry.counter_value("store.opens") == 1
            assert clean_registry.counter_value("store.shard_bytes_read") > 0
            # re-appending a live name tombstones the old span
            store.append(make_tables(count=1, seed=9))
            store.compact()
        assert clean_registry.counter_value("store.compactions") == 1


class TestSessionStats:
    def test_stats_surfaces_serving_state(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store, min_containment=0.1, candidates="scan")
            stats = session.stats()
            assert stats["session"]["engine_cached"] is False
            assert stats["session"]["engine_current"] is False
            assert stats["session"]["min_containment"] == 0.1
            assert stats["wmh_cache"] is None or "hits" in stats["wmh_cache"]

            session.search(make_query(), "signal", top_k=5)
            stats = session.stats()
            assert stats["session"]["engine_cached"] is True
            assert stats["session"]["engine_current"] is True
            assert stats["session"]["cached_query_sketches"] == 1
            assert stats["cached_query_sketches"] == 1  # back-compat key

            # Changing a knob invalidates the cached engine.
            session.min_containment = 0.2
            stats = session.stats()
            assert stats["session"]["engine_cached"] is True
            assert stats["session"]["engine_current"] is False
        finally:
            store.close()

    def test_lsh_memory_state(self, tmp_path):
        store = fresh_store(tmp_path, make_tables())
        try:
            session = QuerySession(store, candidates="lsh")
            before = session.stats()["lsh_memory"]
            # The persisted index attaches eagerly but covers appended
            # tables lazily — the first query extends it.
            assert before is None or before["tables"] < 3
            session.search(make_query(), "signal", top_k=5)
            state = session.stats()["lsh_memory"]
            assert state is not None
            assert set(state) == {"bands", "rows_per_band", "tables"}
            assert state["tables"] == 3
        finally:
            store.close()

    def test_wmh_cache_stats_live(self, tmp_path):
        store = fresh_store(tmp_path)
        try:
            store.append(make_tables())
            session = QuerySession(store)
            session.search(make_query(), "signal", top_k=5)
            wmh = session.stats()["wmh_cache"]
        finally:
            store.close()
        assert wmh is not None
        assert {"entries", "bytes", "hits", "misses"} <= set(wmh)


def write_csv(path, table: Table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        names = list(table.columns)
        writer.writerow(["key", *names])
        for i, key in enumerate(table.keys):
            writer.writerow(
                [key, *(repr(float(table.columns[c][i])) for c in names)]
            )


class TestCLI:
    def build_lake(self, tmp_path):
        paths = []
        for table in make_tables():
            path = tmp_path / f"{table.name}.csv"
            write_csv(path, table)
            paths.append(str(path))
        lake = str(tmp_path / "lake")
        assert main(["ingest", lake, *paths, "--storage", "32"]) == 0
        return lake, paths

    def test_ingest_prints_stage_accounting(self, tmp_path, capsys):
        self.build_lake(tmp_path)
        out = capsys.readouterr().out
        assert "parse:" in out and "rows" in out
        assert "vectorize:" in out and "entries" in out
        assert "write:" in out and "bytes" in out

    def test_stats_telemetry_flag(self, tmp_path, capsys, clean_registry):
        lake, _ = self.build_lake(tmp_path)
        capsys.readouterr()
        assert main(["stats", lake, "--telemetry"]) == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["telemetry"]
        obs.validate_snapshot(telemetry)
        assert telemetry["counters"]["ingest.chunks"] >= 1
        assert "wmh_cache.entries" in telemetry["gauges"]
        # without the flag the key is absent
        assert main(["stats", lake]) == 0
        assert "telemetry" not in json.loads(capsys.readouterr().out)

    def test_query_trace_flag(self, tmp_path, capsys):
        lake, paths = self.build_lake(tmp_path)
        capsys.readouterr()  # drop the ingest summary
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "query",
                    lake,
                    paths[0],
                    "--column",
                    "value",
                    "--json",
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        traced_out = json.loads(capsys.readouterr().out)
        events = obs.read_trace(trace_path)
        obs.validate_trace(events)
        names = {event["name"] for event in events}
        assert "query.search" in names
        assert "session.search" in names
        assert not obs.trace_enabled()  # scope restored
        # identical hits without tracing
        assert main(["query", lake, paths[0], "--column", "value", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == traced_out
