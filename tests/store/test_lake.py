"""Tests for the persistent lake store (the tentpole acceptance suite).

The contract under test: a lake ingested through ``LakeStore``, closed,
and reopened serves ``DatasetSearch`` rankings and estimates
bit-identical to the in-memory ``SketchIndex`` built from the same
tables, and ``append`` never re-sketches stored data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import SketchMismatchError
from repro.core.wmh import WeightedMinHash
from repro.datasearch.index import SketchIndex
from repro.datasearch.search import DatasetSearch
from repro.datasearch.table import Table
from repro.sketches.jl import JohnsonLindenstrauss
from repro.sketches.minhash import MinHash
from repro.store import LakeStore, QuerySession, StoreError, is_lake_store
from repro.store.shard import shard_filename


def make_tables(count: int = 5, seed: int = 0, rows: int = 120) -> list[Table]:
    """Tables over a shared key domain so joins are non-trivial."""
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        keys = [f"k{j}" for j in rng.choice(600, size=rows, replace=False)]
        tables.append(
            Table(
                f"table{i}",
                keys,
                {
                    "alpha": rng.normal(size=rows),
                    "beta": rng.uniform(1, 5, size=rows),
                },
            )
        )
    return tables


def make_query(seed: int = 99, rows: int = 150) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(600, size=rows, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=rows)})


def fresh_sketcher() -> WeightedMinHash:
    return WeightedMinHash(m=48, seed=5, L=1 << 16)


def hit_tuples(hits):
    return [
        (h.table_name, h.column, h.score, h.correlation, h.join_size, h.containment)
        for h in hits
    ]


class TestCreateOpen:
    def test_create_then_open_empty(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.close()
        reopened = LakeStore.open(tmp_path / "lake")
        assert len(reopened) == 0
        reopened.close()

    def test_create_refuses_existing_store(self, tmp_path):
        LakeStore.create(tmp_path / "lake", fresh_sketcher()).close()
        with pytest.raises(StoreError, match="already holds"):
            LakeStore.create(tmp_path / "lake", fresh_sketcher())

    def test_is_lake_store(self, tmp_path):
        assert not is_lake_store(tmp_path)
        LakeStore.create(tmp_path / "lake", fresh_sketcher()).close()
        assert is_lake_store(tmp_path / "lake")

    def test_open_rebuilds_stored_sketcher_config(self, tmp_path):
        LakeStore.create(tmp_path / "lake", fresh_sketcher()).close()
        store = LakeStore.open(tmp_path / "lake")
        assert isinstance(store.sketcher, WeightedMinHash)
        assert (store.sketcher.m, store.sketcher.seed, store.sketcher.L) == (
            48,
            5,
            1 << 16,
        )
        store.close()

    def test_open_rejects_mismatched_sketcher(self, tmp_path):
        LakeStore.create(tmp_path / "lake", fresh_sketcher()).close()
        with pytest.raises(SketchMismatchError):
            LakeStore.open(tmp_path / "lake", WeightedMinHash(m=48, seed=6, L=1 << 16))
        with pytest.raises(SketchMismatchError):
            LakeStore.open(tmp_path / "lake", MinHash(m=48, seed=5))

    def test_open_accepts_matching_sketcher(self, tmp_path):
        LakeStore.create(tmp_path / "lake", fresh_sketcher()).close()
        store = LakeStore.open(tmp_path / "lake", fresh_sketcher())
        assert isinstance(store.sketcher, WeightedMinHash)
        store.close()


class TestRoundTripFidelity:
    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_reopened_rankings_bit_identical_to_memory(self, tmp_path, zero_copy):
        tables = make_tables()
        query = make_query()

        memory = SketchIndex(fresh_sketcher())
        memory.add_all(tables)
        engine = DatasetSearch(memory)
        expected = engine.search(engine.sketch_query(query), "signal", top_k=8)

        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()

        reopened = LakeStore.open(tmp_path / "lake", zero_copy=zero_copy)
        got = QuerySession(reopened).search(query, "signal", top_k=8)
        assert hit_tuples(got) == hit_tuples(expected)
        reopened.close()

    def test_multi_shard_equals_single_shard(self, tmp_path):
        tables = make_tables(6)
        query = make_query()

        one = LakeStore.create(tmp_path / "one", fresh_sketcher())
        one.append(tables)
        many = LakeStore.create(tmp_path / "many", fresh_sketcher())
        many.append(tables[:2])
        many.append(tables[2:4])
        many.append(tables[4:])

        hits_one = QuerySession(one).search(query, "signal", top_k=8)
        hits_many = QuerySession(many).search(query, "signal", top_k=8)
        assert hit_tuples(hits_one) == hit_tuples(hits_many)
        one.close()
        many.close()

    def test_estimates_identical_per_table(self, tmp_path):
        tables = make_tables(3)
        sketcher = fresh_sketcher()
        memory = SketchIndex(fresh_sketcher())
        memory.add_all(tables)

        store = LakeStore.create(tmp_path / "lake", sketcher)
        store.append(tables)
        store.close()
        reopened = LakeStore.open(tmp_path / "lake")

        query = make_query()
        query_sketch = DatasetSearch(memory).sketch_query(query)
        mem_sizes = memory.sketcher.estimate_many(
            query_sketch.indicator, memory.indicator_bank
        )
        disk_sizes = reopened.index.sketcher.estimate_many(
            query_sketch.indicator, reopened.index.indicator_bank
        )
        np.testing.assert_array_equal(mem_sizes, disk_sizes)
        reopened.close()

    def test_jl_store_round_trip(self, tmp_path):
        # A linear-sketch lake exercises the non-sampling bank layout.
        tables = make_tables(3)
        query = make_query()
        memory = SketchIndex(JohnsonLindenstrauss(m=32, seed=2))
        memory.add_all(tables)
        engine = DatasetSearch(memory)
        expected = engine.search(engine.sketch_query(query), "signal", top_k=5)

        store = LakeStore.create(tmp_path / "lake", JohnsonLindenstrauss(m=32, seed=2))
        store.append(tables)
        store.close()
        got = QuerySession(LakeStore.open(tmp_path / "lake")).search(
            query, "signal", top_k=5
        )
        assert hit_tuples(got) == hit_tuples(expected)


class TestIncrementalIngest:
    def test_append_after_reopen_sketches_only_new_tables(
        self, tmp_path, monkeypatch
    ):
        tables = make_tables(4)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:3])
        store.close()

        reopened = LakeStore.open(tmp_path / "lake")
        calls: list[int] = []
        original = type(reopened.sketcher).sketch_batch

        def counting(self, matrix):
            bank = original(self, matrix)
            calls.append(len(bank))
            return bank

        # The streaming append funnels every chunk through
        # sketch_batch; counting there sees all sketched rows whatever
        # the chunking.
        monkeypatch.setattr(type(reopened.sketcher), "sketch_batch", counting)
        reopened.append([tables[3]])
        # Rows sized for the ONE new table (1 indicator + 2 values +
        # 2 squares = 5 rows) — stored tables never re-sketch.
        assert sum(calls) == 1 + 2 * len(tables[3].columns)
        assert len(reopened) == 4
        reopened.close()

    def test_open_never_sketches(self, tmp_path, monkeypatch):
        tables = make_tables(3)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()

        def forbidden(self, matrix):
            raise AssertionError("open must not sketch")

        monkeypatch.setattr(WeightedMinHash, "sketch_batch", forbidden)
        monkeypatch.setattr(WeightedMinHash, "sketch", forbidden)
        reopened = LakeStore.open(tmp_path / "lake")
        assert sorted(reopened.table_names()) == sorted(t.name for t in tables)
        reopened.close()

    def test_empty_batch_is_noop(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        assert store.append([]) is None
        assert store.stats()["shards"] == 0
        store.close()

    def test_duplicate_names_in_batch_rejected(self, tmp_path):
        tables = make_tables(2)
        clone = Table(tables[0].name, tables[1].keys, dict(tables[1].columns))
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        with pytest.raises(StoreError, match="duplicate table names"):
            store.append([tables[0], clone])
        store.close()

    def test_append_visible_without_reopen(self, tmp_path):
        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append([tables[0]])
        assert store.table_names() == ["table0"]
        store.append([tables[1]])
        assert sorted(store.table_names()) == ["table0", "table1"]
        store.close()


class TestReplacementAndCompaction:
    def test_replacement_tombstones_old_span(self, tmp_path):
        tables = make_tables(3)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        replacement = Table(
            "table1",
            tables[2].keys,
            {"gamma": np.asarray(tables[2].columns["alpha"])},
        )
        store.append([replacement])
        stats = store.stats()
        assert stats["tables"] == 3
        assert stats["tombstones"] == 1
        assert stats["dead_rows"] == 5
        assert store.index.get("table1").values.keys() == {"gamma"}
        store.close()

        reopened = LakeStore.open(tmp_path / "lake")
        assert reopened.index.get("table1").values.keys() == {"gamma"}
        reopened.close()

    def test_compact_reclaims_and_preserves_results(self, tmp_path):
        tables = make_tables(5)
        query = make_query()
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:3])
        store.append(tables[3:])
        replacement = Table(
            "table0", tables[0].keys, {"alpha": np.asarray(tables[0].columns["beta"])}
        )
        store.append([replacement])
        before = hit_tuples(QuerySession(store).search(query, "signal", top_k=8))

        result = store.compact()
        assert result["shards_before"] == 3
        assert result["shards_after"] == 1
        assert result["rows_reclaimed"] == 5
        stats = store.stats()
        assert stats["shards"] == 1
        assert stats["dead_rows"] == 0

        after = hit_tuples(QuerySession(store).search(query, "signal", top_k=8))
        assert after == before
        store.close()

        reopened = LakeStore.open(tmp_path / "lake")
        again = hit_tuples(QuerySession(reopened).search(query, "signal", top_k=8))
        assert again == before
        reopened.close()

    def test_compact_noop_on_single_clean_shard(self, tmp_path):
        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        result = store.compact()
        assert result == {
            "shards_before": 1,
            "shards_after": 1,
            "rows_reclaimed": 0,
        }
        store.close()

    def test_compact_deletes_old_shard_files(self, tmp_path):
        tables = make_tables(4)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:2])
        store.append(tables[2:])
        old_files = [shard_filename(1), shard_filename(2)]
        store.compact()
        for name in old_files:
            assert not (tmp_path / "lake" / name).exists()
        assert (tmp_path / "lake" / shard_filename(3)).exists()
        store.close()


class TestCrashSafety:
    def test_partial_shard_write_ignored_on_open(self, tmp_path):
        """A crash mid-append leaves a temp file; open still succeeds."""
        tables = make_tables(3)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()

        # Simulate the two crash artifacts an interrupted append can
        # leave: a partial temp file, and a fully-renamed shard whose
        # manifest commit never happened.
        lake = tmp_path / "lake"
        (lake / (shard_filename(2) + ".tmp")).write_bytes(b"RPRO\x01\x0agarbage")
        (lake / shard_filename(7)).write_bytes(b"\x00" * 64)

        reopened = LakeStore.open(lake)
        assert sorted(reopened.table_names()) == sorted(t.name for t in tables)
        assert sorted(reopened.orphaned_files()) == sorted(
            [shard_filename(7), shard_filename(2) + ".tmp"]
        )
        reopened.close()

    def test_truncated_referenced_shard_rejected(self, tmp_path):
        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()
        shard_path = tmp_path / "lake" / shard_filename(1)
        data = shard_path.read_bytes()
        shard_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError, match="truncated shard"):
            LakeStore.open(tmp_path / "lake")

    def test_missing_referenced_shard_rejected(self, tmp_path):
        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()
        (tmp_path / "lake" / shard_filename(1)).unlink()
        with pytest.raises(StoreError, match="missing shard"):
            LakeStore.open(tmp_path / "lake")

    def test_corrupted_shard_checksum_rejected(self, tmp_path):
        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()
        shard_path = tmp_path / "lake" / shard_filename(1)
        data = bytearray(shard_path.read_bytes())
        data[-1] ^= 0xFF
        shard_path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="checksum"):
            LakeStore.open(tmp_path / "lake")


class TestConcurrentWriters:
    def test_stale_handle_refuses_to_write(self, tmp_path):
        """Two opens, one commits: the stale handle errors, not corrupts."""
        tables = make_tables(5)
        seeded = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        seeded.append(tables[:1])
        seeded.append(tables[1:2])  # two shards, so compact is not a no-op
        seeded.close()
        first = LakeStore.open(tmp_path / "lake")
        second = LakeStore.open(tmp_path / "lake")
        first.append(tables[2:3])
        with pytest.raises(StoreError, match="modified by another process"):
            second.append(tables[3:])
        with pytest.raises(StoreError, match="modified by another process"):
            second.compact()
        first.close()
        second.close()
        # The committed data survived untouched.
        reopened = LakeStore.open(tmp_path / "lake")
        assert sorted(reopened.table_names()) == ["table0", "table1", "table2"]
        reopened.close()

    def test_reopened_handle_can_write_again(self, tmp_path):
        tables = make_tables(3)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:1])
        store.close()
        writer = LakeStore.open(tmp_path / "lake")
        writer.append(tables[1:])
        assert len(writer) == 3
        writer.close()


class TestLifecycle:
    def test_closed_store_refuses_use(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.close()
        with pytest.raises(StoreError, match="closed"):
            store.append(make_tables(1))
        with pytest.raises(StoreError, match="closed"):
            _ = store.index

    def test_context_manager_closes(self, tmp_path):
        with LakeStore.create(tmp_path / "lake", fresh_sketcher()) as store:
            store.append(make_tables(1))
        with pytest.raises(StoreError, match="closed"):
            store.stats()

    def test_stats_shape(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(make_tables(2))
        stats = store.stats()
        assert stats["tables"] == 2
        assert stats["value_columns"] == 4
        assert stats["shards"] == 1
        assert stats["live_rows"] == 10
        assert stats["file_bytes"] > 0
        assert stats["bank_bytes"] > 0
        assert stats["storage_words"] > 0
        assert stats["sketcher"]["kind"] == "WMH"
        store.close()
