"""Streaming ingest pipeline tests (PR-6 acceptance suite).

The contract under test: a lake ingested through the chunked streaming
pipeline — any chunk byte budget, any worker count, CSV or in-memory
sources — produces shard files, manifests, LSH index files, and query
rankings **byte-identical** to the one-shot path, with peak memory
bounded by the chunk budget; and an ingest that dies mid-stream leaves
only orphan files every reopen ignores.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.core.wmh import WeightedMinHash
from repro.datasearch.index import SketchIndex
from repro.datasearch.search import DatasetSearch
from repro.datasearch.table import Table
from repro.datasearch.vectorize import (
    indicator_vector,
    key_to_index,
    keys_to_indices,
    squared_value_vector,
    table_vectors,
    value_vector,
)
from repro.hashing.splitmix import hash_bytes, hash_bytes_many
from repro.io.serialize import pack_shard
from repro.parallel.streaming import (
    NO_CLAMP_ENV,
    SourceTable,
    chunk_matrix,
    effective_workers,
    plan_spans,
    plan_table_chunks,
)
from repro.sketches.minhash import MinHash
from repro.store import LakeStore, QuerySession, StoreError
from repro.store.config import SKETCHER_CLASSES
from repro.store.csvio import csv_source, load_csv_table
from repro.store.manifest import Manifest
from repro.store.shard import shard_filename

CHUNK_BUDGETS = (1, 20_000, None)  # 1 table/chunk, a few/chunk, all-in-one
WORKER_COUNTS = (None, 2, 4)
KINDS = sorted(SKETCHER_CLASSES)


def make_tables(count: int = 9, seed: int = 3, rows: int = 60) -> list[Table]:
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        keys = [f"k{j}" for j in rng.choice(500, size=rows, replace=False)]
        columns = {
            f"c{c}": rng.normal(size=rows).round(3) for c in range(1 + i % 3)
        }
        tables.append(Table(f"table{i}", keys, columns))
    return tables


def make_query(seed: int = 42, rows: int = 80) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(500, size=rows, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=rows)})


def fresh_sketcher() -> WeightedMinHash:
    return WeightedMinHash(m=32, seed=5, L=1 << 16)


def kind_sketcher(kind: str):
    """A small sketcher of every storable kind (48 words of storage)."""
    return SKETCHER_CLASSES[kind].from_storage(48, seed=5)


def hit_key(hits) -> list[tuple]:
    """Hits with every float as its exact hex form (NaN compares equal)."""
    return [
        (
            h.table_name,
            h.column,
            *(
                float(x).hex()
                for x in (h.join_size, h.containment, h.score, h.correlation)
            ),
        )
        for h in hits
    ]


def lake_fingerprint(path) -> dict[str, bytes]:
    """Every store file's bytes, keyed by filename (lock excluded)."""
    return {
        entry.name: entry.read_bytes()
        for entry in sorted(path.iterdir())
        if entry.name != ".lock"
    }


# ----------------------------------------------------------------------
# vectorized hashing / fused encoding equivalence
# ----------------------------------------------------------------------


class TestVectorizedHashing:
    def test_hash_bytes_many_matches_scalar(self):
        blobs = [
            b"",
            b"a",
            b"hello world",
            "café".encode("utf-8"),
            (12345).to_bytes(8, "little"),
            b"x" * 300,
        ]
        lengths = np.array([len(b) for b in blobs], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])
        buffer = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        digests = hash_bytes_many(buffer, offsets, lengths)
        assert [int(d) for d in digests] == [hash_bytes(b) for b in blobs]

    def test_keys_to_indices_matches_scalar(self):
        keys = ["alpha", 7, -3, b"raw", 2.5, ("t", 1), "café", ""]
        domain = 1 << 20
        got = keys_to_indices(keys, domain)
        expected = [key_to_index(key, domain) for key in keys]
        assert got.tolist() == expected

    def test_keys_to_indices_empty(self):
        assert keys_to_indices([], 1 << 16).size == 0

    def test_table_vectors_match_legacy_encoders(self):
        for table in make_tables(4):
            fused = table_vectors(table)
            legacy = [indicator_vector(table)]
            legacy += [value_vector(table, c) for c in table.columns]
            legacy += [squared_value_vector(table, c) for c in table.columns]
            assert len(fused) == len(legacy)
            for a, b in zip(fused, legacy):
                np.testing.assert_array_equal(a.indices, b.indices)
                np.testing.assert_array_equal(a.values, b.values)

    def test_chunk_matrix_matches_per_table_rows(self):
        tables = make_tables(3)
        matrix = chunk_matrix(tables)
        rows = [v for t in tables for v in table_vectors(t)]
        assert matrix.num_rows == len(rows)
        for i, vec in enumerate(rows):
            lo, hi = int(matrix.indptr[i]), int(matrix.indptr[i + 1])
            np.testing.assert_array_equal(matrix.indices[lo:hi], vec.indices)
            np.testing.assert_array_equal(matrix.values[lo:hi], vec.values)


# ----------------------------------------------------------------------
# the chunk planner
# ----------------------------------------------------------------------


class TestChunkPlanner:
    def sources(self, tables):
        return [SourceTable.from_table(t) for t in tables]

    def test_chunks_cover_all_sources_in_order(self):
        sources = self.sources(make_tables(7))
        chunks = plan_table_chunks(sources, 20_000)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(sources)
        for (_, hi), (lo, _) in zip(chunks, chunks[1:]):
            assert hi == lo

    def test_tiny_budget_yields_one_table_per_chunk(self):
        sources = self.sources(make_tables(5))
        assert plan_table_chunks(sources, 1) == [(i, i + 1) for i in range(5)]

    def test_huge_budget_yields_single_chunk(self):
        sources = self.sources(make_tables(5))
        assert plan_table_chunks(sources, 1 << 40) == [(0, 5)]

    def test_env_budget_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_INGEST_CHUNK_BYTES", "1")
        sources = self.sources(make_tables(3))
        assert plan_table_chunks(sources, None) == [(0, 1), (1, 2), (2, 3)]

    def test_spans_align_with_bank_rows(self):
        sources = self.sources(make_tables(4))
        spans = plan_spans(sources)
        lo = 0
        for source, (span_lo, span_hi) in zip(sources, spans):
            assert span_lo == lo
            assert span_hi - span_lo == 1 + 2 * len(source.columns)
            lo = span_hi

    def test_effective_workers_clamps_to_cpus(self, monkeypatch):
        monkeypatch.delenv(NO_CLAMP_ENV, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert effective_workers(8) == 2
        assert effective_workers(None) == 1
        monkeypatch.setenv(NO_CLAMP_ENV, "1")
        assert effective_workers(8) == 8


# ----------------------------------------------------------------------
# byte identity across chunkings and worker counts
# ----------------------------------------------------------------------


class TestByteIdentity:
    @pytest.fixture(autouse=True)
    def _force_real_pools(self, monkeypatch):
        # Single-core CI hosts would clamp pooled runs to serial; the
        # identity claim must hold for *real* pools too.
        monkeypatch.setenv(NO_CLAMP_ENV, "1")

    def build_lake(self, root, sketcher, tables, chunk_bytes, workers):
        store = LakeStore.create(root / "lake", sketcher)
        shard_id = store.append(tables, workers=workers, chunk_bytes=chunk_bytes)
        store.close()
        with LakeStore.open(root / "lake") as reopened:
            hits = QuerySession(reopened).search(make_query(), "signal", top_k=5)
        return shard_id, lake_fingerprint(root / "lake"), hit_key(hits)

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_chunkings_and_workers_agree(self, tmp_path, kind):
        """Per kind: one shard, byte-identical for every chunk budget
        and worker count, equal to ``pack_shard(sketch_batch(...))``;
        the reopened store answers bit-identically to the in-memory
        ``DatasetSearch`` over the same tables."""
        tables = make_tables()
        sketcher = kind_sketcher(kind)
        vectors = [v for t in tables for v in SketchIndex.encode_table(t)]
        one_shot = pack_shard(sketcher.sketch_batch(vectors))
        memory = SketchIndex(sketcher)
        memory.add_all(tables)
        engine = DatasetSearch(memory)
        expected = hit_key(
            engine.search(engine.sketch_query(make_query()), "signal", top_k=5)
        )
        assert expected  # the comparison is not vacuous
        fingerprints = {}
        for i, chunk_bytes in enumerate(CHUNK_BUDGETS):
            for j, workers in enumerate(WORKER_COUNTS):
                root = tmp_path / f"v{i}_{j}"
                root.mkdir()
                shard_id, files, hits = self.build_lake(
                    root, kind_sketcher(kind), tables, chunk_bytes, workers
                )
                variant = (chunk_bytes, workers)
                assert files[shard_filename(shard_id)] == one_shot, variant
                assert hits == expected, variant
                fingerprints[variant] = files
        reference = fingerprints[(None, None)]
        for key, files in fingerprints.items():
            assert files == reference, f"variant {key} diverged"

    def test_every_storable_kind_streams_columnar_banks(self, tmp_path):
        tables = make_tables(4)
        for kind in KINDS:
            sketcher = kind_sketcher(kind)
            assert sketcher.bank_layout() is not None, kind
            store = LakeStore.create(tmp_path / kind, sketcher)
            _, report = store.append_sources(
                [SourceTable.from_table(t) for t in tables], chunk_bytes=1
            )
            assert report.chunks == len(tables)
            store.close()
            with LakeStore.open(tmp_path / kind) as reopened:
                assert sorted(reopened.table_names()) == sorted(
                    t.name for t in tables
                )
                for bank in reopened._banks.values():
                    assert not bank.is_object_bank(), kind

    def test_multi_append_and_replacement_identity(self, tmp_path):
        tables = make_tables()
        variants = []
        for i, (chunk_bytes, workers) in enumerate([(None, None), (1, 2)]):
            root = tmp_path / f"v{i}"
            root.mkdir()
            store = LakeStore.create(root / "lake", fresh_sketcher())
            store.append(tables[:5], workers=workers, chunk_bytes=chunk_bytes)
            store.append(tables[5:], workers=workers, chunk_bytes=chunk_bytes)
            # Same-name replacement must tombstone identically too.
            store.append([tables[0]], workers=workers, chunk_bytes=chunk_bytes)
            store.close()
            variants.append(lake_fingerprint(root / "lake"))
        assert variants[0] == variants[1]

    def test_empty_batch_reports_nothing(self, tmp_path):
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        shard_id, report = store.append_sources([])
        assert shard_id is None
        assert report.tables == 0 and report.chunks == 0
        assert store.append([]) is None
        store.close()


# ----------------------------------------------------------------------
# CSV streaming
# ----------------------------------------------------------------------


def write_csv(path, table: Table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        names = list(table.columns)
        writer.writerow(["key", *names])
        for i, key in enumerate(table.keys):
            writer.writerow([key, *(repr(float(table.columns[c][i])) for c in names)])


class TestCSVStreaming:
    def test_csv_source_reads_only_header_metadata(self, tmp_path):
        table = make_tables(1)[0]
        path = tmp_path / f"{table.name}.csv"
        write_csv(path, table)
        source = csv_source(path)
        assert source.name == table.name
        assert source.columns == tuple(table.columns)
        loaded = source.loader()
        assert loaded.keys == load_csv_table(path).keys

    def test_ingest_csv_matches_append_of_loaded_tables(self, tmp_path):
        tables = make_tables(5)
        csv_dir = tmp_path / "csvs"
        csv_dir.mkdir()
        paths = []
        for table in tables:
            path = csv_dir / f"{table.name}.csv"
            write_csv(path, table)
            paths.append(path)

        streamed = LakeStore.create(tmp_path / "streamed", fresh_sketcher())
        shard_id, report = streamed.ingest_csv(paths, chunk_bytes=1)
        streamed.close()
        assert report is not None
        assert report.tables == len(tables)
        assert report.chunks == len(tables)
        assert report.peak_chunk_bytes > 0

        eager = LakeStore.create(tmp_path / "eager", fresh_sketcher())
        eager.append([load_csv_table(path) for path in paths])
        eager.close()

        assert lake_fingerprint(tmp_path / "streamed") == lake_fingerprint(
            tmp_path / "eager"
        )
        assert shard_id is not None


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------


class TestCrashSafety:
    def test_failed_stream_leaves_store_unchanged(self, tmp_path, monkeypatch):
        tables = make_tables(6)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:3])
        before = lake_fingerprint(tmp_path / "lake")

        calls = {"n": 0}
        original = WeightedMinHash.sketch_batch

        def failing(self, matrix):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-stream crash")
            return original(self, matrix)

        monkeypatch.setattr(WeightedMinHash, "sketch_batch", failing)
        with pytest.raises(RuntimeError, match="mid-stream"):
            store.append(tables[3:], chunk_bytes=1)
        monkeypatch.setattr(WeightedMinHash, "sketch_batch", original)

        # Nothing committed, the temp file was aborted, and the served
        # state still answers for the original tables.
        assert lake_fingerprint(tmp_path / "lake") == before
        assert store.orphaned_files() == []
        assert sorted(store.table_names()) == sorted(t.name for t in tables[:3])
        store.append(tables[3:])  # the lake is still writable
        assert len(store) == 6
        store.close()

    def test_crash_before_manifest_commit_leaves_ignorable_orphan(
        self, tmp_path, monkeypatch
    ):
        tables = make_tables(6)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables[:3])
        manifest_before = (tmp_path / "lake" / "manifest.json").read_bytes()

        # Die between the shard rename and the manifest save — the
        # worst spot: a fully durable shard nobody references.
        def crashing_save(self, path):
            raise RuntimeError("simulated crash before manifest commit")

        monkeypatch.setattr(Manifest, "save", crashing_save)
        with pytest.raises(RuntimeError, match="manifest commit"):
            store.append(tables[3:], chunk_bytes=1)
        monkeypatch.undo()
        store.close()

        assert (
            tmp_path / "lake" / "manifest.json"
        ).read_bytes() == manifest_before
        reopened = LakeStore.open(tmp_path / "lake")
        assert sorted(reopened.table_names()) == sorted(
            t.name for t in tables[:3]
        )
        orphans = reopened.orphaned_files()
        assert orphans  # the uncommitted shard is detectable...
        for name in orphans:  # ...and ignorable: delete and carry on
            (tmp_path / "lake" / name).unlink()
        reopened.append(tables[3:])
        assert len(reopened) == 6
        assert reopened.orphaned_files() == []
        reopened.close()

    def test_unfinalized_tmp_is_ignored_on_open(self, tmp_path):
        tables = make_tables(3)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        store.append(tables)
        store.close()
        # A hard kill mid-stream leaves a pre-sized temp file.
        junk = tmp_path / "lake" / (shard_filename(99) + ".tmp")
        junk.write_bytes(b"\x00" * 128)
        reopened = LakeStore.open(tmp_path / "lake")
        assert sorted(reopened.table_names()) == sorted(t.name for t in tables)
        assert reopened.orphaned_files() == [junk.name]
        reopened.close()

    def test_concurrent_writer_rejected_before_streaming(self, tmp_path):
        pytest.importorskip("fcntl")
        import fcntl

        tables = make_tables(2)
        store = LakeStore.create(tmp_path / "lake", fresh_sketcher())
        handle = open(tmp_path / "lake" / ".lock", "a+")
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        try:
            with pytest.raises(StoreError, match="another process"):
                store.append(tables)
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        # No temp litter from the rejected attempt.
        assert store.orphaned_files() == []
        store.close()


class _WorkerKillingMH(MinHash):
    """MinHash that kills any pool worker sketching with it while ``lethal``.

    The ingesting process (``parent_pid``) sketches normally, so only the
    pooled path sees the death — like an OOM-killed worker.
    """

    lethal = False
    parent_pid = -1

    def sketch_batch(self, matrix):
        if self.lethal and os.getpid() != self.parent_pid:
            os._exit(1)
        return super().sketch_batch(matrix)


class TestBrokenPoolRecovery:
    def test_pooled_append_survives_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setenv(NO_CLAMP_ENV, "1")
        tables = make_tables(6)
        sketcher = _WorkerKillingMH(m=32, seed=5)
        store = LakeStore.create(tmp_path / "lake", sketcher)
        store.append(tables[:2])
        before = lake_fingerprint(tmp_path / "lake")

        sketcher.lethal, sketcher.parent_pid = True, os.getpid()
        with pytest.raises(BrokenExecutor):
            store.append(tables[2:4], workers=2, chunk_bytes=1)
        # Nothing committed, no temp litter, the old tables still serve.
        assert lake_fingerprint(tmp_path / "lake") == before
        assert store.orphaned_files() == []
        assert sorted(store.table_names()) == ["table0", "table1"]

        # The poisoned pool was evicted: the same worker count works
        # again without any manual shutdown_pools() call.
        sketcher.lethal = False
        store.append(tables[2:], workers=2, chunk_bytes=1)
        assert len(store) == 6
        store.close()
        assert LakeStore.fsck(tmp_path / "lake")["clean"]
