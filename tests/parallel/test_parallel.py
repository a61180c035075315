"""Pooled ingest determinism at the store level.

The load-bearing claim of :mod:`repro.parallel` is that the worker
count is *invisible* in the output: store manifests and shard bytes,
and search rankings are bit-identical for ``workers`` = 1, 2, 4 —
parallelism buys wall-clock time, never a different lake.  (Per-kind
byte identity across chunk budgets and real pools, and broken-pool
recovery, live in ``test_streaming.py``.)
"""

from __future__ import annotations

import numpy as np

from repro.datasearch.table import Table
from repro.experiments.runner import method_registry
from repro.store import LakeStore, QuerySession

WORKER_COUNTS = (1, 2, 4)


def build(name: str, seed: int = 3):
    return method_registry()[name].build(120, seed)


def make_tables(count: int = 6, seed: int = 3, rows: int = 60) -> list[Table]:
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(count):
        keys = [f"k{j}" for j in rng.choice(400, size=rows, replace=False)]
        tables.append(
            Table(
                f"table{i}",
                keys,
                {"alpha": rng.normal(size=rows), "beta": rng.uniform(1, 4, size=rows)},
            )
        )
    return tables


def make_query(seed: int = 11, rows: int = 80) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(400, size=rows, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=rows)})


class TestStoreDeterminism:
    def test_manifests_shards_and_rankings_bit_identical(self, tmp_path):
        tables = make_tables()
        query = make_query()
        fingerprints = {}
        for workers in WORKER_COUNTS:
            lake_dir = tmp_path / f"lake_w{workers}"
            store = LakeStore.create(lake_dir, build("WMH"))
            # Two appends so multi-shard manifests are covered.
            store.append(tables[:3], workers=workers)
            store.append(tables[3:], workers=workers)
            hits = QuerySession(store, min_containment=0.0).search(
                query, "signal", top_k=5
            )
            store.close()
            manifest = (lake_dir / "manifest.json").read_bytes()
            shards = [
                (f.name, f.read_bytes()) for f in sorted(lake_dir.glob("*.rpro"))
            ]
            fingerprints[workers] = (
                manifest,
                shards,
                [(h.table_name, h.column, h.score) for h in hits],
            )
        baseline = fingerprints[WORKER_COUNTS[0]]
        for workers in WORKER_COUNTS[1:]:
            assert fingerprints[workers] == baseline, f"workers={workers} diverged"

    def test_append_workers_matches_serial_append(self, tmp_path):
        tables = make_tables()
        serial = LakeStore.create(tmp_path / "serial", build("WMH"))
        serial.append(tables)
        parallel = LakeStore.create(tmp_path / "parallel", build("WMH"))
        parallel.append(tables, workers=3)
        s_manifest = (tmp_path / "serial" / "manifest.json").read_bytes()
        p_manifest = (tmp_path / "parallel" / "manifest.json").read_bytes()
        assert s_manifest == p_manifest
        serial.close()
        parallel.close()
