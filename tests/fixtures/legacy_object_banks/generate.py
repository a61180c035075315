"""Regenerate the legacy object-bank store fixtures.

ICWS, priority-sampling (PS) and b-bit MinHash shards used to hold a
single object-dtype column of nested per-sketch payloads.  The tiny
stores next to this script were written by a revision that still
stored them that way (commit 5e99e5a); ``tests/store/test_legacy_stores.py``
checks that they still open, pass ``fsck`` and answer every query
exactly as recorded in ``expected.json``.

Run from a checkout of such a revision::

    PYTHONPATH=src python tests/fixtures/legacy_object_banks/generate.py OUT_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.datasearch.table import Table
from repro.sketches.bbit import BbitMinHash
from repro.sketches.icws import ICWS
from repro.sketches.priority import PrioritySampling
from repro.store import LakeStore, QuerySession

SKETCHERS = {
    "ICWS": lambda: ICWS(m=16, seed=7),
    "PS": lambda: PrioritySampling(k=12, seed=7),
    "bbit": lambda: BbitMinHash(m=32, b=2, seed=7),
}
TOP_K = 5


def make_tables(seed: int = 1) -> list[Table]:
    rng = np.random.default_rng(seed)
    tables = []
    for i in range(6):
        keys = [f"k{j}" for j in rng.choice(120, size=30, replace=False)]
        columns = {
            f"c{c}": rng.normal(size=30).round(3) for c in range(1 + i % 2)
        }
        tables.append(Table(f"table{i}", keys, columns))
    return tables


def make_query(seed: int = 2) -> Table:
    rng = np.random.default_rng(seed)
    keys = [f"k{j}" for j in rng.choice(120, size=40, replace=False)]
    return Table("query", keys, {"signal": rng.normal(size=40).round(3)})


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    tables = make_tables()
    query = make_query()
    expected = {}
    for kind, factory in SKETCHERS.items():
        store = LakeStore.create(out / kind, factory())
        store.append(tables[:4])
        # A second shard that also replaces table0 (one tombstone).
        store.append(tables[4:] + [tables[0]])
        hits = QuerySession(store, min_containment=0.0).search(
            query, "signal", top_k=TOP_K
        )
        store.close()
        (out / kind / ".lock").unlink(missing_ok=True)
        expected[kind] = [
            [h.table_name, h.column, h.join_size, h.containment, h.score,
             h.correlation]
            for h in hits
        ]
    (out / "query.json").write_text(
        json.dumps(
            {
                "name": query.name,
                "keys": list(query.keys),
                "signal": query.column("signal").tolist(),
                "top_k": TOP_K,
            }
        )
    )
    (out / "expected.json").write_text(json.dumps(expected, indent=1))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
