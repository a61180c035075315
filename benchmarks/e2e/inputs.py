"""Seeded input generator shared by every workload.

Everything the benchmark feeds the program is a pure function of
``(seed, scale)``: the lake CSVs, the query tables (hot set, check set,
cold-start probes, the fresh stream) and the writer's batches.  Each
kind of input draws from its own ``numpy`` stream keyed on
``(seed, kind, index)``, so the n-th fresh request is the same table no
matter which client thread sends it or how many came before.

The lake plants a known answer.  A shared domain of keys ``k{j}`` each
carries a latent signal ``z``; the joinable tables draw their keys from
that domain, and column ``c0`` of the first ``planted`` of them tracks
``z`` with correlation 0.9.  Query tables hold ``signal = z + 0.5 *
noise`` over keys from the same domain, so their exact top-10 by
absolute post-join correlation is well separated from the rest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasearch.table import Table

#: Stream identifiers: one independent RNG stream per kind of input.
_LATENT, _LAKE, _HOT, _CHECK, _PROBE, _FRESH, _BATCH = range(7)

QUERY_COLUMN = "signal"
VALUE_COLUMNS = ("c0", "c1", "c2")
PLANTED_CORRELATION = 0.9
NOISE_CORRELATION = 0.3
TOP_K = 10
MIN_CONTAINMENT = 0.05
#: The CLI's default sketch budget: WMH ``from_storage(300)``, m = 200.
SKETCH_STORAGE = 300


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    tables: int  # lake tables table0..table{n-1}
    rows: int  # rows per lake table
    joinable: int  # tables 0..joinable-1 draw keys from the shared domain
    planted: int  # tables 0..planted-1 carry c0 ~ z at 0.9
    domain: int  # shared keys k0..k{domain-1}
    query_rows: int  # keys per query table
    hot: int  # tables in the hot set
    check: int  # extra query tables served once for the gate and recall
    probes: int  # set-ups timed for setup_s; LakeStore.open calls replayed
    probe_gap_s: float  # pause before each timed set-up
    fresh_warmup: int  # fresh tables sent before timing
    check_every: int  # every n-th fresh request is checked
    replay: int  # sampled requests replayed in-process when traced
    sketch_tables: int  # lake tables in the WMH kernel probe
    batch_tables: int  # tables per writer commit
    batch_joinable_every: int  # one in this many batch tables joins
    batch_interval_s: float  # writer schedule
    recall_floor: float  # a lower mean recall@10 fails the correctness gate


SCALES = {
    "full": Scale(
        tables=160,
        rows=120,
        joinable=20,
        planted=10,
        domain=200,
        query_rows=60,
        hot=8,
        check=24,
        probes=16,
        # The host's speed switches between two levels about 1.5x apart
        # within a second or a few; set-ups spread over 3 s average them.
        probe_gap_s=0.15,
        # The minima cache (256 MiB, 1600 B a column) fills after about
        # 1450 fresh tables; the slowest window seen served 1000.
        fresh_warmup=600,
        check_every=50,
        replay=200,
        sketch_tables=50,
        batch_tables=10,
        batch_joinable_every=5,
        batch_interval_s=1.0,
        recall_floor=0.5,
    ),
    "smoke": Scale(
        tables=30,
        rows=40,
        joinable=12,
        planted=10,
        domain=100,
        query_rows=40,
        hot=3,
        check=3,
        probes=2,
        probe_gap_s=0.0,
        fresh_warmup=3,
        check_every=5,
        replay=10,
        sketch_tables=5,
        batch_tables=3,
        batch_joinable_every=3,
        batch_interval_s=0.5,
        recall_floor=0.0,
    ),
}


class Inputs:
    """Every input of one ``(seed, scale)`` configuration."""

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.domain_keys = [f"k{j}" for j in range(scale.domain)]
        self.latent = self._rng(_LATENT, 0).normal(size=scale.domain)

    def _rng(self, kind: int, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, kind, index])

    def _correlated(self, rng: np.random.Generator, idx: np.ndarray, rho: float) -> np.ndarray:
        noise = rng.normal(size=idx.size)
        return rho * self.latent[idx] + math.sqrt(1.0 - rho * rho) * noise

    # ------------------------------------------------------------------
    # the lake and the writer's batches
    # ------------------------------------------------------------------

    def _data_table(
        self, name: str, rng: np.random.Generator, joinable: bool, planted: bool
    ) -> Table:
        rows = self.scale.rows
        if not joinable:
            keys = [f"{name}r{r}" for r in range(rows)]
            return Table(name, keys, {c: rng.normal(size=rows) for c in VALUE_COLUMNS})
        idx = rng.choice(self.scale.domain, size=rows, replace=False)
        columns = {}
        for col in VALUE_COLUMNS:
            if planted and col == "c0":
                rho = PLANTED_CORRELATION
            else:
                rho = rng.uniform(0.0, NOISE_CORRELATION)
            columns[col] = self._correlated(rng, idx, rho)
        return Table(name, [self.domain_keys[j] for j in idx], columns)

    def lake_table(self, i: int) -> Table:
        s = self.scale
        return self._data_table(f"table{i}", self._rng(_LAKE, i), i < s.joinable, i < s.planted)

    def lake(self) -> list[Table]:
        return [self.lake_table(i) for i in range(self.scale.tables)]

    def batch(self, b: int) -> list[Table]:
        """The writer's ``b``-th commit; one in ``batch_joinable_every``
        of its tables joins the query domain."""
        s = self.scale
        return [
            self._data_table(
                f"new{b}x{i}",
                self._rng(_BATCH, b * s.batch_tables + i),
                joinable=i % s.batch_joinable_every == 0,
                planted=False,
            )
            for i in range(s.batch_tables)
        ]

    # ------------------------------------------------------------------
    # query tables
    # ------------------------------------------------------------------

    def _query_table(self, name: str, rng: np.random.Generator) -> Table:
        idx = rng.choice(self.scale.domain, size=self.scale.query_rows, replace=False)
        signal = self.latent[idx] + 0.5 * rng.normal(size=idx.size)
        return Table(name, [self.domain_keys[j] for j in idx], {QUERY_COLUMN: signal})

    def hot_set(self) -> list[Table]:
        return [self._query_table(f"hot{h}", self._rng(_HOT, h)) for h in range(self.scale.hot)]

    def check_set(self) -> list[Table]:
        return [
            self._query_table(f"check{c}", self._rng(_CHECK, c)) for c in range(self.scale.check)
        ]

    def probe(self, i: int) -> Table:
        return self._query_table(f"probe{i}", self._rng(_PROBE, i))

    def fresh(self, n: int) -> Table:
        """The ``n``-th never-seen query table: unique name, new keys and
        values (the server's sketch cache is keyed by table name)."""
        return self._query_table(f"fresh{n}", self._rng(_FRESH, n))


def write_csv(table: Table, directory: Path) -> Path:
    """``key,c0,...`` with shortest round-trip float text, so the same
    table always produces the same bytes."""
    path = directory / f"{table.name}.csv"
    columns = [table.columns[c].tolist() for c in table.columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["key", *table.columns])
        for r, key in enumerate(table.keys):
            writer.writerow([key, *(repr(col[r]) for col in columns)])
    return path


def write_csvs(tables: list[Table], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    return [write_csv(table, directory) for table in tables]


def exact_top(query: Table, lake: list[Table], k: int = TOP_K) -> list[tuple[str, str]]:
    """Exact top-``k`` ``(table, column)`` by |post-join correlation|.

    Ground truth from the raw tables: tables sharing no key with the
    query are skipped, the rest must reach ``MIN_CONTAINMENT`` of the
    query's rows, and undefined correlations never rank.
    """
    query_keys = set(query.keys)
    scored = []
    for table in lake:
        if query_keys.isdisjoint(table.keys):
            continue
        joined = query.join(table)
        if joined.size / query.num_rows < MIN_CONTAINMENT:
            continue
        for column in table.columns:
            rho = joined.correlation(QUERY_COLUMN, column)
            if not math.isnan(rho):
                scored.append((-abs(rho), table.name, column))
    scored.sort()
    return [(name, column) for _, name, column in scored[:k]]


def recall(served: list[tuple[str, str]], exact: list[tuple[str, str]]) -> float:
    """Share of the exact top-k that the served top-k contains."""
    if not exact:
        return 1.0
    return len(set(served) & set(exact)) / len(exact)
