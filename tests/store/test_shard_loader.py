"""The store's one shard loader: layout checks and legacy object banks.

Every shard a store opens goes through ``repro.store.shard.load_shard``,
which checks each column's name, row shape and dtype against the
sketcher's ``bank_layout()`` and repacks shards written in the older
object-column format (ICWS, priority sampling and b-bit MinHash stored
nested per-sketch payloads) into columnar banks.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.bank import SketchBank
from repro.core.wmh import WeightedMinHash
from repro.datasearch.table import Table
from repro.io.serialize import pack_shard, unpack_shard
from repro.store import LakeStore, QuerySession, StoreError
from repro.store.shard import shard_filename

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "legacy_object_banks"
LEGACY_KINDS = ("ICWS", "PS", "bbit")


def make_tables(count: int = 3, seed: int = 0, rows: int = 40) -> list[Table]:
    rng = np.random.default_rng(seed)
    return [
        Table(
            f"table{i}",
            [f"k{j}" for j in rng.choice(200, size=rows, replace=False)],
            {"alpha": rng.normal(size=rows)},
        )
        for i in range(count)
    ]


def hit_rows(hits) -> list[list]:
    return [
        [h.table_name, h.column, h.join_size, h.containment, h.score, h.correlation]
        for h in hits
    ]


# ----------------------------------------------------------------------
# typed column check
# ----------------------------------------------------------------------


def _rename_hashes(columns: dict) -> None:
    columns["hashez"] = columns.pop("hashes")


def _narrow_values(columns: dict) -> None:
    columns["values"] = columns["values"].astype(np.float32)


def _truncate_rows(columns: dict) -> None:
    columns["hashes"] = columns["hashes"][:, :-1]


def _drop_norms(columns: dict) -> None:
    del columns["norms"]


MUTATIONS = {
    "renamed": _rename_hashes,
    "dtype": _narrow_values,
    "row_shape": _truncate_rows,
    "missing": _drop_norms,
}


class TestColumnLayoutCheck:
    @pytest.fixture
    def crafted_lake(self, tmp_path, request):
        """A WMH lake whose one shard has a mutated column (valid CRC)."""
        lake = tmp_path / "lake"
        store = LakeStore.create(lake, WeightedMinHash(m=16, seed=1, L=1 << 12))
        shard_id = store.append(make_tables(), index=False)
        store.close()
        path = lake / shard_filename(shard_id)
        bank = unpack_shard(path.read_bytes())
        columns = dict(bank.columns)
        MUTATIONS[request.param](columns)
        path.write_bytes(
            pack_shard(
                SketchBank(
                    kind=bank.kind,
                    params=bank.params,
                    columns=columns,
                    words_per_sketch=bank.words_per_sketch,
                )
            )
        )
        return lake, path.name

    @pytest.mark.parametrize("crafted_lake", sorted(MUTATIONS), indirect=True)
    def test_open_raises_store_error(self, crafted_lake):
        lake, _ = crafted_lake
        with pytest.raises(StoreError, match="layout"):
            LakeStore.open(lake)

    @pytest.mark.parametrize("crafted_lake", sorted(MUTATIONS), indirect=True)
    def test_fsck_reports_the_shard(self, crafted_lake):
        lake, filename = crafted_lake
        report = LakeStore.fsck(lake)
        assert not report["clean"]
        assert report["shards"][filename].startswith("corrupt")
        assert "layout" in report["shards"][filename]

    @pytest.mark.parametrize("crafted_lake", ["renamed"], indirect=True)
    def test_salvage_skips_the_shard(self, crafted_lake):
        lake, filename = crafted_lake
        with LakeStore.open(lake, salvage=True) as store:
            assert len(store) == 0
            assert any(filename in line for line in store.degraded)


# ----------------------------------------------------------------------
# legacy object-column stores
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def legacy_query() -> tuple[Table, int]:
    spec = json.loads((FIXTURES / "query.json").read_text())
    table = Table(spec["name"], spec["keys"], {"signal": np.array(spec["signal"])})
    return table, spec["top_k"]


@pytest.fixture(scope="module")
def legacy_expected() -> dict:
    return json.loads((FIXTURES / "expected.json").read_text())


def legacy_copy(tmp_path: Path, kind: str) -> Path:
    """A private copy: opening and querying must not touch the fixture."""
    target = tmp_path / kind
    shutil.copytree(FIXTURES / kind, target)
    return target


class TestLegacyObjectBanks:
    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_fixture_shards_use_object_columns(self, kind):
        for shard in sorted((FIXTURES / kind).glob("shard-*.rpro")):
            bank = unpack_shard(shard.read_bytes())
            assert bank.is_object_bank(), shard

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_opens_columnar_and_passes_fsck(self, tmp_path, kind):
        lake = legacy_copy(tmp_path, kind)
        report = LakeStore.fsck(lake)
        assert report["clean"], report["problems"]
        with LakeStore.open(lake) as store:
            assert store.degraded == []
            layout = store.sketcher.bank_layout()
            for bank in store._banks.values():
                assert sorted(bank.columns) == sorted(layout)

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_answers_exactly_as_recorded(
        self, tmp_path, kind, zero_copy, legacy_query, legacy_expected
    ):
        query, top_k = legacy_query
        with LakeStore.open(legacy_copy(tmp_path, kind), zero_copy=zero_copy) as store:
            hits = QuerySession(store, min_containment=0.0).search(
                query, "signal", top_k=top_k
            )
        got, want = hit_rows(hits), legacy_expected[kind]
        assert [row[:2] for row in got] == [row[:2] for row in want]
        np.testing.assert_array_equal(
            np.array([row[2:] for row in got], dtype=float),
            np.array([row[2:] for row in want], dtype=float),
        )

    @pytest.mark.parametrize("kind", LEGACY_KINDS)
    def test_append_and_compact_migrate_to_columnar(self, tmp_path, kind):
        lake = legacy_copy(tmp_path, kind)
        with LakeStore.open(lake) as store:
            store.append(make_tables(1, seed=9), index=False)
            store.compact()
        for shard in lake.glob("shard-*.rpro"):
            assert not unpack_shard(shard.read_bytes()).is_object_bank()
        with LakeStore.open(lake) as store:
            assert "table0" in store
            assert LakeStore.fsck(lake)["clean"]
