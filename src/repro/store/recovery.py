"""Store recovery: ``fsck`` (diagnose) and ``repair`` (restore).

A lake directory can degrade in exactly the ways its commit protocol
leaves open: orphaned files from interrupted appends, a torn or
bit-rotted manifest (disk corruption — the rename is atomic, so a
crash alone cannot tear it), shard files whose CRC no longer matches,
and an LSH index that disagrees with the catalog.  ``fsck`` walks the
full manifest ↔ shard ↔ index graph and classifies every file without
mutating anything; ``repair`` takes the writer lock and restores the
store to a servable, writable state:

* a corrupt live manifest is replaced by the retained previous
  generation;
* corrupt or missing shards are **quarantined** (moved into
  ``quarantine/``, never deleted — the bytes may still matter for
  forensics), their catalog entries dropped, and any table they held
  is resurrected from the latest surviving tombstoned span where one
  exists;
* the persisted LSH index is rebuilt from the surviving banks whenever
  it cannot be verified against the repaired catalog;
* unreferenced ``*.rpro`` files move to quarantine and stale ``*.tmp``
  files are deleted.

Both entry points are also exposed as ``python -m repro.store
fsck|repair`` and as :meth:`LakeStore.fsck` / :meth:`LakeStore.repair`.
Every action is counted under ``store.recovery.*``.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Any

try:  # advisory inter-process write locking (POSIX only)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.core.base import SketchMismatchError, Sketcher
from repro.datasearch.lshindex import LakeIndex
from repro.io.serialize import (
    SerializationError,
    pack_lsh_index,
    unpack_lsh_index,
)
from repro.mips.lsh import tune
from repro.core.bank import SketchBank
from repro.store.config import build_sketcher
from repro.store.manifest import (
    IndexRecord,
    Manifest,
    ManifestError,
    previous_manifest_path,
)
from repro.store.shard import (
    SHARD_SUFFIX,
    index_filename,
    load_shard,
    write_bytes_atomic,
)

__all__ = ["fsck", "repair"]

# Late import targets live in repro.store.lake, which imports this
# module lazily from LakeStore.fsck/repair — importing lake at call
# time (not module top) keeps the package import graph acyclic no
# matter which module loads first.


def _lake():
    from repro.store import lake

    return lake


def _load_any_manifest(path: Path) -> tuple[Manifest, bool]:
    """The live manifest, or the previous generation (restored flag)."""
    manifest_path = path / _lake()._MANIFEST_NAME
    try:
        return Manifest.load(manifest_path), False
    except ManifestError as primary:
        prev = previous_manifest_path(manifest_path)
        if not prev.is_file():
            raise
        try:
            return Manifest.load(prev), True
        except ManifestError:
            raise primary from None


def _verify_shard(shard_path: Path, sketcher: Sketcher) -> SketchBank:
    """Read one shard fully and check CRC, configuration and layout.

    Raises :class:`StoreError` (missing), :class:`SerializationError`
    (torn/corrupt payload, or columns that do not match the sketcher's
    bank layout), or :class:`SketchMismatchError` (bank does not belong
    to this sketcher).
    """
    if not shard_path.is_file():
        raise _lake().StoreError(f"missing shard {shard_path.name}")
    bank, _ = load_shard(shard_path, sketcher, zero_copy=False)
    return bank


def _index_problem(path: Path, manifest: Manifest) -> str | None:
    """Why the recorded LSH index cannot be trusted, or ``None``.

    Mirrors the open-time validation of ``LakeStore._load_lsh_index``;
    a manifest without an index section is fine (older stores rebuild
    lazily).
    """
    record = manifest.index
    if record is None:
        return None
    index_path = path / record.filename
    if not index_path.is_file():
        return f"missing LSH index {record.filename}"
    try:
        lsh = unpack_lsh_index(index_path.read_bytes())
    except SerializationError as exc:
        return f"corrupt LSH index {record.filename}: {exc}"
    live_count = sum(1 for _ in manifest.live_spans())
    if (
        lsh.bands != record.bands
        or lsh.rows_per_band != record.rows_per_band
        or len(lsh) != record.tables
        or record.tables != live_count
    ):
        return (
            f"LSH index {record.filename} does not match the manifest "
            f"catalog ({len(lsh)} indexed rows for {live_count} live tables)"
        )
    return None


def _scan_orphans(path: Path, manifest: Manifest) -> list[str]:
    """Shard-like files the manifest does not own (sorted names)."""
    lake = _lake()
    owned = {shard.filename for shard in manifest.shards}
    if manifest.index is not None:
        owned.add(manifest.index.filename)
    found = []
    for entry in sorted(path.iterdir()):
        if entry.is_dir() or entry.name == lake._MANIFEST_NAME or entry.name in owned:
            continue
        if entry.suffix == SHARD_SUFFIX or entry.name.endswith(".tmp"):
            found.append(entry.name)
    return found


def fsck(path: str | Path) -> dict[str, Any]:
    """Verify a store's on-disk integrity; classify, never mutate.

    Returns a report::

        {
          "path": ...,
          "clean": bool,          # nothing below found a problem
          "manifest": "ok" | "recovered-previous" | "unreadable: ...",
          "shards": {filename: "ok" | "missing" | "corrupt: ..."},
          "index": "ok" | "absent" | "<problem>",
          "orphans": [filenames],
          "problems": [human-readable strings],
        }

    Shard checks read every byte (CRC over the full payload) — this is
    O(store size) by design.  Raises :class:`StoreError` only when
    ``path`` is not a store directory at all.
    """
    lake = _lake()
    path = Path(path)
    if not path.is_dir():
        raise lake.StoreError(f"fsck {path}: not a directory")
    obs.count("store.recovery.fsck")
    report: dict[str, Any] = {
        "path": str(path),
        "clean": True,
        "manifest": "ok",
        "shards": {},
        "index": "absent",
        "orphans": [],
        "problems": [],
    }

    def problem(text: str) -> None:
        report["clean"] = False
        report["problems"].append(text)

    try:
        manifest, restored = _load_any_manifest(path)
    except ManifestError as exc:
        report["manifest"] = f"unreadable: {exc}"
        problem(f"manifest: {exc}")
        return report
    if restored:
        report["manifest"] = "recovered-previous"
        problem("manifest: live generation unreadable; previous loads")

    try:
        sketcher = build_sketcher(manifest.sketcher)
    except Exception as exc:  # config records are open input; classify
        problem(f"sketcher config: {exc}")
        return report

    for shard in manifest.shards:
        shard_path = path / shard.filename
        try:
            _verify_shard(shard_path, sketcher)
        except lake.StoreError:
            report["shards"][shard.filename] = "missing"
            problem(f"shard {shard.filename}: missing")
        except (SerializationError, SketchMismatchError) as exc:
            report["shards"][shard.filename] = f"corrupt: {exc}"
            problem(f"shard {shard.filename}: corrupt ({exc})")
        else:
            report["shards"][shard.filename] = "ok"

    if manifest.index is not None:
        index_problem = _index_problem(path, manifest)
        if index_problem is None:
            report["index"] = "ok"
        else:
            report["index"] = index_problem
            problem(f"index: {index_problem}")

    report["orphans"] = _scan_orphans(path, manifest)
    for orphan in report["orphans"]:
        problem(f"orphan: {orphan}")
    return report


def _quarantine(path: Path, filename: str) -> None:
    """Move ``filename`` into the store's ``quarantine/`` directory."""
    lake = _lake()
    target_dir = path / lake._QUARANTINE_DIR
    target_dir.mkdir(exist_ok=True)
    source = path / filename
    if source.is_file():
        os.replace(source, target_dir / filename)


def _resurrect_lost_tables(
    manifest: Manifest, lost_names: list[str], surviving_ids: set[int]
) -> list[str]:
    """Un-tombstone the latest surviving span of each lost table name.

    A quarantined shard held the *live* span of these tables; an older
    append of the same name may still exist as a tombstoned span in a
    surviving shard.  Serving yesterday's version beats serving
    nothing — the report says exactly which names came back (and which
    are gone for good).
    """
    resurrected = []
    for name in lost_names:
        candidates = [
            shard.shard_id
            for shard in manifest.shards
            if shard.shard_id in surviving_ids
            and any(span.name == name for span in shard.tables)
            and (shard.shard_id, name) in manifest.tombstones
        ]
        if candidates:
            manifest.tombstones.discard((max(candidates), name))
            resurrected.append(name)
    return resurrected


def _rebuild_index(
    path: Path, manifest: Manifest, sketcher: Sketcher, banks: dict[int, SketchBank]
) -> bool:
    """Rebuild + persist the LSH index from surviving banks.

    Returns ``True`` when a fresh generation was written; ``False``
    when the sketcher has no signature keys or nothing is live (the
    manifest's index section is cleared instead).
    """
    lake = _lake()
    record = manifest.index
    pieces = [
        banks[shard.shard_id][span.lo : span.lo + 1]
        for shard, span in manifest.live_spans()
    ]
    if not LakeIndex.supports(sketcher) or not pieces:
        manifest.index = None
        return False
    if record is not None:
        bands, rows_per_band = record.bands, record.rows_per_band
    else:
        bands, rows_per_band = tune(
            sketcher.signature_length(),
            lake.LakeStore.LSH_TARGET_SIM,
            lake.LakeStore.LSH_TARGET_RECALL,
        )
    snapshot = LakeIndex.build(
        sketcher,
        SketchBank.concat(pieces),
        bands=bands,
        rows_per_band=rows_per_band,
    )
    filename = index_filename(manifest.next_index_id)
    write_bytes_atomic(path / filename, pack_lsh_index(snapshot.lsh))
    manifest.index = IndexRecord(
        filename=filename,
        bands=bands,
        rows_per_band=rows_per_band,
        tables=len(snapshot),
    )
    manifest.next_index_id += 1
    obs.count("store.recovery.index_rebuilt")
    return True


def repair(path: str | Path) -> dict[str, Any]:
    """Restore a damaged store to a servable, writable state.

    Under the writer lock: restore the manifest from its previous
    generation if the live one is unreadable, quarantine every shard
    that fails verification (dropping its catalog entries and
    resurrecting lost tables from surviving tombstoned spans where
    possible), rebuild the LSH index when it cannot be verified against
    the repaired catalog, move unreferenced ``*.rpro`` files to
    ``quarantine/``, delete stale ``*.tmp`` files, and commit the
    repaired manifest.  Idempotent: repairing a healthy store changes
    nothing.

    Returns a report: ``manifest_restored``, ``quarantined``,
    ``tables_lost``, ``tables_resurrected``, ``index`` (``"kept"`` /
    ``"rebuilt"`` / ``"none"``), ``tmp_removed``, and ``actions`` (the
    human-readable log).  Raises :class:`StoreError` when no manifest
    generation is readable — there is nothing to repair *to*.
    """
    lake = _lake()
    path = Path(path)
    if not path.is_dir():
        raise lake.StoreError(f"repair {path}: not a directory")
    obs.count("store.recovery.repairs")
    with obs.trace_span("store.repair", path=str(path)):
        with open(path / lake._LOCK_NAME, "a+") as handle:
            if fcntl is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                except OSError as exc:
                    raise lake.StoreError(
                        f"repair on {path}: another process holds the writer lock"
                    ) from exc
            return _repair_locked(path)


def _repair_locked(path: Path) -> dict[str, Any]:
    lake = _lake()
    manifest_path = path / lake._MANIFEST_NAME
    report: dict[str, Any] = {
        "path": str(path),
        "manifest_restored": False,
        "quarantined": [],
        "tables_lost": [],
        "tables_resurrected": [],
        "index": "kept",
        "tmp_removed": [],
        "actions": [],
    }

    try:
        manifest, restored = _load_any_manifest(path)
    except ManifestError as exc:
        raise lake.StoreError(
            f"repair {path}: no readable manifest generation ({exc})"
        ) from exc
    if restored:
        # keep_previous=False: the previous generation is the only good
        # copy — retaining the corrupt live bytes over it would leave a
        # crash window with *no* readable manifest.
        manifest.save(manifest_path, keep_previous=False)
        report["manifest_restored"] = True
        report["actions"].append("restored manifest from previous generation")
        obs.count("store.recovery.manifest_restored")

    sketcher = build_sketcher(manifest.sketcher)

    # Verify every shard; quarantine what fails.
    banks: dict[int, SketchBank] = {}
    for shard in manifest.shards:
        try:
            banks[shard.shard_id] = _verify_shard(path / shard.filename, sketcher)
        except (lake.StoreError, SerializationError, SketchMismatchError) as exc:
            _quarantine(path, shard.filename)
            report["quarantined"].append(shard.filename)
            report["actions"].append(f"quarantined shard {shard.filename}: {exc}")
            obs.count("store.recovery.shards_quarantined")

    if report["quarantined"]:
        surviving_ids = set(banks)
        lost_names = sorted(
            span.name
            for shard in manifest.shards
            if shard.shard_id not in surviving_ids
            for span in shard.tables
            if manifest.is_live(shard.shard_id, span.name)
        )
        manifest.shards = [
            shard for shard in manifest.shards if shard.shard_id in surviving_ids
        ]
        manifest.tombstones = {
            (sid, name)
            for sid, name in manifest.tombstones
            if sid in surviving_ids
        }
        resurrected = _resurrect_lost_tables(manifest, lost_names, surviving_ids)
        report["tables_resurrected"] = resurrected
        report["tables_lost"] = [n for n in lost_names if n not in resurrected]
        for name in resurrected:
            report["actions"].append(
                f"resurrected table {name!r} from a surviving older span"
            )
        for name in report["tables_lost"]:
            report["actions"].append(f"table {name!r} lost with its only shard")

    # The index must verify against the *repaired* catalog; rebuild
    # from the surviving banks otherwise.
    if _index_problem(path, manifest) is not None or (
        manifest.index is None and LakeIndex.supports(sketcher) and banks
    ):
        if _rebuild_index(path, manifest, sketcher, banks):
            report["index"] = "rebuilt"
            report["actions"].append("rebuilt the LSH candidate index")
        else:
            report["index"] = "none"
            report["actions"].append("dropped the unverifiable LSH index record")

    manifest.save(manifest_path)

    # Orphan sweep (after the save: files the repaired manifest now
    # owns are no longer orphans; superseded index generations are).
    for orphan in _scan_orphans(path, manifest):
        if orphan.endswith(".tmp"):
            with contextlib.suppress(OSError):
                (path / orphan).unlink()
            report["tmp_removed"].append(orphan)
            report["actions"].append(f"removed stale temp file {orphan}")
        else:
            _quarantine(path, orphan)
            report["quarantined"].append(orphan)
            report["actions"].append(f"quarantined unreferenced file {orphan}")
        obs.count("store.recovery.orphans_removed")
    return report
