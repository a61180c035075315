"""``LakeStore`` — a durable, incrementally-ingested sketch lake.

The paper's economics only work if the lake is sketched **once**: the
expensive pass over raw tables happens at ingest, and every later
process serves queries from the compact sketches.  ``LakeStore`` is
that durable substrate:

* a lake is a directory of binary **shard files** (one packed
  :class:`~repro.core.bank.SketchBank` per ingest batch) plus a JSON
  **manifest** recording the sketcher configuration, the table catalog
  with per-shard row spans, and tombstones;
* :meth:`append` sketches *only* the new tables — one
  ``sketch_batch`` call per byte-budgeted chunk, streamed into the new
  shard, never re-sketching existing data — and commits shard-first /
  manifest-last so a crash can at worst leave an orphaned file the
  next open ignores;
* re-ingesting a table name tombstones the old span (shards are
  immutable); :meth:`compact` merges all live spans into one fresh
  shard and reclaims the dead rows;
* :meth:`open` reconstructs the in-memory
  :class:`~repro.datasearch.index.SketchIndex` straight from the
  stored banks — zero-copy over memory-mapped shards, no ``Table``
  objects, no re-sketching — and refuses a caller-provided sketcher
  whose configuration does not match the stored one
  (:class:`~repro.core.base.SketchMismatchError`).

Because banks persist losslessly (raw float64 columns, no hash
quantization), a reopened lake returns search rankings and estimates
bit-identical to the in-memory index built from the same tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import random
import signal
import threading
import time
from pathlib import Path

import numpy as np
from typing import Any, Iterable, Iterator, Sequence

try:  # advisory inter-process write locking (POSIX only)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import faults, obs
from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.datasearch.index import SketchIndex
from repro.datasearch.lshindex import DEFAULT_TARGET_RECALL, LakeIndex
from repro.datasearch.table import Table
from repro.io.serialize import (
    SerializationError,
    pack_lsh_index,
    unpack_lsh_index,
)
from repro.mips.lsh import SignatureLSH, tune
from repro.parallel.streaming import (
    IngestReport,
    SourceTable,
    plan_shard,
    plan_spans,
    stream_sources,
)
from repro.store.config import build_sketcher, check_sketcher_config, sketcher_config
from repro.store.csvio import csv_source
from repro.store.manifest import (
    IndexRecord,
    Manifest,
    ManifestError,
    ShardRecord,
    TableSpan,
    previous_manifest_path,
)
from repro.store.shard import (
    SHARD_SUFFIX,
    ShardStreamWriter,
    index_filename,
    load_shard,
    shard_filename,
    write_bytes_atomic,
    write_shard,
)

__all__ = [
    "LOCK_TIMEOUT_ENV",
    "StoreError",
    "LakeStore",
    "is_lake_store",
    "store_generation",
]

_MANIFEST_NAME = "manifest.json"
_LOCK_NAME = ".lock"
_QUARANTINE_DIR = "quarantine"

#: Default writer-lock timeout in seconds (fractions allowed).  Unset
#: or 0 keeps the historical fail-fast behavior; a positive value makes
#: concurrent writers retry with jittered exponential backoff until the
#: deadline instead of one of them dying instantly.
LOCK_TIMEOUT_ENV = "REPRO_LOCK_TIMEOUT"

# Crash points of the store-level commit protocol: lock acquisition,
# the window between a durable shard and its manifest record, index
# emission, and the compaction swap.  Together with the shard/manifest
# failpoints these cover every ordering the torture harness must prove
# safe.
FP_LOCK_ACQUIRE = faults.register(
    "lake.lock.acquire", "before the writer flock is attempted"
)
FP_STREAM_BEGIN = faults.register(
    "lake.append.stream", "after the shard tmp exists, before streaming"
)
FP_COMMIT_SHARD_DURABLE = faults.register(
    "lake.commit.shard_durable", "shard renamed into place, manifest untouched"
)
FP_COMMIT_INDEX_EMITTED = faults.register(
    "lake.commit.index_emitted", "index generation written, manifest untouched"
)
FP_COMMIT_MANIFEST_SAVED = faults.register(
    "lake.commit.manifest_saved", "append committed, in-memory state not yet updated"
)
FP_INDEX_EMIT = faults.register(
    "lake.index.emit", "before the LSH index generation is written"
)
FP_COMPACT_SHARD_DURABLE = faults.register(
    "lake.compact.shard_durable", "merged shard durable, manifest untouched"
)
FP_COMPACT_MANIFEST_SAVED = faults.register(
    "lake.compact.manifest_saved", "compaction committed, old shards not yet deleted"
)


class StoreError(RuntimeError):
    """Raised on invalid lake-store operations or corrupted stores."""


def store_generation(path: str | Path) -> str | None:
    """A stable token of the lake's committed manifest generation.

    Every committed write rewrites ``manifest.json`` atomically, so the
    digest of its bytes identifies one committed generation: two
    processes (or two moments in time) see the same token iff they see
    the same committed catalog.  Readers use this to pin a snapshot —
    a serving tier polls the token and swaps its session only when the
    token moves — without parsing or validating the manifest on every
    poll.  Falls back to the retained previous generation when the live
    file is missing (mid-``os.replace`` is atomic, so this only happens
    on a never-initialized directory); returns ``None`` when neither
    exists.
    """
    manifest_path = Path(path) / _MANIFEST_NAME
    try:
        payload = manifest_path.read_bytes()
    except OSError:
        try:
            payload = previous_manifest_path(manifest_path).read_bytes()
        except OSError:
            return None
    return hashlib.sha256(payload).hexdigest()[:16]


def _resolve_lock_timeout(lock_timeout: float | None) -> float:
    """The effective writer-lock timeout: explicit arg, env, or 0."""
    if lock_timeout is not None:
        return max(float(lock_timeout), 0.0)
    raw = os.environ.get(LOCK_TIMEOUT_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(float(raw), 0.0)
    except ValueError as exc:
        raise StoreError(
            f"invalid {LOCK_TIMEOUT_ENV}={raw!r}: expected seconds as a number"
        ) from exc


@contextlib.contextmanager
def _deliver_sigterm_as_interrupt() -> Iterator[None]:
    """Convert SIGTERM into ``KeyboardInterrupt`` for the scope.

    Streaming ingest owns a visible temp file; a plain SIGTERM would
    kill the process without running the abort path and strand it.
    Inside this scope a TERM (or a ctrl-C, which already raises) lands
    as ``KeyboardInterrupt`` at the next bytecode boundary, the
    ``except BaseException`` cleanup aborts the shard writer, and the
    signal's intent is honored by re-raising out of the operation.
    Only the main thread can (and need) install handlers; elsewhere
    this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt("SIGTERM during streaming ingest")

    signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class LakeStore:
    """A sketched data lake persisted as shards + manifest.

    Construct via :meth:`create` (new lake) or :meth:`open` (existing
    directory); the constructor itself is internal.  Instances are
    usable as context managers::

        with LakeStore.open("lake.d") as store:
            hits = QuerySession(store).search(my_table, "price")
    """

    #: Auto-tuner defaults for the persisted LSH candidate index: the
    #: banding targets this expected recall at this (weighted Jaccard)
    #: similarity.  ``LSH_TARGET_SIM`` matches the default serving
    #: ``min_containment`` (containment upper-bounds Jaccard, so the
    #: S-curve is evaluated at the conservative end).
    LSH_TARGET_SIM = 0.05
    LSH_TARGET_RECALL = DEFAULT_TARGET_RECALL

    def __init__(
        self,
        path: Path,
        sketcher: Sketcher,
        manifest: Manifest,
        banks: dict[int, SketchBank],
        buffers: dict[int, mmap.mmap | None],
        zero_copy: bool,
        lake_index: LakeIndex | None = None,
        read_only: bool = False,
        degraded: list[str] | None = None,
    ) -> None:
        self.path = path
        self.sketcher = sketcher
        self._manifest = manifest
        self._banks = banks
        self._buffers = buffers
        self._zero_copy = zero_copy
        self._closed = False
        self._read_only = read_only
        #: Human-readable conditions this open survived in degraded
        #: form (manifest fallback, index fallback, salvaged shards).
        #: Empty for a healthy store.
        self.degraded: list[str] = list(degraded or [])
        #: The committed manifest generation this handle serves
        #: (refreshed after this handle's own commits; see
        #: :func:`store_generation`).
        self.generation: str | None = store_generation(path)
        self._index = self._build_index()
        if lake_index is not None:
            self._index.attach_lsh(lake_index)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, path: str | Path, sketcher: Sketcher) -> "LakeStore":
        """Initialize an empty lake at ``path`` (directory must be new
        or an empty/non-store directory without a manifest)."""
        path = Path(path)
        manifest_path = path / _MANIFEST_NAME
        if manifest_path.exists():
            raise StoreError(
                f"{path} already holds a lake store; use LakeStore.open"
            )
        path.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(sketcher=sketcher_config(sketcher))
        manifest.save(manifest_path)
        return cls(path, sketcher, manifest, {}, {}, zero_copy=True)

    @classmethod
    def open(
        cls,
        path: str | Path,
        sketcher: Sketcher | None = None,
        zero_copy: bool = True,
        salvage: bool = False,
    ) -> "LakeStore":
        """Open an existing lake and rebuild its index from the shards.

        ``sketcher`` is optional: by default the stored configuration
        is rebuilt exactly.  Passing one asserts it matches the stored
        configuration (``SketchMismatchError`` otherwise) — use this to
        share a sketcher instance across stores.  ``zero_copy=False``
        materializes the banks in memory instead of memory-mapping the
        shard files.

        Degraded opens: a torn or corrupt ``manifest.json`` falls back
        to the retained previous generation; a missing, corrupt, or
        catalog-mismatched LSH index file is *dropped* instead of
        failing the open — queries route through scan candidates (or a
        lazy in-memory rebuild) and ``query.route.scan_fallback``
        counts the downgrades.  Corrupt or missing **shards** still
        refuse the open (data, not an accelerator) unless
        ``salvage=True``, which skips unreadable shards and serves the
        surviving tables **read-only**; ``store.degraded`` lists what
        was lost and :meth:`repair` makes the store writable again.
        """
        path = Path(path)
        with obs.trace_span(
            "store.open", path=str(path), zero_copy=zero_copy, salvage=salvage
        ):
            degraded: list[str] = []
            manifest = cls._load_manifest(path, degraded)
            if sketcher is None:
                sketcher = build_sketcher(manifest.sketcher)
            else:
                check_sketcher_config(manifest.sketcher, sketcher)
            banks: dict[int, SketchBank] = {}
            buffers: dict[int, mmap.mmap | None] = {}
            for shard in manifest.shards:
                shard_path = path / shard.filename
                try:
                    if not shard_path.is_file():
                        raise StoreError(
                            f"open {path}: manifest references missing shard "
                            f"{shard.filename}"
                        )
                    bank, buffer = load_shard(shard_path, sketcher, zero_copy)
                except (StoreError, SerializationError) as exc:
                    if not salvage:
                        if isinstance(exc, StoreError):
                            raise
                        raise StoreError(
                            f"open {path}: corrupt shard {shard.filename}: {exc}"
                        ) from exc
                    degraded.append(f"shard {shard.filename} skipped: {exc}")
                    obs.count("store.recovery.shards_skipped")
                    continue
                banks[shard.shard_id] = bank
                buffers[shard.shard_id] = buffer
            lake_index = cls._load_lsh_index(path, manifest, degraded)
            if lake_index is not None and len(banks) != len(manifest.shards):
                # Salvage dropped shards: the persisted index covers
                # rows that no longer exist — do not serve it.
                lake_index = None
                degraded.append(
                    "lsh_index dropped: persisted index covers skipped shards"
                )
                obs.count("store.recovery.index_fallback")
                obs.count("query.route.scan_fallback")
            obs.count("store.opens")
            return cls(
                path,
                sketcher,
                manifest,
                banks,
                buffers,
                zero_copy=zero_copy,
                lake_index=lake_index,
                read_only=salvage,
                degraded=degraded,
            )

    @staticmethod
    def _load_manifest(path: Path, degraded: list[str]) -> Manifest:
        """Load the live manifest, falling back to the retained
        previous generation when the live one is torn or corrupt.

        The fallback is read-only recovery: the corrupt file is left in
        place for :meth:`fsck` to report (and :meth:`repair` to fix),
        and writes through this handle are refused by the writer lock's
        own staleness load until then.
        """
        manifest_path = path / _MANIFEST_NAME
        try:
            return Manifest.load(manifest_path)
        except ManifestError as primary:
            prev = previous_manifest_path(manifest_path)
            if not prev.is_file():
                raise
            try:
                manifest = Manifest.load(prev)
            except ManifestError:
                raise primary from None
            degraded.append(
                f"manifest: fell back to {prev.name} ({primary})"
            )
            obs.count("store.recovery.manifest_fallback")
            return manifest

    @staticmethod
    def _load_lsh_index(
        path: Path, manifest: Manifest, degraded: list[str]
    ) -> LakeIndex | None:
        """Read and validate the persisted LSH index, if the manifest
        records one.

        Manifests without an index section (older stores, sketchers
        without signature keys) return ``None`` — queries then rebuild
        the index lazily in memory.  A recorded index that is missing,
        fails its checksum, or disagrees with the catalog is treated
        the same way — the index is an accelerator, not data, so the
        open *degrades* to scan/lazy-rebuilt candidates instead of
        failing (``query.route.scan_fallback`` counts it; the dropped
        file stays on disk for ``fsck`` to classify).
        """
        record = manifest.index
        if record is None:
            return None
        problem: str | None = None
        index_path = path / record.filename
        if not index_path.is_file():
            problem = f"missing LSH index {record.filename}"
        else:
            try:
                lsh = unpack_lsh_index(index_path.read_bytes())
            except SerializationError as exc:
                problem = f"corrupt LSH index {record.filename}: {exc}"
            else:
                live_count = sum(1 for _ in manifest.live_spans())
                if (
                    lsh.bands != record.bands
                    or lsh.rows_per_band != record.rows_per_band
                    or len(lsh) != record.tables
                    or record.tables != live_count
                ):
                    problem = (
                        f"LSH index {record.filename} does not match the "
                        f"manifest catalog ({len(lsh)} indexed rows for "
                        f"{live_count} live tables)"
                    )
        if problem is not None:
            degraded.append(f"lsh_index dropped: {problem}")
            obs.count("store.recovery.index_fallback")
            obs.count("query.route.scan_fallback")
            return None
        return LakeIndex(lsh)

    def _build_index(self) -> SketchIndex:
        # Salvage opens may have skipped shards; only spans whose bank
        # actually loaded are served.
        return SketchIndex.from_banks(
            self.sketcher,
            (
                (
                    span.name,
                    span.num_rows,
                    span.columns,
                    self._banks[shard.shard_id][span.lo : span.hi],
                )
                for shard, span in self._manifest.live_spans()
                if shard.shard_id in self._banks
            ),
        )

    # ------------------------------------------------------------------
    # the served view
    # ------------------------------------------------------------------

    @property
    def index(self) -> SketchIndex:
        """The live :class:`SketchIndex` over all non-tombstoned tables."""
        self._check_open()
        return self._index

    def table_names(self) -> list[str]:
        self._check_open()
        return self._index.table_names()

    def __contains__(self, name: str) -> bool:
        self._check_open()
        return name in self._index

    def __len__(self) -> int:
        self._check_open()
        return len(self._index)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _writer_lock(
        self, lock_timeout: float | None = None, op: str = "write"
    ) -> Iterator[None]:
        """Serialize writers and fail cleanly on cross-process races.

        An exclusive flock guards append/compact.  With the default
        zero timeout a second concurrent writer gets a ``StoreError``
        immediately (the historical fail-fast contract); a positive
        ``lock_timeout`` (or ``REPRO_LOCK_TIMEOUT``) retries with
        jittered exponential backoff until the deadline, so two
        concurrent writers serialize instead of one dying.  Once
        locked, the on-disk manifest is compared against this process's
        view — a mismatch means another process committed since we
        opened, and continuing would lose its tables.
        """
        timeout = _resolve_lock_timeout(lock_timeout)
        handle = open(self.path / _LOCK_NAME, "a+")
        try:
            if fcntl is not None:
                faults.failpoint(FP_LOCK_ACQUIRE)
                self._acquire_flock(handle, timeout, op)
            try:
                on_disk = Manifest.load(self.path / _MANIFEST_NAME)
            except ManifestError as exc:
                raise StoreError(
                    f"{op} on {self.path}: cannot verify the on-disk manifest "
                    f"({exc}); run `python -m repro.store repair` first"
                ) from exc
            if on_disk != self._manifest:
                raise StoreError(
                    f"{op} on {self.path}: modified by another process since "
                    f"this store was opened; reopen it before writing"
                )
            yield
        finally:
            handle.close()  # closing the fd releases the flock

    def _acquire_flock(self, handle: Any, timeout: float, op: str) -> None:
        """Take the exclusive flock, retrying with jittered backoff.

        Jitter matters: two writers waking in lockstep would collide on
        every retry; multiplying the delay by a random factor in
        [0.5, 1) de-synchronizes them.  The delay doubles from 5 ms up
        to 200 ms, and the last sleep is clamped to the deadline, so a
        timeout of ``t`` never waits meaningfully past ``t``.
        """
        deadline = time.monotonic() + timeout
        delay = 0.005
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except OSError as exc:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    waited = (
                        f" (gave up after {timeout:g}s)" if timeout > 0 else ""
                    )
                    raise StoreError(
                        f"{op} on {self.path}: another process holds the "
                        f"writer lock{waited}"
                    ) from exc
                obs.count("store.lock_retries")
                time.sleep(min(remaining, delay * random.uniform(0.5, 1.0)))
                delay = min(delay * 2.0, 0.2)

    def append(
        self,
        tables: Iterable[Table],
        workers: int | None = None,
        index: bool = True,
        chunk_bytes: int | None = None,
        lock_timeout: float | None = None,
    ) -> int | None:
        """Sketch and persist a batch of new tables as one shard.

        Only the given tables are sketched; nothing already stored is
        touched.  A table whose name is already live replaces the old
        version: the new span wins and the old one is tombstoned (space
        is reclaimed by :meth:`compact`).  Returns the new shard id, or
        ``None`` for an empty batch.

        Ingestion **streams**: tables are encoded and sketched in
        byte-budgeted chunks (``chunk_bytes``, default
        ``REPRO_INGEST_CHUNK_BYTES`` or 64 MiB) whose banks land
        directly in the pre-sized shard file, so peak memory is bounded
        by the chunk budget, not the batch.  ``workers`` fans the
        chunks out over that many processes, each writing its own shard
        region.  The shard bytes, manifest, and index are bit-identical
        for any chunk size and any worker count.

        ``index`` maintains the persisted LSH candidate index alongside
        the shard (sketchers with signature keys only): the new tables'
        digests are appended incrementally — existing rows are never
        re-digested — and the index file plus manifest section commit
        with the same shard-first/manifest-last crash safety as the
        data.  ``index=False`` drops the persisted index for this
        store; the next indexing append or :meth:`compact` rebuilds it.

        ``lock_timeout`` (seconds; default ``REPRO_LOCK_TIMEOUT`` or
        fail-fast) lets concurrent writers wait for the writer lock
        with jittered exponential backoff instead of erroring.
        """
        self._check_writable("append")
        sources = [SourceTable.from_table(table) for table in tables]
        shard_id, _ = self.append_sources(
            sources,
            workers=workers,
            index=index,
            chunk_bytes=chunk_bytes,
            lock_timeout=lock_timeout,
        )
        return shard_id

    def ingest_csv(
        self,
        paths: Iterable[str | Path],
        key_column: str | None = None,
        aggregate: str = "sum",
        workers: int | None = None,
        index: bool = True,
        chunk_bytes: int | None = None,
        lock_timeout: float | None = None,
    ) -> tuple[int | None, IngestReport]:
        """Stream CSV files into one shard without materializing them.

        Only each file's header is read up front (for planning); bodies
        are parsed inside the chunk stage, so at most one chunk's worth
        of files is ever in memory.  Returns ``(shard_id, report)`` —
        see :meth:`append_sources`.
        """
        sources = [
            csv_source(path, key_column=key_column, aggregate=aggregate)
            for path in paths
        ]
        return self.append_sources(
            sources,
            workers=workers,
            index=index,
            chunk_bytes=chunk_bytes,
            lock_timeout=lock_timeout,
        )

    def append_sources(
        self,
        sources: Iterable[SourceTable],
        workers: int | None = None,
        index: bool = True,
        chunk_bytes: int | None = None,
        lock_timeout: float | None = None,
    ) -> tuple[int | None, IngestReport]:
        """Stream lazily-loadable sources into one shard.

        The one ingest path, behind :meth:`append` and
        :meth:`ingest_csv`: plans the shard layout from the source
        metadata and the sketcher's ``bank_layout()``, streams every
        source through the fused parse → vectorize → sketch chunk stage
        straight into the pre-sized shard file, and commits
        shard-first / manifest-last.  Returns ``(shard_id, report)``;
        the report carries per-stage timings and the peak chunk
        footprint.  An empty batch writes nothing and returns
        ``(None, IngestReport())``.
        """
        self._check_writable("append")
        sources = list(sources)
        if not sources:
            return None, IngestReport()
        names = [source.name for source in sources]
        if len(set(names)) != len(names):
            raise StoreError(
                f"append to {self.path}: duplicate table names in one "
                f"batch: {names}"
            )

        obs.count("store.appends")
        plan = plan_shard(self.sketcher, sources)

        # The writer lock is taken before streaming begins: the stream
        # writes the next shard's temp file, and two uncoordinated
        # writers would race on the same shard id and temp path.  The
        # interrupt scope turns SIGTERM into an exception so the abort
        # path below always runs and no temp file outlives the process.
        with obs.trace_span(
            "store.append", tables=len(sources)
        ), _deliver_sigterm_as_interrupt(), self._writer_lock(
            lock_timeout, op="append"
        ):
            shard_id = self._manifest.next_shard_id
            filename = shard_filename(shard_id)
            writer = ShardStreamWriter(self.path / filename, plan)
            try:
                faults.failpoint(FP_STREAM_BEGIN)
                num_rows, report = stream_sources(
                    self.sketcher,
                    sources,
                    plan,
                    writer.tmp_path,
                    workers=workers,
                    chunk_bytes=chunk_bytes,
                )
                writer.finalize()
            except BaseException:
                # Nothing committed: drop the temp file so a failed
                # stream leaves the lake exactly as it was.
                writer.abort()
                raise
            # Serve the shard we just wrote through the usual read
            # path (zero-copy views by default) — the lake's resident
            # footprint stays bounded even right after ingest.
            bank, buffer = load_shard(
                self.path / filename, self.sketcher, self._zero_copy
            )
            spans = [
                TableSpan(
                    name=source.name,
                    num_rows=rows,
                    columns=source.columns,
                    lo=lo,
                    hi=hi,
                )
                for source, rows, (lo, hi) in zip(
                    sources, num_rows, plan_spans(sources)
                )
            ]
            stale_index = self._commit_shard_locked(
                shard_id, filename, spans, bank, index
            )
        self._finish_append(shard_id, bank, buffer, spans, stale_index)
        return shard_id, report

    def _commit_shard_locked(
        self,
        shard_id: int,
        filename: str,
        spans: Sequence[TableSpan],
        bank: SketchBank,
        index: bool,
    ) -> str | None:
        """Record a durable shard in the manifest (under the writer lock).

        Commit point: the shard bytes are already on disk, now the
        manifest.  Returns the superseded index filename, if any.
        """
        faults.failpoint(FP_COMMIT_SHARD_DURABLE)
        live = self._manifest.live_table_shard()
        for span in spans:
            if span.name in live:
                self._manifest.tombstones.add((live[span.name], span.name))
        self._manifest.shards.append(
            ShardRecord(shard_id=shard_id, filename=filename, tables=tuple(spans))
        )
        self._manifest.next_shard_id = shard_id + 1

        if index:
            # The persisted snapshot extends a copy of the
            # committed-tables index with the new rows — the served
            # in-memory state is only mutated after the commit, so
            # a failed save never leaves phantom tables.
            stale_index = self._write_append_index_locked(bank, spans)
        else:
            stale_index = self._drop_index_record()
        faults.failpoint(FP_COMMIT_INDEX_EMITTED)
        self._manifest.save(self.path / _MANIFEST_NAME)
        faults.failpoint(FP_COMMIT_MANIFEST_SAVED)
        return stale_index

    def _finish_append(
        self,
        shard_id: int,
        bank: SketchBank,
        buffer: mmap.mmap | None,
        spans: Sequence[TableSpan],
        stale_index: str | None,
    ) -> None:
        # Post-commit in-memory updates (what the old manifest already
        # served stays untouched if anything above raised).
        self._banks[shard_id] = bank
        self._buffers[shard_id] = buffer
        for span in spans:
            self._index.attach(
                span.name, span.num_rows, span.columns, bank[span.lo : span.hi]
            )
        self._remove_stale_index(stale_index)
        self.generation = store_generation(self.path)

    def compact(self, lock_timeout: float | None = None) -> dict[str, Any]:
        """Merge all live spans into one shard; reclaim tombstoned rows.

        Rewrites the lake as a single shard holding the live tables in
        shard (ingest) order, clears the tombstone list, deletes the
        old shard files, and rebuilds the in-memory index over the
        merged bank.  Returns ``{"shards_before", "shards_after",
        "rows_reclaimed"}``.  ``lock_timeout`` as in :meth:`append`.
        """
        self._check_writable("compact")
        shards_before = len(self._manifest.shards)
        rows_dead = self._manifest.dead_rows()
        if shards_before <= 1 and rows_dead == 0:
            return {
                "shards_before": shards_before,
                "shards_after": shards_before,
                "rows_reclaimed": 0,
            }
        obs.count("store.compactions")
        with obs.trace_span(
            "store.compact", shards=shards_before, dead_rows=rows_dead
        ):
            return self._compact(shards_before, rows_dead, lock_timeout)

    def _compact(
        self,
        shards_before: int,
        rows_dead: int,
        lock_timeout: float | None = None,
    ) -> dict[str, Any]:
        pieces: list[SketchBank] = []
        merged_spans: list[TableSpan] = []
        offset = 0
        for shard, span in self._manifest.live_spans():
            pieces.append(self._banks[shard.shard_id][span.lo : span.hi])
            width = span.hi - span.lo
            merged_spans.append(
                TableSpan(
                    name=span.name,
                    num_rows=span.num_rows,
                    columns=span.columns,
                    lo=offset,
                    hi=offset + width,
                )
            )
            offset += width
        if not pieces:
            raise StoreError(f"compact on {self.path}: cannot compact an empty store")
        merged = SketchBank.concat(pieces)

        with self._writer_lock(lock_timeout, op="compact"):
            shard_id = self._manifest.next_shard_id
            filename = shard_filename(shard_id)
            old_files = [shard.filename for shard in self._manifest.shards]
            write_shard(self.path / filename, merged)
            faults.failpoint(FP_COMPACT_SHARD_DURABLE)
            self._manifest.shards = [
                ShardRecord(
                    shard_id=shard_id, filename=filename, tables=tuple(merged_spans)
                )
            ]
            self._manifest.tombstones = set()
            self._manifest.next_shard_id = shard_id + 1
            # The LSH index is rebuilt from the merged bank directly —
            # the served in-memory state is swapped only post-commit.
            stale_index, lsh_snapshot = self._write_compact_index_locked(
                merged, merged_spans
            )
            self._manifest.save(self.path / _MANIFEST_NAME)
            faults.failpoint(FP_COMPACT_MANIFEST_SAVED)

        # Post-commit: swap the in-memory view to the merged shard.
        self._release_buffers()
        self._banks = {shard_id: merged}
        self._buffers = {shard_id: None}
        self._index = self._build_index()
        if lsh_snapshot is not None:
            self._index.attach_lsh(lsh_snapshot)
        for old in old_files:
            if old != filename:
                with contextlib.suppress(OSError):
                    (self.path / old).unlink()
        self._remove_stale_index(stale_index)
        self.generation = store_generation(self.path)
        return {
            "shards_before": shards_before,
            "shards_after": 1,
            "rows_reclaimed": rows_dead,
        }

    # ------------------------------------------------------------------
    # LSH index persistence
    # ------------------------------------------------------------------

    def _desired_banding(self) -> tuple[int, int]:
        """The **store-owned** banding for the persisted index.

        The existing record's split, or the auto-tuned split at the
        store's recall target.  Query sessions may build the in-memory
        index with their own tuning, but persistence never adopts it —
        otherwise a session-specific deep banding would become every
        future reader's default, silently collapsing their recall.
        """
        record = self._manifest.index
        if record is not None:
            return (record.bands, record.rows_per_band)
        return tune(
            self.sketcher.signature_length(),
            self.LSH_TARGET_SIM,
            self.LSH_TARGET_RECALL,
        )

    def _committed_lake_index(self, desired: tuple[int, int]) -> LakeIndex:
        """The in-memory index over committed tables, at ``desired``
        banding (rebuilt if a query path tuned it differently)."""
        lake = self._index.lsh_index(bands=desired[0], rows_per_band=desired[1])
        if (lake.bands, lake.rows_per_band) != desired:
            self._index.drop_lsh()
            lake = self._index.lsh_index(
                bands=desired[0], rows_per_band=desired[1]
            )
        return lake

    def _emit_index_locked(self, lsh: SignatureLSH, tables: int) -> str | None:
        """Write one index generation + repoint the manifest record.

        Must run under the writer lock, before the manifest is saved:
        the index file lands first (a crash leaves an orphan the old
        manifest never references), then the manifest repoints, then
        the caller deletes the stale generation after the commit.
        Returns the superseded filename, if any.
        """
        payload = pack_lsh_index(lsh)
        filename = index_filename(self._manifest.next_index_id)
        faults.failpoint(FP_INDEX_EMIT)
        write_bytes_atomic(self.path / filename, payload)
        old = self._manifest.index
        self._manifest.index = IndexRecord(
            filename=filename,
            bands=lsh.bands,
            rows_per_band=lsh.rows_per_band,
            tables=tables,
        )
        self._manifest.next_index_id += 1
        return old.filename if old is not None else None

    def _write_append_index_locked(
        self, bank: SketchBank, spans: Sequence[TableSpan]
    ) -> str | None:
        """Persist the index for an append batch; no served-state writes.

        Extends a *copy* of the committed-tables index with the new
        spans' indicator rows (digests are row-independent, so the copy
        is byte-identical to a from-scratch build over the post-append
        live-span order — ``SketchIndex`` moves replaced entries to the
        end, exactly where the replacing span lands).  The in-memory
        index picks the same rows up lazily after the commit.
        """
        if not LakeIndex.supports(self.sketcher):
            return None
        desired = self._desired_banding()
        lake = self._committed_lake_index(desired)
        matrix = lake.lsh.digest_matrix()
        # A replacing append tombstones the old span: its digest row is
        # dropped and the replacement lands at the end with the rest of
        # the batch — exactly the post-append live-span order.
        batch_names = {span.name for span in spans}
        keep = np.array(
            [name not in batch_names for name in self._index.table_names()],
            dtype=bool,
        )
        if not keep.all():
            matrix = matrix[keep]
        snapshot = LakeIndex(
            SignatureLSH.from_digests(desired[0], desired[1], matrix)
        )
        snapshot.extend(self.sketcher, bank[[span.lo for span in spans]])
        return self._emit_index_locked(
            snapshot.lsh, int(matrix.shape[0]) + len(spans)
        )

    def _write_compact_index_locked(
        self, merged: SketchBank, merged_spans: Sequence[TableSpan]
    ) -> tuple[str | None, LakeIndex | None]:
        """Rebuild + persist the index over a compacted lake's rows.

        Built from the merged bank directly (not the still-serving
        in-memory index), so the served state stays untouched until the
        manifest commit succeeds.  Returns ``(stale_file, snapshot)``;
        the caller attaches the snapshot to the rebuilt index.
        """
        if not LakeIndex.supports(self.sketcher):
            return None, None
        desired = self._desired_banding()
        indicator_rows = (
            merged[[span.lo for span in merged_spans]] if merged_spans else None
        )
        snapshot = LakeIndex.build(
            self.sketcher,
            indicator_rows,
            bands=desired[0],
            rows_per_band=desired[1],
        )
        return self._emit_index_locked(snapshot.lsh, len(snapshot)), snapshot

    def _drop_index_record(self) -> str | None:
        """Detach the persisted index (``append(index=False)``)."""
        record = self._manifest.index
        self._manifest.index = None
        return record.filename if record is not None else None

    def _remove_stale_index(self, filename: str | None) -> None:
        """Best-effort cleanup of a superseded index generation."""
        if filename is None:
            return
        current = self._manifest.index
        if current is not None and current.filename == filename:
            return
        with contextlib.suppress(OSError):
            (self.path / filename).unlink()

    # ------------------------------------------------------------------
    # accounting / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Catalog and footprint summary (CLI ``stats`` output)."""
        self._check_open()
        live_rows = sum(
            span.hi - span.lo for _, span in self._manifest.live_spans()
        )
        file_bytes = sum(
            (self.path / shard.filename).stat().st_size
            for shard in self._manifest.shards
            if (self.path / shard.filename).is_file()
        )
        record = self._manifest.index
        index_bytes = 0
        if record is not None and (self.path / record.filename).is_file():
            index_bytes = (self.path / record.filename).stat().st_size
            file_bytes += index_bytes
        return {
            "path": str(self.path),
            "generation": self.generation,
            "sketcher": dict(self._manifest.sketcher),
            "read_only": self._read_only,
            "degraded": list(self.degraded),
            "tables": len(self._index),
            "value_columns": len(self._index.value_owners()) if len(self._index) else 0,
            "shards": len(self._manifest.shards),
            "live_rows": live_rows,
            "dead_rows": self._manifest.dead_rows(),
            "tombstones": len(self._manifest.tombstones),
            "storage_words": self._index.storage_words() if len(self._index) else 0.0,
            "file_bytes": file_bytes,
            "lsh_index": (
                {
                    "bands": record.bands,
                    "rows_per_band": record.rows_per_band,
                    "tables": record.tables,
                    "file_bytes": index_bytes,
                }
                if record is not None
                else None
            ),
            # Mapped/loaded bank footprint; with zero-copy open this is
            # the mmapped size, not resident memory.
            "bank_bytes": sum(bank.nbytes() for bank in self._banks.values()),
        }

    def orphaned_files(self) -> list[str]:
        """Shard-like files in the directory the manifest does not own.

        Leftovers of interrupted appends — both unreferenced ``*.rpro``
        files whose manifest commit never happened and stale ``*.tmp``
        files from writes that died mid-stream; safe to delete
        (:meth:`repair` does).  The retained previous-generation
        manifest and the ``quarantine/`` directory are not orphans.
        """
        owned = {shard.filename for shard in self._manifest.shards}
        if self._manifest.index is not None:
            owned.add(self._manifest.index.filename)
        found = []
        for entry in sorted(self.path.iterdir()):
            if entry.is_dir() or entry.name == _MANIFEST_NAME or entry.name in owned:
                continue
            if entry.suffix == SHARD_SUFFIX or entry.name.endswith(".tmp"):
                found.append(entry.name)
        return found

    # ------------------------------------------------------------------
    # recovery (fsck / repair / salvage)
    # ------------------------------------------------------------------

    @classmethod
    def fsck(cls, path: str | Path) -> dict[str, Any]:
        """Verify a store's on-disk integrity without opening it.

        Checks manifest ↔ shard CRCs ↔ index catalog and classifies
        every file as clean / orphan / corrupt / missing.  See
        :func:`repro.store.recovery.fsck`.
        """
        from repro.store.recovery import fsck

        return fsck(path)

    @classmethod
    def repair(cls, path: str | Path) -> dict[str, Any]:
        """Restore a damaged store to a servable, writable state.

        Quarantines corrupt shards, drops their catalog entries,
        rebuilds the LSH index, and removes stale temp files.  See
        :func:`repro.store.recovery.repair`.
        """
        from repro.store.recovery import repair

        return repair(path)

    def close(self) -> None:
        """Release the store (memory maps are dropped; banks derived
        from this store must not be used afterwards)."""
        if self._closed:
            return
        self._closed = True
        self._index = None  # type: ignore[assignment]
        self._banks = {}
        self._release_buffers()

    def _release_buffers(self) -> None:
        for buffer in self._buffers.values():
            if buffer is not None:
                # The map survives until the last referencing array is
                # collected; closing eagerly fails while views exist.
                with contextlib.suppress(BufferError):
                    buffer.close()
        self._buffers = {}

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self.path}: the store is closed")

    def _check_writable(self, op: str) -> None:
        self._check_open()
        if self._read_only:
            raise StoreError(
                f"{op} on {self.path}: store was opened in salvage "
                f"(read-only) mode; run `python -m repro.store repair` "
                f"to make it writable again"
            )

    def __enter__(self) -> "LakeStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        status = "closed" if self._closed else f"tables={len(self._index)}"
        return f"LakeStore({str(self.path)!r}, {status})"


def is_lake_store(path: str | Path) -> bool:
    """True if ``path`` looks like an initialized lake directory.

    A directory whose live manifest is corrupt but whose retained
    previous generation loads still counts — :meth:`LakeStore.open`
    can serve it through the fallback and ``repair`` can fix it.
    """
    manifest_path = Path(path) / _MANIFEST_NAME
    try:
        Manifest.load(manifest_path)
    except ManifestError:
        try:
            Manifest.load(previous_manifest_path(manifest_path))
        except ManifestError:
            return False
    return True
