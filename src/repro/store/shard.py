"""Shard files: atomic writes, zero-copy reads.

One shard file holds one packed :class:`~repro.core.bank.SketchBank`
(all encoded rows of one ingest batch, tables back to back) in the
``RPRO`` shard container of :func:`repro.io.serialize.pack_shard` —
length- and checksum-guarded so truncated or corrupted files are
rejected before any array is interpreted.

Writes are crash-safe: bytes go to a ``*.tmp`` sibling, are fsynced,
and the file is renamed into place.  A crash mid-write leaves only the
temp file, which opens ignore (the manifest never references it).

Reads default to **zero-copy**: the file is memory-mapped and the
returned bank's columns are read-only views into the map, so opening a
multi-gigabyte lake costs page-table setup, not a byte-for-byte copy;
pages fault in lazily as queries touch them.  :func:`load_shard` is the
one store-side loader: it also checks the bank against the sketcher's
configuration and column layout, and repacks shards written with the
older object-column format.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
import zlib
from pathlib import Path

import numpy as np

from repro import faults, obs
from repro.core.bank import OBJECT_COLUMN, SketchBank
from repro.core.base import Sketcher
from repro.io.serialize import (
    SerializationError,
    ShardStreamPlan,
    pack_shard,
    unpack_shard,
    write_chunk_rows,
)

# Failpoints covering every durability step of a shard's life: the
# atomic byte write (torn-capable), its fsyncs and rename, and the
# streamed writer's CRC patch / finalize / abort.  The torture harness
# crashes at each of these and asserts pre-or-post state on reopen.
FP_ATOMIC_WRITE = faults.register(
    "shard.atomic.write", "payload write of write_bytes_atomic (torn-capable)"
)
FP_ATOMIC_FSYNC = faults.register(
    "shard.atomic.fsync", "before fsync of the atomic tmp file"
)
FP_ATOMIC_RENAME = faults.register(
    "shard.atomic.rename", "before the tmp -> final rename"
)
FP_ATOMIC_DIRSYNC = faults.register(
    "shard.atomic.dirsync", "after rename, before the directory fsync"
)
FP_STREAM_WRITE_ROWS = faults.register(
    "shard.stream.write_rows", "before a chunk bank lands in the shard tmp"
)
FP_STREAM_FINALIZE_CRC = faults.register(
    "shard.stream.finalize.crc", "before the CRC-32 patch of a streamed shard"
)
FP_STREAM_FINALIZE_FSYNC = faults.register(
    "shard.stream.finalize.fsync", "after the CRC patch, before the file fsync"
)
FP_STREAM_FINALIZE_RENAME = faults.register(
    "shard.stream.finalize.rename", "before the streamed tmp -> shard rename"
)
FP_STREAM_ABORT = faults.register(
    "shard.stream.abort", "at the top of ShardStreamWriter.abort"
)
FP_DIR_FSYNC = faults.register(
    "shard.fsync_directory", "before any directory-entry fsync"
)

__all__ = [
    "SHARD_SUFFIX",
    "ShardStreamWriter",
    "shard_filename",
    "index_filename",
    "write_bytes_atomic",
    "write_chunk_rows",
    "write_shard",
    "read_shard",
    "load_shard",
]

#: Extension of shard (and LSH-index) files inside a lake directory.
SHARD_SUFFIX = ".rpro"


def shard_filename(shard_id: int) -> str:
    return f"shard-{shard_id:06d}{SHARD_SUFFIX}"


def index_filename(index_id: int) -> str:
    """Generation-numbered LSH-index file inside a lake directory.

    Index rewrites go to a fresh generation and the manifest repoints
    afterwards — same crash-safety story as shards: an interrupted
    write leaves only an unreferenced file the next open ignores.
    """
    return f"index-{index_id:06d}{SHARD_SUFFIX}"


def fsync_directory(path: Path) -> None:
    """Flush a directory's entry table (rename durability on ext4/xfs)."""
    faults.failpoint(FP_DIR_FSYNC)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    obs.count("store.fsyncs")


def write_bytes_atomic(path: Path, payload: bytes) -> int:
    """Durably write ``payload`` at ``path`` via tmp + fsync + rename.

    The directory fsync matters: without it a power cut can forget the
    rename itself even though the file's bytes are durable — and a
    later manifest commit could then point at a file that no longer
    exists.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        faults.torn_write(FP_ATOMIC_WRITE, handle, payload)
        handle.flush()
        faults.failpoint(FP_ATOMIC_FSYNC)
        os.fsync(handle.fileno())
    faults.failpoint(FP_ATOMIC_RENAME)
    os.replace(tmp, path)
    faults.failpoint(FP_ATOMIC_DIRSYNC)
    fsync_directory(path.parent)
    obs.count("store.fsyncs")
    obs.count("store.shard_bytes_written", len(payload))
    return len(payload)


def write_shard(path: Path, bank: SketchBank) -> int:
    """Atomically write ``bank`` as a shard file; returns bytes written."""
    return write_bytes_atomic(path, pack_shard(bank))


class ShardStreamWriter:
    """Assemble one shard file incrementally from chunk banks.

    The writer pre-sizes a ``*.tmp`` sibling to the planned byte length,
    writes the fixed prefix (headers + bank meta, CRC zeroed), and lets
    chunk results land at their exact row offsets — from this process
    or from pool workers that open the same temp file.  ``finalize``
    computes the CRC-32 over the payload, patches it in, fsyncs, and
    renames the file into place; the result is byte-identical to
    ``write_shard`` over the equivalent one-shot bank.  A crash before
    ``finalize`` leaves only the temp file, which opens ignore.
    """

    def __init__(self, path: Path, plan: ShardStreamPlan) -> None:
        self.path = Path(path)
        self.plan = plan
        self.tmp_path = self.path.with_name(self.path.name + ".tmp")
        self._handle = open(self.tmp_path, "w+b")
        try:
            self._handle.truncate(plan.file_size)
            self._map = mmap.mmap(self._handle.fileno(), plan.file_size)
            self._map[: len(plan.prefix)] = plan.prefix
        except BaseException:
            self._handle.close()
            with contextlib.suppress(OSError):
                os.unlink(self.tmp_path)
            raise
        self._done = False

    def write_rows(self, bank: SketchBank, row_offset: int) -> None:
        """Place ``bank`` at rows ``[row_offset, row_offset + len(bank))``."""
        faults.failpoint(FP_STREAM_WRITE_ROWS)
        write_chunk_rows(self._map, self.plan, bank, row_offset)

    def finalize(self) -> int:
        """Patch the CRC, make the file durable, and rename into place."""
        plan = self.plan
        faults.failpoint(FP_STREAM_FINALIZE_CRC)
        checksum = zlib.crc32(memoryview(self._map)[plan.payload_offset :])
        self._map[plan.checksum_offset : plan.checksum_offset + 4] = struct.pack(
            "<I", checksum
        )
        self._map.flush()
        self._map.close()
        self._handle.flush()
        faults.failpoint(FP_STREAM_FINALIZE_FSYNC)
        os.fsync(self._handle.fileno())
        self._handle.close()
        faults.failpoint(FP_STREAM_FINALIZE_RENAME)
        os.replace(self.tmp_path, self.path)
        fsync_directory(self.path.parent)
        self._done = True
        obs.count("store.fsyncs")
        obs.count("store.shard_bytes_written", plan.file_size)
        return plan.file_size

    def abort(self) -> None:
        """Drop the temp file (idempotent; safe after ``finalize``)."""
        if self._done:
            return
        faults.failpoint(FP_STREAM_ABORT)
        with contextlib.suppress(ValueError, OSError):
            self._map.close()
        with contextlib.suppress(OSError):
            self._handle.close()
        with contextlib.suppress(OSError):
            os.unlink(self.tmp_path)
        self._done = True


def read_shard(
    path: Path, zero_copy: bool = True
) -> tuple[SketchBank, mmap.mmap | None]:
    """Read one shard file back into a bank.

    With ``zero_copy=True`` (the default) the bank's numeric columns
    are views into a read-only memory map of the file; the map is
    returned alongside the bank and must be kept referenced for the
    bank's lifetime (the arrays hold a reference chain through their
    ``base``, so dropping it is safe once the bank itself is dropped).
    """
    if zero_copy:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        obs.count("store.shard_bytes_read", len(mapped))
        return unpack_shard(memoryview(mapped), copy=False), mapped
    payload = path.read_bytes()
    obs.count("store.shard_bytes_read", len(payload))
    return unpack_shard(payload, copy=True), None


def load_shard(
    path: Path, sketcher: Sketcher, zero_copy: bool = True
) -> tuple[SketchBank, mmap.mmap | None]:
    """Read one shard as a columnar bank of ``sketcher``'s layout.

    The shared loader of lake open, the post-append re-read, ``fsck``
    and ``repair``.  Beyond :func:`read_shard`'s CRC check it refuses a
    bank of another kind or configuration
    (:class:`~repro.core.base.SketchMismatchError`) and a bank whose
    column names, row shapes or dtypes differ from
    ``sketcher.bank_layout()`` (:class:`SerializationError`).  A shard
    in the older object-column format (nested per-sketch payloads) is
    repacked in memory through ``sketcher.pack_bank``; the returned map
    is then ``None``, as nothing views it.
    """
    bank, buffer = read_shard(path, zero_copy=zero_copy)
    sketcher._check_bank(bank)
    if bank.is_object_bank():
        try:
            bank = sketcher.pack_bank(list(bank.columns[OBJECT_COLUMN]))
        except (AttributeError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{path.name}: cannot repack object-column bank: {exc}"
            ) from exc
        buffer = None
    found = {
        name: (list(array.shape[1:]), array.dtype.str)
        for name, array in bank.columns.items()
    }
    expected = {
        name: (list(shape), np.dtype(dtype).str)
        for name, (shape, dtype) in sketcher.bank_layout().items()
    }
    if found != expected:
        raise SerializationError(
            f"{path.name}: bank columns {found} do not match the "
            f"{sketcher.name} layout {expected}"
        )
    return bank, buffer
