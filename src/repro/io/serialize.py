"""Compact binary serialization of sketches.

The paper's storage accounting (Section 5) is concrete: a sampling
sketch stores, per sample, a 32-bit hash and a 64-bit value — 1.5
words — while linear sketches store 64-bit doubles.  This module makes
that accounting real: sketches serialize to byte strings whose length
matches the claimed footprint (plus a fixed header), suitable for
embedding in an index, a file, or a network message.

Hash quantization
-----------------
In-memory sketches hold float64 hash values in ``(0, 1)``; on the wire
they are quantized to 32-bit fixed point, exactly as the paper stores
them ("we can store the value of h(i) in our sketch using a standard
32-bit int").  Quantization is deterministic, so two *independently
serialized* sketches still certify shared coordinates by hash equality;
spurious 32-bit collisions occur with probability ~2^-32 per pair of
repetitions, the same risk the paper accepts.  Estimates computed from
round-tripped sketches therefore differ from the float64 originals only
through this quantization (empirically < 1e-6 relative — see
``tests/io/test_serialize.py``).

Format
------
Every payload starts with the magic ``b"RPRO"``, one format-version
byte, and one sketch-kind byte, followed by fixed-size parameter fields
(little-endian) and the raw arrays.  Unknown magic/version/kind raise
:class:`SerializationError` rather than mis-parsing.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import faults
from repro.core.bank import SketchBank
from repro.core.wmh import WMHSketch
from repro.mips.lsh import SignatureLSH
from repro.sketches.bbit import BbitSketch
from repro.sketches.countsketch import CountSketchData
from repro.sketches.icws import ICWSSketch
from repro.sketches.jl import JLSketch
from repro.sketches.kmv import KMVSketch
from repro.sketches.minhash import MinHashSketch
from repro.sketches.priority import PrioritySketch

__all__ = [
    "SerializationError",
    "ShardStreamPlan",
    "pack_sketch",
    "unpack_sketch",
    "pack_bank",
    "unpack_bank",
    "pack_shard",
    "unpack_shard",
    "shard_stream_plan",
    "write_chunk_rows",
    "pack_lsh_index",
    "unpack_lsh_index",
    "packed_size_words",
]

_MAGIC = b"RPRO"
_VERSION = 1

# The one failpoint below the store layer: a chunk landing in a shard
# buffer — fired in pool workers too (env-armed), so the torture
# harness can kill an ingest mid-chunk from outside the driver process.
FP_CHUNK_ROWS = faults.register(
    "io.write_chunk_rows", "before a chunk bank's rows land in the shard buffer"
)

_KIND_WMH = 1
_KIND_MINHASH = 2
_KIND_KMV = 3
_KIND_JL = 4
_KIND_COUNTSKETCH = 5
_KIND_ICWS = 6
_KIND_PRIORITY = 7
_KIND_BBIT = 8
_KIND_BANK = 9
_KIND_SHARD = 10
_KIND_LSHINDEX = 11

#: 2**32, the fixed-point scale of quantized hashes.
_HASH_SCALE = float(1 << 32)


class SerializationError(ValueError):
    """Raised on malformed or incompatible payloads."""


def _quantize_hashes(hashes: np.ndarray) -> np.ndarray:
    """Float64 hashes in (0, 1) (or +inf) -> uint32 fixed point.

    ``+inf`` (the empty-sketch sentinel) maps to the all-ones word,
    which no finite hash can produce (finite hashes are < 1, so their
    fixed-point value is at most 2**32 - 1 only when h >= 1 - 2**-33 —
    we clip to 2**32 - 2 to keep the sentinel unambiguous).
    """
    quantized = np.empty(hashes.shape, dtype=np.uint32)
    finite = np.isfinite(hashes)
    scaled = np.floor(hashes[finite] * _HASH_SCALE)
    quantized[finite] = np.clip(scaled, 0, _HASH_SCALE - 2).astype(np.uint32)
    quantized[~finite] = np.uint32(0xFFFFFFFF)
    return quantized


def _dequantize_hashes(quantized: np.ndarray) -> np.ndarray:
    """uint32 fixed point -> float64 bucket midpoints (sentinel -> inf)."""
    hashes = (quantized.astype(np.float64) + 0.5) / _HASH_SCALE
    hashes[quantized == np.uint32(0xFFFFFFFF)] = np.inf
    return hashes


def _header(kind: int) -> bytes:
    return _MAGIC + struct.pack("<BB", _VERSION, kind)


def _check_header(payload: bytes | memoryview) -> tuple[int, memoryview]:
    view = memoryview(payload)
    if len(view) < 6 or bytes(view[:4]) != _MAGIC:
        raise SerializationError("not a repro sketch payload (bad magic)")
    version, kind = struct.unpack_from("<BB", view, 4)
    if version != _VERSION:
        raise SerializationError(f"unsupported format version {version}")
    return kind, view[6:]


# ----------------------------------------------------------------------
# per-kind packing
# ----------------------------------------------------------------------


def _pack_wmh(sketch: WMHSketch) -> bytes:
    head = _header(_KIND_WMH) + struct.pack(
        "<IQqd", sketch.m, sketch.L, sketch.seed, sketch.norm
    )
    return (
        head
        + _quantize_hashes(sketch.hashes).tobytes()
        + sketch.values.astype(np.float64).tobytes()
    )


def _unpack_wmh(body: memoryview) -> WMHSketch:
    m, L, seed, norm = struct.unpack_from("<IQqd", body, 0)
    offset = struct.calcsize("<IQqd")
    hashes = _dequantize_hashes(
        np.frombuffer(body, dtype=np.uint32, count=m, offset=offset)
    )
    values = np.frombuffer(
        body, dtype=np.float64, count=m, offset=offset + 4 * m
    ).copy()
    return WMHSketch(hashes=hashes, values=values, norm=norm, m=m, L=L, seed=seed)


def _pack_minhash(sketch: MinHashSketch) -> bytes:
    head = _header(_KIND_MINHASH) + struct.pack("<Iq", sketch.m, sketch.seed)
    return (
        head
        + _quantize_hashes(sketch.hashes).tobytes()
        + sketch.values.astype(np.float64).tobytes()
    )


def _unpack_minhash(body: memoryview) -> MinHashSketch:
    m, seed = struct.unpack_from("<Iq", body, 0)
    offset = struct.calcsize("<Iq")
    hashes = _dequantize_hashes(
        np.frombuffer(body, dtype=np.uint32, count=m, offset=offset)
    )
    values = np.frombuffer(
        body, dtype=np.float64, count=m, offset=offset + 4 * m
    ).copy()
    return MinHashSketch(hashes=hashes, values=values, m=m, seed=seed)


def _pack_kmv(sketch: KMVSketch) -> bytes:
    stored = sketch.hashes.size
    head = _header(_KIND_KMV) + struct.pack(
        "<IIqB", sketch.k, stored, sketch.seed, int(sketch.exact)
    )
    return (
        head
        + _quantize_hashes(sketch.hashes).tobytes()
        + sketch.values.astype(np.float64).tobytes()
    )


def _unpack_kmv(body: memoryview) -> KMVSketch:
    k, stored, seed, exact = struct.unpack_from("<IIqB", body, 0)
    offset = struct.calcsize("<IIqB")
    hashes = _dequantize_hashes(
        np.frombuffer(body, dtype=np.uint32, count=stored, offset=offset)
    )
    values = np.frombuffer(
        body, dtype=np.float64, count=stored, offset=offset + 4 * stored
    ).copy()
    return KMVSketch(hashes=hashes, values=values, k=k, seed=seed, exact=bool(exact))


def _pack_jl(sketch: JLSketch) -> bytes:
    head = _header(_KIND_JL) + struct.pack("<Iq", sketch.m, sketch.seed)
    return head + sketch.projection.astype(np.float64).tobytes()


def _unpack_jl(body: memoryview) -> JLSketch:
    m, seed = struct.unpack_from("<Iq", body, 0)
    offset = struct.calcsize("<Iq")
    projection = np.frombuffer(body, dtype=np.float64, count=m, offset=offset).copy()
    return JLSketch(projection=projection, m=m, seed=seed)


def _pack_countsketch(sketch: CountSketchData) -> bytes:
    head = _header(_KIND_COUNTSKETCH) + struct.pack(
        "<IIq", sketch.repetitions, sketch.width, sketch.seed
    )
    return head + sketch.table.astype(np.float64).tobytes()


def _unpack_countsketch(body: memoryview) -> CountSketchData:
    repetitions, width, seed = struct.unpack_from("<IIq", body, 0)
    offset = struct.calcsize("<IIq")
    table = (
        np.frombuffer(body, dtype=np.float64, count=repetitions * width, offset=offset)
        .reshape(repetitions, width)
        .copy()
    )
    return CountSketchData(table=table, repetitions=repetitions, width=width, seed=seed)


def _pack_icws(sketch: ICWSSketch) -> bytes:
    head = _header(_KIND_ICWS) + struct.pack("<Iqd", sketch.m, sketch.seed, sketch.norm)
    return (
        head
        + sketch.keys.astype(np.uint64).tobytes()
        + sketch.values.astype(np.float64).tobytes()
    )


def _unpack_icws(body: memoryview) -> ICWSSketch:
    m, seed, norm = struct.unpack_from("<Iqd", body, 0)
    offset = struct.calcsize("<Iqd")
    keys = np.frombuffer(body, dtype=np.uint64, count=m, offset=offset).copy()
    values = np.frombuffer(
        body, dtype=np.float64, count=m, offset=offset + 8 * m
    ).copy()
    return ICWSSketch(keys=keys, values=values, norm=norm, m=m, seed=seed)


def _pack_priority(sketch: PrioritySketch) -> bytes:
    stored = sketch.indices.size
    head = _header(_KIND_PRIORITY) + struct.pack(
        "<IIqd", sketch.k, stored, sketch.seed, sketch.threshold
    )
    return (
        head
        + sketch.indices.astype(np.int64).tobytes()
        + sketch.values.astype(np.float64).tobytes()
        + sketch.weights.astype(np.float64).tobytes()
    )


def _unpack_priority(body: memoryview) -> PrioritySketch:
    k, stored, seed, threshold = struct.unpack_from("<IIqd", body, 0)
    offset = struct.calcsize("<IIqd")
    indices = np.frombuffer(body, dtype=np.int64, count=stored, offset=offset).copy()
    values = np.frombuffer(
        body, dtype=np.float64, count=stored, offset=offset + 8 * stored
    ).copy()
    weights = np.frombuffer(
        body, dtype=np.float64, count=stored, offset=offset + 16 * stored
    ).copy()
    return PrioritySketch(
        indices=indices,
        values=values,
        weights=weights,
        threshold=threshold,
        k=k,
        seed=seed,
    )


def _pack_bbit(sketch: BbitSketch) -> bytes:
    head = _header(_KIND_BBIT) + struct.pack(
        "<IIqQ", sketch.m, sketch.b, sketch.seed, sketch.support_size
    )
    # Fingerprints are at most 32 bits; store them packed as uint32.
    return head + sketch.bits.astype(np.uint32).tobytes()


def _unpack_bbit(body: memoryview) -> BbitSketch:
    m, b, seed, support_size = struct.unpack_from("<IIqQ", body, 0)
    offset = struct.calcsize("<IIqQ")
    bits = (
        np.frombuffer(body, dtype=np.uint32, count=m, offset=offset)
        .astype(np.uint64)
    )
    return BbitSketch(bits=bits, support_size=support_size, m=m, b=b, seed=seed)


_PACKERS: dict[type, tuple[int, Callable[[Any], bytes]]] = {
    WMHSketch: (_KIND_WMH, _pack_wmh),
    MinHashSketch: (_KIND_MINHASH, _pack_minhash),
    KMVSketch: (_KIND_KMV, _pack_kmv),
    JLSketch: (_KIND_JL, _pack_jl),
    CountSketchData: (_KIND_COUNTSKETCH, _pack_countsketch),
    ICWSSketch: (_KIND_ICWS, _pack_icws),
    PrioritySketch: (_KIND_PRIORITY, _pack_priority),
    BbitSketch: (_KIND_BBIT, _pack_bbit),
}

_UNPACKERS: dict[int, Callable[[memoryview], Any]] = {
    _KIND_WMH: _unpack_wmh,
    _KIND_MINHASH: _unpack_minhash,
    _KIND_KMV: _unpack_kmv,
    _KIND_JL: _unpack_jl,
    _KIND_COUNTSKETCH: _unpack_countsketch,
    _KIND_ICWS: _unpack_icws,
    _KIND_PRIORITY: _unpack_priority,
    _KIND_BBIT: _unpack_bbit,
}


def pack_sketch(sketch: Any) -> bytes:
    """Serialize any supported sketch to a compact byte string."""
    entry = _PACKERS.get(type(sketch))
    if entry is None:
        raise SerializationError(
            f"cannot serialize objects of type {type(sketch).__name__}"
        )
    _, packer = entry
    return packer(sketch)


def unpack_sketch(payload: bytes) -> Any:
    """Deserialize a payload produced by :func:`pack_sketch`."""
    kind, body = _check_header(payload)
    unpacker = _UNPACKERS.get(kind)
    if unpacker is None:
        raise SerializationError(f"unknown sketch kind {kind}")
    try:
        return unpacker(body)
    except (struct.error, ValueError) as exc:
        raise SerializationError(f"truncated or corrupt payload: {exc}") from exc


# ----------------------------------------------------------------------
# sketch banks
# ----------------------------------------------------------------------


def pack_bank(bank: SketchBank) -> bytes:
    """Serialize a columnar :class:`~repro.core.bank.SketchBank` losslessly.

    Unlike the per-sketch wire format, bank columns are written as raw
    arrays without hash quantization: a bank is the *index-side* store,
    and a round trip must reproduce bit-identical ``estimate_many``
    results.  A JSON header records kind, comparability params, and the
    column layout.  Object-dtype columns (the in-memory fallback of
    sketchers without a ``bank_layout``) are refused.
    """
    header: dict[str, Any] = {
        "kind": bank.kind,
        "params": dict(bank.params),
        "words_per_sketch": bank.words_per_sketch,
        "columns": [],
    }
    blobs: list[bytes] = []
    for name in sorted(bank.columns):
        contiguous = np.ascontiguousarray(bank.columns[name])
        if contiguous.dtype == object:
            raise SerializationError(
                f"cannot serialize object-dtype column {name!r} of a "
                f"{bank.kind!r} bank; only fixed-layout banks persist"
            )
        header["columns"].append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
            }
        )
        blobs.append(contiguous.tobytes())
    meta = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([_header(_KIND_BANK), struct.pack("<I", len(meta)), meta, *blobs])


def unpack_bank(payload: bytes | memoryview, copy: bool = True) -> SketchBank:
    """Deserialize a payload produced by :func:`pack_bank`.

    With ``copy=False`` the numeric columns are read-only views into
    ``payload`` (zero-copy) — the load path :class:`repro.store.LakeStore`
    uses to open shard files without materializing the arrays twice.
    The caller must keep the backing buffer alive for the bank's
    lifetime.  Object-dtype columns — nested per-sketch payloads, which
    older writers produced for ICWS, priority-sampling and b-bit banks
    — still decode (always materialized); a store repacks them through
    the sketcher's ``pack_bank`` on load.
    """
    kind, body = _check_header(payload)
    if kind != _KIND_BANK:
        raise SerializationError(f"payload is not a sketch bank (kind {kind})")
    try:
        (meta_len,) = struct.unpack_from("<I", body, 0)
        meta = json.loads(bytes(body[4 : 4 + meta_len]).decode("utf-8"))
        offset = 4 + meta_len
        columns: dict[str, np.ndarray] = {}
        for spec in meta["columns"]:
            name, dtype, shape = spec["name"], spec["dtype"], tuple(spec["shape"])
            if dtype == "object":
                (count,) = struct.unpack_from("<I", body, offset)
                offset += 4
                column = np.empty(count, dtype=object)
                for i in range(count):
                    (size,) = struct.unpack_from("<I", body, offset)
                    offset += 4
                    column[i] = unpack_sketch(bytes(body[offset : offset + size]))
                    offset += size
            else:
                dt = np.dtype(dtype)
                count = int(np.prod(shape, dtype=np.int64)) if shape else 1
                column = np.frombuffer(
                    body, dtype=dt, count=count, offset=offset
                ).reshape(shape)
                if copy:
                    column = column.copy()
                offset += count * dt.itemsize
            columns[name] = column
        return SketchBank(
            kind=meta["kind"],
            params=meta["params"],
            columns=columns,
            words_per_sketch=float(meta["words_per_sketch"]),
        )
    except (struct.error, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise SerializationError(f"truncated or corrupt bank payload: {exc}") from exc


# ----------------------------------------------------------------------
# shards (the on-disk unit of repro.store)
# ----------------------------------------------------------------------


def _pack_envelope(kind: int, payload: bytes) -> bytes:
    """The checksummed file container: header, length, CRC-32, payload.

    Length + checksum let :func:`_unpack_envelope` reject truncated or
    bit-rotted files before any array is interpreted.
    """
    return b"".join(
        [
            _header(kind),
            struct.pack("<QI", len(payload), zlib.crc32(payload)),
            payload,
        ]
    )


def _unpack_envelope(
    buffer: bytes | memoryview, kind: int, what: str, article: str
) -> memoryview:
    """Validate an envelope of the given kind; returns the payload view."""
    found, body = _check_header(buffer)
    if found != kind:
        raise SerializationError(
            f"payload is not {article} {what} (kind {found})"
        )
    prefix = struct.calcsize("<QI")
    if len(body) < prefix:
        raise SerializationError(f"truncated {what}: missing length/checksum")
    length, checksum = struct.unpack_from("<QI", body, 0)
    payload = body[prefix : prefix + length]
    if len(payload) < length:
        raise SerializationError(
            f"truncated {what}: payload has {len(payload)} of {length} bytes"
        )
    if zlib.crc32(payload) != checksum:
        raise SerializationError(f"{what} checksum mismatch (corrupt payload)")
    return payload


def pack_shard(bank: SketchBank) -> bytes:
    """Wrap a packed bank in the shard container format.

    A shard is what :class:`repro.store.LakeStore` writes as one file:
    the standard ``RPRO`` header with the shard kind, the payload
    length, a CRC-32 of the payload, then the :func:`pack_bank` bytes.
    """
    return _pack_envelope(_KIND_SHARD, pack_bank(bank))


def unpack_shard(buffer: bytes | memoryview, copy: bool = True) -> SketchBank:
    """Validate and deserialize a shard produced by :func:`pack_shard`.

    ``copy=False`` propagates to :func:`unpack_bank`: the returned
    bank's columns are views into ``buffer`` (which must then outlive
    the bank — e.g. an ``mmap`` kept open by the store).
    """
    return unpack_bank(
        _unpack_envelope(buffer, _KIND_SHARD, "shard", "a"), copy=copy
    )


# ----------------------------------------------------------------------
# streaming shard assembly (pre-sized files, offset-exact chunk writes)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStreamPlan:
    """The exact byte layout :func:`pack_shard` would produce for a
    fixed-layout bank of ``num_rows`` rows.

    Because the bank meta header depends only on ``(kind, params,
    words_per_sketch, column shapes/dtypes)`` — all known before any
    row is sketched — the whole shard file can be pre-sized and chunk
    results written in place at ``row * row_nbytes`` offsets, then the
    CRC-32 patched once at the end.  A finalized streamed file is
    byte-identical to ``pack_shard`` over the equivalent one-shot bank.

    Attributes
    ----------
    num_rows:
        Bank rows the file will hold.
    file_size:
        Total shard file size in bytes.
    payload_offset:
        Where the checksummed payload (the packed bank) starts.
    checksum_offset:
        Where the 4-byte little-endian CRC-32 lives (zeroed in
        :attr:`prefix`; patched after all rows are written).
    prefix:
        Every byte before the first column blob: shard header, payload
        length, zeroed CRC, bank header, and the JSON meta.
    columns:
        ``name -> (absolute file offset of the column blob, bytes per
        row)`` for each bank column, in the packed (sorted-name) order.
    """

    num_rows: int
    file_size: int
    payload_offset: int
    checksum_offset: int
    prefix: bytes
    columns: dict[str, tuple[int, int]]


def shard_stream_plan(
    kind: str,
    params: dict[str, Any],
    words_per_sketch: float,
    layout: dict[str, tuple[tuple[int, ...], str]],
    num_rows: int,
) -> ShardStreamPlan:
    """Plan the byte layout of a streamed shard file.

    ``layout`` is the sketcher's ``bank_layout()``: per-row shape and
    dtype of every bank column.  The produced meta header replicates
    :func:`pack_bank`'s construction field by field (same key order,
    same sorted-column order, same dtype normalization), which is what
    makes the streamed file bit-identical to the one-shot path.
    """
    header: dict[str, Any] = {
        "kind": kind,
        "params": dict(params),
        "words_per_sketch": float(words_per_sketch),
        "columns": [],
    }
    row_nbytes: dict[str, int] = {}
    for name in sorted(layout):
        row_shape, dtype = layout[name]
        dt = np.dtype(dtype)
        header["columns"].append(
            {"name": name, "dtype": dt.str, "shape": [int(num_rows), *row_shape]}
        )
        count = 1
        for dim in row_shape:
            count *= int(dim)
        row_nbytes[name] = count * dt.itemsize
    meta = json.dumps(header, separators=(",", ":")).encode("utf-8")
    bank_prefix = _header(_KIND_BANK) + struct.pack("<I", len(meta)) + meta

    payload_len = len(bank_prefix) + num_rows * sum(row_nbytes.values())
    shard_head = _header(_KIND_SHARD)
    payload_offset = len(shard_head) + struct.calcsize("<QI")
    checksum_offset = len(shard_head) + struct.calcsize("<Q")
    prefix = (
        shard_head + struct.pack("<QI", payload_len, 0) + bank_prefix
    )

    columns: dict[str, tuple[int, int]] = {}
    offset = payload_offset + len(bank_prefix)
    for name in sorted(layout):
        columns[name] = (offset, row_nbytes[name])
        offset += num_rows * row_nbytes[name]
    return ShardStreamPlan(
        num_rows=int(num_rows),
        file_size=payload_offset + payload_len,
        payload_offset=payload_offset,
        checksum_offset=checksum_offset,
        prefix=prefix,
        columns=columns,
    )


def write_chunk_rows(
    buffer, plan: ShardStreamPlan, bank: SketchBank, row_offset: int
) -> None:
    """Write one chunk bank's rows into a plan-sized shard buffer.

    ``bank`` holds rows ``[row_offset, row_offset + len(bank))`` of the
    final shard; each column lands at its planned byte offset, so
    writes from different chunks touch disjoint regions and can happen
    in any order (including concurrently from worker processes mapping
    the same file).  ``buffer`` is any writable byte view of the full
    planned file (an ``mmap``, a ``bytearray``, ...).
    """
    faults.failpoint(FP_CHUNK_ROWS)
    count = len(bank)
    for name, (column_offset, row_nbytes) in plan.columns.items():
        start = column_offset + row_offset * row_nbytes
        blob = np.ascontiguousarray(bank.columns[name]).tobytes()
        if len(blob) != count * row_nbytes:
            raise ValueError(
                f"column {name!r}: chunk of {count} rows packs to "
                f"{len(blob)} bytes, layout expects {count * row_nbytes}"
            )
        buffer[start : start + len(blob)] = blob


# ----------------------------------------------------------------------
# LSH candidate indexes (the persisted lake-index section)
# ----------------------------------------------------------------------


def pack_lsh_index(lsh: SignatureLSH) -> bytes:
    """Serialize a :class:`~repro.mips.lsh.SignatureLSH` losslessly.

    The payload carries the banding and the consolidated ``(rows,
    bands)`` uint64 digest matrix — everything needed to rebuild the
    sorted lookup arrays — wrapped like a shard: standard ``RPRO``
    header, payload length, CRC-32, then the body.  Because a row's
    digests depend only on that row's signature, an incrementally
    extended index and a from-scratch build over the same rows pack to
    byte-identical files.
    """
    digests = lsh.digest_matrix()
    body = (
        struct.pack("<IIQ", lsh.bands, lsh.rows_per_band, digests.shape[0])
        + np.ascontiguousarray(digests, dtype="<u8").tobytes()
    )
    return _pack_envelope(_KIND_LSHINDEX, body)


def unpack_lsh_index(payload: bytes | memoryview) -> SignatureLSH:
    """Validate and deserialize a payload from :func:`pack_lsh_index`.

    Length and checksum are verified before any array is interpreted;
    truncation or bit rot raises :class:`SerializationError`.
    """
    content = _unpack_envelope(payload, _KIND_LSHINDEX, "LSH index", "an")
    head = struct.calcsize("<IIQ")
    try:
        bands, rows_per_band, count = struct.unpack_from("<IIQ", content, 0)
        digests = (
            np.frombuffer(content, dtype="<u8", count=count * bands, offset=head)
            .reshape(count, bands)
            .copy()
        )
        return SignatureLSH.from_digests(bands, rows_per_band, digests)
    except (struct.error, ValueError) as exc:
        raise SerializationError(
            f"truncated or corrupt LSH index payload: {exc}"
        ) from exc


def packed_size_words(sketch: Any) -> float:
    """Serialized size in 64-bit words (excluding the fixed header).

    For sampling sketches this equals the paper's 1.5-words-per-sample
    accounting exactly.
    """
    header_bytes = 6 + {
        WMHSketch: struct.calcsize("<IQqd"),
        MinHashSketch: struct.calcsize("<Iq"),
        KMVSketch: struct.calcsize("<IIqB"),
        JLSketch: struct.calcsize("<Iq"),
        CountSketchData: struct.calcsize("<IIq"),
        ICWSSketch: struct.calcsize("<Iqd"),
        PrioritySketch: struct.calcsize("<IIqd"),
        BbitSketch: struct.calcsize("<IIqQ"),
    }[type(sketch)]
    return (len(pack_sketch(sketch)) - header_bytes) / 8.0
