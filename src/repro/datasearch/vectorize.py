"""Table-to-vector encodings (Figure 3 of the paper).

A table ``T = (K, V)`` becomes sparse vectors over the key domain:

* ``x_1[K]`` — the *indicator* vector: 1 at every key of ``K``;
* ``x_V``   — the *value* vector: ``V``'s value at its key's index;
* ``x_V²``  — squared values, enabling post-join variance estimates.

Key spaces are arbitrary (dates, strings, ids), so keys are digested to
64-bit integers with a deterministic FNV-1a/splitmix64 construction and
folded into the Carter–Wegman domain ``[0, 2^31 - 1)``.  The paper's
point that ``n`` never needs materializing applies verbatim: only
non-zero coordinates are ever touched.  Digest collisions are
birthday-bounded (about ``r² / 2^31`` for ``r`` keys) and tolerated the
same way dataset-search systems tolerate them.

The hot path is :func:`table_row_arrays`: one vectorized hash pass over
the table's keys and one ``np.unique`` shared by the indicator, value,
and squared-value rows — bit-identical to calling the three per-row
encoders, which each re-hash and re-deduplicate from scratch.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.datasearch.table import Table
from repro.hashing.primes import MERSENNE_31
from repro.hashing.splitmix import hash_bytes, hash_bytes_many, hash_string
from repro.vectors.sparse import SparseVector

__all__ = [
    "table_digest",
    "key_to_index",
    "keys_to_indices",
    "indicator_vector",
    "value_vector",
    "squared_value_vector",
    "table_row_arrays",
    "table_vectors",
]


def key_to_index(key: object, domain: int = MERSENNE_31) -> int:
    """Digest an arbitrary hashable key to an index in ``[0, domain)``.

    Integers hash by their 8-byte little-endian encoding, strings by
    UTF-8 bytes; other types by the UTF-8 bytes of ``repr(key)``
    (stable for the value types tables use: dates, tuples, floats).
    """
    if isinstance(key, (int, np.integer)):
        digest = hash_bytes(int(key).to_bytes(8, "little", signed=True))
    elif isinstance(key, str):
        digest = hash_string(key)
    elif isinstance(key, bytes):
        digest = hash_bytes(key)
    else:
        digest = hash_string(repr(key))
    return digest % domain


def _encode_key(key: object) -> bytes:
    """The byte encoding :func:`key_to_index` hashes, per key type."""
    if isinstance(key, (int, np.integer)):
        return int(key).to_bytes(8, "little", signed=True)
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, bytes):
        return key
    return repr(key).encode("utf-8")


def table_digest(table: Table) -> bytes:
    """A 128-bit digest of everything a table's encodings read.

    Covers the keys, as :func:`key_to_index` encodes them, and every
    value column by name and float64 bytes.  Two tables with equal
    digests encode to equal vectors, so they get equal sketches under
    any sketcher.
    """
    blobs = [_encode_key(key) for key in table.keys]
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.fromiter(map(len, blobs), np.int64, len(blobs)).tobytes())
    digest.update(b"".join(blobs))
    for name, values in table.columns.items():
        encoded = name.encode("utf-8")
        digest.update(len(encoded).to_bytes(8, "little") + encoded)
        digest.update(values.tobytes())
    return digest.digest()


def keys_to_indices(keys: Iterable, domain: int = MERSENNE_31) -> np.ndarray:
    """Vector of digested indices for a key sequence.

    The keys are encoded to one packed byte buffer and hashed with the
    vectorized FNV-1a kernel (:func:`repro.hashing.splitmix
    .hash_bytes_many`) — element-wise identical to mapping
    :func:`key_to_index` over the sequence, without the per-key Python
    hash loop that dominated ingest profiles.
    """
    blobs = [_encode_key(key) for key in keys]
    if not blobs:
        return np.empty(0, dtype=np.int64)
    lengths = np.fromiter((len(blob) for blob in blobs), np.int64, len(blobs))
    offsets = np.concatenate([[0], np.cumsum(lengths[:-1])])
    buffer = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    digests = hash_bytes_many(buffer, offsets, lengths)
    return (digests % np.uint64(domain)).astype(np.int64)


def indicator_vector(table: Table, domain: int = MERSENNE_31) -> SparseVector:
    """``x_1[K]`` — 1 at every key of the table (Figure 3)."""
    indices = keys_to_indices(table.keys, domain)
    return SparseVector.from_pairs(indices, np.ones(indices.size))


def value_vector(table: Table, column: str, domain: int = MERSENNE_31) -> SparseVector:
    """``x_V`` — the column's value at its key's index (Figure 3).

    Rows whose value is exactly zero vanish from the sparse support;
    estimators that need "zero is a value" semantics (e.g. means over
    all joined rows) therefore always combine ``x_V`` with the
    indicator vector rather than relying on ``x_V``'s support.
    """
    indices = keys_to_indices(table.keys, domain)
    return SparseVector.from_pairs(indices, table.column(column))


def squared_value_vector(
    table: Table, column: str, domain: int = MERSENNE_31
) -> SparseVector:
    """``x_{V²}`` — squared values, for post-join second moments."""
    indices = keys_to_indices(table.keys, domain)
    return SparseVector.from_pairs(indices, table.column(column) ** 2)


def table_row_arrays(
    table: Table, domain: int = MERSENNE_31
) -> list[tuple[np.ndarray, np.ndarray]]:
    """All encoded rows of one table as raw ``(indices, values)`` pairs.

    Returns ``1 + 2 * len(table.columns)`` pairs in the canonical bank
    order — indicator, value rows, squared-value rows — each with
    sorted unique indices and exact zeros dropped.  The keys are hashed
    **once** and the digest deduplication (``np.unique``) is shared by
    every row; the per-row aggregation replays
    ``SparseVector.from_pairs`` exactly (``np.add.at`` over the same
    ``inverse``), so each pair is bit-identical to the corresponding
    per-row encoder above, and a non-finite row value (a NaN, or a
    square that overflows) raises the same ``ValueError``.  So does a
    row with non-zero entries whose norm underflows to zero, or
    overflows to infinity, naming its column: values all below about
    ``1e-162`` (the value row) or ``1e-81`` (the squared row), or any
    above about ``1e154 / n^(1/2)`` (the value row) or
    ``1e77 / n^(1/4)`` (the squared row) for ``n`` rows.  No sketch
    that scales by the norm can represent such a row; WMH's rounding
    rejects the first kind and would store an infinite norm for the
    second.
    """
    indices = keys_to_indices(table.keys, domain)
    unique, inverse = np.unique(indices, return_inverse=True)
    columns = list(table.columns)
    stacked: list[np.ndarray] = [np.ones(indices.size)]
    stacked += [table.column(column) for column in columns]
    with np.errstate(over="ignore"):  # an overflow is rejected below
        stacked += [table.column(column) ** 2 for column in columns]
    labels = ["keys"] + [f"column {c!r}" for c in columns]
    labels += [f"column {c!r} (squared)" for c in columns]
    sums: list[np.ndarray] = []
    for values in stacked:  # every row's values are checked before any norm
        summed = np.zeros(unique.size)
        np.add.at(summed, inverse, values)
        if not np.isfinite(summed).all():
            raise ValueError("values must be finite")
        sums.append(summed)
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    for label, summed in zip(labels, sums):
        keep = summed != 0.0
        row = summed[keep]
        with np.errstate(over="ignore"):  # an overflowing norm is rejected below
            norm = np.linalg.norm(row)
        if row.size and norm == 0.0:
            raise ValueError(f"{label}: values too small to sketch (the row's norm underflows)")
        if norm == np.inf:
            raise ValueError(f"{label}: values too large to sketch (the row's norm overflows)")
        rows.append((unique[keep], row))
    return rows


def table_vectors(table: Table, domain: int = MERSENNE_31) -> list[SparseVector]:
    """:func:`table_row_arrays` materialized as :class:`SparseVector`\\ s.

    The fused drop-in for ``[indicator_vector(t), *value vectors,
    *squared vectors]`` — one hash pass, one dedup, and the trusted
    constructor (the arrays already satisfy every invariant).
    """
    return [
        SparseVector._from_clean_arrays(idx, val)
        for idx, val in table_row_arrays(table, domain)
    ]
