"""Weighted MinHash sketching (Algorithm 3), fast implementation.

Conceptually (paper, Section 4), Algorithm 3 MinHashes an *expanded*
vector ``ā`` of length ``n * L``: block ``i`` holds ``L`` slots of which
the first ``k_i = ã[i]^2 * L`` are occupied by the value ``ã[i]``,
where ``ã`` is the norm-scaled, rounded input (Algorithm 4).  The
sketch stores, per repetition, the minimum hash over all occupied slots
and the value of the block it came from, plus the original norm
``||a||``.

Hashing all ``n * L`` slots is infeasible — the paper requires
``L > n``, ideally ``100n`` or more.  Section 5 ("Efficient Weighted
Hashing") prescribes the *active index* technique of Gollapudi &
Panigrahy: within a block, only the prefix-minimum **records** of the
hash sequence matter, and the record process can be simulated directly:

* the hash of slot 1 is ``Uniform(0, 1)``;
* given the current record ``(pos, z)``, the next slot with hash below
  ``z`` is ``Geometric(z)`` slots ahead, and its hash is
  ``Uniform(0, z)``.

The minimum over a block's first ``k`` slots is the value of the last
record at position ``<= k``.  Expected records per block: ``O(log L)``.

**Consistency across vectors** is the subtle requirement: if two
vectors share block ``i``, their sketches must see the *same* hash
sequence there, with supports that are nested prefixes (the vector with
larger ``k_i`` sees a superset of slots).  We achieve this by driving
each block's record simulation from a counter-based splitmix64 stream
keyed on ``(seed, repetition, block)``: both vectors replay the
identical record stream and simply stop at their own ``k_i``.  This
reproduces the exact joint distribution of expanded-vector MinHash —
cross-checked against the naive implementation in
:mod:`repro.core.wmh_naive` — at ``O(nnz * m * log L)`` cost.

The simulation is vectorized over a ``(m, blocks)`` grid: each round
advances every still-active (repetition, block) cell by one record, and
cells retire once their next record would overshoot their block's
occupancy.

**Memoization.**  A block's minima at occupancy ``k`` is a pure
function of ``(seed, m, L, block, k)`` — independent of which vector,
which batch, or which lake append asked for it.  Real lakes repeat
blocks constantly (query tables join on the lake's keys), so both the
scalar and the batch path consult a bounded, process-wide LRU
(:class:`MinimaCache`) before simulating.  It holds one entry per
block.  A block starts as its minima columns: one ``(columns, m)``
array of its own, indexed by occupancy, which a later miss replaces by
a grown copy.  Once the next miss would make those columns outweigh
the block's whole record stream up to ``L`` (about ``2 (ln L + γ)``
columns: a stream holds ``~ln L + γ`` records of 16 bytes per
repetition, a column 8), the stream is simulated once, kept, and the
columns dropped.  A stream
answers any occupancy ``k`` as its last record at a position ``<= k``,
so only blocks that are new or still on columns reach the record
simulation.  Cache hits return the exact floats the simulation would
produce, so results are bit-identical with the cache on, off, cold, or
warm.

**Batching.**  A batch resolves each distinct ``(block, occupancy)``
pair once, however many rows share it, and streams the pairs in
ascending chunks of whole blocks: a chunk's minima are filled from the
cache or simulated, inserted into the cache, and folded into the
running ``(rows, m)`` output before the next chunk starts.  A row's
indices are sorted, so chunk order is position order within the row,
and a strict ``<`` keeps the scalar ``argmin``'s first-entry tie-break.
Beside the output bank, the working set is one chunk and a few integer
arrays per non-zero; nothing is ``pairs x m``.  The scalar path is the
one-row case of the same resolver and fold.

A chunk's miss simulation is split by whole blocks across the CPUs the
process may use: the calling thread simulates one part while a
process-wide helper thread (one per further CPU, created on first use)
simulates the rest, and the parts are stitched back in block order.  A
block's minima are a pure function of ``(seed, repetition, block,
occupancy)``, so the split is bit-identical; every cache lookup and
insert, and the hit, miss and LRU bookkeeping, stay on the calling
thread.  Helpers run at the lowest thread priority, so they only
borrow idle CPU, and a part no helper has started when the calling
thread finishes its own runs on the calling thread.  A chunk under
about 1/32 of the cell target per part (63 miss blocks at m = 200) is
not split: one query table's few dozen keys stay on the calling thread.
A forked child forgets its parent's helpers (they do not exist in it),
and ingest pool workers keep the kernel on one thread, so workers x
threads stays within the CPUs.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import WORDS_PER_SAMPLE_SAMPLING, Sketcher
from repro.core.rounding import RoundedVector, round_unit_vector, round_vector
from repro.hashing.splitmix import counter_uniform, derive_key_grid
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = [
    "WMHSketch",
    "WeightedMinHash",
    "MinimaCache",
    "DEFAULT_L",
    "DEFAULT_CACHE_BYTES",
    "set_kernel_threads",
    "shared_minima_cache",
    "simulate_block_minima",
    "simulate_block_minima_grouped",
    "simulate_block_records",
]

#: Cell cap per block chunk of the sketch kernels: a chunk simulates
#: about this many (repetition, block) cells, and its merge gathers
#: about this many (entry, repetition) cells.  The record loop touches
#: ~10 state arrays per round; keeping them this size keeps them
#: cache-resident, which measures ~3x faster than one monolithic pass.
_SIM_CELL_TARGET = 200_000

#: Cell cap for the estimation kernel: ``estimate_cross`` bounds every
#: temporary to about this many float64 elements (a few MB), so scoring
#: a query batch against a lake never materializes ``(rows, m)``-shaped
#: intermediates.
_ESTIMATE_CELL_TARGET = 500_000

#: Default discretization parameter.  The paper wants ``L`` at least
#: ``n`` and ideally 100-1000x larger; 2**26 ≈ 6.7e7 comfortably covers
#: the experiments here (n = 10**4, so L/n > 6000) and keeps the record
#: process short (~ln L ≈ 18 records per block).
DEFAULT_L = 1 << 26

def _env_cache_bytes(default: int = 256 * 1024 * 1024) -> int:
    """Parse ``REPRO_WMH_CACHE_BYTES``, surviving malformed values.

    A typo'd deployment config must not take down every ``import
    repro`` — an unparsable value warns and falls back to the default.
    """
    raw = os.environ.get("REPRO_WMH_CACHE_BYTES")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring invalid REPRO_WMH_CACHE_BYTES={raw!r} "
            f"(expected an integer byte count); using {default}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default


#: Budget of the process-wide minima cache; override with the
#: ``REPRO_WMH_CACHE_BYTES`` environment variable (0 disables caching).
#: The budget bounds the array payload only.  A column is ``8 * m``
#: bytes and a block holds at most ``2 (ln L + γ)`` of them (~37 at the
#: default ``L``) before they give way to its record stream of about
#: the same size, so the default holds ~160k columns, or ~4.5k streams,
#: at the experiments' m = 200.  Python objects come on top: ~130 bytes
#: a column when blocks hold 7 columns (about 870 a block: its key, LRU
#: slot, occupancy index and one array header), traced.
DEFAULT_CACHE_BYTES = _env_cache_bytes()


_EULER_GAMMA = 0.5772156649015329


def _key_span(m: int) -> int:
    """Repetition stride of a :class:`_BlockStream`'s int64 keys: the
    largest power of two with ``m * span <= 2**63``."""
    return 1 << (63 - m.bit_length())


def _break_even_columns(m: int, L: int) -> float:
    """Minima columns a block may hold before its record stream up to
    ``L`` is kept instead.

    A stream expects ``H_L ≈ ln L + γ`` records per repetition at 16
    bytes (key and hash) against 8 bytes per repetition for a column,
    so columns outweigh it past ``2 (ln L + γ)`` of them.  An ``L``
    too large for the stream keys never converts.
    """
    if L >= _key_span(m):
        return math.inf
    return 2.0 * (math.log(L) + _EULER_GAMMA)


@dataclass(frozen=True)
class _BlockStream:
    """One block's record streams up to ``L``, for every repetition.

    ``keys`` holds ``r * _key_span(m) + position`` of each record in
    repetition, then position order, so one ``searchsorted`` finds the
    last record at a position ``<= k`` of every repetition at once.
    ``hashes[i + 1]`` is the hash of the record at ``keys[i]``;
    ``hashes[0]`` pads, so the ``"right"`` insertion point indexes it
    directly.
    """

    keys: np.ndarray
    hashes: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.hashes.nbytes

    def minima(self, counts: np.ndarray, offsets: np.ndarray, out: np.ndarray) -> None:
        """Write the ``(len(counts), m)`` minima at occupancies ``counts``
        (each ``<= L``) into ``out``; ``offsets`` is ``arange(m) * span``."""
        at = np.searchsorted(self.keys, counts[:, None] + offsets, "right")
        np.take(self.hashes, at, out=out, mode="clip")


class _BlockColumns:
    """One block's minima columns: row ``rows[k]`` of the contiguous
    ``(len(rows), m)`` array ``columns`` is the column at occupancy
    ``k``.  Never mutated; :meth:`grown` returns a new entry."""

    __slots__ = ("rows", "columns")

    def __init__(self, rows: dict[int, int], columns: np.ndarray) -> None:
        self.rows = rows
        self.columns = columns

    @property
    def nbytes(self) -> int:
        return self.columns.nbytes

    def grown(self, counts: Sequence[int], columns: np.ndarray) -> "_BlockColumns":
        """This entry with ``columns[i]`` at occupancy ``counts[i]``,
        replacing a column it already holds there."""
        if self.rows.keys().isdisjoint(counts):
            old = self.columns
            rows = dict(self.rows)
        else:
            replaced = set(counts)
            kept = [k for k in self.rows if k not in replaced]
            old = self.columns[[self.rows[k] for k in kept]]
            rows = {k: i for i, k in enumerate(kept)}
        rows.update(zip(counts, range(len(old), len(old) + len(counts))))
        return _BlockColumns(rows, np.concatenate([old, columns]))


def _entry_nbytes(entry: Any) -> int:
    return entry.nbytes


class MinimaCache:
    """Bounded LRU of per-block record-process minima.

    Keys are ``(seed, m, L, block)`` tuples.  An entry is either the
    block's minima columns (a :class:`_BlockColumns`: one contiguous
    float64 array whose rows are the ``(m,)`` columns that
    :func:`simulate_block_minima` would produce, indexed by occupancy
    ``k``), or, once the columns would outweigh it, the block's whole
    record stream up to ``L`` (a :class:`_BlockStream`), which answers
    every occupancy.
    Either way a hit is bit-identical to re-simulation, so the cache
    can never change a sketch, only the time it takes to build one.

    ``hits`` and ``misses`` count ``(block, occupancy)`` lookups.
    Entries are looked up, grown and replaced under a lock, because the
    shared cache serves every thread that sketches.  Eviction is
    least-recently-used by block entry, bounded by
    ``max_bytes`` of array payload (the per-entry object overhead is
    not counted; see :data:`DEFAULT_CACHE_BYTES`); a growing entry is
    re-accounted at its new size, and an entry larger than the whole
    budget is not stored.  ``max_bytes <= 0`` disables the cache
    entirely.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._payload_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @property
    def nbytes(self) -> int:
        """Current array payload held by the cache."""
        return self._payload_bytes

    def entry(self, key: tuple) -> Any:
        """The block's :class:`_BlockColumns` or :class:`_BlockStream`,
        or ``None``.

        Callers must not mutate an entry; :meth:`add_columns` replaces
        it.  Hits and misses are counted by the caller, per occupancy.
        """
        with self._lock:
            entry = self._entries.get(key)
            # Recency bookkeeping is pressure-gated: while the cache is
            # under half full there is no eviction pressure, so skipping
            # ``move_to_end`` cannot change *what* is cached — only the
            # order a hypothetical future eviction would pick — and it
            # removes the dominant per-hit cost on sketch-heavy ingests.
            if entry is not None and self._payload_bytes * 2 > self.max_bytes:
                self._entries.move_to_end(key)
        return entry

    def add_columns(self, key: tuple, counts: Sequence[int], columns: np.ndarray) -> None:
        """Add ``columns[i]`` (rows of a ``(len(counts), m)`` array) to
        the block's columns under occupancy ``counts[i]``.

        A block keeps its columns in one array of its own, so eviction
        actually releases memory — storing views of ``columns`` would
        keep the whole batch buffer pinned while any single view
        survived, silently breaking the ``max_bytes`` bound — and a
        column costs no Python object of its own.  Growing a block
        copies its columns into a new array: at most
        :func:`_break_even_columns` of them.
        """
        if self.max_bytes <= 0:
            return
        counts = list(counts)
        with self._lock:
            # An entry is replaced while out of the cache, so its size
            # is accounted exactly once before and once after.
            entry = self._pop(key)
            if isinstance(entry, _BlockColumns):
                entry = entry.grown(counts, columns)
            else:
                entry = _BlockColumns(dict(zip(counts, range(len(counts)))), columns.copy())
            self._insert(key, entry)

    def put_stream(self, key: tuple, stream: _BlockStream) -> None:
        """Replace the block's entry (its columns, if any) by its stream."""
        if self.max_bytes <= 0:
            return
        with self._lock:
            self._pop(key)
            self._insert(key, stream)

    def _pop(self, key: tuple) -> Any:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._payload_bytes -= _entry_nbytes(entry)
        return entry

    def _insert(self, key: tuple, entry: Any) -> None:
        nbytes = _entry_nbytes(entry)
        if nbytes > self.max_bytes:
            return
        entries = self._entries
        entries[key] = entry
        self._payload_bytes += nbytes
        # The new entry is last and fits, so it is never the one evicted.
        while self._payload_bytes > self.max_bytes and entries:
            _, dropped = entries.popitem(last=False)
            self._payload_bytes -= _entry_nbytes(dropped)
            self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._payload_bytes = 0

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self._payload_bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: The process-wide cache every sketcher uses unless given its own.
_SHARED_CACHE = MinimaCache(DEFAULT_CACHE_BYTES)


def shared_minima_cache() -> MinimaCache:
    """The process-wide :class:`MinimaCache` (inspect, resize, clear)."""
    return _SHARED_CACHE


@dataclass(frozen=True)
class WMHSketch:
    """Output of Algorithm 3: ``{W_hash, W_val, ||a||}`` plus config.

    ``hashes[i]`` is the minimum hash of repetition ``i`` over the
    occupied slots of the expanded vector; ``values[i]`` is the rounded
    unit-vector entry of the block that attained it.  The zero vector
    yields ``hashes = +inf`` and ``values = 0``.
    """

    hashes: np.ndarray
    values: np.ndarray
    norm: float
    m: int
    L: int
    seed: int

    def storage_words(self) -> float:
        """1.5 words per sample (64-bit value + 32-bit hash) + the norm."""
        return WORDS_PER_SAMPLE_SAMPLING * self.m + 1.0


def simulate_block_minima(
    seed: int,
    m: int,
    block_ids: np.ndarray,
    counts: np.ndarray,
    max_rounds: int = 512,
) -> np.ndarray:
    """Simulate per-(repetition, block) prefix-minimum hashes.

    Parameters
    ----------
    seed, m:
        Sketch seed and repetition count; repetition ``r`` of any vector
        sketched with this seed uses stream key ``(seed, r, block)``.
    block_ids:
        Integer ids of the vector's occupied blocks (original vector
        indices), shape ``(B,)``.
    counts:
        Occupied slot counts ``k >= 1`` per block, shape ``(B,)``.
    max_rounds:
        Safety cap on simulation rounds; the expected number of records
        is ``ln k`` so 512 is unreachable in practice.

    Returns
    -------
    Array of shape ``(m, B)``: the minimum hash over the first
    ``counts[j]`` slots of block ``block_ids[j]``, per repetition — the
    last record of each stream of :func:`simulate_block_records`.
    """
    counts = np.asarray(counts, dtype=np.int64)
    offsets, _, hashes = simulate_block_records(seed, m, block_ids, counts, max_rounds)
    return hashes[offsets[1:] - 1].reshape(counts.size, m).T


def simulate_block_records(
    seed: int,
    m: int,
    block_ids: np.ndarray,
    limits: np.ndarray,
    max_rounds: int = 512,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate every record of per-(block, repetition) streams.

    Cell ``j * m + r`` is repetition ``r`` of block ``block_ids[j]``,
    simulated up to position ``limits[j] >= 1``.  Returns ``(offsets,
    positions, hashes)``: cell ``c``'s records are
    ``offsets[c]:offsets[c + 1]`` of the two flat float64 arrays, in
    position order, so the last one at a position ``<= k`` is the
    minimum over the first ``k`` slots.
    """
    block_ids = np.asarray(block_ids, dtype=np.int64)
    limits = np.asarray(limits, dtype=np.int64)
    if np.any(limits < 1):
        raise ValueError("all block counts must be >= 1")
    keys = derive_key_grid(seed, np.arange(m, dtype=np.int64), block_ids).T.ravel()
    num_cells = keys.size

    # Compacted state of the still-active cells.  Record 0 is the hash
    # of slot 1; every block has k >= 1 so it is always accepted.
    # Positions are tracked in float64 (exact up to 2**53, far beyond
    # any usable L).  Record t of every cell is accepted in round t,
    # so each round's (cells, positions, hashes) land at offset + t.
    act_cells = np.arange(num_cells)
    act_keys = keys
    act_z = counter_uniform(keys, 0)
    act_pos = np.ones(num_cells, dtype=np.float64)
    act_limit = np.repeat(limits.astype(np.float64), m)
    rounds = [(act_cells, act_pos, act_z)]
    counter = 1
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        while act_cells.size:
            if len(rounds) > max_rounds:
                raise RuntimeError(
                    "record simulation did not converge; this indicates a "
                    "corrupted occupancy count"
                )
            # Geometric(z) via inversion: smallest t >= 1 with u < z
            # after t trials.  log1p(-z) < 0 strictly since z in (0, 1).
            state = act_keys + np.uint64(counter) * golden
            skip = np.ceil(np.log(_splitmix_uniform(state)) / np.log1p(-act_z))
            next_pos = act_pos + skip
            keep = np.flatnonzero(next_pos <= act_limit)
            act_keys = act_keys.take(keep)
            u_value = _splitmix_uniform(act_keys + np.uint64(counter) * golden + golden)
            act_z = act_z.take(keep) * u_value
            act_pos = next_pos.take(keep)
            act_limit = act_limit.take(keep)
            act_cells = act_cells.take(keep)
            counter += 2
            if act_cells.size:
                rounds.append((act_cells, act_pos, act_z))

    lengths = np.zeros(num_cells, dtype=np.int64)
    for cells, _, _ in rounds:
        lengths[cells] += 1
    offsets = np.zeros(num_cells + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    positions = np.empty(int(offsets[-1]))
    hashes = np.empty(int(offsets[-1]))
    for t, (cells, pos, z) in enumerate(rounds):
        at = offsets[cells] + t
        positions[at] = pos
        hashes[at] = z
    return offsets, positions, hashes


def _splitmix_uniform(state: np.ndarray) -> np.ndarray:
    """``counter_uniform`` on precomputed stream states, inlined for
    the record loops (the key plus counter addition is the caller's)."""
    word = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    word = (word ^ (word >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    word = word ^ (word >> np.uint64(31))
    return ((word >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def simulate_block_minima_grouped(
    seed: int,
    m: int,
    block_ids: np.ndarray,
    query_indptr: np.ndarray,
    query_counts: np.ndarray,
    max_rounds: int = 512,
) -> np.ndarray:
    """Evaluate per-block prefix minima at many occupancy counts at once.

    The record stream of a ``(repetition, block)`` pair is a pure
    function of ``(seed, repetition, block)`` — every vector occupying
    that block replays the *same* stream and merely stops at its own
    occupancy ``k``.  When a matrix of vectors shares blocks, the
    stream therefore only needs simulating **once per block**, to the
    block's largest requested occupancy.

    The simulation and the query answering are **fused**: each cell
    keeps one cursor, the output slot of its block's next unanswered
    occupancy ``k`` (visited in ascending order), and the moment a
    record advance passes ``k`` the current ``z`` — the last record at
    position ``<= k`` — is written straight into that slot.  No record
    log, no sort, no binary search, and no allocation proportional to
    the record count.

    Parameters
    ----------
    seed, m:
        As in :func:`simulate_block_minima`.
    block_ids:
        Distinct block ids, shape ``(U,)``.
    query_indptr:
        ``(U + 1,)`` boundaries grouping ``query_counts`` by block;
        every block must own at least one query.
    query_counts:
        Requested occupancies ``k >= 1``, shape ``(Q,)``.  Each block's
        segment must be sorted ascending (the batch sketcher's distinct
        ``(block, count)`` grouping guarantees this); duplicates are
        fine.

    Returns
    -------
    ``(m, Q)`` array: entry ``(r, q)`` equals
    ``simulate_block_minima(seed, m, [block of q], [k_q])[r, 0]``
    exactly — the batch and scalar paths are bit-identical.  It is the
    transpose of a C-contiguous ``(Q, m)`` array, so the batch kernel's
    one-row-per-pair layout is its ``.T``, with no copy.
    """
    block_ids = np.asarray(block_ids, dtype=np.int64)
    query_indptr = np.asarray(query_indptr, dtype=np.int64)
    query_counts = np.asarray(query_counts, dtype=np.int64)
    num_blocks = block_ids.size
    num_queries = query_counts.size
    if query_indptr.size != num_blocks + 1 or (
        num_blocks and np.any(np.diff(query_indptr) < 1)
    ):
        raise ValueError("every block needs at least one query count")
    if np.any(query_counts < 1):
        raise ValueError("all query counts must be >= 1")
    if num_queries == 0:
        return np.empty((m, 0))
    ascending = np.diff(query_counts) >= 0
    ascending[query_indptr[1:-1] - 1] = True  # block boundaries may reset
    if not ascending.all():
        raise ValueError("each block's query counts must be sorted ascending")

    keys = derive_key_grid(seed, np.arange(m, dtype=np.int64), block_ids).ravel()
    num_cells = m * num_blocks

    # Active-cell state, compacted as cells retire.  Record 0 is the
    # hash of slot 1; every block has k >= 1 so it is always accepted.
    # A cell's one cursor is act_slot, the output slot q * m + r of its
    # block's next unanswered query q, and act_thr, that query's
    # occupancy; next_thresholds[q] is the next query's, +inf after a
    # block's last.
    thresholds = query_counts.astype(np.float64)
    next_thresholds = np.empty(num_queries)
    next_thresholds[:-1] = thresholds[1:]
    next_thresholds[query_indptr[1:] - 1] = np.inf
    first = query_indptr[:-1]
    act_keys = keys
    act_z = counter_uniform(keys, 0)
    act_pos = np.ones(num_cells, dtype=np.float64)
    act_slot = (first * m + np.arange(m, dtype=np.int64)[:, None]).ravel()
    act_thr = np.tile(thresholds[first], m)
    out = np.empty(num_queries * m)

    counter = 1
    rounds = 0
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        while act_keys.size:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "record simulation did not converge; this indicates a "
                    "corrupted occupancy count"
                )
            state = act_keys + np.uint64(counter) * golden
            u_skip = _splitmix_uniform(state)
            skip = np.ceil(np.log(u_skip) / np.log1p(-act_z))
            next_pos = act_pos + skip
            # Answer every query this advance passes: the current z is
            # the last record at position <= k exactly when the next
            # record lands beyond k.  Each query is written once; a
            # cell whose advance passes its largest occupancy is left
            # at act_thr = +inf.
            ready = np.flatnonzero(act_thr < next_pos)
            while ready.size:
                slot = act_slot[ready]
                out[slot] = act_z[ready]
                nt = next_thresholds[slot // m]
                act_slot[ready] = slot + m
                act_thr[ready] = nt
                ready = ready[nt < next_pos[ready]]
            # One flatnonzero feeds every compaction below (a boolean
            # mask would re-scan itself once per indexed array).  A
            # cell with a query left has its advance accepted.
            keep = np.flatnonzero(act_thr != np.inf)

            act_keys = act_keys.take(keep)
            # The value draw is consumed only by accepted cells (pure
            # function of (key, counter), so skipping retiring cells
            # changes nothing downstream).
            u_value = _splitmix_uniform(act_keys + np.uint64(counter) * golden + golden)
            act_z = act_z.take(keep) * u_value
            act_pos = next_pos.take(keep)
            act_slot = act_slot.take(keep)
            act_thr = act_thr.take(keep)
            counter += 2

    return out.reshape(num_queries, m).T


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: Threads a chunk's miss simulation is split across: the calling
#: thread plus helpers.  See :func:`set_kernel_threads`.
_KERNEL_THREADS = _usable_cpus()

#: A split part simulates at least this many (repetition, block) cells,
#: a 32nd of a chunk: at m = 200 a chunk splits in two from 63 miss
#: blocks, so a query table's few dozen keys stay on the calling
#: thread, where handing half of them off costs more than it saves.
_MIN_PART_CELLS = _SIM_CELL_TARGET // 32

_helper: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()


def set_kernel_threads(threads: int) -> None:
    """Cap the threads this process's batch kernel simulates on (at
    least 1; 1 keeps every simulation on the calling thread).  Ingest
    pool workers set 1, so workers x threads stays within the CPUs."""
    global _KERNEL_THREADS
    _KERNEL_THREADS = max(1, int(threads))


def _idle_priority() -> None:
    """Lower the calling thread (only: Linux takes a thread id) to the
    lowest priority, so a helper borrows idle CPU and never slows a
    busy neighbour; a platform without the call keeps the default."""
    try:
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
    except (AttributeError, OSError):
        pass


def _helper_pool() -> ThreadPoolExecutor:
    """The process-wide helper threads, created on first use."""
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(
                max_workers=max(1, _usable_cpus() - 1),
                thread_name_prefix="wmh-kernel",
                initializer=_idle_priority,
            )
        return _helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper threads were not forked,
    so no part submitted to their executor would ever start (the
    calling thread would simulate them all); the next use makes a new
    one."""
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _simulate_split(
    seed: int,
    m: int,
    block_ids: np.ndarray,
    query_indptr: np.ndarray,
    query_counts: np.ndarray,
) -> np.ndarray:
    """:func:`simulate_block_minima_grouped` as a C-contiguous
    ``(Q, m)`` array, split by whole blocks across the kernel threads.

    The calling thread simulates the first part while helpers simulate
    the others; a part no helper has started by then runs on the
    calling thread too.  A block's minima are a pure function of
    ``(seed, repetition, block, occupancy)``, so the parts stitched in
    block order are bit-identical to one call.
    """
    parts = min(_KERNEL_THREADS, block_ids.size * m // _MIN_PART_CELLS)
    if parts <= 1:
        return np.ascontiguousarray(
            simulate_block_minima_grouped(seed, m, block_ids, query_indptr, query_counts).T
        )
    cuts = [block_ids.size * i // parts for i in range(parts + 1)]

    def part(i: int) -> np.ndarray:
        b0, b1 = cuts[i], cuts[i + 1]
        q0, q1 = query_indptr[b0], query_indptr[b1]
        return simulate_block_minima_grouped(
            seed, m, block_ids[b0:b1], query_indptr[b0 : b1 + 1] - q0, query_counts[q0:q1]
        )

    pool = _helper_pool()
    futures = [pool.submit(part, i) for i in range(1, parts)]
    try:
        results = [part(0)]
        for i, future in enumerate(futures, 1):
            results.append(part(i) if future.cancel() else future.result())
    finally:
        for future in futures:
            future.cancel()
    return np.concatenate([result.T for result in results])


def _fold_minima(
    hashes: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    minima: np.ndarray,
    entry_values: np.ndarray,
) -> None:
    """Fold entries into running per-row minima, in place.

    Entry ``i`` belongs to output row ``rows[i]`` and carries the
    ``(m,)`` repetition minima ``minima[i]`` and the rounded value
    ``entry_values[i]``.  ``rows`` must be sorted, and a row's entries
    must come in position order, after any entry folded into that row
    by an earlier call.  Each row segment's minimum and its first
    position are two reduceats; the running minima take the fold only
    where it is strictly smaller.  So every row ends with ``np.argmin``'s
    first-occurrence tie-break over all its entries.
    """
    row_start = np.concatenate([[True], rows[1:] != rows[:-1]])
    starts = np.flatnonzero(row_start)
    mins = np.minimum.reduceat(minima, starts, axis=0)
    position = np.where(
        minima == mins[np.cumsum(row_start) - 1],
        np.arange(rows.size)[:, None],
        rows.size,
    )
    first = np.minimum.reduceat(position, starts, axis=0)
    out_rows = rows[starts]
    current = hashes[out_rows]
    better = mins < current
    hashes[out_rows] = np.where(better, mins, current)
    values[out_rows] = np.where(better, entry_values[first], values[out_rows])


class WeightedMinHash(Sketcher):
    """The paper's Weighted MinHash inner-product sketcher (Algorithm 3).

    Parameters
    ----------
    m:
        Number of samples (sketch repetitions).
    seed:
        Random seed; sketches are comparable only across identical
        ``(m, seed, L)``.
    L:
        Discretization parameter of Algorithm 4.  Has **no** effect on
        sketch size, only on sketching cost (logarithmically) and on
        rounding fidelity; keep it well above the vector dimension
        (paper: at least ``n``, ideally ``100n``-``1000n``).
    cache_bytes:
        Minima-memoization budget.  ``None`` (default) shares the
        process-wide :func:`shared_minima_cache`; ``0`` disables
        memoization for this sketcher; a positive value gives the
        sketcher a private :class:`MinimaCache` of that size.  The
        cache never changes sketch bits, only sketching time.
    """

    name = "WMH"

    def __init__(
        self,
        m: int,
        seed: int = 0,
        L: int = DEFAULT_L,
        cache_bytes: int | None = None,
    ) -> None:
        if m <= 0:
            raise ValueError(f"sample count m must be positive, got {m}")
        if L < 1:
            raise ValueError(f"discretization parameter L must be >= 1, got {L}")
        self.m = int(m)
        self.seed = int(seed)
        self.L = int(L)
        self._cache_bytes = cache_bytes
        if cache_bytes is None:
            self._cache: MinimaCache | None = _SHARED_CACHE
        elif cache_bytes <= 0:
            self._cache = None
        else:
            self._cache = MinimaCache(cache_bytes)

    def __getstate__(self) -> dict[str, Any]:
        # The memo cache never crosses process boundaries: pickling a
        # sketcher (e.g. to a parallel-ingest worker) ships only its
        # configuration; the receiving process re-resolves its own
        # shared or private cache.
        return {
            "m": self.m,
            "seed": self.seed,
            "L": self.L,
            "cache_bytes": self._cache_bytes,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(
            state["m"], state["seed"], state["L"], state["cache_bytes"]
        )

    @classmethod
    def from_storage(cls, words: int, seed: int = 0, **kwargs: Any) -> "WeightedMinHash":
        """Size the sketch to ``words`` 64-bit words (1.5 words/sample)."""
        m = int(words / WORDS_PER_SAMPLE_SAMPLING)
        return cls(m=max(m, 1), seed=seed, **kwargs)

    def storage_words(self) -> float:
        return WORDS_PER_SAMPLE_SAMPLING * self.m + 1.0

    # ------------------------------------------------------------------

    def sketch(self, vector: SparseVector) -> WMHSketch:
        """Compress ``vector``; the zero vector yields an empty sketch."""
        if vector.nnz == 0:
            return WMHSketch(
                hashes=np.full(self.m, np.inf),
                values=np.zeros(self.m),
                norm=0.0,
                m=self.m,
                L=self.L,
                seed=self.seed,
            )
        rounded = round_vector(vector, self.L)
        return self.sketch_rounded(rounded)

    def _live_cache(self) -> MinimaCache | None:
        cache = self._cache
        if cache is None or not cache.enabled:
            return None
        return cache

    def sketch_rounded(self, rounded: RoundedVector) -> WMHSketch:
        """Sketch a pre-rounded vector (shared by ablation variants)."""
        if rounded.L != self.L:
            raise ValueError(
                f"rounded vector has L={rounded.L}, sketcher expects {self.L}"
            )
        if rounded.counts.size and rounded.counts.max() > self.L:
            raise ValueError(f"occupancy counts must not exceed L={self.L}")
        # rounded.indices are sorted and unique (SparseVector
        # invariant): the distinct-pair order of the chunked resolver,
        # and one pair per entry.
        hashes = np.full((1, self.m), np.inf)
        values = np.zeros((1, self.m))
        rows = np.zeros(rounded.indices.size, dtype=np.int64)
        for lo, hi, minima in self._pair_minima_chunks(rounded.indices, rounded.counts):
            _fold_minima(hashes, values, rows[lo:hi], minima, rounded.values[lo:hi])
        return WMHSketch(
            hashes=hashes[0],
            values=values[0],
            norm=rounded.norm,
            m=self.m,
            L=self.L,
            seed=self.seed,
        )

    def estimate(self, sketch_a: WMHSketch, sketch_b: WMHSketch) -> float:
        """Algorithm 5 — implemented in :mod:`repro.core.estimator`."""
        from repro.core.estimator import estimate_inner_product

        return estimate_inner_product(sketch_a, sketch_b)

    # ------------------------------------------------------------------
    # batch path
    # ------------------------------------------------------------------

    def _bank_params(self) -> dict[str, Any]:
        return {"m": self.m, "seed": self.seed, "L": self.L}

    def bank_layout(self) -> dict[str, tuple[tuple[int, ...], str]]:
        return {
            "hashes": ((self.m,), "<f8"),
            "values": ((self.m,), "<f8"),
            "norms": ((), "<f8"),
        }

    def _check_query(self, sketch: WMHSketch) -> None:
        self._require(
            sketch.m == self.m and sketch.seed == self.seed and sketch.L == self.L,
            f"query sketch (m={sketch.m}, seed={sketch.seed}, L={sketch.L}) does "
            f"not match sketcher (m={self.m}, seed={self.seed}, L={self.L})",
        )

    def pack_bank(self, sketches: Sequence[WMHSketch]) -> SketchBank:
        for sketch in sketches:
            self._check_query(sketch)
        # np.array over the row list (not np.stack): a fraction of the
        # per-call cost, which matters when serving one query.
        shape = (len(sketches), self.m)
        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={
                "hashes": np.array([s.hashes for s in sketches], np.float64).reshape(shape),
                "values": np.array([s.values for s in sketches], np.float64).reshape(shape),
                "norms": np.array([s.norm for s in sketches], np.float64),
            },
            words_per_sketch=self.storage_words(),
        )

    def signature_length(self) -> int:
        return self.m

    def signature_key(self, sketch: WMHSketch) -> np.ndarray:
        """Per-repetition minimum hashes — equal entries certify
        collisions, which is exactly what banded LSH buckets on."""
        self._check_query(sketch)
        return sketch.hashes

    def signature_keys(self, bank: SketchBank) -> np.ndarray:
        self._check_bank(bank)
        return bank.columns["hashes"]

    def bank_row(self, bank: SketchBank, i: int) -> WMHSketch:
        self._check_bank(bank)
        return WMHSketch(
            hashes=bank.columns["hashes"][i],
            values=bank.columns["values"][i],
            norm=float(bank.columns["norms"][i]),
            m=self.m,
            L=self.L,
            seed=self.seed,
        )

    def _pair_minima_chunks(
        self, pair_blocks: np.ndarray, pair_counts: np.ndarray
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Minima of distinct ``(block, occupancy)`` pairs, streamed by
        block chunk.

        Input arrays must be lexsorted by ``(block, count)`` with no
        duplicate pairs and counts ``<= L``.  Every block's cache entry
        is looked up once, up front, and each of its pairs counted as a
        hit or a miss; hit columns and streams are held by reference,
        so a put of a later chunk can evict them without losing them.
        A block whose columns plus misses would pass
        :func:`_break_even_columns` converts to its record stream.  The
        pairs are then walked in chunks of whole blocks (about
        :data:`_SIM_CELL_TARGET` simulation cells each): a chunk's
        converting blocks are simulated up to ``L`` and cached as
        streams, its stream blocks are answered by one vectorized
        search each, and the misses of its column blocks are simulated
        — one record stream per block, evaluated at its missing
        occupancies — and added to their blocks' columns.

        Yields ``(lo, hi, minima)`` where ``minima`` is a fresh
        ``(hi - lo, m)`` array holding one row per pair ``lo..hi-1``,
        so no buffer ever spans all pairs.
        """
        seed, m, L = self.seed, self.m, self.L
        num_pairs = pair_blocks.size
        block_starts = np.flatnonzero(
            np.concatenate([[True], np.diff(pair_blocks) != 0])
        )
        bounds = np.append(block_starts, num_pairs).tolist()
        blocks = pair_blocks[block_starts].tolist()
        # Per block: its stream (cached, or simulated by this call) and
        # whether this call converts it; per pair: its cached column.
        streams: list[_BlockStream | None] = [None] * len(blocks)
        convert = np.zeros(len(blocks), dtype=bool)
        on_stream = np.zeros(len(blocks), dtype=bool)
        cached: list[np.ndarray | None] | None = None
        cache = self._live_cache()
        if cache is not None and len(cache):
            cached = [None] * num_pairs
            counts = pair_counts.tolist()
            break_even = _break_even_columns(m, L)
            hits = 0
            for j, block in enumerate(blocks):
                entry = cache.entry((seed, m, L, block))
                lo, hi = bounds[j], bounds[j + 1]
                if isinstance(entry, _BlockStream):
                    streams[j] = entry
                    on_stream[j] = True
                    hits += hi - lo
                    continue
                found = 0
                if entry is not None:
                    rows, columns = entry.rows, entry.columns
                    for i in range(lo, hi):
                        row = rows.get(counts[i])
                        if row is not None:
                            cached[i] = columns[row]
                            found += 1
                hits += found
                if found < hi - lo:
                    held = len(entry.rows) if entry is not None else 0
                    convert[j] = held + hi - lo - found > break_even
            cache.hits += hits
            cache.misses += num_pairs - hits
        elif cache is not None:
            convert = np.diff(bounds) > _break_even_columns(m, L)
        on_stream |= convert

        pair_on_columns = np.repeat(~on_stream, np.diff(bounds))
        key_offsets = np.arange(m, dtype=np.int64) * _key_span(m)
        blocks_per_chunk = max(1, _SIM_CELL_TARGET // m)
        for b0 in range(0, len(blocks), blocks_per_chunk):
            b1 = min(b0 + blocks_per_chunk, len(blocks))
            lo, hi = bounds[b0], bounds[b1]
            new = np.flatnonzero(convert[b0:b1]) + b0
            simulated = self._simulate_streams(pair_blocks[block_starts[new]])
            for j, stream in zip(new.tolist(), simulated):
                streams[j] = stream
                if cache is not None:
                    cache.put_stream((seed, m, L, blocks[j]), stream)
            column_pairs = np.flatnonzero(pair_on_columns[lo:hi])
            minima = None
            if cached is None:
                miss = column_pairs
            else:
                minima = np.empty((hi - lo, m))
                missing: list[int] = []
                for i in column_pairs.tolist():
                    column = cached[lo + i]
                    if column is None:
                        missing.append(i)
                    else:
                        minima[i] = column
                miss = np.asarray(missing, dtype=np.int64)
            if miss.size:
                miss_blocks = pair_blocks[lo:hi][miss]
                miss_counts = pair_counts[lo:hi][miss]
                # The misses inherit the (block, count) ordering, so
                # grouping by block is a run-length scan.
                new_block = np.concatenate([[True], np.diff(miss_blocks) != 0])
                runs = np.append(np.flatnonzero(new_block), miss.size)
                fresh = _simulate_split(seed, m, miss_blocks[new_block], runs, miss_counts)
                if cache is not None:
                    runs = runs.tolist()
                    miss_counts = miss_counts.tolist()
                    for block, a, b in zip(
                        miss_blocks[new_block].tolist(), runs[:-1], runs[1:]
                    ):
                        cache.add_columns(
                            (seed, m, L, block), miss_counts[a:b], fresh[a:b]
                        )
            if minima is None:
                if miss.size == hi - lo:
                    # All misses, none cached: the simulation's own buffer.
                    yield lo, hi, fresh
                    continue
                minima = np.empty((hi - lo, m))
            if miss.size:
                minima[miss] = fresh
            for j in (np.flatnonzero(on_stream[b0:b1]) + b0).tolist():
                a, b = bounds[j], bounds[j + 1]
                streams[j].minima(pair_counts[a:b], key_offsets, minima[a - lo : b - lo])
            yield lo, hi, minima

    def _simulate_streams(self, block_ids: np.ndarray) -> list[_BlockStream]:
        """The record streams of ``block_ids`` up to ``L``, keyed for
        lookup; simulated a few blocks at a time, so the transient
        records stay about :data:`_SIM_CELL_TARGET` in number."""
        m, L = self.m, self.L
        per_call = max(1, int(_SIM_CELL_TARGET / (m * _break_even_columns(m, L) / 2)))
        rep_offsets = np.arange(m, dtype=np.int64) * _key_span(m)
        streams: list[_BlockStream] = []
        for first in range(0, block_ids.size, per_call):
            ids = block_ids[first : first + per_call]
            offsets, positions, hashes = simulate_block_records(
                self.seed, m, ids, np.full(ids.size, L)
            )
            keys = positions.astype(np.int64)
            keys += np.repeat(np.tile(rep_offsets, ids.size), np.diff(offsets))
            for a, b in zip(offsets[:-1:m].tolist(), offsets[m::m].tolist()):
                padded = np.empty(b - a + 1)
                padded[0] = np.nan
                padded[1:] = hashes[a:b]
                streams.append(_BlockStream(keys[a:b].copy(), padded))
        return streams

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Sketch all rows in one record simulation (Section 5 batched).

        Because every vector sketched under one seed replays the same
        per-``(repetition, block)`` record stream, the per-block minima
        depend only on the distinct ``(block, occupancy)`` pairs present
        in the matrix: those are looked up in the memo cache or
        simulated **once**, so blocks shared across rows (common keys,
        common tokens) cost one simulation instead of one per row.

        The pairs stream through in ascending block chunks, and each
        chunk's entries fold into the running ``(rows, m)`` minima with
        a strict ``<``.  Row indices are sorted, so block order is
        position order within a row and the first entry wins a tie,
        as ``np.argmin`` does: results are bit-identical to the scalar
        loop, and the working set is one chunk plus the output bank.
        """
        rows = as_sparse_matrix(matrix).without_explicit_zeros()
        total = rows.num_rows
        hashes = np.full((total, self.m), np.inf)
        values = np.zeros((total, self.m))
        norms = np.zeros(total)

        # Algorithm 4 per row, straight off the CSR slices (identical
        # arithmetic to round_vector, minus the per-row SparseVector
        # shuffle); empty rows keep the empty-sketch sentinel.
        mat_indptr = rows.indptr
        active_rows: list[int] = []
        parts_blocks: list[np.ndarray] = []
        parts_values: list[np.ndarray] = []
        parts_counts: list[np.ndarray] = []
        for i in range(total):
            lo, hi = int(mat_indptr[i]), int(mat_indptr[i + 1])
            if lo == hi:
                continue
            vals = rows.values[lo:hi]
            nrm = float(np.linalg.norm(vals))
            if nrm == 0.0:
                # Entries are nonzero but their squares underflowed;
                # the scalar path's round_vector rejects this too.
                raise ValueError("cannot round the zero vector")
            rounded_vals, row_counts = round_unit_vector(vals / nrm, self.L)
            keep = row_counts > 0
            norms[i] = nrm
            active_rows.append(i)
            parts_blocks.append(rows.indices[lo:hi][keep])
            parts_values.append(rounded_vals[keep])
            parts_counts.append(row_counts[keep])

        if active_rows:
            blocks = np.concatenate(parts_blocks)
            counts = np.concatenate(parts_counts)
            entry_values = np.concatenate(parts_values)
            sizes = np.array([part.size for part in parts_blocks], dtype=np.int64)
            entry_rows = np.repeat(np.array(active_rows, dtype=np.int64), sizes)

            # Group the entries by (block, occupancy): each *distinct*
            # (block, occupancy) pair is resolved once, no matter how
            # many rows share it (in a data lake, same-sized tables
            # over a shared key domain collapse to a fraction of the
            # raw entry count).
            perm = np.lexsort((counts, blocks))
            sorted_blocks = blocks[perm]
            sorted_counts = counts[perm]
            new_pair = np.concatenate(
                [[True], (np.diff(sorted_blocks) != 0) | (np.diff(sorted_counts) != 0)]
            )
            pair_starts = np.append(np.flatnonzero(new_pair), perm.size)
            entry_pairs = np.empty(perm.size, dtype=np.int64)
            entry_pairs[perm] = np.cumsum(new_pair) - 1

            for lo, hi, minima in self._pair_minima_chunks(
                sorted_blocks[new_pair], sorted_counts[new_pair]
            ):
                # The chunk's entries in row-major order, folded about
                # a cell target at a time: the fold's few entries x m
                # temporaries then stay cache-sized, well under the
                # chunk's own buffer, however many rows share its pairs.
                chunk = np.sort(perm[pair_starts[lo] : pair_starts[hi]])
                step = max(1, _SIM_CELL_TARGET // self.m)
                for first in range(0, chunk.size, step):
                    part = chunk[first : first + step]
                    _fold_minima(
                        hashes,
                        values,
                        entry_rows[part],
                        minima[entry_pairs[part] - lo],
                        entry_values[part],
                    )

        return SketchBank(
            kind=self.name,
            params=self._bank_params(),
            columns={"hashes": hashes, "values": values, "norms": norms},
            words_per_sketch=self.storage_words(),
        )

    def _estimate_block(
        self,
        query_hashes: np.ndarray,
        query_values: np.ndarray,
        bank_hashes: np.ndarray,
        bank_values: np.ndarray,
        minima: np.ndarray,
        terms: np.ndarray,
    ) -> np.ndarray:
        """Algorithm 5 of one query against a ``(rows, m)`` bank block.

        Returns the per-row estimate without the norm product (applied
        by the caller).  ``minima`` and ``terms`` are caller-owned
        work blocks of the bank block's shape; ``terms`` must be all
        zero and is left all zero.  The importance-weighted terms are
        non-zero only on matched repetitions, so they are computed at
        the matches alone and scattered into ``terms``; the block then
        sums exactly like the scalar estimator's full-width ``terms``
        array, so every value is bit-identical to it.  Matches are
        sparse in lake banks (a query shares hashes only with tables
        that join it), which is what makes the gather/scatter cheaper
        than full-width arithmetic.
        """
        totals = np.minimum(query_hashes, bank_hashes, out=minima).sum(axis=-1)
        m_tilde = (self.m / totals - 1.0) / self.L
        matched = np.flatnonzero(query_hashes == bank_hashes)
        ours = query_values[matched % self.m]
        theirs = bank_values.reshape(-1)[matched]
        q = np.minimum(np.square(ours), np.square(theirs))
        positive = q > 0.0
        flat_terms = terms.reshape(-1)
        flat_terms[matched[positive]] = ours[positive] * theirs[positive] / q[positive]
        estimates = (m_tilde / self.m) * terms.sum(axis=-1)
        flat_terms[matched] = 0.0
        return estimates

    def estimate_cross(self, query_bank: SketchBank, bank: SketchBank) -> np.ndarray:
        """Algorithm 5 for every query/row pair, one bank traversal.

        Row ``i`` is bit-identical to the scalar estimator of query
        ``i`` against each row.  The loop nest is bank-chunk-outer /
        query-inner: each bounded ``(row_chunk, m)`` slice of the bank
        (about :data:`_ESTIMATE_CELL_TARGET` elements) stays
        cache-resident while the *whole* query batch scores against
        it, so the bank streams through memory once per batch and the
        full-lake ``(rows, m)`` intermediates never materialize.  The
        two block-sized temporaries are allocated once per call and
        reused by every query and chunk (the terms block is re-zeroed
        at its matched cells only), so a batch pays for them once.
        """
        self._check_bank(query_bank)
        self._check_bank(bank)
        q_hashes = query_bank.columns["hashes"]
        q_values = query_bank.columns["values"]
        q_norms = query_bank.columns["norms"]
        bank_hashes = bank.columns["hashes"]
        bank_values = bank.columns["values"]
        norms = bank.columns["norms"]
        count = len(bank)
        out = np.zeros((len(query_bank), count))
        # Zero-norm sketches on either side (the zero vector's +inf
        # sentinel rows) estimate exactly +0.0, as the scalar path does.
        live = np.flatnonzero(q_norms != 0.0).tolist()
        row_chunk = max(1, _ESTIMATE_CELL_TARGET // max(self.m, 1))
        block_rows = min(row_chunk, count) if live else 0
        minima = np.empty((block_rows, self.m))
        terms = np.zeros((block_rows, self.m))
        for lo in range(0, count, row_chunk):
            hi = min(lo + row_chunk, count)
            block_hashes = bank_hashes[lo:hi]
            block_values = bank_values[lo:hi]
            block_norms = norms[lo:hi]
            block_zero = block_norms == 0.0
            for qi in live:
                row = (q_norms[qi] * block_norms) * self._estimate_block(
                    q_hashes[qi],
                    q_values[qi],
                    block_hashes,
                    block_values,
                    minima[: hi - lo],
                    terms[: hi - lo],
                )
                row[block_zero] = 0.0
                out[qi, lo:hi] = row
        return out
