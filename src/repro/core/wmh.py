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

The simulation is vectorized over the full ``(m, nnz)`` grid: each
round advances every still-active (repetition, block) cell by one
record, and cells retire once their next record would overshoot their
block's occupancy.

**Memoization.**  A block's minima at occupancy ``k`` is a pure
function of ``(seed, m, block, k)`` — independent of which vector, which
batch, or which lake append asked for it.  Real lakes repeat column
occupancies constantly (same-sized tables over a shared key domain), so
both the scalar and the batch path consult a bounded, process-wide LRU
(:class:`MinimaCache`) before simulating, and only the missing
``(block, occupancy)`` pairs ever reach the record simulation.  Cache
hits return the exact array the simulation would produce, so results
are bit-identical with the cache on, off, cold, or warm.
"""

from __future__ import annotations

import os
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import WORDS_PER_SAMPLE_SAMPLING, Sketcher
from repro.core.rounding import RoundedVector, round_unit_vector, round_vector
from repro.core.segments import chunk_boundaries, segmented_min_argmin_rows
from repro.hashing.splitmix import counter_uniform, derive_key_grid
from repro.vectors.sparse import SparseMatrix, SparseVector, as_sparse_matrix

__all__ = [
    "WMHSketch",
    "WeightedMinHash",
    "MinimaCache",
    "DEFAULT_L",
    "DEFAULT_CACHE_BYTES",
    "shared_minima_cache",
    "simulate_block_minima",
    "simulate_block_minima_grouped",
]

#: Working-set cap for batch sketching: the scatter phase materializes
#: a few ``(m, chunk_nnz)`` float64 arrays, so keep m * chunk_nnz near
#: this many elements (~64 MB per temporary at the default).
_BATCH_CELL_TARGET = 500_000

#: Cell cap per grouped-simulation call.  The record loop touches ~10
#: state arrays per round; keeping m * blocks_per_chunk around this
#: size keeps them cache-resident, which measures ~3x faster than one
#: monolithic pass.
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
#: One entry costs ``8 * m`` bytes, so the default holds ~160k columns
#: at the experiments' m = 200.
DEFAULT_CACHE_BYTES = _env_cache_bytes()


class MinimaCache:
    """Bounded LRU of per-``(block, occupancy)`` record-process minima.

    Keys are ``(seed, m, block, occupancy)`` tuples (``L`` is deliberately
    absent: the record stream and its truncation depend only on the
    occupancy count, so sketchers differing *only* in ``L`` share
    entries).  Values are the contiguous ``(m,)`` float64 columns that
    :func:`simulate_block_minima` would produce — cache hits are
    bit-identical to re-simulation, so the cache can never change a
    sketch, only the time it takes to build one.

    Eviction is least-recently-used, bounded by ``max_bytes`` of array
    payload.  ``max_bytes <= 0`` disables the cache entirely.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
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

    def get(self, key: tuple) -> np.ndarray | None:
        column = self._entries.get(key)
        if column is None:
            self.misses += 1
            return None
        # Recency bookkeeping is pressure-gated: while the cache is
        # under half full there is no eviction pressure, so skipping
        # ``move_to_end`` cannot change *what* is cached — only the
        # order a hypothetical future eviction would pick — and it
        # removes the dominant per-hit cost on sketch-heavy ingests.
        if self._payload_bytes * 2 > self.max_bytes:
            self._entries.move_to_end(key)
        self.hits += 1
        return column

    def put(self, key: tuple, column: np.ndarray) -> None:
        if self.max_bytes <= 0:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._payload_bytes -= old.nbytes
        self._entries[key] = column
        self._payload_bytes += column.nbytes
        while self._payload_bytes > self.max_bytes and self._entries:
            _, dropped = self._entries.popitem(last=False)
            self._payload_bytes -= dropped.nbytes
            self.evictions += 1

    def put_many(self, keys: Sequence[tuple], columns: np.ndarray) -> None:
        """Insert ``columns[i]`` (rows of a ``(len(keys), m)`` array)
        under ``keys[i]``.

        Each row is copied into its own buffer so eviction actually
        releases memory entry by entry — storing views of ``columns``
        would keep the whole batch buffer pinned while any single view
        survived, silently breaking the ``max_bytes`` bound.
        """
        if self.max_bytes <= 0 or not len(keys):
            return
        entries = self._entries
        for key in keys:
            old = entries.pop(key, None)
            if old is not None:
                self._payload_bytes -= old.nbytes
        entries.update(zip(keys, map(np.copy, columns)))
        self._payload_bytes += columns.nbytes
        while self._payload_bytes > self.max_bytes and entries:
            _, dropped = entries.popitem(last=False)
            self._payload_bytes -= dropped.nbytes
            self.evictions += 1

    def clear(self) -> None:
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
    ``counts[j]`` slots of block ``block_ids[j]``, per repetition.
    """
    block_ids = np.asarray(block_ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("all block counts must be >= 1")
    n_blocks = block_ids.size
    keys = derive_key_grid(seed, np.arange(m, dtype=np.int64), block_ids).ravel()
    minima = counter_uniform(keys, 0)

    # Compacted state of the still-active cells.  Record 0 is the hash
    # of slot 1; every block has k >= 1 so it is always accepted.
    # Positions are tracked in float64 (exact up to 2**53, far beyond
    # any usable L).
    cell_ids = np.arange(keys.size)
    act_keys = keys
    act_z = minima.copy()
    act_pos = np.ones(keys.size, dtype=np.float64)
    act_limit = np.broadcast_to(counts.astype(np.float64), (m, n_blocks)).ravel()
    counter = 1
    rounds = 0
    golden = np.uint64(0x9E3779B97F4A7C15)
    mul1 = np.uint64(0xBF58476D1CE4E5B9)
    mul2 = np.uint64(0x94D049BB133111EB)
    inv_2_52 = 2.0**-52
    with np.errstate(over="ignore"):
        while cell_ids.size:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "record simulation did not converge; this indicates a "
                    "corrupted occupancy count"
                )
            # Two splitmix64 stream draws per record, inlined to avoid
            # per-call overhead in this hot loop (equivalent to
            # counter_uniform(act_keys, counter) and counter + 1).
            state = act_keys + np.uint64(counter) * golden
            draws = []
            for offset in (np.uint64(0), golden):
                word = state + offset
                word = (word ^ (word >> np.uint64(30))) * mul1
                word = (word ^ (word >> np.uint64(27))) * mul2
                word = word ^ (word >> np.uint64(31))
                draws.append(
                    ((word >> np.uint64(12)).astype(np.float64) + 0.5) * inv_2_52
                )
            u_skip, u_value = draws
            counter += 2
            # Geometric(z) via inversion: smallest t >= 1 with u < z
            # after t trials.  log1p(-z) < 0 strictly since z in (0, 1).
            skip = np.ceil(np.log(u_skip) / np.log1p(-act_z))
            next_pos = act_pos + skip
            accepted = next_pos <= act_limit
            new_z = act_z[accepted] * u_value[accepted]
            kept = cell_ids[accepted]
            minima[kept] = new_z
            cell_ids = kept
            act_keys = act_keys[accepted]
            act_z = new_z
            act_pos = next_pos[accepted]
            act_limit = act_limit[accepted]
    return minima.reshape(m, n_blocks)


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

    The simulation and the query answering are **fused**: each block's
    query occupancies are visited in ascending order by a per-cell
    cursor, and the moment a record advance passes an occupancy ``k``
    the current ``z`` — the last record at position ``<= k`` — is
    written straight into the output.  No record log, no sort, no
    binary search, and no allocation proportional to the record count.

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
    exactly — the batch and scalar paths are bit-identical.
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
    # Each cell walks its block's ascending query occupancies with a
    # cursor (act_qptr .. qend) and flat output base repetition * Q.
    limits = query_counts[query_indptr[1:] - 1].astype(np.float64)  # k_max per block
    thresholds = query_counts.astype(np.float64)
    act_keys = keys
    act_z = counter_uniform(keys, 0)
    act_pos = np.ones(num_cells, dtype=np.float64)
    act_limit = np.broadcast_to(limits, (m, num_blocks)).ravel()
    act_qptr = np.tile(query_indptr[:-1], m)
    act_qend = np.tile(query_indptr[1:], m)
    act_base = np.repeat(np.arange(m, dtype=np.int64) * num_queries, num_blocks)
    out = np.empty(m * num_queries)
    last_query = num_queries - 1

    counter = 1
    rounds = 0
    golden = np.uint64(0x9E3779B97F4A7C15)
    mul1 = np.uint64(0xBF58476D1CE4E5B9)
    mul2 = np.uint64(0x94D049BB133111EB)
    inv_2_52 = 2.0**-52

    def _draw(state: np.ndarray) -> np.ndarray:
        word = (state ^ (state >> np.uint64(30))) * mul1
        word = (word ^ (word >> np.uint64(27))) * mul2
        word = word ^ (word >> np.uint64(31))
        return ((word >> np.uint64(12)).astype(np.float64) + 0.5) * inv_2_52

    with np.errstate(over="ignore"):
        while act_keys.size:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "record simulation did not converge; this indicates a "
                    "corrupted occupancy count"
                )
            state = act_keys + np.uint64(counter) * golden
            u_skip = _draw(state)
            skip = np.ceil(np.log(u_skip) / np.log1p(-act_z))
            next_pos = act_pos + skip
            # Answer every query this advance passes: the current z is
            # the last record at position <= k exactly when the next
            # record lands beyond k.  Retiring cells (next_pos beyond
            # their largest occupancy) drain their remaining cursor
            # here, so every query is written exactly once.
            # Active cells always hold an unanswered query (a drained
            # cursor implies the record passed k_max, which retires the
            # cell below), so act_qptr is in range.
            ready = np.flatnonzero(thresholds[act_qptr] < next_pos)
            while ready.size:
                cursor = act_qptr[ready]
                out[act_base[ready] + cursor] = act_z[ready]
                cursor += 1
                act_qptr[ready] = cursor
                more = (cursor < act_qend[ready]) & (
                    thresholds[np.minimum(cursor, last_query)] < next_pos[ready]
                )
                ready = ready[more]
            # One flatnonzero feeds every compaction below (a boolean
            # mask would re-scan itself once per indexed array).
            keep = np.flatnonzero(next_pos <= act_limit)

            act_keys = act_keys.take(keep)
            # The value draw is consumed only by accepted cells (pure
            # function of (key, counter), so skipping retiring cells
            # changes nothing downstream).
            u_value = _draw(act_keys + np.uint64(counter) * golden + golden)
            act_z = act_z.take(keep) * u_value
            act_pos = next_pos.take(keep)
            act_limit = act_limit.take(keep)
            act_qptr = act_qptr.take(keep)
            act_qend = act_qend.take(keep)
            act_base = act_base.take(keep)
            counter += 2

    return out.reshape(m, num_queries)


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
        # rounded.indices are sorted and unique (SparseVector
        # invariant), so they satisfy the distinct-pair precondition of
        # the cache-served resolver directly.
        minima = self._distinct_pair_minima(rounded.indices, rounded.counts).T
        best = np.argmin(minima, axis=1)
        rows = np.arange(self.m)
        return WMHSketch(
            hashes=minima[rows, best],
            values=rounded.values[best],
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

    def _distinct_pair_minima(
        self, query_blocks: np.ndarray, query_counts: np.ndarray
    ) -> np.ndarray:
        """Minima for distinct ``(block, occupancy)`` pairs, cache-served.

        Input arrays must be lexsorted by ``(block, count)`` with no
        duplicate pairs (the batch sketcher guarantees this).  Cached
        pairs are copied out of the memo cache; only the misses are
        simulated — one record stream per missing block, evaluated at
        that block's missing occupancies — and inserted afterwards.

        Returns a ``(Q, m)`` array with one contiguous row per pair
        (the transpose of the simulators' layout, which is what the
        row-major scatter phase wants to gather from).
        """
        num_queries = query_blocks.size
        out = np.empty((num_queries, self.m))
        cache = self._live_cache()
        if cache is not None and len(cache):
            seed, m = self.seed, self.m
            missing: list[int] = []
            for q, (block, count) in enumerate(
                zip(query_blocks.tolist(), query_counts.tolist())
            ):
                column = cache.get((seed, m, block, count))
                if column is None:
                    missing.append(q)
                else:
                    out[q] = column
            miss_idx = np.asarray(missing, dtype=np.int64)
        else:
            miss_idx = np.arange(num_queries, dtype=np.int64)

        if miss_idx.size:
            miss_blocks = query_blocks[miss_idx]
            miss_counts = query_counts[miss_idx]
            # The miss subset inherits the (block, count) ordering, so
            # grouping by block is a run-length scan.
            new_block = np.concatenate([[True], np.diff(miss_blocks) != 0])
            unique_blocks = miss_blocks[new_block]
            miss_indptr = np.concatenate(
                [np.flatnonzero(new_block), [miss_blocks.size]]
            )
            sim = np.empty((miss_idx.size, self.m))
            blocks_per_chunk = max(1, _SIM_CELL_TARGET // max(self.m, 1))
            for ulo in range(0, unique_blocks.size, blocks_per_chunk):
                uhi = min(ulo + blocks_per_chunk, unique_blocks.size)
                q_lo, q_hi = int(miss_indptr[ulo]), int(miss_indptr[uhi])
                sim[q_lo:q_hi] = simulate_block_minima_grouped(
                    self.seed,
                    self.m,
                    unique_blocks[ulo:uhi],
                    miss_indptr[ulo : uhi + 1] - q_lo,
                    miss_counts[q_lo:q_hi],
                ).T
            out[miss_idx] = sim
            if cache is not None:
                seed, m = self.seed, self.m
                cache.put_many(
                    [
                        (seed, m, block, count)
                        for block, count in zip(
                            miss_blocks.tolist(), miss_counts.tolist()
                        )
                    ],
                    sim,
                )
        return out

    def sketch_batch(
        self, matrix: SparseMatrix | Sequence[SparseVector] | np.ndarray
    ) -> SketchBank:
        """Sketch all rows in one record simulation (Section 5 batched).

        Because every vector sketched under one seed replays the same
        per-``(repetition, block)`` record stream, the per-block minima
        depend only on the distinct ``(block, occupancy)`` pairs present
        in the matrix: those are looked up in the memo cache or
        simulated **once** and scattered back to the rows, so blocks
        shared across rows (common keys, common tokens) cost one
        simulation instead of one per row.  Results are bit-identical
        to the scalar loop.
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
            row_values = np.concatenate(parts_values)
            sizes = np.array([part.size for part in parts_blocks], dtype=np.int64)
            indptr = np.concatenate([[0], np.cumsum(sizes)])

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
            query_of_entry = np.cumsum(new_pair) - 1
            query_blocks = sorted_blocks[new_pair]
            query_counts = sorted_counts[new_pair]
            inverse = np.empty(sorted_blocks.size, dtype=np.int64)
            inverse[perm] = query_of_entry

            minima = self._distinct_pair_minima(query_blocks, query_counts)

            # Scatter to rows and reduce, chunked to bound memory.  The
            # row-major (entries, m) layout makes the gather contiguous
            # per entry and the reduction emit (rows, m) directly.
            row_index = np.array(active_rows, dtype=np.int64)
            for lo, hi in chunk_boundaries(indptr, _BATCH_CELL_TARGET // max(self.m, 1)):
                lo_nnz, hi_nnz = int(indptr[lo]), int(indptr[hi])
                gathered = minima[inverse[lo_nnz:hi_nnz]]
                mins, argpos = segmented_min_argmin_rows(
                    gathered, indptr[lo : hi + 1] - lo_nnz
                )
                chunk_rows = row_index[lo:hi]
                hashes[chunk_rows] = mins
                values[chunk_rows] = row_values[lo_nnz + argpos]

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
