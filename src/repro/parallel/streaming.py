"""Streaming ingest: fused parse → vectorize → sketch over byte-budgeted chunks.

The one ingest path of the lake store.  A one-shot ingest would
materialize every table, encode the whole batch into one lake-sized
``SparseMatrix`` and run one giant ``sketch_batch`` — peak memory would
grow with the lake, and fanning the batch out to a process pool would
ship every resulting bank back through a pickle round-trip.  This
module is instead a pipeline with bounded memory and no result
pickling:

1. a **chunk planner** slices the incoming table list into contiguous
   chunks capped by the ingest byte budget (:func:`chunk_budget_bytes`);
2. a **fused chunk stage** loads (or parses) only that chunk's tables,
   encodes them straight into one chunk CSR matrix (one vectorized
   hash pass per table, no intermediate ``SparseVector`` churn), and
   runs the sketcher's ``sketch_batch`` — WMH's process-wide minima
   cache stays warm across chunks, so shared blocks still cost one
   simulation;
3. chunk banks are written **in place** into a pre-sized shard file at
   exact byte offsets (:class:`repro.store.shard.ShardStreamWriter`):
   pool workers map the same temp file and write disjoint regions, so
   completed chunks hit disk while later chunks are still sketching,
   and nothing but tiny per-table metadata crosses the process
   boundary on the way back.

Chunking and worker count are invisible in the output: bank rows are
pure functions of ``(sketcher, row)``, and the file layout is planned
up front from the sketcher's ``bank_layout()`` (every storable kind has
one), so a streamed shard is byte-identical to
``pack_shard(sketcher.sketch_batch(...))`` at any chunk size and any
worker count.

Worker processes live in pools that persist across calls (one pool per
worker count), so per-process state — most importantly the Weighted
MinHash minima cache — stays warm across successive lake appends
instead of being rebuilt per batch.
"""

from __future__ import annotations

import atexit
import mmap
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import faults, obs
from repro.core.base import Sketcher
from repro.core.wmh import set_kernel_threads
from repro.datasearch.table import Table
from repro.datasearch.vectorize import table_row_arrays
from repro.io.serialize import (
    ShardStreamPlan,
    shard_stream_plan,
    write_chunk_rows,
)
from repro.vectors.sparse import SparseMatrix

__all__ = [
    "NO_CLAMP_ENV",
    "IngestReport",
    "SourceTable",
    "chunk_budget_bytes",
    "chunk_matrix",
    "effective_workers",
    "plan_shard",
    "plan_spans",
    "plan_table_chunks",
    "shutdown_pools",
    "stream_sources",
]

#: Set (non-empty) to disable the worker→cpu clamp of
#: :func:`effective_workers` — used by determinism tests to exercise
#: real pools on single-core hosts.
NO_CLAMP_ENV = "REPRO_INGEST_NO_CLAMP"

#: Environment knob for the per-chunk byte budget used by streaming
#: ingest and ``SketchIndex.add_all`` (see :func:`chunk_budget_bytes`).
CHUNK_BYTES_ENV = "REPRO_INGEST_CHUNK_BYTES"

#: Default per-chunk byte budget: large enough that per-chunk overhead
#: (meta passes, pool round-trips) is negligible and within-chunk
#: deduplication stays effective, small enough that a handful of
#: in-flight chunks keeps peak RSS bounded regardless of lake size.
#: A chunk's sketch stage holds its CSR, its output bank, ~150 bytes of
#: index arrays per non-zero and one block chunk of the WMH kernel
#: (tens of MB at m = 200, independent of the budget); nothing scales
#: with distinct ``(block, occupancy)`` pairs x m.  So RSS grows with
#: the budget by a few bytes per chunk byte, on top of the process-wide
#: WMH minima cache (``DEFAULT_CACHE_BYTES`` of payload).
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024

#: Estimated bytes one table row contributes to a chunk's transient
#: footprint: int64 index + float64 value per CSR entry, across the
#: indicator/value/square encodings.
_CSR_ENTRY_BYTES = 16

# Pipeline failpoints: ``stream.chunk`` fires inside the chunk stage
# (in pool workers too, when armed via the environment — that is how
# the harness models a worker dying mid-ingest), ``stream.drain``
# in the driver's pooled drain loop.
FP_STREAM_CHUNK = faults.register(
    "parallel.stream.chunk", "at the top of the fused chunk stage"
)
FP_STREAM_DRAIN = faults.register(
    "parallel.stream.drain", "in the pooled drain loop, before each wait"
)


def chunk_budget_bytes(override: int | None = None) -> int:
    """The per-chunk byte budget for ingest chunking.

    ``override`` (an explicit API/CLI value) wins, then the
    ``REPRO_INGEST_CHUNK_BYTES`` environment variable, then
    :data:`DEFAULT_CHUNK_BYTES`.  Always at least 1: the budget caps
    chunk *size*, never drops work.
    """
    if override is None:
        raw = os.environ.get(CHUNK_BYTES_ENV, "")
        override = int(raw) if raw.strip() else DEFAULT_CHUNK_BYTES
    return max(int(override), 1)


_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        # A worker keeps the WMH kernel on its own thread: the workers
        # already share out the CPUs.
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=set_kernel_threads, initargs=(1,)
        )
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every cached worker pool (registered via ``atexit``)."""
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(shutdown_pools)


@dataclass(frozen=True)
class SourceTable:
    """A lazily-loadable table with its ingest metadata known up front.

    The planner only needs the name, the value-column names (they fix
    the table's bank-row count), and a byte estimate; the table itself
    is produced by ``loader()`` inside the chunk stage — for CSV
    sources that is where the parse happens, so unparsed files never
    accumulate in memory.
    """

    name: str
    columns: tuple[str, ...]
    est_bytes: int
    loader: Callable[[], Table]

    @property
    def bank_rows(self) -> int:
        """Encoded rows this table adds to the bank (indicator + 2w)."""
        return 1 + 2 * len(self.columns)

    @classmethod
    def from_table(cls, table: Table) -> "SourceTable":
        est = (
            (1 + 2 * len(table.columns)) * max(table.num_rows, 1) * _CSR_ENTRY_BYTES
        )
        return cls(
            name=table.name,
            columns=tuple(table.columns),
            est_bytes=est,
            loader=_TableLoader(table),
        )


@dataclass(frozen=True)
class _TableLoader:
    """Picklable loader for an already-materialized table."""

    table: Table

    def __call__(self) -> Table:
        return self.table


@dataclass
class IngestReport:
    """Accounting for one streamed ingest.

    ``stage_seconds`` sums per-chunk stage timings (CPU-attributed
    seconds — with pool workers the stages overlap, so the sum can
    exceed ``elapsed_s``); ``peak_chunk_bytes`` is the largest
    transient chunk footprint (chunk CSR + chunk bank), the quantity
    the byte budget bounds.  ``input_rows``/``nnz``/``bank_bytes``
    attribute units of work to the stages: rows parsed, CSR entries
    vectorized, and shard bytes produced by the sketch/write stages.
    """

    tables: int = 0
    bank_rows: int = 0
    chunks: int = 0
    requested_workers: int | None = None
    workers: int = 1
    peak_chunk_bytes: int = 0
    input_rows: int = 0
    nnz: int = 0
    bank_bytes: int = 0
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {
            "parse": 0.0,
            "vectorize": 0.0,
            "sketch": 0.0,
            "write": 0.0,
        }
    )
    elapsed_s: float = 0.0

    def tables_per_s(self) -> float:
        return self.tables / self.elapsed_s if self.elapsed_s > 0 else 0.0


def effective_workers(workers: int | None) -> int:
    """Clamp the requested worker count to the cores that exist.

    On hosts with fewer cores than requested workers, pool fan-out
    cannot win — every worker competes for the same core while paying
    IPC on top (the measured regression that motivated this pipeline) —
    so the streaming path runs serially instead.  Setting the
    ``REPRO_INGEST_NO_CLAMP`` environment variable disables the clamp
    (determinism tests use it to exercise real pools anywhere);
    results are bit-identical either way.
    """
    if workers is None:
        return 1
    workers = max(int(workers), 1)
    if os.environ.get(NO_CLAMP_ENV, "").strip():
        return workers
    return min(workers, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------


def plan_spans(sources: Sequence[SourceTable]) -> list[tuple[int, int]]:
    """Bank-row span ``(lo, hi)`` of each source, in source order."""
    spans = []
    lo = 0
    for source in sources:
        spans.append((lo, lo + source.bank_rows))
        lo += source.bank_rows
    return spans


def plan_table_chunks(
    sources: Sequence[SourceTable], chunk_bytes: int | None = None
) -> list[tuple[int, int]]:
    """Greedy contiguous chunks of sources under the byte budget.

    Returns ``(start, end)`` source-index ranges.  Contiguity matters:
    it keeps each chunk's bank rows contiguous too, so a chunk result
    lands in the shard with a single row offset.  Every chunk holds at
    least one table (a single oversized table becomes its own chunk —
    the budget caps accumulation, it never drops work).
    """
    budget = chunk_budget_bytes(chunk_bytes)
    chunks: list[tuple[int, int]] = []
    start = 0
    acc = 0
    for i, source in enumerate(sources):
        if i > start and acc + source.est_bytes > budget:
            chunks.append((start, i))
            start, acc = i, 0
        acc += source.est_bytes
    if start < len(sources):
        chunks.append((start, len(sources)))
    return chunks


def plan_shard(
    sketcher: Sketcher, sources: Sequence[SourceTable]
) -> ShardStreamPlan:
    """The pre-sized shard layout for these sources."""
    return shard_stream_plan(
        sketcher.name,
        sketcher._bank_params(),
        float(sketcher.storage_words()),
        sketcher.bank_layout(),
        sum(source.bank_rows for source in sources),
    )


# ----------------------------------------------------------------------
# the fused chunk stage
# ----------------------------------------------------------------------


def chunk_matrix(tables: Sequence[Table]) -> SparseMatrix:
    """Encode a chunk of tables straight into one CSR matrix.

    Concatenates the fused per-table row arrays
    (:func:`repro.datasearch.vectorize.table_row_arrays`) without ever
    materializing per-row ``SparseVector`` objects; rows are identical
    to ``SketchIndex.encode_table`` output, in the same order.  A table
    its encoder rejects raises a ``ValueError`` that names it.
    """
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for table in tables:
        try:
            pairs.extend(table_row_arrays(table))
        except ValueError as exc:
            raise ValueError(f"table {table.name!r}: {exc}") from exc
    sizes = np.fromiter((idx.size for idx, _ in pairs), np.int64, len(pairs))
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.concatenate([idx for idx, _ in pairs])
    values = np.concatenate([val for _, val in pairs])
    return SparseMatrix(indptr, indices, values)


@dataclass(frozen=True)
class _ChunkTask:
    """One chunk's worth of work, picklable for pool workers."""

    sketcher: Sketcher
    sources: tuple[SourceTable, ...]
    row_offset: int
    tmp_path: str
    plan: ShardStreamPlan
    collect_metrics: bool = False  # record a registry snapshot per chunk


@dataclass(frozen=True)
class _ChunkOutput:
    """What comes back from a chunk: metadata, never bank payloads."""

    num_rows: tuple[int, ...]  # per source table, post-aggregation
    chunk_bytes: int
    seconds: dict[str, float]
    input_rows: int = 0
    nnz: int = 0
    bank_bytes: int = 0
    metrics: dict | None = None  # worker registry snapshot, mergeable


def _run_chunk(task: _ChunkTask) -> _ChunkOutput:
    """Parse → vectorize → sketch → write one chunk.

    Runs in the driver (serial mode) or a pool worker.  When
    ``task.collect_metrics`` is set, per-stage counters and latency
    histograms go to a **fresh local registry** whose snapshot rides
    back in the output — the driver merges it into the process-wide
    registry, so ingest metrics survive the pool boundary.  The flag is
    carried in the picklable task (not read from the worker's
    environment) so fork- and spawn-started pools behave identically.
    """
    faults.failpoint(FP_STREAM_CHUNK)
    span = obs.trace_span(
        "ingest.chunk", tables=len(task.sources), row_offset=task.row_offset
    )
    with span:
        t0 = time.perf_counter()
        tables = [source.loader() for source in task.sources]
        for source, table in zip(task.sources, tables):
            if table.name != source.name or tuple(table.columns) != source.columns:
                raise ValueError(
                    f"source {source.name!r} promised columns {source.columns}, "
                    f"loaded table {table.name!r} has {tuple(table.columns)}"
                )
        t1 = time.perf_counter()
        matrix = chunk_matrix(tables)
        t2 = time.perf_counter()
        bank = task.sketcher.sketch_batch(matrix)
        t3 = time.perf_counter()
        expected = sum(source.bank_rows for source in task.sources)
        if len(bank) != expected:
            raise ValueError(
                f"chunk sketched {len(bank)} bank rows, planned {expected}"
            )
        with open(task.tmp_path, "r+b") as handle:
            mapped = mmap.mmap(handle.fileno(), task.plan.file_size)
            try:
                write_chunk_rows(mapped, task.plan, bank, task.row_offset)
                mapped.flush()
            finally:
                mapped.close()
        t4 = time.perf_counter()
        input_rows = sum(table.num_rows for table in tables)
        nnz = int(matrix.nnz)
        bank_bytes = bank.nbytes()
        chunk_bytes = nnz * _CSR_ENTRY_BYTES + bank_bytes
        seconds = {
            "parse": t1 - t0,
            "vectorize": t2 - t1,
            "sketch": t3 - t2,
            "write": t4 - t3,
        }
        span.add(rows=input_rows, nnz=nnz, bank_bytes=bank_bytes)
        metrics = None
        if task.collect_metrics:
            local = obs.MetricsRegistry()
            local.count("ingest.chunks")
            local.count("ingest.tables", len(tables))
            local.count("ingest.input_rows", input_rows)
            local.count("ingest.nnz", nnz)
            local.count("ingest.bank_rows", len(bank))
            local.count("ingest.bank_bytes", bank_bytes)
            local.observe("ingest.chunk_bytes", chunk_bytes)
            for stage, value in seconds.items():
                local.observe(f"ingest.chunk_ms.{stage}", value * 1e3)
            metrics = local.snapshot()
    return _ChunkOutput(
        num_rows=tuple(table.num_rows for table in tables),
        chunk_bytes=chunk_bytes,
        seconds=seconds,
        input_rows=input_rows,
        nnz=nnz,
        bank_bytes=bank_bytes,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# the drain
# ----------------------------------------------------------------------


def stream_sources(
    sketcher: Sketcher,
    sources: Sequence[SourceTable],
    plan: ShardStreamPlan,
    tmp_path: Path | str,
    workers: int | None = None,
    chunk_bytes: int | None = None,
) -> tuple[list[int], IngestReport]:
    """Stream every source through the fused chunk stage into the shard.

    ``tmp_path`` is the pre-sized temp file of an open
    :class:`~repro.store.shard.ShardStreamWriter` (the caller
    finalizes/aborts it).  Serial mode (effective workers <= 1) holds
    at most one chunk in memory; pooled mode keeps a bounded window of
    ``workers + 1`` chunks in flight, overlapping parse/sketch in the
    workers with shard writes of completed chunks.  Returns the
    post-aggregation row count of every table (in source order) and
    the ingest report.
    """
    started = time.perf_counter()
    report = IngestReport(
        tables=len(sources),
        bank_rows=plan.num_rows,
        requested_workers=workers,
        workers=effective_workers(workers),
    )
    spans = plan_spans(sources)
    chunks = plan_table_chunks(sources, chunk_bytes)
    report.chunks = len(chunks)
    collect_metrics = obs.metrics_enabled()
    tasks = [
        _ChunkTask(
            sketcher=sketcher,
            sources=tuple(sources[start:end]),
            row_offset=spans[start][0],
            tmp_path=str(tmp_path),
            plan=plan,
            collect_metrics=collect_metrics,
        )
        for start, end in chunks
    ]
    num_rows: list[int] = [0] * len(sources)

    def absorb(chunk_index: int, output: _ChunkOutput) -> None:
        start, end = chunks[chunk_index]
        num_rows[start:end] = output.num_rows
        report.peak_chunk_bytes = max(report.peak_chunk_bytes, output.chunk_bytes)
        for stage, value in output.seconds.items():
            report.stage_seconds[stage] += value
        report.input_rows += output.input_rows
        report.nnz += output.nnz
        report.bank_bytes += output.bank_bytes
        if output.metrics is not None:
            obs.merge(output.metrics)

    stream_span = obs.trace_span(
        "ingest.stream",
        tables=len(sources),
        chunks=len(chunks),
        workers=report.workers,
    )
    with stream_span:
        if report.workers <= 1 or len(tasks) <= 1:
            for i, task in enumerate(tasks):
                absorb(i, _run_chunk(task))
        else:
            _drain_pooled(tasks, report.workers, absorb)
        stream_span.add(input_rows=report.input_rows, nnz=report.nnz)
    report.elapsed_s = time.perf_counter() - started
    return num_rows, report


def _drain_pooled(
    tasks: Sequence[_ChunkTask],
    workers: int,
    absorb: Callable[[int, _ChunkOutput], None],
) -> None:
    """Submit chunks to the persistent pool with a bounded window.

    At most ``workers + 1`` chunks are in flight, so pooled peak memory
    stays proportional to the byte budget times the worker count — not
    the lake.  Workers write their own rows into the mapped temp file;
    only the tiny :class:`_ChunkOutput` metadata pickles back.  A
    broken pool is evicted (next use gets a fresh one) and re-raised:
    the caller aborts the shard writer, so a dead worker can never
    leave a half-written shard visible.
    """
    pool = _get_pool(workers)
    window = workers + 1
    pending = {}
    next_task = 0
    try:
        while next_task < len(tasks) or pending:
            while next_task < len(tasks) and len(pending) < window:
                pending[pool.submit(_run_chunk, tasks[next_task])] = next_task
                next_task += 1
            faults.failpoint(FP_STREAM_DRAIN)
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                absorb(pending.pop(future), future.result())
    except BaseException:
        for future in pending:
            future.cancel()
        _discard_pool(workers)
        raise
