"""Streaming ingest engine: chunked, deterministic, optionally pooled."""

from repro.parallel.streaming import (
    IngestReport,
    SourceTable,
    chunk_budget_bytes,
    chunk_matrix,
    effective_workers,
    plan_shard,
    plan_spans,
    plan_table_chunks,
    shutdown_pools,
    stream_sources,
)

__all__ = [
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
