"""Command-line front end: ``python -m repro.store <command>``.

Commands
--------
``ingest STORE CSV...``
    Create the store if needed (``--method``/``--storage``/``--seed``
    pick the sketcher for a *new* store; an existing store keeps its
    stored configuration) and append the CSV tables as one shard.
``query STORE CSV... --column COL``
    Sketch the CSV(s) as the analyst's query table(s) and print the
    ranked joinable-and-correlated columns of the lake.  Several CSVs
    are served as **one batch** (``QuerySession.search_many``): the
    stored banks are traversed once for the whole batch, and results
    are identical to querying the files one at a time.  ``--json``
    always emits ``[{"query", "column", "hits": [...]}, ...]`` — one
    entry per CSV, the same schema for one file or many.  ``--trace
    out.jsonl`` additionally writes the span trace of the run (one
    JSON line per span; see ``repro.obs.tracing``) — rankings are
    byte-identical with tracing on or off.
``stats STORE``
    Print the catalog/footprint summary as JSON; ``--telemetry`` folds
    in the live metrics-registry snapshot (``repro.obs``) under a
    ``"telemetry"`` key.
``compact STORE``
    Merge shards and reclaim tombstoned rows.
``fsck STORE``
    Verify manifest ↔ shard CRCs ↔ index catalog without mutating
    anything; print the classification report as JSON.  Exit status 1
    when problems were found.
``repair STORE``
    Restore a damaged store: quarantine corrupt shards, drop their
    catalog entries (resurrecting tables from surviving older spans
    where possible), rebuild the LSH index, and clean stale temp
    files.  Prints the repair report as JSON.

CSV convention: the key column (``--key-column``, default: the first
header field) holds join keys; every other column must be numeric.
Duplicate keys are aggregated with ``--aggregate`` (default ``sum``),
the paper's many-to-many -> one-to-one reduction.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.datasearch.table import AGGREGATORS
from repro.experiments.runner import method_registry
from repro.store.csvio import load_csv_table
from repro.store.lake import LakeStore, StoreError, is_lake_store
from repro.store.session import QuerySession

__all__ = ["main", "load_csv_table"]


def _open_or_create(args: argparse.Namespace) -> LakeStore:
    if is_lake_store(args.store):
        return LakeStore.open(args.store)
    registry = method_registry()
    if args.method not in registry:
        raise SystemExit(
            f"unknown method {args.method!r}; choose from {sorted(registry)}"
        )
    sketcher = registry[args.method].build(args.storage, args.seed)
    return LakeStore.create(args.store, sketcher)


def _cmd_ingest(args: argparse.Namespace) -> int:
    # CSVs stream through the chunked ingest pipeline: only headers are
    # read up front, bodies parse inside the chunk stages, so the
    # command's memory footprint is set by --chunk-bytes, not by how
    # many files are listed.
    with _open_or_create(args) as store:
        shard_id, report = store.ingest_csv(
            args.csv,
            key_column=args.key_column,
            aggregate=args.aggregate,
            workers=args.workers,
            index=args.index,
            chunk_bytes=args.chunk_bytes,
        )
        stats = store.stats()
    summary = (
        f"ingested {len(args.csv)} table(s) into shard {shard_id} of "
        f"{args.store} ({stats['tables']} live tables, "
        f"{stats['file_bytes']} bytes on disk)"
        f"\n  {report.chunks} chunk(s), {report.workers} worker(s), "
        f"{report.tables_per_s():.1f} tables/s, "
        f"peak chunk {report.peak_chunk_bytes} bytes"
    )
    # Per-stage accounting: each stage's summed seconds with the unit
    # of work it processed (overlapping stages under pool workers, so
    # the seconds can exceed wall time).
    stage_units = {
        "parse": f"{report.input_rows} rows",
        "vectorize": f"{report.nnz} entries",
        "sketch": f"{report.bank_rows} bank rows",
        "write": f"{report.bank_bytes} bytes",
    }
    for stage, seconds in report.stage_seconds.items():
        units = stage_units.get(stage, "")
        summary += f"\n  {stage:>9s}: {seconds:8.3f}s  {units}"
    print(summary)
    return 0


def _hit_payload(hit) -> dict:
    return {
        "table": hit.table_name,
        "column": hit.column,
        "score": hit.score,
        "correlation": hit.correlation,
        "join_size": hit.join_size,
        "containment": hit.containment,
    }


def _print_hits(store: str, table_name: str, column: str, hits) -> None:
    if not hits:
        print("no joinable tables cleared the containment threshold")
        return
    print(f"top {len(hits)} of {store} for {table_name}.{column}:")
    for rank, hit in enumerate(hits, start=1):
        print(
            f"  {rank:2d}. {hit.table_name}.{hit.column}  "
            f"score={hit.score:.4f}  corr={hit.correlation:+.4f}  "
            f"join~{hit.join_size:.0f}  containment={hit.containment:.2f}"
        )


def _cmd_query(args: argparse.Namespace) -> int:
    if args.trace:
        with obs.tracing(args.trace):
            return _run_query(args)
    return _run_query(args)


def _run_query(args: argparse.Namespace) -> int:
    tables = [
        load_csv_table(path, key_column=args.key_column, aggregate=args.aggregate)
        for path in args.csv
    ]
    try:
        store = LakeStore.open(args.store)
    except StoreError:
        # Serve what survives rather than refusing outright: a corrupt
        # shard degrades the query to the salvaged survivors (flagged
        # in the warnings field); a store that cannot even salvage
        # re-raises from the salvage open below.
        store = LakeStore.open(args.store, salvage=True)
    with store:
        session = QuerySession(
            store,
            min_containment=args.min_containment,
            candidates=args.candidates,
        )
        # One search_many call: a batch of CSVs shares each bank
        # traversal instead of paying it once per CSV.
        all_hits = session.search_many(
            tables, args.column, top_k=args.top_k, by=args.by
        )
        # Degraded-mode signals (salvage open, manifest fallback,
        # dropped LSH index → scan fallback) ride along with every
        # result, so callers detect degraded serving from the output
        # itself instead of scraping obs counters.
        warnings = session.warnings()
    if args.json:
        # One stable schema regardless of how many CSVs were passed, so
        # scripts globbing query files never see the shape flip.
        payload = [
            {
                "query": table.name,
                "column": args.column,
                "warnings": warnings,
                "hits": [_hit_payload(hit) for hit in hits],
            }
            for table, hits in zip(tables, all_hits)
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    for i, (table, hits) in enumerate(zip(tables, all_hits)):
        if i:
            print()
        _print_hits(args.store, table.name, args.column, hits)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with LakeStore.open(args.store) as store:
        stats = store.stats()
        if args.telemetry:
            stats["telemetry"] = obs.runtime_snapshot()
        print(json.dumps(stats, indent=2))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with LakeStore.open(args.store) as store:
        result = store.compact()
        file_bytes = store.stats()["file_bytes"]
    print(
        f"compacted {result['shards_before']} shard(s) -> "
        f"{result['shards_after']}, reclaimed {result['rows_reclaimed']} "
        f"rows ({file_bytes} bytes on disk)"
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    report = LakeStore.fsck(args.store)
    print(json.dumps(report, indent=2))
    return 0 if report["clean"] else 1


def _cmd_repair(args: argparse.Namespace) -> int:
    report = LakeStore.repair(args.store)
    print(json.dumps(report, indent=2))
    return 0


def _add_csv_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--key-column",
        default=None,
        help="join-key column (default: first CSV header field)",
    )
    parser.add_argument(
        "--aggregate",
        default="sum",
        choices=sorted(AGGREGATORS),
        help="duplicate-key reduction (default: sum)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Persistent sketch lake store: ingest once, query forever.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="sketch CSV tables into the lake")
    ingest.add_argument("store", help="lake directory (created if absent)")
    ingest.add_argument("csv", nargs="+", help="CSV tables to ingest")
    ingest.add_argument(
        "--method",
        default="WMH",
        help="sketching method for a NEW store (default: WMH)",
    )
    ingest.add_argument(
        "--storage",
        type=int,
        default=300,
        help="per-sketch storage budget in 64-bit words (default: 300)",
    )
    ingest.add_argument("--seed", type=int, default=0, help="sketching seed")
    ingest.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sketch the batch across this many processes "
        "(results are bit-identical for any worker count)",
    )
    ingest.add_argument(
        "--chunk-bytes",
        type=int,
        default=None,
        help="per-chunk ingest byte budget (default: "
        "$REPRO_INGEST_CHUNK_BYTES or 64 MiB); bounds peak memory, "
        "never changes the stored bytes",
    )
    ingest.add_argument(
        "--no-index",
        dest="index",
        action="store_false",
        help="skip maintaining the persisted LSH candidate index "
        "(queries then fall back to full scans or an in-memory rebuild)",
    )
    _add_csv_options(ingest)
    ingest.set_defaults(handler=_cmd_ingest)

    query = commands.add_parser("query", help="rank the lake against query CSVs")
    query.add_argument("store", help="lake directory")
    query.add_argument(
        "csv",
        nargs="+",
        help="query table CSV(s); several files are served as one "
        "batched search_many call",
    )
    query.add_argument("--column", required=True, help="query value column")
    query.add_argument("--top-k", type=int, default=10)
    query.add_argument(
        "--by", default="correlation", choices=("correlation", "inner_product")
    )
    query.add_argument("--min-containment", type=float, default=0.05)
    query.add_argument(
        "--candidates",
        default="scan",
        choices=("scan", "lsh"),
        help="joinability candidate generator: exact full scan, or the "
        "sublinear LSH shortlist re-checked exactly (default: scan)",
    )
    query.add_argument("--json", action="store_true", help="machine-readable output")
    query.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the span trace of this run as JSONL to PATH "
        "(rankings are identical with tracing on or off)",
    )
    _add_csv_options(query)
    query.set_defaults(handler=_cmd_query)

    stats = commands.add_parser("stats", help="print catalog + footprint JSON")
    stats.add_argument("store", help="lake directory")
    stats.add_argument(
        "--telemetry",
        action="store_true",
        help="include the live metrics-registry snapshot",
    )
    stats.set_defaults(handler=_cmd_stats)

    compact = commands.add_parser("compact", help="merge shards, drop tombstones")
    compact.add_argument("store", help="lake directory")
    compact.set_defaults(handler=_cmd_compact)

    fsck = commands.add_parser(
        "fsck", help="verify on-disk integrity (exit 1 on problems)"
    )
    fsck.add_argument("store", help="lake directory")
    fsck.set_defaults(handler=_cmd_fsck)

    repair = commands.add_parser(
        "repair", help="quarantine corruption and restore a servable store"
    )
    repair.add_argument("store", help="lake directory")
    repair.set_defaults(handler=_cmd_repair)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        return 0
    except (StoreError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
