"""CSV ingestion sources: parse lazily, plan from the header.

:func:`load_csv_table` is the eager reader (one CSV → one
:class:`~repro.datasearch.table.Table`).  :func:`csv_source` wraps the
same reader as a :class:`~repro.parallel.streaming.SourceTable`: only
the **header row** is read up front (it fixes the table's name,
value columns, and byte estimate — everything the streaming planner
needs), and the body is parsed inside whichever chunk stage the file
lands in.  Ingesting a thousand CSVs therefore never holds a thousand
parsed tables; at most one chunk's worth of files is in memory.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from repro.datasearch.table import Table
from repro.parallel.streaming import SourceTable

__all__ = ["csv_source", "load_csv_table", "read_csv_header"]

#: Bytes-per-CSV-byte estimate for a parsed chunk's footprint.  Text
#: cells expand to float64 triples (indicator/value/square rows) of
#: roughly comparable size; 3x errs toward smaller chunks, which only
#: costs a little per-chunk overhead, never correctness.
_CSV_EXPANSION = 3


def load_csv_table(
    path: str | Path,
    key_column: str | None = None,
    aggregate: str = "sum",
    name: str | None = None,
) -> Table:
    """Read one CSV file into a :class:`Table`.

    The table name defaults to the file stem; the key column to the
    first header field.  All non-key columns are parsed as floats; a
    cell that is not a finite number (``nan``, ``inf``) is rejected
    with its file, line and column.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if not reader.fieldnames:
            raise ValueError(f"{path}: empty CSV (no header row)")
        fields = list(reader.fieldnames)
        key = key_column if key_column is not None else fields[0]
        if key not in fields:
            raise ValueError(
                f"{path}: key column {key!r} not in header {fields}"
            )
        value_fields = [field for field in fields if field != key]
        keys: list[str] = []
        columns: dict[str, list[float]] = {field: [] for field in value_fields}
        for line, row in enumerate(reader, start=2):
            keys.append(row[key])
            for field in value_fields:
                raw = (row[field] or "").strip()
                try:
                    value = float(raw) if raw else 0.0
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line}: column {field!r} is not numeric "
                        f"(got {row[field]!r})"
                    ) from exc
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}:{line}: column {field!r} is not finite "
                        f"(got {row[field]!r})"
                    )
                columns[field].append(value)
    return Table.aggregated(
        name=name if name is not None else path.stem,
        keys=keys,
        columns=columns,
        how=aggregate,
    )


def read_csv_header(path: str | Path) -> list[str]:
    """The header fields of ``path`` (only the first row is read)."""
    with open(path, newline="", encoding="utf-8") as handle:
        fields = next(csv.reader(handle), None)
    if not fields:
        raise ValueError(f"{path}: empty CSV (no header row)")
    return fields


@dataclass(frozen=True)
class _CSVLoader:
    """Picklable deferred parse of one CSV file."""

    path: str
    key_column: str | None
    aggregate: str
    name: str

    def __call__(self) -> Table:
        return load_csv_table(
            self.path,
            key_column=self.key_column,
            aggregate=self.aggregate,
            name=self.name,
        )


def csv_source(
    path: str | Path,
    key_column: str | None = None,
    aggregate: str = "sum",
    name: str | None = None,
) -> SourceTable:
    """A lazy :class:`SourceTable` over one CSV file.

    Reads only the header: the value columns (and hence the bank-row
    count) are fixed by it, and the byte estimate comes from the file
    size.  The body parse happens in the chunk stage via the returned
    source's loader.
    """
    path = Path(path)
    fields = read_csv_header(path)
    key = key_column if key_column is not None else fields[0]
    if key not in fields:
        raise ValueError(f"{path}: key column {key!r} not in header {fields}")
    table_name = name if name is not None else path.stem
    return SourceTable(
        name=table_name,
        columns=tuple(field for field in fields if field != key),
        est_bytes=int(path.stat().st_size) * _CSV_EXPANSION + 4096,
        loader=_CSVLoader(
            path=str(path),
            key_column=key_column,
            aggregate=aggregate,
            name=table_name,
        ),
    )
