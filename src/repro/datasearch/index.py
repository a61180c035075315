"""A columnar sketch index over a data lake.

The dataset-search workflow of Section 1.2: pre-sketch every table in
the search corpus once; at query time, sketch only the analyst's table
and score it against the stored sketches — never materializing a join.

:class:`SketchIndex` stores those sketches **columnar**, as three
:class:`~repro.core.bank.SketchBank` views shared by all tables:

* ``indicator_bank`` — one row per table (the key-indicator sketch);
* ``value_bank`` / ``square_bank`` — one row per ``(table, column)``
  pair, aligned with :meth:`SketchIndex.value_owners`.

That layout is what lets :mod:`repro.datasearch.search` rank the whole
lake with one ``estimate_cross`` call per query statistic instead of a
Python loop over per-table sketch objects.  The per-table
:class:`~repro.datasearch.join_estimates.JoinSketch` view is still
available (:meth:`get`, iteration) for pairwise estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.bank import SketchBank
from repro.core.base import Sketcher
from repro.datasearch.join_estimates import JoinSketch
from repro.datasearch.lshindex import DEFAULT_TARGET_RECALL, LakeIndex
from repro.datasearch.table import Table
from repro.datasearch.vectorize import table_vectors

__all__ = ["SketchIndex"]


@dataclass(frozen=True)
class _TableEntry:
    """One indexed table: metadata plus its slice of the sketch bank."""

    name: str
    num_rows: int
    columns: tuple[str, ...]
    indicator: SketchBank  # one row
    values: SketchBank  # one row per column
    squares: SketchBank  # one row per column


class SketchIndex:
    """Pre-computed sketch banks for a corpus of tables."""

    def __init__(self, sketcher: Sketcher) -> None:
        self.sketcher = sketcher
        self._entries: dict[str, _TableEntry] = {}
        # Concatenated-bank cache: ``_banks`` covers the first
        # ``_banks_count`` entries in insertion order.  Appending a new
        # table leaves the cached prefix valid (only the tail is
        # dirty); replacing an existing table rewrites a row *inside*
        # the prefix, which is the only event that invalidates it.
        self._banks: tuple[SketchBank, SketchBank, SketchBank] | None = None
        self._banks_count = 0
        # Ownership caches over the value-bank rows: the ``(table,
        # column)`` name list and the numpy table-position array the
        # query fast path selects candidate rows with.  Both cover the
        # first ``_owners_count`` entries; same staleness rules as the
        # bank cache (appends extend, replacement invalidates).
        self._owners: list[tuple[str, str]] | None = None
        self._owner_pos: np.ndarray | None = None
        self._owners_count = 0
        # Attached LSH candidate index over the indicator rows; same
        # staleness rules (appends extend lazily, replacement drops).
        self._lsh: LakeIndex | None = None
        self._lsh_count = 0

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def _entry_from_bank(
        self, table: Table, columns: tuple[str, ...], bank: SketchBank
    ) -> _TableEntry:
        width = len(columns)
        return _TableEntry(
            name=table.name,
            num_rows=table.num_rows,
            columns=columns,
            indicator=bank[0:1],
            values=bank[1 : 1 + width],
            squares=bank[1 + width : 1 + 2 * width],
        )

    @staticmethod
    def encode_table(table: Table) -> list:
        """The canonical vector encoding of one table, in bank-row order.

        Row 0 is the key-indicator vector; rows ``1..w`` the per-column
        value vectors; rows ``w+1..2w`` the squared-value vectors.  The
        persistent store (:mod:`repro.store`) encodes with this exact
        layout so stored bank slices re-attach via :meth:`attach`.
        """
        return table_vectors(table)

    def _set_entry(self, entry: _TableEntry) -> None:
        if entry.name in self._entries:
            # Same-name replacement: drop the cached prefixes and move
            # the entry to the *end* of the insertion order.  That
            # matches the persistent store's live-span order (a
            # replaced table's new span lives in the newest shard), so
            # an index mutated in place and one rebuilt from storage
            # agree on table order — and the LSH index can always be
            # persisted straight from the in-memory rows.
            del self._entries[entry.name]
            self._banks = None
            self._banks_count = 0
            self._owners = None
            self._owner_pos = None
            self._owners_count = 0
            self._lsh = None
            self._lsh_count = 0
        self._entries[entry.name] = entry

    def add(self, table: Table) -> JoinSketch:
        """Sketch and index a table; replaces any same-named entry."""
        bank = self.sketcher.sketch_batch(self.encode_table(table))
        self._set_entry(
            self._entry_from_bank(table, tuple(table.columns), bank)
        )
        return self.get(table.name)

    def attach(
        self,
        name: str,
        num_rows: int,
        columns: Sequence[str],
        bank: SketchBank,
    ) -> None:
        """Index a table from its *already-sketched* bank.

        ``bank`` must hold the table's encoded rows in :meth:`encode_table`
        order — indicator, then one value row per column, then one
        squared-value row per column.  This is the re-materialization
        path persistent stores use: no :class:`Table` (and no
        re-sketching) required.
        """
        columns = tuple(columns)
        expected = 1 + 2 * len(columns)
        if len(bank) != expected:
            raise ValueError(
                f"table {name!r} with {len(columns)} columns needs "
                f"{expected} bank rows, got {len(bank)}"
            )
        self.sketcher._check_bank(bank)
        width = len(columns)
        self._set_entry(
            _TableEntry(
                name=name,
                num_rows=int(num_rows),
                columns=columns,
                indicator=bank[0:1],
                values=bank[1 : 1 + width],
                squares=bank[1 + width : 1 + 2 * width],
            )
        )

    @classmethod
    def from_banks(
        cls,
        sketcher: Sketcher,
        entries: Iterable[tuple[str, int, Sequence[str], SketchBank]],
    ) -> "SketchIndex":
        """Reconstruct an index from stored banks, without any tables.

        ``entries`` yields ``(name, num_rows, columns, bank)`` per
        table, where ``bank`` is that table's slice of a stored shard
        (see :meth:`attach` for the required row layout).  Estimates
        from the result are bit-identical to an index built by
        sketching the same tables, because banks persist losslessly.
        """
        index = cls(sketcher)
        for name, num_rows, columns, bank in entries:
            index.attach(name, num_rows, columns, bank)
        return index

    def add_all(self, tables: Iterable[Table]) -> None:
        """Index many tables through byte-budgeted batch sketching passes.

        Tables are grouped by the streaming ingest's chunk planner
        (:func:`repro.parallel.streaming.plan_table_chunks`, capped by
        ``REPRO_INGEST_CHUNK_BYTES``) and each chunk is encoded with
        :func:`~repro.parallel.streaming.chunk_matrix` and sketched by
        one ``sketch_batch`` call, so peak memory is bounded by the
        budget, not the lake.  Chunking is invisible in the result:
        every bank row is a pure function of ``(sketcher, row)``.
        """
        # Function-level import: repro.parallel pulls in the streaming
        # pipeline, whose store imports would cycle back into this
        # module at package-init time.
        from repro.parallel.streaming import (
            SourceTable,
            chunk_matrix,
            plan_spans,
            plan_table_chunks,
        )

        tables = list(tables)
        sources = [SourceTable.from_table(table) for table in tables]
        for start, end in plan_table_chunks(sources):
            chunk = tables[start:end]
            bank = self.sketcher.sketch_batch(chunk_matrix(chunk))
            for table, (lo, hi) in zip(chunk, plan_spans(sources[start:end])):
                self._set_entry(
                    self._entry_from_bank(table, tuple(table.columns), bank[lo:hi])
                )

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------

    def _compact(self) -> tuple[SketchBank, SketchBank, SketchBank]:
        if not self._entries:
            raise ValueError("the index is empty")
        if self._banks is not None and self._banks_count == len(self._entries):
            return self._banks
        # Concat the cached prefix (one big bank) with only the dirty
        # tail of newly appended entries, instead of re-concatenating
        # every per-entry slice on each interleaved add/query.
        entries = list(self._entries.values())
        tail = entries[self._banks_count :]
        prefix = list(self._banks) if self._banks is not None else [None, None, None]
        self._banks = (
            SketchBank.concat(
                ([prefix[0]] if prefix[0] is not None else [])
                + [e.indicator for e in tail]
            ),
            SketchBank.concat(
                ([prefix[1]] if prefix[1] is not None else [])
                + [e.values for e in tail]
            ),
            SketchBank.concat(
                ([prefix[2]] if prefix[2] is not None else [])
                + [e.squares for e in tail]
            ),
        )
        self._banks_count = len(entries)
        return self._banks

    @property
    def indicator_bank(self) -> SketchBank:
        """One key-indicator sketch row per table, in :meth:`table_names` order."""
        return self._compact()[0]

    @property
    def value_bank(self) -> SketchBank:
        """One value-sketch row per ``(table, column)``; see :meth:`value_owners`."""
        return self._compact()[1]

    @property
    def square_bank(self) -> SketchBank:
        """Squared-value counterpart of :attr:`value_bank`, row-aligned."""
        return self._compact()[2]

    def table_names(self) -> list[str]:
        """Indexed table names, aligned with :attr:`indicator_bank` rows."""
        return list(self._entries)

    def _refresh_owners(self) -> None:
        if self._owners is not None and self._owners_count == len(self._entries):
            return
        # Append-only growth extends the cached prefix; replacement
        # already dropped it in _set_entry, so a full rebuild here only
        # happens on the first call or after a replacement.
        entries = list(self._entries.values())
        tail = entries[self._owners_count :]
        owners = self._owners if self._owners is not None else []
        owners.extend(
            (entry.name, column) for entry in tail for column in entry.columns
        )
        counts = np.array([len(entry.columns) for entry in tail], dtype=np.int64)
        tail_pos = np.repeat(
            np.arange(self._owners_count, len(entries), dtype=np.int64), counts
        )
        if self._owner_pos is None or self._owner_pos.size == 0:
            self._owner_pos = tail_pos
        elif tail_pos.size:
            self._owner_pos = np.concatenate([self._owner_pos, tail_pos])
        self._owners = owners
        self._owners_count = len(entries)

    def value_owners(self) -> list[tuple[str, str]]:
        """``(table_name, column)`` per :attr:`value_bank` row, in order.

        The list is cached (and extended incrementally on appends);
        treat it as read-only.
        """
        self._refresh_owners()
        return self._owners

    def owner_positions(self) -> np.ndarray:
        """Table position (into :meth:`table_names`) per value-bank row.

        The int64 array aligned with :attr:`value_bank` /
        :attr:`square_bank` rows that lets the query fast path map a
        joinable-table mask to candidate value rows with one gather
        (``table_mask[owner_positions()]``) instead of a Python scan
        over :meth:`value_owners`.  Cached; treat it as read-only.
        """
        self._refresh_owners()
        return self._owner_pos

    # ------------------------------------------------------------------
    # LSH candidate generation
    # ------------------------------------------------------------------

    def attach_lsh(self, lake_index: LakeIndex) -> None:
        """Adopt a pre-built :class:`LakeIndex` (e.g. loaded from disk).

        ``lake_index`` must cover exactly the current tables, one row
        per table in :meth:`table_names` order; later appends extend it
        lazily like a freshly built one.
        """
        if len(lake_index) != len(self._entries):
            raise ValueError(
                f"LSH index covers {len(lake_index)} tables, the sketch "
                f"index holds {len(self._entries)}"
            )
        self._lsh = lake_index
        self._lsh_count = len(self._entries)

    def lsh_state(self) -> dict | None:
        """The in-memory LSH candidate index state, without building it.

        ``None`` until a query (or an explicit :meth:`lsh_index` call)
        has built the index; otherwise the live banding plus how many
        indexed rows it currently covers — the observability view
        ``QuerySession.stats()`` re-exports.
        """
        if self._lsh is None:
            return None
        return {
            "bands": self._lsh.bands,
            "rows_per_band": self._lsh.rows_per_band,
            "tables": self._lsh_count,
        }

    def drop_lsh(self) -> None:
        """Discard the LSH index; the next use rebuilds it.

        The escape hatch for an owner (the persistent store) that needs
        the index at a *specific* banding after a query path already
        built it with different tuning.
        """
        self._lsh = None
        self._lsh_count = 0

    def lsh_index(
        self,
        bands: int | None = None,
        rows_per_band: int | None = None,
        target_sim: float = 0.05,
        target_recall: float = DEFAULT_TARGET_RECALL,
    ) -> LakeIndex | None:
        """The LSH candidate index over the indicator rows, or ``None``.

        Returns ``None`` when the sketcher has no signature keys.
        Built lazily on first call (banding fixed explicitly or
        auto-tuned for ``target_recall`` expected recall at similarity
        ``target_sim``); appends extend the existing index with only
        the new rows.  An existing index is reused as long as it is
        *good enough for the caller*: a tuned call whose recall target
        the current banding cannot meet at ``target_sim`` rebuilds the
        index at the caller's (shallower) banding — otherwise a deep
        banding built for one serving threshold would silently collapse
        recall for a lower-threshold caller.  Explicit ``bands`` /
        ``rows_per_band`` calls never rebuild; owners that require an
        exact banding use :meth:`drop_lsh` first.
        """
        if not LakeIndex.supports(self.sketcher):
            return None
        if self._lsh is not None and bands is None:
            recall = self._lsh.expected_recall(min(max(target_sim, 0.0), 1.0))
            if recall < target_recall:
                from repro.mips.lsh import tune

                desired = tune(
                    self.sketcher.signature_length(), target_sim, target_recall
                )
                if desired != (self._lsh.bands, self._lsh.rows_per_band):
                    self.drop_lsh()
        if self._lsh is None:
            bank = self.indicator_bank if self._entries else None
            self._lsh = LakeIndex.build(
                self.sketcher,
                bank,
                bands=bands,
                rows_per_band=rows_per_band,
                target_sim=target_sim,
                target_recall=target_recall,
            )
            self._lsh_count = len(self._entries)
        elif self._lsh_count < len(self._entries):
            self._lsh.extend(
                self.sketcher, self.indicator_bank[self._lsh_count :]
            )
            self._lsh_count = len(self._entries)
        return self._lsh

    def num_rows(self, name: str) -> int:
        return self._entry(name).num_rows

    # ------------------------------------------------------------------
    # per-table access (scalar-sketch view)
    # ------------------------------------------------------------------

    def _entry(self, name: str) -> _TableEntry:
        if name not in self._entries:
            raise KeyError(f"table {name!r} is not indexed")
        return self._entries[name]

    def get(self, name: str) -> JoinSketch:
        """Materialize one table's sketches as a :class:`JoinSketch`."""
        entry = self._entry(name)
        sketcher = self.sketcher
        return JoinSketch(
            table_name=entry.name,
            sketcher=sketcher,
            indicator=sketcher.bank_row(entry.indicator, 0),
            values={
                column: sketcher.bank_row(entry.values, i)
                for i, column in enumerate(entry.columns)
            },
            squares={
                column: sketcher.bank_row(entry.squares, i)
                for i, column in enumerate(entry.columns)
            },
            num_rows=entry.num_rows,
        )

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[JoinSketch]:
        return (self.get(name) for name in self._entries)

    def storage_words(self) -> float:
        """Total index footprint in 64-bit words (bank accounting)."""
        return float(
            sum(
                entry.indicator.storage_words()
                + entry.values.storage_words()
                + entry.squares.storage_words()
                for entry in self._entries.values()
            )
        )
