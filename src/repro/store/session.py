"""``QuerySession`` — the serving front end over an opened lake.

A session is what a request handler holds: it wraps
:class:`~repro.datasearch.search.DatasetSearch` over a
:class:`~repro.store.lake.LakeStore` and adds the serving-side
conveniences the raw engine deliberately lacks:

* query tables are sketched **once per session** — repeated searches
  from the same analyst table (different columns, different ``top_k``)
  reuse the cached :class:`~repro.datasearch.join_estimates.JoinSketch`;
* the engine is cached on the identity of ``store.index`` — appends
  mutate the index in place, so the cached engine keeps seeing new
  tables for free, while a compaction (or any event that rebuilds the
  index object) transparently invalidates it;
* a batch of query tables is served through
  :meth:`~repro.datasearch.search.DatasetSearch.search_many`, which
  traverses the stored banks once per batch instead of once per query;
* results are plain :class:`~repro.datasearch.search.SearchHit` lists,
  identical to what the in-memory engine returns for the same lake —
  the store changes *where sketches live*, never *what they answer*.

Sessions are **thread-safe**: the query-sketch cache and the lazy
engine build are guarded by one lock, so concurrent readers (the
``repro.serve`` request threads) never race a cache mutation against
``stats()`` iteration or build the engine twice.  The search itself
runs outside the lock — only the tiny bookkeeping sections serialize.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

from repro import obs
from repro.datasearch.join_estimates import JoinSketch
from repro.datasearch.search import DatasetSearch, SearchHit
from repro.datasearch.table import Table
from repro.store.lake import LakeStore

__all__ = ["QuerySession"]


class QuerySession:
    """Stateful query front end over a :class:`LakeStore`."""

    def __init__(
        self,
        store: LakeStore,
        min_containment: float = 0.05,
        candidates: str = "scan",
        max_cached_queries: int | None = None,
    ) -> None:
        """``candidates`` picks the session's default joinability
        candidate generator: ``"scan"`` (exact full-lake pass) or
        ``"lsh"`` (sublinear banded-signature shortlist, re-checked
        exactly — hits are a subset of the scan path).  Every query
        method also takes a per-call override.  ``max_cached_queries``
        bounds the query-sketch cache (oldest entry evicted first) —
        long-lived servers sketching arbitrary client tables set this;
        ``None`` keeps the historical unbounded cache."""
        self.store = store
        self.min_containment = min_containment
        self.candidates = candidates
        self.max_cached_queries = max_cached_queries
        self._query_cache: dict[str, JoinSketch] = {}
        self._engine: DatasetSearch | None = None
        self._lock = threading.RLock()

    def _engine_current(self, engine: DatasetSearch | None) -> bool:
        return (
            engine is not None
            and engine.index is self.store.index
            and engine.min_containment == self.min_containment
            and engine.candidates == self.candidates
        )

    @property
    def engine(self) -> DatasetSearch:
        """A search engine over the store's *current* index.

        Cached on the index object's identity: in-place index growth
        (appends) keeps the cached engine valid, while a store event
        that rebuilds the index — compaction, reopening — swaps the
        object and forces a fresh engine on the next access.  Mutating
        ``session.min_containment`` or ``session.candidates`` also
        invalidates it.  Concurrent readers build the engine exactly
        once: the first thread constructs it under the lock, the rest
        re-check and adopt it.
        """
        engine = self._engine
        if self._engine_current(engine):
            return engine
        with self._lock:
            engine = self._engine
            if not self._engine_current(engine):
                engine = DatasetSearch(
                    self.store.index, self.min_containment, candidates=self.candidates
                )
                self._engine = engine
            return engine

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def sketch(self, table: Table) -> JoinSketch:
        """Sketch a query table, cached by table name for the session.

        The cache assumes a name identifies one table for the session's
        lifetime; call :meth:`clear_cache` if a query table's contents
        change.  Two threads missing on the same name may both sketch
        it (sketching is deterministic, so either result is THE
        result); the first insert wins and the duplicate is dropped.
        """
        with self._lock:
            cached = self._query_cache.get(table.name)
        if cached is not None:
            obs.count("session.sketch_cache.hits")
            return cached
        obs.count("session.sketch_cache.misses")
        with obs.trace_span("session.sketch_query", table=table.name):
            built = self.engine.sketch_query(table)
        with self._lock:
            cached = self._query_cache.setdefault(table.name, built)
            if self.max_cached_queries is not None:
                while len(self._query_cache) > self.max_cached_queries:
                    oldest = next(iter(self._query_cache))
                    del self._query_cache[oldest]
                    obs.count("session.sketch_cache.evictions")
        return cached

    def joinable(
        self, table: Table, candidates: str | None = None
    ) -> list[tuple[str, float, float]]:
        """Stored tables joinable with ``table`` (name, size, containment)."""
        return self.engine.joinable(self.sketch(table), candidates=candidates)

    def search(
        self,
        table: Table,
        query_column: str,
        top_k: int = 10,
        by: str = "correlation",
        candidates: str | None = None,
    ) -> list[SearchHit]:
        """Rank stored columns against ``table.query_column``: the
        one-table case of :meth:`search_many`."""
        return self.search_many(
            [table], [query_column], top_k=top_k, by=by, candidates=candidates
        )[0]

    def search_many(
        self,
        tables: Sequence[Table],
        query_columns: str | Sequence[str],
        top_k: int = 10,
        by: str = "correlation",
        candidates: str | None = None,
    ) -> list[list[SearchHit]]:
        """Rank stored columns against a batch of query tables.

        One hit list per table, each identical to searching that table
        alone; the stored banks are traversed once for the whole batch
        (``estimate_cross``).  Query tables are sketched through the
        session cache.
        """
        with obs.trace_span(
            "session.search",
            queries=len(tables),
            tables=[table.name for table in tables],
            columns=query_columns,
        ):
            return self.engine.search_many(
                [self.sketch(table) for table in tables],
                query_columns,
                top_k=top_k,
                by=by,
                candidates=candidates,
            )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def clear_cache(self) -> None:
        with self._lock:
            self._query_cache.clear()

    def warnings(self) -> list[str]:
        """Operator-visible degradation notes for this session's store.

        Empty for a healthy store.  Carries the ``store.degraded``
        conditions the open survived (manifest fallback, salvaged
        shards, dropped LSH index) plus a ``query.route.scan_fallback``
        note when the persisted candidate index was unusable — callers
        of the CLI ``--json`` output and the ``repro.serve`` responses
        read these to detect salvage or index-fallback serving without
        scraping obs counters.
        """
        notes = [f"store.degraded: {note}" for note in self.store.degraded]
        if any("lsh_index dropped" in note for note in self.store.degraded):
            notes.append(
                "query.route.scan_fallback: persisted LSH index unusable; "
                "candidates served by scan or an in-memory rebuild"
            )
        return notes

    def stats(self) -> dict[str, Any]:
        """The unified serving view: store catalog + session caches.

        On top of :meth:`LakeStore.stats`, folds in everything a
        serving operator previously had to dig out of private state:

        * ``session`` — the query-sketch cache occupancy and the
          engine-cache identity/invalidation state (``engine_cached``
          says a :class:`DatasetSearch` is held; ``engine_current``
          says the next query will reuse it rather than rebuild —
          false after a compaction swapped ``store.index`` or after
          ``min_containment``/``candidates`` changed);
        * ``lsh_memory`` — the in-memory banded candidate index state
          (``None`` until a query builds it), distinct from the
          persisted ``lsh_index`` record;
        * ``wmh_cache`` — the live WMH :class:`MinimaCache` counters
          (hits/misses/evictions/bytes), previously invisible outside
          ``core/wmh.py``.
        """
        stats = self.store.stats()
        index = self.store.index
        with self._lock:
            cached_sketches = len(self._query_cache)
            engine = self._engine
        stats["cached_query_sketches"] = cached_sketches
        stats["session"] = {
            "min_containment": self.min_containment,
            "candidates": self.candidates,
            "cached_query_sketches": cached_sketches,
            "max_cached_queries": self.max_cached_queries,
            "engine_cached": engine is not None,
            "engine_current": (
                engine is not None
                and engine.index is index
                and engine.min_containment == self.min_containment
                and engine.candidates == self.candidates
            ),
        }
        stats["lsh_memory"] = index.lsh_state()
        live_cache = getattr(self.store.sketcher, "_live_cache", None)
        cache = live_cache() if callable(live_cache) else None
        stats["wmh_cache"] = cache.stats() if cache is not None else None
        return stats
