"""The benchmark's own spans, kept in memory and written at exit.

Spans wrap the benchmark's calls into each layer's public API (a
client request, ``LakeStore.open``, ``QuerySession.sketch``, ...).
They use the program's trace schema, so ``repro.obs.validate_trace``
checks the file, and ids carry a ``b`` so they never collide with the
program's own ``pid:counter`` ids when both files are read together.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Spans:
    """Thread-safe in-memory span recorder; a no-op while disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.events: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the block; yields the span's attrs for late additions."""
        if not self.enabled:
            yield attrs
            return
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = f"{os.getpid()}:b{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - c0
            stack.pop()
            event = {
                "name": name,
                "span_id": span_id,
                "parent_id": parent,
                "start_s": t0 - self._epoch,
                "wall_ms": wall * 1e3,
                "cpu_ms": cpu * 1e3,
                "pid": os.getpid(),
                "thread": threading.get_ident(),
                "attrs": attrs,
            }
            with self._lock:
                self.events.append(event)

    def walls(self, name: str, **match: Any) -> list[float]:
        """Wall milliseconds of every span called ``name`` whose attrs
        include ``match``."""
        return [
            e["wall_ms"]
            for e in self.events
            if e["name"] == name and all(e["attrs"].get(k) == v for k, v in match.items())
        ]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        part of it that its child spans cover."""
        children: dict[str, list[tuple[float, float]]] = {}
        for e in self.events:
            if e["parent_id"] is not None:
                start = e["start_s"] * 1e3
                children.setdefault(e["parent_id"], []).append((start, start + e["wall_ms"]))
        totals: dict[str, float] = {}
        for e in self.events:
            lo = e["start_s"] * 1e3
            hi = lo + e["wall_ms"]
            covered = 0.0
            reach = lo
            for start, end in sorted(children.get(e["span_id"], [])):
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    covered += end - start
                    reach = end
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["wall_ms"] - covered
        return totals

    def write(self, path: Path) -> None:
        with self._lock:
            lines = [json.dumps(e, separators=(",", ":")) for e in self.events]
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
