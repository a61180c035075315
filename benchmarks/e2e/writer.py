"""The writer process of ``query_mixed``.

Usage: ``writer.py STORE`` (started by ``run.py``).

Opens the store and prints ``{"ready": generation}``.  Its first line of
input is the plan, ``{"interval_s": ..., "batches": [[csv, ...], ...]}``,
and starts the clock: it then appends one batch per interval with
``append_sources``, on schedule, printing ``{"commit": [seconds,
stage_seconds, generation]}`` after each, or ``{"error": ...}``.  It
stops at end of input, or when it runs out of batches, and exits.

It runs in a process of its own, as a separate writer would, so its
sketching never holds the load generator's interpreter lock.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from repro.store import LakeStore
from repro.store.csvio import csv_source


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main(argv: list[str]) -> int:
    (store_path,) = argv
    stop = threading.Event()
    with LakeStore.open(store_path) as store:
        emit({"ready": store.generation})
        line = sys.stdin.readline()
        if not line:
            return 0
        plan = json.loads(line)
        start = time.perf_counter()

        def watch() -> None:
            sys.stdin.read()
            stop.set()

        threading.Thread(target=watch, name="stdin", daemon=True).start()
        try:
            for b, paths in enumerate(plan["batches"]):
                if stop.wait(max(0.0, start + b * plan["interval_s"] - time.perf_counter())):
                    break
                sources = [csv_source(path) for path in paths]
                started = time.perf_counter()
                _, report = store.append_sources(sources)
                wall = time.perf_counter() - started
                emit({"commit": [wall, report.stage_seconds, store.generation]})
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            emit({"error": f"{type(exc).__name__}: {exc}"})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
