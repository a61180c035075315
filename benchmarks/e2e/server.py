"""The query server process of the query workloads.

Usage: ``server.py STORE SEED SCALE`` (started by ``run.py``).

Times ``probes`` cold starts, each from ``QueryServer(...).start()``
until its first ``/query`` (a never-seen probe table) is answered, with
the process-wide WMH minima cache cleared before each, and
``probe_gap_s`` apart.  Then starts the server that the workload
measures and prints one JSON line ``{"url": ..., "setup_s": [...]}``.

Afterwards it reads commands from stdin, answering each with ``ok``:
``trace PATH`` turns the program's span tracing on (the same spans as
``REPRO_TRACE=PATH``) and ``untrace`` turns it off.  At end of input it
drains the server and exits.
"""

from __future__ import annotations

import json
import sys
import time

import inputs

from repro import obs
from repro.core.wmh import shared_minima_cache
from repro.serve import QueryServer, ServeClient, ServerConfig


def main(argv: list[str]) -> int:
    store, seed, scale = argv
    data = inputs.Inputs(int(seed), inputs.SCALES[scale])
    setup_s = []
    for i in range(data.scale.probes):
        time.sleep(data.scale.probe_gap_s)
        probe = data.probe(i)
        shared_minima_cache().clear()
        started = time.perf_counter()
        server = QueryServer(store, ServerConfig()).start()
        try:
            ServeClient(server.url, max_attempts=1).query(probe, inputs.QUERY_COLUMN)
            setup_s.append(time.perf_counter() - started)
        finally:
            server.stop()
    shared_minima_cache().clear()
    server = QueryServer(store, ServerConfig()).start()
    try:
        print(json.dumps({"url": server.url, "setup_s": setup_s}), flush=True)
        for line in sys.stdin:
            command = line.split()
            if command[:1] == ["trace"]:
                obs.enable_tracing(command[1])
            elif command[:1] == ["untrace"]:
                obs.disable_tracing()
            print("ok", flush=True)
    finally:
        server.drain()
        obs.disable_tracing()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
