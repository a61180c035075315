"""The long-lived HTTP query service over a :class:`LakeStore`.

Stdlib-only (``http.server.ThreadingHTTPServer``): one handler thread
per connection parses and *admits*; one micro-batcher thread executes.
The headline is the failure contract, enforced end to end:

* ``POST /query`` returns exactly one of: **200** with a
  whole-generation result (the response names the generation it was
  computed against), **503** typed shed (queue full / queue-wait budget
  / draining / no servable snapshot — all retryable), **504** typed
  deadline timeout, **400** malformed request, or **500** typed
  internal error.  Never a hung connection, never a traceback body;
* a degraded store (salvage open, manifest fallback, dropped LSH
  index) is *served*, flagged ``degraded`` with human-readable
  ``warnings``, and reported by ``GET /healthz``;
* SIGTERM (wired in ``__main__``) triggers a **graceful drain**: stop
  admitting (503 ``draining``), finish in-flight work under the drain
  deadline, then exit 0;
* the ``serve.request`` / ``serve.drain`` failpoints let the torture
  suite kill the server mid-request or mid-drain and assert a retrying
  client recovers bit-identical answers.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

import numpy as np

from repro import faults, obs
from repro.datasearch.table import Table
from repro.datasearch.vectorize import table_row_arrays
from repro.serve.admission import AdmissionQueue, MicroBatcher, ServeRequest
from repro.serve.snapshot import SnapshotManager

__all__ = ["ServerConfig", "QueryServer", "FP_REQUEST", "FP_DRAIN"]

FP_REQUEST = faults.register(
    "serve.request", "top of /query handling, before admission"
)
FP_DRAIN = faults.register(
    "serve.drain", "drain initiated, before waiting for in-flight work"
)

#: Server-side cap on client deadlines — a client asking for an hour
#: still cannot pin a handler thread for an hour.
MAX_DEADLINE_MS = 120_000.0

#: Below this magnitude a value may leave an encoded row whose norm
#: underflows to zero (its squared row's, below about 1e-81); a table
#: holding one is checked by the encoder itself before it is admitted.
#: Sums of larger values that do not cancel to zero stay above 1e-86,
#: far from underflow.
_TINY_VALUE = 1e-70

#: Above this magnitude a value may leave an encoded row whose norm
#: overflows to infinity (its squared row's, from about 1e77 / n^(1/4)
#: for n rows); a table holding one is checked by the encoder too.
#: Below it, the squared row's norm overflows only past 1e28 rows.
_HUGE_VALUE = 1e70


@dataclass
class ServerConfig:
    """Service knobs; defaults favor robustness over raw throughput."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; QueryServer.port reports the real one
    max_queue: int = 64
    max_batch: int = 8
    default_deadline_ms: float = 10_000.0
    queue_wait_ms: float = 2_000.0
    drain_deadline_s: float = 10.0
    poll_interval_s: float = 0.5
    min_containment: float = 0.05
    candidates: str = "scan"
    salvage: bool = True
    max_cached_queries: int | None = 256


def _parse_table(data: Any) -> Table:
    if not isinstance(data, dict):
        raise ValueError("'table' must be an object with name/keys/columns")
    try:
        name = data["name"]
        keys = data["keys"]
        columns = data["columns"]
    except KeyError as exc:
        raise ValueError(f"'table' is missing required field {exc}") from None
    if not isinstance(keys, list):
        raise ValueError("'table.keys' must be an array")
    if not isinstance(columns, dict) or not columns:
        raise ValueError("'table.columns' must be a non-empty object")
    arrays = {str(col): np.asarray(values, dtype=np.float64) for col, values in columns.items()}
    for col, values in arrays.items():
        # The squared-value encoding must stay finite too.
        with np.errstate(over="ignore"):
            squares = values * values
        if not np.isfinite(squares).all():
            raise ValueError(f"column {col!r} holds a non-finite value or one whose square overflows")
    table = Table(str(name), keys, arrays)
    if any(
        np.any(((magnitude < _TINY_VALUE) & (magnitude != 0.0)) | (magnitude > _HUGE_VALUE))
        for magnitude in map(np.abs, arrays.values())
    ):
        table_row_arrays(table)  # raises, naming the column, on a row it cannot sketch
    return table


def _hit_payload(hit: Any) -> dict[str, Any]:
    return {
        "table": hit.table_name,
        "column": hit.column,
        "score": hit.score,
        "correlation": hit.correlation,
        "join_size": hit.join_size,
        "containment": hit.containment,
    }


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; all state lives on ``server.app``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"

    # Quiet by default: one line per request through obs, not stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def app(self) -> "QueryServer":
        return self.server.app  # type: ignore[attr-defined]

    def _send_json(
        self, status: int, payload: dict[str, Any], request_id: str | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if request_id:
                self.send_header("X-Request-Id", request_id)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up first; nothing to salvage

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/healthz":
            self._send_json(200, self.app.health())
        elif self.path == "/stats":
            self._send_json(200, self.app.stats_payload())
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/query":
            self._send_json(404, {"error": "not_found", "path": self.path})
            return
        faults.failpoint(FP_REQUEST)
        obs.count("serve.requests")
        request_id = self.headers.get("X-Request-Id") or None
        app = self.app
        if app.draining:
            obs.count("serve.shed.draining")
            self._send_json(
                503,
                {"error": "draining", "message": "server is draining; retry elsewhere"},
                request_id,
            )
            return
        try:
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            body = json.loads(raw.decode("utf-8")) if raw else {}
            request = self._build_request(body, request_id)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(
                400, {"error": "bad_request", "message": str(exc)}, request_id
            )
            return
        app.track_inflight(+1)
        try:
            self._serve_query(request)
        finally:
            app.track_inflight(-1)

    # ------------------------------------------------------------------
    # /query mechanics
    # ------------------------------------------------------------------

    def _build_request(self, body: dict[str, Any], request_id: str | None) -> ServeRequest:
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        table = _parse_table(body.get("table"))
        column = body.get("column")
        if not column:
            raise ValueError("'column' is required")
        if column not in table.columns:
            raise ValueError(f"'column' {column!r} is not a column of the query table")
        deadline_ms = body.get("deadline_ms") or self.headers.get("X-Deadline-Ms")
        config = self.app.config
        if deadline_ms is None:
            deadline_ms = config.default_deadline_ms
        deadline_ms = min(float(deadline_ms), MAX_DEADLINE_MS)
        if deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
        candidates = body.get("candidates")
        if candidates is not None and candidates not in ("scan", "lsh"):
            raise ValueError(f"unknown candidates {candidates!r}")
        top_k = body.get("top_k", 10)
        if isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1:
            raise ValueError(f"top_k must be an integer >= 1, got {top_k!r}")
        by = body.get("by", "correlation")
        if by not in ("correlation", "inner_product"):
            raise ValueError(f"unknown by {by!r}")
        return ServeRequest(
            table=table,
            column=str(column),
            top_k=top_k,
            by=by,
            candidates=candidates,
            deadline=time.monotonic() + deadline_ms / 1e3,
            request_id=request_id or "",
        )

    def _serve_query(self, request: ServeRequest) -> None:
        started = time.monotonic()
        if not self.app.admission.submit(request):
            status, code, message = request.error  # type: ignore[misc]
            self._send_json(
                status,
                {"error": code, "message": message, "request_id": request.request_id},
                request.request_id,
            )
            return
        # Wait for the batcher, bounded by the deadline (+ a grace
        # period so a result that lands exactly at the wire isn't lost
        # to scheduling jitter).  An expired wait abandons the request:
        # the batcher sees the flag and skips or discards the work.
        if not request.done.wait(timeout=max(request.remaining(), 0.0) + 0.05):
            request.abandoned = True
            obs.count("serve.timeouts.abandoned")
            self._send_json(
                504,
                {
                    "error": "deadline",
                    "message": "deadline expired awaiting execution",
                    "request_id": request.request_id,
                },
                request.request_id,
            )
            return
        obs.observe("serve.latency_ms", (time.monotonic() - started) * 1e3)
        if request.error is not None:
            status, code, message = request.error
            self._send_json(
                status,
                {"error": code, "message": message, "request_id": request.request_id},
                request.request_id,
            )
            return
        self._send_json(
            200,
            {
                "request_id": request.request_id,
                "generation": request.generation,
                "degraded": request.degraded,
                "warnings": request.warnings,
                "query": request.table.name,
                "column": request.column,
                "hits": [_hit_payload(hit) for hit in request.hits or []],
            },
            request.request_id,
        )


class _HTTPServer(ThreadingHTTPServer):
    #: socketserver's default listen backlog is 5: a burst of
    #: concurrent clients overflows it and eats a full TCP SYN
    #: retransmit (~1s) per dropped connection.  Admission control is
    #: the load-shedding layer — the accept queue should never be.
    request_queue_size = 128


class QueryServer:
    """Owns the snapshot manager, admission queue, batcher, and HTTP loop."""

    def __init__(self, path: str | Path, config: ServerConfig | None = None) -> None:
        self.path = Path(path)
        self.config = config or ServerConfig()
        self.snapshots = SnapshotManager(
            self.path,
            min_containment=self.config.min_containment,
            candidates=self.config.candidates,
            salvage=self.config.salvage,
            poll_interval_s=self.config.poll_interval_s,
            max_cached_queries=self.config.max_cached_queries,
        )
        self.admission = AdmissionQueue(
            max_depth=self.config.max_queue, queue_wait_ms=self.config.queue_wait_ms
        )
        self.batcher = MicroBatcher(
            self.admission, self.snapshots.current, max_batch=self.config.max_batch
        )
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QueryServer":
        self.snapshots.start()
        self.batcher.start()
        httpd = _HTTPServer((self.config.host, self.config.port), _Handler)
        httpd.daemon_threads = True
        httpd.app = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._http_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._started_at = time.monotonic()
        obs.count("serve.starts")
        return self

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("server not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def track_inflight(self, delta: int) -> None:
        with self._inflight_lock:
            self._inflight += delta

    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, deadline_s: float | None = None) -> bool:
        """Graceful shutdown: stop admitting, finish in-flight, stop.

        Returns True when everything in flight finished inside the
        drain deadline; False when the deadline expired first (the
        server still stops — remaining clients see typed draining
        sheds or connection errors and retry against a replacement).
        """
        if self.draining:
            return True
        self.draining = True
        obs.count("serve.drains")
        faults.failpoint(FP_DRAIN)
        deadline = time.monotonic() + (
            self.config.drain_deadline_s if deadline_s is None else deadline_s
        )
        clean = True
        while self.inflight() > 0 or not self.batcher.idle():
            if time.monotonic() > deadline:
                clean = False
                obs.count("serve.drain_deadline_expired")
                break
            time.sleep(0.01)
        self.stop()
        return clean

    def stop(self) -> None:
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()
            if self._http_thread is not None:
                self._http_thread.join(timeout=5.0)
                self._http_thread = None
            httpd.server_close()
            self._httpd = None
        self.batcher.stop()
        self.snapshots.stop()

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # introspection endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict[str, Any]:
        snapshot = self.snapshots.current()
        try:
            status = "ok"
            if snapshot.degraded or snapshot.read_only:
                status = "degraded"
            if self.draining:
                status = "draining"
            return {
                "status": status,
                "generation": snapshot.generation,
                "tables": len(snapshot.store),
                "degraded": list(snapshot.degraded),
                "read_only": snapshot.read_only,
                "queue_depth": self.admission.depth(),
                "inflight": self.inflight(),
                "uptime_s": (
                    time.monotonic() - self._started_at if self._started_at else 0.0
                ),
            }
        finally:
            snapshot.release()

    def stats_payload(self) -> dict[str, Any]:
        snapshot = self.snapshots.current()
        try:
            stats = snapshot.session.stats()
        finally:
            snapshot.release()
        stats["serve"] = {
            "queue_depth": self.admission.depth(),
            "max_queue": self.config.max_queue,
            "max_batch": self.config.max_batch,
            "inflight": self.inflight(),
            "draining": self.draining,
        }
        stats["telemetry"] = obs.runtime_snapshot()
        return stats
