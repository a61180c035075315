"""Admission control: bounded queue, deadlines, shedding, micro-batching.

The failure-behavior contract of the query service lives here.  Every
request carries an absolute **deadline** (client-supplied
``deadline_ms``, capped server-side); the service's only three answers
are a whole-generation result, a typed **shed** (503 — the service
chose not to do the work: queue full, queue-wait budget exceeded,
draining), or a typed **timeout** (504 — the deadline passed).  Nothing
queues unboundedly and nothing hangs:

* :class:`AdmissionQueue` is a bounded FIFO; a full queue sheds
  *immediately* at admission (fail fast beats queueing into certain
  timeout);
* the :class:`MicroBatcher` thread drains whatever is queued — up to
  ``max_batch`` — in one go, drops requests that are already dead
  (deadline passed or queue-wait budget exceeded while waiting), groups
  the survivors by ``(top_k, by, candidates)``, and serves each group
  with **one** ``search_many`` pass over the stored banks, so
  concurrent clients share bank traversals instead of multiplying them;
  when that pass raises, each request runs again alone, so a bad query
  fails only itself (``ValueError``: 400, anything else: 500);
* the batcher pins ONE snapshot per drained batch, so every response in
  a batch is computed against a single committed generation;
* the ``serve.batch`` failpoint sits directly before each group's
  execution — torture tests inject raises/sleeps/crashes exactly where
  a slow or dying estimator kernel would hurt.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro import faults, obs
from repro.datasearch.table import Table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.snapshot import Snapshot

__all__ = [
    "FP_BATCH",
    "ServeRequest",
    "AdmissionQueue",
    "MicroBatcher",
    "group_requests",
]

FP_BATCH = faults.register(
    "serve.batch", "before a drained batch group executes search_many"
)

_request_ids = itertools.count(1)


@dataclass
class ServeRequest:
    """One admitted query: inputs, deadline, and its eventual outcome.

    The handler thread blocks on ``done`` (bounded by the deadline);
    the batcher fills exactly one of ``hits``/``error`` and sets it.
    ``abandoned`` flips when the handler gives up waiting — the batcher
    then skips (or discards) the work, and nobody touches a response
    the client already stopped listening for.
    """

    table: Table
    column: str
    top_k: int = 10
    by: str = "correlation"
    candidates: str | None = None
    deadline: float = 0.0  # absolute time.monotonic()
    request_id: str = ""
    enqueued_at: float = field(default_factory=time.monotonic)
    done: threading.Event = field(default_factory=threading.Event)
    hits: list | None = None
    error: tuple[int, str, str] | None = None  # (status, code, message)
    generation: str | None = None
    degraded: bool = False
    warnings: list[str] = field(default_factory=list)
    abandoned: bool = False

    def __post_init__(self) -> None:
        if not self.request_id:
            self.request_id = f"req-{next(_request_ids)}"

    def remaining(self, now: float | None = None) -> float:
        return self.deadline - (time.monotonic() if now is None else now)

    def fail(self, status: int, code: str, message: str) -> None:
        self.error = (status, code, message)
        self.done.set()

    def succeed(self, hits: list, snapshot: "Snapshot") -> None:
        self.hits = hits
        self.generation = snapshot.generation
        self.degraded = bool(snapshot.degraded) or snapshot.read_only
        self.warnings = snapshot.session.warnings()
        self.done.set()


class AdmissionQueue:
    """A bounded FIFO whose overflow answer is an immediate typed shed."""

    def __init__(self, max_depth: int = 64, queue_wait_ms: float = 2_000.0) -> None:
        self.max_depth = max_depth
        self.queue_wait_ms = queue_wait_ms
        self._queue: queue.Queue[ServeRequest] = queue.Queue(maxsize=max_depth)

    def submit(self, request: ServeRequest) -> bool:
        """Admit or shed; never blocks.  True iff admitted."""
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            obs.count("serve.shed.queue_full")
            request.fail(
                503,
                "shed",
                f"admission queue full ({self.max_depth} deep); retry with backoff",
            )
            return False
        obs.observe("serve.queue_depth", self._queue.qsize())
        return True

    def depth(self) -> int:
        return self._queue.qsize()

    def get(self, timeout: float) -> ServeRequest | None:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain_nowait(self, limit: int) -> list[ServeRequest]:
        out: list[ServeRequest] = []
        while len(out) < limit:
            try:
                out.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return out


def group_requests(
    batch: list[ServeRequest],
) -> dict[tuple[int, str, str | None], list[ServeRequest]]:
    """Coalesce compatible requests: same ``(top_k, by, candidates)``.

    Order within a group is preserved (FIFO fairness); distinct knobs
    execute as separate ``search_many`` calls in the same drain.
    """
    groups: dict[tuple[int, str, str | None], list[ServeRequest]] = {}
    for request in batch:
        groups.setdefault(
            (request.top_k, request.by, request.candidates), []
        ).append(request)
    return groups


class MicroBatcher:
    """The single consumer of the admission queue.

    One daemon thread: block for the next request, greedily drain up to
    ``max_batch``, triage (abandoned / past-deadline / over the
    queue-wait budget), then serve each compatible group through one
    ``search_many`` against ONE acquired snapshot.  ``max_batch=1`` is
    the unbatched baseline (every request is its own bank traversal) —
    the benchmark serves both modes through this same code path.
    """

    def __init__(
        self,
        admission: AdmissionQueue,
        snapshot_source: Callable[[], "Snapshot"],
        max_batch: int = 8,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.admission = admission
        self.snapshot_source = snapshot_source
        self.max_batch = max_batch
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._idle = threading.Event()
        self._idle.set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "MicroBatcher":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="serve-batcher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop consuming; fail anything still queued as a drain shed."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None
        for request in self.admission.drain_nowait(self.admission.max_depth + 1):
            request.fail(503, "draining", "server stopped before this request ran")

    def idle(self) -> bool:
        """True when no batch is executing and the queue is empty."""
        return self._idle.is_set() and self.admission.depth() == 0

    # ------------------------------------------------------------------
    # the drain loop
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            first = self.admission.get(timeout=0.05)
            if first is None:
                continue
            self._idle.clear()
            try:
                batch = [first]
                batch.extend(self.admission.drain_nowait(self.max_batch - 1))
                self._execute(batch)
            finally:
                self._idle.set()

    def _triage(self, batch: list[ServeRequest]) -> list[ServeRequest]:
        """Fail the already-dead; return the requests still worth work."""
        now = time.monotonic()
        live: list[ServeRequest] = []
        for request in batch:
            waited_ms = (now - request.enqueued_at) * 1e3
            obs.observe("serve.queue_wait_ms", waited_ms)
            if request.abandoned:
                continue
            if request.remaining(now) <= 0.0:
                obs.count("serve.timeouts.queued")
                request.fail(
                    504, "deadline", "deadline expired while queued"
                )
            elif waited_ms > self.admission.queue_wait_ms:
                obs.count("serve.shed.queue_wait")
                request.fail(
                    503,
                    "shed",
                    f"queue wait {waited_ms:.0f}ms exceeded the "
                    f"{self.admission.queue_wait_ms:.0f}ms budget",
                )
            else:
                live.append(request)
        return live

    def _execute(self, batch: list[ServeRequest]) -> None:
        live = self._triage(batch)
        if not live:
            return
        obs.count("serve.batches")
        obs.observe("serve.batch_size", len(live))
        try:
            snapshot = self.snapshot_source()
        except Exception as exc:
            for request in live:
                request.fail(503, "unavailable", f"no servable snapshot: {exc}")
            return
        try:
            for group in group_requests(live).values():
                self._run_group(snapshot, group)
        finally:
            snapshot.release()

    def _run_group(self, snapshot: "Snapshot", group: list[ServeRequest]) -> None:
        try:
            faults.failpoint(FP_BATCH)
            results = self._search(snapshot, group)
        except Exception as exc:  # typed response, never a dead batcher thread
            if len(group) == 1:
                _fail_typed(group[0], exc)
                return
            # One bad request must not fail its neighbours: each runs
            # again alone, on the same snapshot.
            results = []
            for request in group:
                try:
                    results.append(self._search(snapshot, [request])[0])
                except Exception as alone:
                    _fail_typed(request, alone)
                    results.append(None)
        now = time.monotonic()
        for request, hits in zip(group, results):
            if hits is None:
                continue
            if request.remaining(now) <= 0.0:
                obs.count("serve.timeouts.executed")
                request.fail(
                    504, "deadline", "deadline expired during execution"
                )
            else:
                request.succeed(hits, snapshot)

    @staticmethod
    def _search(snapshot: "Snapshot", group: list[ServeRequest]) -> list:
        head = group[0]
        return snapshot.session.search_many(
            [request.table for request in group],
            [request.column for request in group],
            top_k=head.top_k,
            by=head.by,
            candidates=head.candidates,
        )


def _fail_typed(request: ServeRequest, exc: Exception) -> None:
    """A query the session rejected (``ValueError``: its input) is a
    400; anything else is a 500."""
    obs.count("serve.errors")
    if isinstance(exc, ValueError):
        request.fail(400, "bad_request", str(exc))
    else:
        request.fail(500, "internal", f"{type(exc).__name__}: {exc}")
