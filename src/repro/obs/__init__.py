"""``repro.obs`` — zero-dependency telemetry: metrics, traces, accounting.

One small layer, three surfaces:

* :class:`~repro.obs.registry.MetricsRegistry` — process-wide counters,
  gauges, and fixed-log-bucket histograms.  Snapshots are plain JSON
  and **mergeable**, so per-chunk registries collected inside
  ``repro.parallel`` pool workers fold back into the parent's registry
  and ingest metrics survive the process boundary;
* :func:`~repro.obs.tracing.trace_span` — context-manager span tracing
  with a thread-local span stack, exported as JSONL (one event per
  span) when enabled via ``REPRO_TRACE=<path>`` or
  :func:`~repro.obs.tracing.enable_tracing`; a no-op singleton
  otherwise;
* :class:`PhaseRecorder` / :func:`record_phases` — the query
  accounting used by the search pipeline: one clock pair per phase
  mark, folded once per ``search_many`` call (one query or a batch)
  into both the registry (``query.latency_ms`` and
  ``query.phase_ms.*`` histograms) and the trace (a ``query.search``
  root span plus one child per phase) without instrumenting the hot
  loop twice; per-query counts (``query.count``, ``query.route.*``,
  joinability and pruning histograms) are recorded for each query of
  the call.

Everything here is stdlib-only and import-cycle-free: ``obs`` is a
leaf module every other layer (``io``, ``store``, ``parallel``,
``datasearch``) may import.

Knobs
-----
``REPRO_OBS=0``
    Disable metrics recording (the registry's no-op fast path).
    Default: enabled — recording is a counter bump or one histogram
    observation per query/chunk, far below measurement noise.
``REPRO_TRACE=/path/to/trace.jsonl``
    Enable span tracing to that file for the whole process.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    validate_snapshot,
)
from repro.obs.tracing import (
    TRACE_ENV,
    current_span_id,
    disable_tracing,
    emit_event,
    enable_tracing,
    next_span_id,
    read_trace,
    span_event,
    trace_enabled,
    trace_epoch,
    trace_span,
    tracing,
    validate_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_ENV",
    "MetricsRegistry",
    "PhaseRecorder",
    "TRACE_ENV",
    "active",
    "count",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "get_registry",
    "merge",
    "merge_snapshots",
    "metrics_enabled",
    "observe",
    "read_trace",
    "record_phases",
    "recorder",
    "runtime_snapshot",
    "set_gauge",
    "trace_enabled",
    "trace_span",
    "tracing",
    "validate_snapshot",
    "validate_trace",
]

#: Environment knob: set to ``0``/``false``/``off`` to disable metrics
#: recording process-wide (read once at import; ``enable_metrics``
#: flips it at runtime).
METRICS_ENV = "REPRO_OBS"


def _env_metrics_enabled() -> bool:
    return os.environ.get(METRICS_ENV, "").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


_REGISTRY = MetricsRegistry(enabled=_env_metrics_enabled())


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented layer records to."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY.enabled


def enable_metrics(on: bool = True) -> None:
    """Turn registry recording on/off at runtime (``REPRO_OBS`` sets
    the initial state)."""
    _REGISTRY.enabled = bool(on)


def active() -> bool:
    """True when any telemetry consumer exists (metrics or tracing).

    Hot paths gate their clock reads on this: when False, per-query
    accounting costs one function call and one branch.
    """
    return _REGISTRY.enabled or trace_enabled()


# -- convenience recording on the global registry ----------------------


def count(name: str, amount: float = 1) -> None:
    _REGISTRY.count(name, amount)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    _REGISTRY.set_gauge(name, value)


def merge(snapshot: dict[str, Any]) -> None:
    """Fold a worker registry snapshot into the global registry."""
    _REGISTRY.merge(snapshot)


# -- per-query phase accounting ----------------------------------------


class PhaseRecorder:
    """Contiguous phase timings for one operation (query, batch, ...).

    ``mark(name)`` closes the phase that started at the previous mark
    (or at construction), recording its wall and thread-CPU time.
    Phases therefore tile the recorded interval exactly — the trace's
    child spans sum to the root span up to the tail after the last
    mark, which is what lets benchmarks reconcile span sums against
    end-to-end latency.
    """

    __slots__ = ("t0", "c0", "_last_wall", "_last_cpu", "phases")

    def __init__(self) -> None:
        self.c0 = self._last_cpu = time.thread_time()
        self.t0 = self._last_wall = time.perf_counter()
        self.phases: list[tuple[str, float, float]] = []

    def mark(self, name: str) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        self.phases.append((name, wall - self._last_wall, cpu - self._last_cpu))
        self._last_wall, self._last_cpu = wall, cpu

    def total(self) -> float:
        return time.perf_counter() - self.t0

    def phase_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, wall, _ in self.phases:
            out[name] = out.get(name, 0.0) + wall
        return out


def recorder() -> PhaseRecorder | None:
    """A fresh :class:`PhaseRecorder`, or ``None`` when telemetry is
    fully disabled (the zero-clock fast path)."""
    if _REGISTRY.enabled or trace_enabled():
        return PhaseRecorder()
    return None


def record_phases(
    rec: PhaseRecorder,
    name: str,
    prefix: str,
    attrs: dict[str, Any] | None = None,
) -> None:
    """Fold a finished recorder into the registry and the trace.

    Registry: one ``{prefix}.latency_ms`` observation plus one
    ``{prefix}.phase_ms.{phase}`` observation per phase.  Trace: a root
    event named ``name`` (parented under the innermost live
    ``trace_span``, so e.g. a session span adopts the query breakdown)
    with one child event per phase, named ``{prefix}.{phase}``.
    """
    total_wall = rec.total()
    total_cpu = time.thread_time() - rec.c0
    if _REGISTRY.enabled:
        _REGISTRY.observe(f"{prefix}.latency_ms", total_wall * 1e3)
        for phase, wall, _cpu in rec.phases:
            _REGISTRY.observe(f"{prefix}.phase_ms.{phase}", wall * 1e3)
    if trace_enabled():
        epoch = trace_epoch()
        root_id = next_span_id()
        emit_event(
            span_event(
                name,
                span_id=root_id,
                parent_id=current_span_id(),
                start_s=rec.t0 - epoch,
                wall_ms=total_wall * 1e3,
                cpu_ms=total_cpu * 1e3,
                attrs=dict(attrs or {}),
            )
        )
        start = rec.t0
        for phase, wall, cpu in rec.phases:
            emit_event(
                span_event(
                    f"{prefix}.{phase}",
                    span_id=next_span_id(),
                    parent_id=root_id,
                    start_s=start - epoch,
                    wall_ms=wall * 1e3,
                    cpu_ms=cpu * 1e3,
                    attrs={},
                )
            )
            start += wall


def runtime_snapshot() -> dict[str, Any]:
    """The registry snapshot with live runtime gauges refreshed.

    Re-exports the process-wide WMH :class:`~repro.core.wmh.MinimaCache`
    state (hits, misses, evictions, entries, bytes) as ``wmh_cache.*``
    gauges before snapshotting, so one call yields the full live
    picture.  With metrics disabled the snapshot is empty by design.
    """
    try:
        from repro.core.wmh import shared_minima_cache
    except ImportError:  # pragma: no cover - partial installs
        pass
    else:
        for key, value in shared_minima_cache().stats().items():
            _REGISTRY.set_gauge(f"wmh_cache.{key}", value)
    return _REGISTRY.snapshot()
