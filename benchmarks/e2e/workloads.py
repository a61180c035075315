"""The four workloads, their correctness gate and their metrics.

``ingest_bulk`` times ``append_sources`` of the whole lake's CSVs into a
fresh store, round after round.  The three query workloads build the
same lake (untimed), serve it from a ``server.py`` child process and
drive it with closed-loop ``ServeClient`` threads from this process;
in ``query_mixed`` a ``writer.py`` child process appends beside them.

Every workload returns an :class:`Outcome`: the end-to-end metrics of
an untraced run, or the per-layer metrics of a traced one (see
``README.md`` for what each metric means and which end-to-end metric
it should move).
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import inputs
import numpy as np
from spans import Spans

from repro import obs
from repro.core.wmh import shared_minima_cache
from repro.experiments.runner import method_registry
from repro.parallel import chunk_matrix
from repro.serve import ServeClient
from repro.store import LakeStore, QuerySession
from repro.store.csvio import csv_source, load_csv_table

HERE = Path(__file__).resolve().parent
#: Load threads (and so connections) per query workload: the box has 2
#: cores, shared by the server, the clients and (query_mixed) the writer.
CLIENTS = {"query_hot": 2, "query_fresh": 2, "query_mixed": 1}
STAGES = ("parse", "vectorize", "sketch", "write")
SERVER_TIMEOUT_S = 60.0
#: The query workloads' tail.  A run serves about 1000 requests or more,
#: so p98 has about 20 beyond it; p99 rests on about 10 and swung by up
#: to a quarter between runs of query_fresh.  p98 still falls among the
#: requests that re-sketch the hot set after a commit in query_mixed.
TAIL_PERCENTILE = 98
#: The untraced window is timed in this many equal segments, and the
#: tail is the median of their p98s: a burst of hypervisor steal in one
#: segment (1.2 s of it took one query_fresh run's p98 from 32 to 54 ms)
#: then leaves the tail as it was.
TAIL_SEGMENTS = 3
APPEND_LAYERS = tuple(f"append.stage_s.{s}" for s in STAGES) + ("append.commit_s", "append.p50_ms")
INGEST_LAYERS = tuple(f"ingest.stage_s.{s}" for s in STAGES) + (
    "ingest.commit_s",
    "ingest.chunks",
    "ingest.peak_chunk_bytes",
    "ingest.rss_per_chunk_byte",
)


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale_name: str
    work: Path  # scratch directory, removed by the caller
    trace_dir: Path
    src: Path  # the program's sources, for the server's PYTHONPATH

    @property
    def scale(self) -> inputs.Scale:
        return inputs.SCALES[self.scale_name]


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float]
    problems: list[str] = field(default_factory=list)  # empty when correct
    info: dict[str, Any] = field(default_factory=dict)


def run(spec: Run) -> Outcome:
    if spec.workload == "ingest_bulk":
        return run_ingest(spec)
    return run_query(spec)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def sketcher(spec: Run):
    """The CLI's default sketcher for a new store."""
    return method_registry()["WMH"].build(inputs.SKETCH_STORAGE, spec.seed)


def _norm(value: Any) -> Any:
    return "nan" if isinstance(value, float) and math.isnan(value) else value


def served_key(hits: list[dict[str, Any]]) -> list[tuple]:
    """Served hits as comparable tuples (NaN compares equal to NaN)."""
    fields = ("table", "column", "score", "correlation", "join_size", "containment")
    return [tuple(_norm(hit[f]) for f in fields) for hit in hits]


def direct_key(hits: list[Any]) -> list[tuple]:
    fields = ("table_name", "column", "score", "correlation", "join_size", "containment")
    return [tuple(_norm(getattr(hit, f)) for f in fields) for hit in hits]


def steal_s() -> float:
    """CPU time the hypervisor has given other guests (Linux ``/proc/stat``),
    which slows every timing of the run; 0 where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def mean_recall(
    answers: dict[str, list[tuple[str, str]]], queries: list, lake: list
) -> float:
    return _mean(
        [inputs.recall(answers[q.name], inputs.exact_top(q, lake)) for q in queries]
    )


def kernel_probe(spec: Run, paths: list[Path], spans: Spans) -> float:
    """Microseconds per input nonzero of the WMH batch kernel on
    ``sketch_tables`` lake tables, starting from a cold minima cache."""
    tables = []
    for path in paths[: spec.scale.sketch_tables]:
        with spans.span("load_csv_table", file=path.name):
            tables.append(load_csv_table(path))
    with spans.span("chunk_matrix", tables=len(tables)):
        matrix = chunk_matrix(tables)
    shared_minima_cache().clear()
    started = time.perf_counter()
    with spans.span("sketch_batch", nnz=int(matrix.nnz)):
        sketcher(spec).sketch_batch(matrix)
    return (time.perf_counter() - started) * 1e6 / max(int(matrix.nnz), 1)


def replay(store_path: Path, tables: list, spans: Spans, opens: int) -> dict[str, float]:
    """Replay requests in-process through the public layers, one span
    per call, and summarize the spans."""
    for _ in range(opens):
        with spans.span("LakeStore.open"):
            LakeStore.open(store_path).close()
    seen: set[str] = set()
    with LakeStore.open(store_path) as store:
        session = QuerySession(store)
        engine = session.engine
        for table in tables:
            with spans.span("replay.request", table=table.name):
                with spans.span("QuerySession.sketch", miss=table.name not in seen):
                    sketch = session.sketch(table)
                seen.add(table.name)
                with spans.span("DatasetSearch.joinable"):
                    engine.joinable(sketch)
                with spans.span("DatasetSearch.search"):
                    engine.search(sketch, inputs.QUERY_COLUMN, top_k=inputs.TOP_K)
    return {
        "store.open_ms": _median(spans.walls("LakeStore.open")),
        "session.sketch_ms": _mean(spans.walls("QuerySession.sketch", miss=True)),
        "datasearch.joinable_ms": _mean(spans.walls("DatasetSearch.joinable")),
        "datasearch.search_ms": _mean(spans.walls("DatasetSearch.search")),
    }


def registry_delta(before: dict, after: dict) -> dict[str, dict[str, float]]:
    """Counters and histogram (count, sum) accumulated between two
    registry snapshots, plus the gauges as they stand ``after``."""
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    hists = {}
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        hists[name] = (hist["count"] - old["count"], hist["sum"] - old["sum"])
    gauges = {
        name: value - before["gauges"].get(name, 0) if name in _GAUGE_COUNTERS else value
        for name, value in after["gauges"].items()
    }
    return {"counters": counters, "histograms": hists, "gauges": gauges}


#: Gauges that mirror monotonic counters, so their deltas are the work.
_GAUGE_COUNTERS = {"wmh_cache.hits", "wmh_cache.misses", "wmh_cache.evictions"}


def registry_layers(delta: dict) -> dict[str, float]:
    """The per-layer metrics read from the program's metrics registry."""
    counters, hists, gauges = delta["counters"], delta["histograms"], delta["gauges"]

    def mean(name: str) -> float:
        count, total = hists.get(name, (0, 0.0))
        return _ratio(total, count)

    def total(name: str) -> float:
        return hists.get(name, (0, 0.0))[1]

    # Batched searches record per-batch phases; fold them in per query.
    queries = hists.get("query.latency_ms", (0, 0.0))[0] + counters.get(
        "query.batch.queries", 0
    )
    phases = {}
    for prefix in ("query.phase_ms.", "query.batch.phase_ms."):
        for name in hists:
            if name.startswith(prefix):
                phase = name[len(prefix):].split(".")[0]
                phases[phase] = phases.get(phase, 0.0) + total(name)
    hits = counters.get("session.sketch_cache.hits", 0)
    misses = counters.get("session.sketch_cache.misses", 0)
    wmh_hits = gauges.get("wmh_cache.hits", 0)
    wmh_misses = gauges.get("wmh_cache.misses", 0)
    failures = sum(
        value
        for name, value in counters.items()
        if name.startswith(("serve.shed.", "serve.timeouts.")) or name == "serve.errors"
    )
    layers = {
        "serve.handler_ms": mean("serve.latency_ms"),
        "serve.queue_wait_ms": mean("serve.queue_wait_ms"),
        "serve.batch_size": mean("serve.batch_size"),
        "serve.failures": float(failures),
        "serve.snapshot_swaps": float(counters.get("serve.snapshot_swaps", 0)),
        "session.sketch_hit_ratio": _ratio(hits, hits + misses),
        "search.latency_ms": _ratio(
            total("query.latency_ms") + total("query.batch.latency_ms"), queries
        ),
        "search.joinable_tables": mean("query.joinable_tables"),
        "search.pruning_selectivity_pct": mean("query.pruning_selectivity_pct"),
        "wmh.cache_hit_ratio": _ratio(wmh_hits, wmh_hits + wmh_misses),
        "wmh.cache_evictions": float(gauges.get("wmh_cache.evictions", 0)),
        "wmh.cache_mb": gauges.get("wmh_cache.bytes", 0) / 2**20,
    }
    for phase in ("pack", "candidates", "joinability", "gather", "estimate", "score"):
        layers[f"search.{phase}_ms"] = _ratio(phases.get(phase, 0.0), queries)
    return layers


def stage_layers(
    prefix: str, stage_seconds: list[dict[str, float]], walls_s: list[float]
) -> dict[str, float]:
    """Per-stage seconds of streamed appends (median over the appends'
    ``IngestReport.stage_seconds``) and the rest of each call: manifest,
    LSH index, fsyncs."""
    layers = {
        f"{prefix}.stage_s.{stage}": _median([s[stage] for s in stage_seconds])
        for stage in STAGES
    }
    commits = [wall - sum(s.values()) for s, wall in zip(stage_seconds, walls_s)]
    layers[f"{prefix}.commit_s"] = _median(commits)
    return layers


# ----------------------------------------------------------------------
# ingest_bulk
# ----------------------------------------------------------------------


def _plan(spec: Run, paths: list[Path], store_dir: Path, spans: Spans) -> tuple:
    """What ``python -m repro.store ingest`` does before streaming: create
    the store and read every CSV's header."""
    with spans.span("LakeStore.create"):
        store = LakeStore.create(store_dir, sketcher(spec))
    sources = []
    for path in paths:
        with spans.span("csv_source", file=path.name):
            sources.append(csv_source(path))
    return store, sources


def _setup_s(spec: Run, paths: list[Path]) -> float:
    """Median time of ``probes`` plans, ``probe_gap_s`` apart, each
    into a new store."""
    times = []
    store_dir = spec.work / "setup"
    for _ in range(spec.scale.probes):
        time.sleep(spec.scale.probe_gap_s)
        started = time.perf_counter()
        store, _ = _plan(spec, paths, store_dir, Spans())
        times.append(time.perf_counter() - started)
        store.close()
        shutil.rmtree(store_dir)
    return _median(times)


@dataclass
class _Round:
    append_s: float
    report: Any
    generation: str | None
    file_bytes: int
    traced: bool
    cache: dict[str, float]


def _ingest_round(
    spec: Run, paths: list[Path], store_dir: Path, traced: bool, spans: Spans
) -> _Round:
    cache = shared_minima_cache()
    cache.clear()
    before = cache.stats()
    spans.enabled = traced
    program = spec.trace_dir / "ingest_bulk.program.jsonl"
    with obs.tracing(program) if traced else nullcontext():
        store, sources = _plan(spec, paths, store_dir, spans)
        planned = time.perf_counter()
        with spans.span("append_sources", tables=len(sources)):
            _, report = store.append_sources(sources)
        done = time.perf_counter()
    spans.enabled = False
    after = cache.stats()
    with store:
        file_bytes = store.stats()["file_bytes"]
        generation = store.generation
    return _Round(
        append_s=done - planned,
        report=report,
        generation=generation,
        file_bytes=file_bytes,
        traced=traced,
        cache={k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
        | {"bytes": after["bytes"]},
    )


def run_ingest(spec: Run) -> Outcome:
    data = inputs.Inputs(spec.seed, spec.scale)
    lake = data.lake()
    paths = inputs.write_csvs(lake, spec.work / "csv")
    spans = Spans()
    if spec.trace:
        (spec.trace_dir / "ingest_bulk.program.jsonl").unlink(missing_ok=True)
    setup_s = _setup_s(spec, paths)
    rounds: list[_Round] = []
    steal = steal_s()
    deadline = time.perf_counter() + spec.seconds
    # A traced run alternates untraced and traced rounds, so it needs two.
    while len(rounds) < (2 if spec.trace else 1) or time.perf_counter() < deadline:
        store_dir = spec.work / f"store{len(rounds)}"
        traced = spec.trace and len(rounds) % 2 == 1
        rounds.append(_ingest_round(spec, paths, store_dir, traced, spans))
        if rounds[-1] is not rounds[0]:
            shutil.rmtree(store_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steal = round(steal_s() - steal, 2)

    problems = []
    if len({r.generation for r in rounds}) != 1:
        problems.append("ingest rounds of the same CSVs committed different manifests")
    queries = data.hot_set() + data.check_set()
    with LakeStore.open(spec.work / "store0") as store:
        session = QuerySession(store)
        answers = {
            q.name: [(h.table_name, h.column) for h in session.search(q, inputs.QUERY_COLUMN)]
            for q in queries
        }
    recall = mean_recall(answers, queries, lake)
    if recall < spec.scale.recall_floor:
        problems.append(f"recall@10 {recall:.3f} is below {spec.scale.recall_floor}")

    appends = [r.append_s for r in rounds]
    outcome = Outcome(
        attempted=len(rounds),
        failed=0,
        metrics={},
        problems=problems,
        info={"rounds": len(rounds), "tables": len(paths), "steal_s": steal},
    )
    if not spec.trace:
        outcome.metrics = {
            "op_p50_ms": _median(appends) * 1e3,
            "op_tail_ms": max(appends) * 1e3,
            "throughput_per_s": len(paths) / _median(appends),
            "recall_at_10": recall,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        return outcome

    # No server runs, so every layer read from its registry reads 0; the
    # wmh.* ones are taken from the rounds below instead.
    layers = registry_layers({"counters": {}, "histograms": {}, "gauges": {}})
    spans.enabled = True
    layers.update(replay(spec.work / "store0", queries, spans, spec.scale.probes))
    layers["wmh.sketch_us_per_nnz"] = kernel_probe(spec, paths, spans)
    spans.enabled = False
    report = rounds[0].report
    layers.update(stage_layers("ingest", [r.report.stage_seconds for r in rounds], appends))
    layers.update(
        {
            "ingest.chunks": float(report.chunks),
            "ingest.peak_chunk_bytes": float(report.peak_chunk_bytes),
            "ingest.rss_per_chunk_byte": peak_rss_mb * 2**20 / max(report.peak_chunk_bytes, 1),
            "store.bytes_per_table": rounds[0].file_bytes / len(paths),
            "wmh.cache_hit_ratio": _median(
                [_ratio(r.cache["hits"], r.cache["hits"] + r.cache["misses"]) for r in rounds]
            ),
            "wmh.cache_evictions": _median([r.cache["evictions"] for r in rounds]),
            "wmh.cache_mb": _median([r.cache["bytes"] for r in rounds]) / 2**20,
            "obs.trace_overhead": _ratio(
                _median([r.append_s for r in rounds if r.traced]),
                _median([r.append_s for r in rounds if not r.traced]),
            ),
        }
    )
    # Layers this workload does not exercise: no client, no writer.
    unused = APPEND_LAYERS + ("serve.wire_ms", "loadgen.cpu_ms_per_request")
    layers.update(dict.fromkeys(unused, 0.0))
    outcome.metrics = layers
    _write_traces(spec, spans, outcome, program="program")
    return outcome


# ----------------------------------------------------------------------
# the query workloads
# ----------------------------------------------------------------------


class Child:
    """A script of this directory run as a child process, spoken to in
    lines over its stdin and stdout.  Closing its stdin asks it to
    finish; :meth:`close` waits until it has ended, and kills it if it
    has not within ``SERVER_TIMEOUT_S``."""

    def __init__(self, spec: Run, script: str, *args: object) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(spec.src), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *map(str, args)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )

    def readline(self) -> str:
        """The child's next line, or "" at end of output or timeout."""
        ready, _, _ = select.select([self.proc.stdout], [], [], SERVER_TIMEOUT_S)
        return self.proc.stdout.readline() if ready else ""

    def answer(self) -> str:
        line = self.readline()
        if not line:
            raise RuntimeError(
                f"{Path(self.proc.args[1]).name} did not answer (exit code {self.proc.poll()})"
            )
        return line

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def end_input(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass

    def close(self) -> None:
        self.end_input()
        try:
            self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class ServerProcess(Child):
    """``server.py``: the query server, stopped on exit."""

    def __init__(self, spec: Run, store_path: Path) -> None:
        super().__init__(spec, "server.py", store_path, spec.seed, spec.scale_name)
        try:
            ready = json.loads(self.answer())
        except BaseException:
            self.close()
            raise
        self.url: str = ready["url"]
        self.setup_s: list[float] = ready["setup_s"]

    def command(self, text: str) -> None:
        self.send(text)
        if self.answer().strip() != "ok":
            raise RuntimeError(f"query server refused {text!r}")

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server process's peak resident set."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class _Request:
    segment: int  # index of the window segment it was sent in
    traced: bool
    table: Any
    latency_ms: float
    ok: bool
    generation: str | None = None
    hits: list | None = None
    error: str = ""


class Load:
    """Closed-loop clients: each sends its next request when the last
    one is answered.  The window is split into segments, traced or
    not, and clients pause between segments while tracing toggles."""

    def __init__(self, url: str, clients: int, next_table, spans: Spans, keep) -> None:
        self.url = url
        self.clients = clients
        self.next_table = next_table  # (client, j) -> Table
        self.keep = keep  # Table -> whether to keep the response's hits
        self.spans = spans
        self.requests: list[_Request] = []
        self.cpu_s = 0.0
        self._lock = threading.Lock()
        self._barrier = threading.Barrier(clients + 1)
        self._deadline = 0.0
        self._traced = False
        self._segment = 0
        self._segments = 0

    def _client(self, cid: int) -> None:
        client = ServeClient(self.url, max_attempts=1, seed=cid)
        done: list[_Request] = []
        cpu = 0.0
        j = 0
        for _ in range(self._segments):
            self._barrier.wait()
            c0 = time.thread_time()
            while time.perf_counter() < self._deadline:
                done.append(self._send(client, cid, j))
                j += 1
            cpu += time.thread_time() - c0
            self._barrier.wait()
        with self._lock:
            self.requests += done
            self.cpu_s += cpu

    def _send(self, client: ServeClient, cid: int, j: int) -> _Request:
        table = self.next_table(cid, j)
        request_id = f"c{cid}-{j}"
        with self.spans.span("client.request", request_id=request_id, table=table.name) as attrs:
            started = time.perf_counter()
            try:
                response = client.query(table, inputs.QUERY_COLUMN, request_id=request_id)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                attrs["error"] = type(exc).__name__
                error = f"{type(exc).__name__}: {exc}"
                return _Request(self._segment, self._traced, table, 0.0, False, error=error)
            latency_ms = (time.perf_counter() - started) * 1e3
        return _Request(
            self._segment,
            self._traced,
            table,
            latency_ms,
            True,
            response["generation"],
            response["hits"] if self.keep(table) else None,
        )

    def run(self, segments: list[tuple[float, bool]], toggle) -> list[float]:
        """Run each ``(seconds, traced)`` segment; returns their walls.

        The load generator's own garbage collector is paused meanwhile,
        so its pauses do not land in the latencies it measures.
        """
        self._segments = len(segments)
        threads = [
            # Daemons, so an interrupted window cannot hold the exit.
            threading.Thread(target=self._client, args=(cid,), name=f"load-{cid}", daemon=True)
            for cid in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        walls = []
        gc.collect()
        gc.disable()
        for segment, (seconds, traced) in enumerate(segments):
            toggle(traced)
            self._segment = segment
            self._traced = traced
            self._deadline = time.perf_counter() + seconds
            started = time.perf_counter()
            self._barrier.wait()
            self._barrier.wait()
            walls.append(time.perf_counter() - started)
        for thread in threads:
            thread.join()
        gc.enable()
        return walls


class Writer(Child):
    """``writer.py``: query_mixed's writer process.  :meth:`go` starts
    its schedule; :meth:`close` stops it, collects every commit and
    waits until it has ended."""

    def __init__(
        self, spec: Run, store_path: Path, batches: list[list[Path]], interval_s: float
    ) -> None:
        super().__init__(spec, "writer.py", store_path)
        self.plan = {"interval_s": interval_s, "batches": [[str(p) for p in b] for b in batches]}
        self.commits: list[tuple[float, dict[str, float], str]] = []
        self.error = ""
        try:
            self.generation: str | None = json.loads(self.answer())["ready"]
        except BaseException:
            self.close()
            raise

    def go(self) -> None:
        self.send(json.dumps(self.plan))

    def close(self) -> None:
        self.end_input()
        if self.proc.stdout and not self.proc.stdout.closed:
            while line := self.readline():
                record = json.loads(line)
                if "commit" in record:
                    self.commits.append(tuple(record["commit"]))
                    self.generation = record["commit"][2]
                else:
                    self.error = record["error"]
        super().close()
        if self.proc.returncode and not self.error:
            self.error = f"exit code {self.proc.returncode}"


def _write_traces(spec: Run, spans: Spans, outcome: Outcome, program: str) -> None:
    """Write the bench spans, validate both trace files, and report
    each span name's total self time."""
    outcome.info["self_ms"] = {name: round(ms, 3) for name, ms in spans.self_ms().items()}
    bench = spec.trace_dir / f"{spec.workload}.bench.jsonl"
    spans.write(bench)
    for path in (bench, spec.trace_dir / f"{spec.workload}.{program}.jsonl"):
        try:
            obs.validate_trace(obs.read_trace(path))
        except (OSError, ValueError) as exc:
            outcome.problems.append(f"trace {path.name} is invalid: {exc}")


def _check_served(served: dict, direct: dict, what: str) -> list[str]:
    return [
        f"{what}: served hits for {name} differ from a direct QuerySession.search"
        for name in served
        if served_key(served[name]) != direct_key(direct[name])
    ]


def _direct(store_path: Path, tables: list) -> dict[str, list]:
    with LakeStore.open(store_path) as store:
        session = QuerySession(store)
        return {t.name: session.search(t, inputs.QUERY_COLUMN) for t in tables}


def run_query(spec: Run) -> Outcome:
    scale = spec.scale
    data = inputs.Inputs(spec.seed, scale)
    lake = data.lake()
    store_path = spec.work / "lake"
    paths = inputs.write_csvs(lake, spec.work / "csv")
    with LakeStore.create(store_path, sketcher(spec)) as store:
        store.append_sources([csv_source(p) for p in paths])
    mixed = spec.workload == "query_mixed"
    batches = []
    if mixed:
        count = math.ceil(spec.seconds / scale.batch_interval_s) + 1
        batches = [inputs.write_csvs(data.batch(b), spec.work / f"batch{b}") for b in range(count)]
    hot = data.hot_set()
    check = data.check_set()
    clients = CLIENTS[spec.workload]
    spans = Spans()
    problems: list[str] = []
    writer = None
    try:
        with ServerProcess(spec, store_path) as server:
            client = ServeClient(server.url, max_attempts=1)
            # Warm-up doubles as the correctness gate, before any timing.
            warm = {t.name: client.query(t, inputs.QUERY_COLUMN) for t in hot + check}
            generations = {warm[hot[0].name]["generation"]}
            problems += _check_served(
                {n: r["hits"] for n, r in warm.items()}, _direct(store_path, hot + check), "warm-up"
            )
            recall = mean_recall(
                {n: [(h["table"], h["column"]) for h in r["hits"]] for n, r in warm.items()},
                hot + check,
                lake,
            )
            if recall < scale.recall_floor:
                problems.append(f"recall@10 {recall:.3f} is below {scale.recall_floor}")
            next_table, keep = _stream(spec, data, hot, client)
            trace_path = spec.trace_dir / f"{spec.workload}.server.jsonl"
            if spec.trace:
                trace_path.unlink(missing_ok=True)

            def toggle(on: bool) -> None:
                if on != spans.enabled:
                    server.command(f"trace {trace_path}" if on else "untrace")
                spans.enabled = on

            load = Load(server.url, clients, next_table, spans, keep)
            writer = Writer(spec, store_path, batches, scale.batch_interval_s) if mixed else None
            before = client.stats()["telemetry"]
            steal = steal_s()
            if writer:
                writer.go()
            # A traced run measures the overhead of tracing too: untraced
            # quarters at both ends balance drift over the window (the
            # lake grows in query_mixed, the minima cache in query_fresh).
            # Toggling between segments is safe: no request is in flight.
            quarter = spec.seconds / 4
            if spec.trace:
                segments = [(quarter, False), (2 * quarter, True), (quarter, False)]
            else:
                segments = [(spec.seconds / TAIL_SEGMENTS, False)] * TAIL_SEGMENTS
            walls = load.run(segments, toggle)
            steal = round(steal_s() - steal, 2)
            if writer:
                writer.close()
            after = client.stats()["telemetry"]
            peak_rss_mb = server.peak_rss_mb()

            if writer:
                generations |= {gen for _, _, gen in writer.commits}
                problems += _check_mixed(client, store_path, hot, load, writer, generations)
            checked = [r for r in load.requests if r.hits is not None]
            problems += _check_served(
                {r.table.name: r.hits for r in checked},
                _direct(store_path, [r.table for r in checked]),
                "fresh",
            )
            replayed = {}
            if spec.trace:
                spans.enabled = True
                rng = np.random.default_rng([spec.seed, 99])
                ok = [r.table for r in load.requests if r.ok]
                picks = rng.choice(len(ok), min(scale.replay, len(ok)), replace=False)
                sample = [ok[i] for i in sorted(picks)]
                replayed = replay(store_path, sample, spans, scale.probes)
                replayed["wmh.sketch_us_per_nnz"] = kernel_probe(spec, paths, spans)
                spans.enabled = False
    finally:
        if writer:
            writer.close()

    done = load.requests
    ok = [r for r in done if r.ok]
    failed = len(done) - len(ok)
    if writer:
        failed += bool(writer.error)
        if writer.error:
            problems.append(f"writer failed: {writer.error}")
    errors = sorted({r.error for r in done if not r.ok})
    latencies = [r.latency_ms for r in ok]
    outcome = Outcome(
        attempted=len(done) + (len(writer.commits) + bool(writer.error) if writer else 0),
        failed=failed,
        metrics={},
        problems=problems,
        info={
            "samples": len(latencies),
            "clients": clients,
            "errors": errors[:5],
            "commits": len(writer.commits) if writer else 0,
            "steal_s": steal,
        },
    )
    if not spec.trace:
        outcome.metrics = {
            "op_p50_ms": float(np.percentile(latencies, 50)),
            "op_tail_ms": _median(
                [
                    float(np.percentile([r.latency_ms for r in ok if r.segment == s], TAIL_PERCENTILE))
                    for s in range(len(walls))
                ]
            ),
            "throughput_per_s": len(ok) / sum(walls),
            "recall_at_10": recall,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": _median(server.setup_s),
        }
        return outcome

    layers = registry_layers(registry_delta(before, after))
    layers.update(replayed)
    layers["serve.wire_ms"] = _mean(latencies) - layers["serve.handler_ms"]
    layers["loadgen.cpu_ms_per_request"] = _ratio(load.cpu_s * 1e3, len(done))
    with LakeStore.open(store_path) as final:
        layers["store.bytes_per_table"] = final.stats()["file_bytes"] / len(final)
    commits = writer.commits if writer else []
    layers.update(stage_layers("append", [c[1] for c in commits], [c[0] for c in commits]))
    layers["append.p50_ms"] = _median([c[0] for c in commits]) * 1e3
    # Bulk ingest runs only in ingest_bulk.
    layers.update(dict.fromkeys(INGEST_LAYERS, 0.0))
    traced = [r.latency_ms for r in ok if r.traced]
    untraced = [r.latency_ms for r in ok if not r.traced]
    layers["obs.trace_overhead"] = _ratio(_median(traced), _median(untraced))
    outcome.metrics = layers
    _write_traces(spec, spans, outcome, program="server")
    return outcome


def _stream(spec: Run, data: inputs.Inputs, hot: list, client: ServeClient):
    """Finish the warm-up and return the request stream: ``next_table``
    gives a client's next table, ``keep`` says whether its answer is
    checked after the window."""
    if spec.workload == "query_fresh":
        # Send enough never-seen tables, as the load sends them, that the
        # server's WMH minima cache reaches its cap within the window on
        # any host seen.  Otherwise a slower host ends the window with a
        # smaller cache, and peak RSS follows the host's speed.
        warm = [data.fresh(n) for n in range(spec.scale.fresh_warmup)]
        clients = CLIENTS[spec.workload]

        def send(cid: int) -> None:
            sender = ServeClient(client.base_url, max_attempts=1, seed=cid)
            for table in warm[cid::clients]:
                sender.query(table, inputs.QUERY_COLUMN)

        with ThreadPoolExecutor(clients) as pool:
            for future in [pool.submit(send, cid) for cid in range(clients)]:
                future.result()
        counter = itertools.count(spec.scale.fresh_warmup)

        def next_fresh(cid: int, j: int):
            return data.fresh(next(counter))

        def keep(table) -> bool:
            return int(table.name[len("fresh"):]) % spec.scale.check_every == 0

        return next_fresh, keep
    for _ in range(CLIENTS[spec.workload]):
        for table in hot:
            client.query(table, inputs.QUERY_COLUMN)

    def next_hot(cid: int, j: int):
        return hot[(cid + j) % len(hot)]

    return next_hot, lambda table: False


def _check_mixed(client, store_path, hot, load, writer, generations) -> list[str]:
    """Every answer names a committed generation, and once the server
    serves the final one, the hot set matches a direct session."""
    problems = [
        f"mixed: a response named generation {r.generation}, which was never committed"
        for r in load.requests
        if r.ok and r.generation not in generations
    ][:1]
    final = writer.generation
    deadline = time.monotonic() + SERVER_TIMEOUT_S
    while client.healthz()["generation"] != final:
        if time.monotonic() > deadline:
            return problems + ["mixed: the server never served the final generation"]
        time.sleep(0.05)
    served = {}
    for table in hot:
        response = client.query(table, inputs.QUERY_COLUMN)
        if response["generation"] != final:
            problems.append("mixed: a final-generation answer named another generation")
        served[table.name] = response["hits"]
    return problems + _check_served(served, _direct(store_path, hot), "mixed final")
