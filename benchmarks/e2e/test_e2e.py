"""Smoke test of the end-to-end benchmark at ``--scale smoke``.

Run with ``pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import compare
import inputs
import pytest

from repro import obs
from repro.serve.client import table_payload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench_args(workload: str, trace: int, cwd: Path = ROOT) -> list[str]:
    return [sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        bench_args(workload, trace, cwd), cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
        if not trace:
            assert emitted["value"] > 0, metric["name"]
    if trace:
        trace_dir = ROOT / ".e2e_work" / "trace"
        program = "program" if workload == "ingest_bulk" else "server"
        for kind in ("bench", program):
            events = obs.read_trace(trace_dir / f"{workload}.{kind}.jsonl")
            obs.validate_trace(events)
            assert events


def _session_members(sid: int) -> list[str]:
    """Processes of session ``sid`` still in the process table, zombies too."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(stat.parent.name)
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads Linux /proc")
def test_no_process_outlives_a_run():
    # query_mixed starts the most: the server and the writer.  A session
    # of its own marks every process the run starts, whoever reaps it.
    proc = subprocess.Popen(
        bench_args("query_mixed", 0),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    assert _session_members(proc.pid) == []


def _stream(seed: int, tmp: Path) -> tuple[list[bytes], list[str]]:
    data = inputs.Inputs(seed, inputs.SCALES["smoke"])
    paths = inputs.write_csvs(data.lake() + data.batch(0), tmp / f"seed{seed}")
    queries = data.hot_set() + data.check_set() + [data.fresh(n) for n in range(20)]
    return [p.read_bytes() for p in paths], [json.dumps(table_payload(q)) for q in queries]


def test_inputs_are_a_function_of_the_seed(tmp_path):
    first = _stream(0, tmp_path / "a")
    assert first == _stream(0, tmp_path / "b")
    other = _stream(1, tmp_path / "c")
    assert first[0] != other[0] and first[1] != other[1]


def _runs(tmp: Path, side: str, values: dict[int, tuple[float, float]]) -> list[str]:
    """Save one run file per seed with the given (op_p50_ms, recall_at_10)."""
    paths = []
    for seed, (p50, recall) in values.items():
        metrics = {"op_p50_ms": {"value": p50, "unit": "ms"},
                   "recall_at_10": {"value": recall, "unit": "ratio"}}
        record = {"workload": "query_hot", "seed": seed, "trace": 0, "env": {},
                  "result": {"metrics": metrics}}
        path = tmp / f"{side}{seed}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return paths


def test_compare_pairs_runs_by_seed(tmp_path):
    # The seeds' inputs differ tenfold, far beyond any bound; paired by
    # seed, B is uniformly 5% slower, which is within bound.
    a = _runs(tmp_path, "a", {0: (1.0, 0.8), 1: (10.0, 0.7), 2: (100.0, 0.9)})
    b = _runs(tmp_path, "b", {0: (1.05, 0.8), 1: (10.5, 0.7), 2: (105.0, 0.9)})
    assert compare.main([*a, "--", *b]) == 0
    # Recall repeats exactly per seed: a drop on one seed is a regression.
    worse = _runs(tmp_path, "w", {0: (1.0, 0.8), 1: (10.0, 0.69), 2: (100.0, 0.9)})
    assert compare.main([*a, "--", *worse]) == 1
    # Different seeds on the two sides cannot be paired.
    other = _runs(tmp_path, "o", {0: (1.0, 0.8), 1: (10.0, 0.7), 3: (100.0, 0.9)})
    assert compare.main([*a, "--", *other]) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("query_hot", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
