"""End-to-end benchmark: CSV ingest and served dataset search.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload query_hot --seed 0 --seconds 15 --trace 0

Generates every input from ``--seed``, runs one workload for
``--seconds`` through the program's public APIs, checks the answers and
prints one ``workload metric value unit`` line per metric, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload traced and reports the per-layer
metrics, writing the span files to ``.e2e_work/trace/``.  ``--out FILE``
also saves the result with its run settings for ``compare.py``.

Exits 1 when a correctness check fails and 2 when the program's sources
are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="also write the result here as JSON")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # End-to-end numbers are taken untraced with the metrics registry at
    # its production default, whatever the caller's environment says.
    for knob in ("REPRO_TRACE", "REPRO_OBS"):
        os.environ.pop(knob, None)
    # SIGTERM unwinds like Ctrl-C, so the child processes are stopped
    # and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    trace = bool(args.trace)
    # Name -> unit of every metric this mode must report.
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    work_root = ROOT / ".e2e_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    trace_dir = work_root / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    spec = workloads.Run(
        args.workload, args.seed, args.seconds, trace, args.scale, work, trace_dir, SRC
    )
    try:
        outcome = workloads.run(spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: float(value) for name, value in outcome.metrics.items()}
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        raise SystemExit(
            f"run.py: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
        )
    for problem in outcome.problems:
        print(f"correctness: {problem}", file=sys.stderr)
    for name, value in outcome.info.items():
        print(f"{args.workload} info.{name} {value}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "env": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
            "info": outcome.info,
            "result": result,
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
