"""Compare two sets of benchmark runs, or summarize one.

Usage::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... [-- B1.json ...] [--json OUT]

Each file is a result saved by ``run.py --out``.  Runs are grouped by
workload and trace mode.  For every metric of every group this prints
each side's median and quartiles.  With two sides it pairs the runs by
seed, refuses to compare a group whose two sides ran different seeds,
and gives each end-to-end metric a verdict against its bound in
``BENCHMARK.json``:

* ``within bound`` -- B is no worse than A by more than the bound;
* ``regression`` -- it is worse by more than the bound;
* ``unresolved`` -- the pairs disagree by more than the bound, and not
  every B run reads better than its A run.

How much worse B is, is the median over seeds of B's value against A's
on the same seed, so the seeds' different inputs cancel; the pairs
disagree by the distance between the quartiles of those ratios, as a
share of their median.  ``recall_at_10`` depends only on the seed's
inputs, so it has no bound here: a drop on any seed is a regression.

Exits 1 when any verdict is not ``within bound`` and 2 when the seeds
differ.  ``--json OUT`` writes side A's summary (how ``baseline.json``
is made).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Metrics that repeat exactly for a seed, whatever the machine's speed.
EXACT = {"recall_at_10"}


def load_runs(paths: list[Path]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(runs: list[dict]) -> dict[str, dict]:
    values: dict[str, list[float]] = defaultdict(list)
    units = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values[name].append(metric["value"])
            units[name] = metric["unit"]
    out = {}
    for name, vals in values.items():
        q1, median, q3 = quartiles(vals)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": spread(vals),
            "unit": units[name],
            "values": vals,
        }
    return out


def by_seed(runs: list[dict], name: str) -> dict[int, float]:
    """Each seed's value of metric ``name``: the median of its runs."""
    values: dict[int, list[float]] = defaultdict(list)
    for run in runs:
        values[run["seed"]].append(run["result"]["metrics"][name]["value"])
    return {seed: statistics.median(vals) for seed, vals in values.items()}


def verdict(
    name: str, a: dict[int, float], b: dict[int, float], better: str, bound: float
) -> tuple[str, float, float]:
    """The verdict for one metric, how much worse B is than A (a share
    of A), and how much the pairs disagree."""
    sign = 1.0 if better == "lower" else -1.0
    # Per seed: B's worsening as a share of A (negative when B is better).
    worse = [sign * (b[s] - a[s]) / abs(a[s]) if a[s] else 0.0 for s in sorted(a)]
    change = statistics.median(worse)
    if name in EXACT:
        return ("regression" if max(worse) > 0 else "within bound"), change, 0.0
    disagree = spread([b[s] / a[s] for s in sorted(a) if a[s]] or [1.0])
    if disagree > bound and not all(w < 0 for w in worse):
        return "unresolved", change, disagree
    return ("regression" if change > bound else "within bound"), change, disagree


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument("--json", type=Path, help="write side A's summary here")
    args = parser.parse_args(argv[:split])
    side_b = [Path(p) for p in argv[split + 1 :]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}

    groups_a = load_runs(args.runs)
    groups_b = load_runs(side_b) if side_b else {}
    summary = {}
    failures = 0
    for key in sorted(groups_a):
        workload, trace = key
        runs_a = groups_a[key]
        sum_a = summarize(runs_a)
        seeds = sorted({r["seed"] for r in runs_a})
        summary[f"{workload}/trace{trace}"] = {
            "runs": len(runs_a),
            "seeds": [r["seed"] for r in runs_a],
            "env": runs_a[0]["env"],
            "metrics": sum_a,
        }
        runs_b = groups_b.get(key, [])
        if side_b and sorted({r["seed"] for r in runs_b}) != seeds:
            print(f"compare.py: {workload} (trace {trace}) ran seeds {seeds} on side A "
                  f"and {sorted({r['seed'] for r in runs_b})} on side B", file=sys.stderr)
            return 2
        sum_b = summarize(runs_b) if runs_b else None
        print(f"== {workload} (trace {trace}): {len(runs_a)} run(s)"
              + (f" vs {len(runs_b)}, paired by seed" if sum_b else "") + f", seeds {seeds}")
        for name, a in sum_a.items():
            line = f"  {name:32s} {a['median']:12.5g} [{a['q1']:.5g}, {a['q3']:.5g}] {a['unit']}"
            line += f"  spread {a['spread']:.3f}"
            if sum_b and name in sum_b:
                b = sum_b[name]
                line += f" | {b['median']:12.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                line += f" spread {b['spread']:.3f}"
                if name in bounds:
                    better, bound = bounds[name]
                    word, change, disagree = verdict(
                        name, by_seed(runs_a, name), by_seed(runs_b, name), better, bound
                    )
                    limit = 0 if name in EXACT else bound
                    line += (f" | worse by {change:+.3f}, pairs disagree by {disagree:.3f}"
                             f" (bound {limit}) {word}")
                    failures += word != "within bound"
            print(line)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
