"""Repeat run.py over several seeds and summarise the spread of each metric.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workload checkers-deep --runs 10 --trace 0

For each metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the distance
between the quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  ``--baseline FILE`` merges the summary
into a baseline file under the workload and trace setting.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import host  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            summary[name] = {"values": values}
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0,
                         "bound": bounds.get(name), "values": values}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="merge the summary into this baseline file")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = summarise(results, bounds)
    for name, row in summary.items():
        if "median" not in row:
            print(f"{name:36} values {row['values']}")
            continue
        bound = f"{row['bound']:.3f}" if row["bound"] is not None else "-"
        print(f"{name:36} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
              f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f}  bound {bound}")
    if args.baseline:
        path = Path(args.baseline)
        baseline = json.loads(path.read_text(encoding="ascii")) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        baseline.setdefault(args.workload, {})[key] = {
            "runs": len(results), "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "host": host(),
            "metrics": {name: {k: row[k] for k in ("median", "q1", "q3", "spread")}
                        if "median" in row else {"values": row["values"]}
                        for name, row in summary.items()}}
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                        encoding="ascii")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
