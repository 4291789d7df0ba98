"""solred benchmark: timed or traced passes over one corpus workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct-valid --seed 1 --seconds 10 --trace 0

A pass is one fresh interpreter (``child.py``) that calls
``solred.cli.main`` once per item of the workload, the way one
``solred`` command over several files would.  The seed shuffles the item
order within each pass and changes nothing else.  Every item's exit code,
standard output and payload must match ``goldens.json``; the last line of
standard output is one JSON object with the verdict and the metrics.

``--trace 0`` measures set-up (several fresh interpreters importing
``solred.cli`` and loading the workload's scenarios) and then whole
passes until ``--seconds`` have gone by, at least one, and reports the
median of each end-to-end metric over the passes.  ``--trace 1`` runs one
untraced pass and then the same order under the tracer, both calibrated,
and reports the per-layer metrics listed in ``BENCHMARK.json``, including
the tracing overhead: the traced minus the untraced scaled ``wall_s``.  ``--capture-goldens`` rewrites ``goldens.json``
from the program as it is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import CAL_REF_S  # noqa: E402
from layers import METRICS, TraceView  # noqa: E402
from tracer import LEAVES, SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SOURCE = ROOT / "src" / "solred"
GOLDENS = HERE / "goldens.json"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 4     # fresh interpreters timed for setup_s before and again after the passes
RUN_LIMIT_S = 170.0   # a run never starts a pass it could not finish by then


class BenchError(Exception):
    """The benchmark could not produce a result."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


class Runner:
    """Spawns child processes for one run and keeps their scratch files."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.scratch = STATE / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def __enter__(self) -> Runner:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def child(self, *args: str) -> tuple[dict, float, os.struct_rusage]:
        """Run child.py to completion: its result, wall seconds and rusage."""
        result = self.scratch / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload,
               "--result", str(result), *args]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
        with open(result, encoding="ascii") as fh:
            data = json.load(fh)
        result.unlink()
        return data, wall, usage

    def setup_sample(self) -> float:
        """Set-up time of one fresh interpreter, in reference-host seconds."""
        data = self.child()[0]
        return data["setup_s"] * scale(data)

    def run_pass(self, order: list[str], spans: Path | None = None,
                 calibrated: bool = False) -> dict:
        """One pass, traced when spans names a file.  A calibrated pass also
        gets its times scaled to the reference host: the pass as a whole by
        its mean calibration speed, each item by the calibration chunks on
        either side of it.  Unscaled times have a raw_ prefix."""
        args = ["--scratch", str(self.scratch), "--order", ",".join(order)]
        if spans is not None:
            args += ["--trace", "--spans", str(spans)]
        if calibrated:
            args.append("--calibrate")
        data, wall, usage = self.child(*args)
        rows = data["items"]
        cpu = usage.ru_utime + usage.ru_stime
        data.update(raw_wall_s=wall, raw_cpu_s=cpu, peak_rss_mb=usage.ru_maxrss / 1024)
        if not calibrated:
            return data
        cal = {key: data["first_cal"][key] + sum(row[key] for row in rows)
               for key in ("cal_reps", "cal_s", "cal_cpu_s")}
        seconds = [row["seconds"] * scale(row["around"]) for row in rows]
        data.update(wall_s=(wall - cal["cal_s"]) * scale(cal),
                    cpu_s=(cpu - cal["cal_cpu_s"]) * scale(cal),
                    verdict_p50_s=statistics.median(seconds),
                    verdict_max_s=max(seconds))
        return data


def scale(cal: dict) -> float:
    """Reference-host seconds per second measured while the kernel ran this fast."""
    return CAL_REF_S * cal["cal_reps"] / cal["cal_s"]


def mismatches(items: list[dict], goldens: dict) -> list[str]:
    """Ids of items whose exit code, stdout or payload differ, or that raised."""
    bad = []
    for row in items:
        want = goldens["items"][row["id"]]
        if row["error"] is not None or any(row[key] != want[key] for key in want):
            bad.append(row["id"])
    return bad


def timed_run(runner: Runner, ids: list[str], rng: random.Random,
              seconds: float) -> tuple[list[dict], dict]:
    runner.setup_sample()  # untimed: compiles bytecode and warms the file cache
    setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        last = passes[-1]["raw_wall_s"] if passes else 0.0
        if passes and perf_counter() + last > runner.deadline:
            break
        passes.append(runner.run_pass(rng.sample(ids, len(ids)), calibrated=True))
    setups += [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "cpu_s", "verdict_p50_s", "verdict_max_s",
                            "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    print(f"# passes {len(passes)}, items per pass {len(ids)}, "
          f"setup samples {len(setups)}")
    return passes, metrics


def trace_counts(summary: dict) -> dict:
    """The deterministic part of a trace summary: every count, no times."""
    return {"spans": {n: [r["count"], r["hits"]] for n, r in sorted(summary["spans"].items())},
            "span_calls": summary["span_calls"], "leaf_calls": summary["leaf_calls"],
            "leaf_bits": summary["leaf_bits"]}


def check_repeat(workload: str, counts: dict) -> str:
    """Compare with the previous traced run of this workload on the same source.

    The state file is keyed by the source digest, so runs that alternate
    between two sources each compare with their own previous run."""
    path = STATE / f"counts-{workload}-{source_digest()[:16]}.json"
    verdict = "first traced run of this source in this checkout"
    if path.exists():
        previous = json.loads(path.read_text(encoding="ascii"))
        verdict = "same" if previous == counts else "DIFFERENT"
    path.write_text(json.dumps(counts), encoding="ascii")
    return verdict


def traced_run(runner: Runner, ids: list[str], rng: random.Random,
               goldens: dict) -> tuple[list[dict], dict, bool]:
    runner.setup_sample()  # untimed warm-up, as in a timed run
    order = rng.sample(ids, len(ids))
    plain = runner.run_pass(order, calibrated=True)
    traced = runner.run_pass(order, spans=STATE / f"spans-{runner.workload}.tsv",
                             calibrated=True)
    view = TraceView(traced["trace"], traced["items"])
    recorded = view.recorded()
    missing = sorted(set(goldens["boundaries"]) - recorded)
    metrics = {}
    for name, (read, needs) in METRICS.items():
        metrics[name] = None if set(needs) & set(missing) else read(view)
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    repeat = check_repeat(runner.workload, trace_counts(traced["trace"]))
    print(f"# traced wall_s {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
          f"spans {sum(r['count'] for r in traced['trace']['spans'].values())}")
    print(f"# counts versus the previous traced run: {repeat}")
    if missing:
        print(f"# MISSING boundaries (expected by the goldens, no span recorded): "
              f"{', '.join(missing)}")
    for item_id in order:
        print(f"# item {item_id}: ladder_searches {view.under('_lex_first_ladder', item=item_id)}"
              f", points_materialized "
              f"{view.construction_leaf('StagedPartialFunction.value_at', item_id)}"
              f", max_operand_bits {view.operand_bits(item_id)}"
              f", oracle_calls {view.under('oracle_min_hit', item=item_id)}")
    return [plain, traced], metrics, repeat != "DIFFERENT"


def capture_goldens() -> None:
    """Rewrite goldens.json: two passes per workload must agree byte for byte."""
    out = {"source_sha256": source_digest(), "workloads": {}}
    for workload, items in WORKLOADS.items():
        ids = [item.id for item in items]
        with Runner(workload, perf_counter() + 3600) as runner:
            first = runner.run_pass(ids)
            second = runner.run_pass(ids[::-1], spans=runner.scratch / "spans.tsv")
        keys = ("code", "stdout_sha256", "payload_sha256")
        rows = {row["id"]: {k: row[k] for k in keys} for row in first["items"]}
        for row in first["items"] + second["items"]:
            if row["error"] is not None or {k: row[k] for k in keys} != rows[row["id"]]:
                raise BenchError(f"{workload}: {row['id']} is not reproducible: {row}")
        view = TraceView(second["trace"], second["items"])
        known = {attr for _, attr in SPANS + LEAVES}
        out["workloads"][workload] = {"items": rows,
                                      "boundaries": sorted(view.recorded() & known)}
        print(f"{workload}: {len(rows)} items, wall {first['raw_wall_s']:.2f} s")
    GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {GOLDENS.relative_to(ROOT)}; record the regeneration in CHANGES.md")


def emit(spec_key: str, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for entry in spec[spec_key]:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            out[entry["name"]]["status"] = "missing"
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-goldens", action="store_true",
                        help="rewrite goldens.json from the program as it is")
    args = parser.parse_args()
    started = perf_counter()
    try:
        if not (SOURCE / "cli.py").is_file():
            raise BenchError(f"no solred source under {SOURCE}; run from a checkout root")
        if args.capture_goldens:
            capture_goldens()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not GOLDENS.is_file():
            raise BenchError(f"{GOLDENS} is missing; run with --capture-goldens")
        goldens = json.loads(GOLDENS.read_text(encoding="ascii"))["workloads"][args.workload]
        ids = [item.id for item in WORKLOADS[args.workload]]
        rng = random.Random(args.seed)
        print(f"# host {json.dumps(host())}")
        with Runner(args.workload, started + RUN_LIMIT_S) as runner:
            if args.trace:
                passes, metrics, repeat_ok = traced_run(runner, ids, rng, goldens)
            else:
                passes, metrics = timed_run(runner, ids, rng, args.seconds)
                repeat_ok = True
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    items = [row for p in passes for row in p["items"]]
    bad = mismatches(items, goldens)
    for p in passes:
        print(f"# pass wall {p['raw_wall_s']:.3f} s, cpu {p['raw_cpu_s']:.3f} s (unscaled); "
              + " ".join(f"{row['id']}={row['seconds']:.3f}s" for row in p["items"]))
    if bad:
        print(f"# MISMATCH {', '.join(sorted(set(bad)))}")
    emit("per_layer" if args.trace else "end_to_end", not bad and repeat_ok,
         len(items), len(bad), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
