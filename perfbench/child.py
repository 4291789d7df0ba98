"""One measured process: a set-up sample or one pass over a workload.

Run by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``,
from the root of the checkout.  A pass calls ``solred.cli.main`` once
per item, in the order given, and records for each call its exit code,
the SHA-256 of its standard output and of its payload file, and the time
to its verdict, measured around the call.  Standard error is dropped:
its elapsed-time lines differ on every run.  The result goes to a JSON
file; with ``--trace`` the pass also runs under the tracer and adds its
summary, and writes every span to ``--spans``.

The host this runs on changes speed by tens of percent over minutes, so
a timed pass starts with a calibration chunk and follows each item with
another: a fixed exact-arithmetic kernel, independent of solred, run for
a quarter of the item's time.  ``run.py`` scales each item's time by the
kernel's speed in the chunks on either side of it, and the pass's time
by the speed over all chunks (see ``CAL_REF_S``).  A set-up sample
calibrates the same way after its own measurement.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
from bisect import insort
from fractions import Fraction
from time import perf_counter, process_time

from workloads import WORKLOADS, scenario_paths


# Seconds one kernel run takes on the reference host (2-vCPU VM at 2.1 GHz,
# Python 3.11.7); scaled times read as seconds on that host.
CAL_REF_S = 0.034
CAL_SHARE = 0.25      # calibration time after an item, as a share of the item's time
SETUP_CAL_S = 0.1     # calibration time after a set-up sample
FIRST_CAL_S = 0.5     # calibration time before the first item of a pass
# The collector's settings before any solred code ran; the kernel always runs with them.
GC_THRESHOLD = gc.get_threshold()


def calibration_kernel() -> Fraction:
    """Fixed work in the style of the search loop: big-denominator
    fractions summed and kept sorted.  No solred code runs here."""
    points: list[Fraction] = []
    acc = Fraction(0)
    for k in range(1, 1500):
        b = Fraction(1, 8) - Fraction(1, 2 ** (k % 400 + 3))
        acc += b * Fraction(k % 7 + 1, 9)
        insort(points, b)
    return acc


def calibrate(seconds: float) -> dict:
    """Run the kernel until seconds have passed, at least once.

    The kernel runs with the collector enabled at its default thresholds,
    whatever the program set, so that a program changing them does not
    also change the scale it is measured by."""
    enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(*GC_THRESHOLD)
    try:
        reps = 0
        start, cpu = perf_counter(), process_time()
        while reps == 0 or perf_counter() - start < seconds:
            calibration_kernel()
            reps += 1
        return {"cal_reps": reps, "cal_s": perf_counter() - start,
                "cal_cpu_s": process_time() - cpu}
    finally:
        gc.set_threshold(*threshold)
        if not enabled:
            gc.disable()


def stages_scanned(payload: bytes) -> int | None:
    """Stages the step searches of a construction scanned, from its payload.

    Step n >= 1 scans stages 1..stage_found, and an exhausted step scans
    the whole stage budget.  Both a construct trace and a construction
    report carry the step rows; other payloads give None.
    """
    doc = json.loads(payload)
    if doc["kind"] == "construction_trace":
        steps = doc["steps"]
        budget = doc["parameters"]["stage_budget"]
        exhausted = doc["exhausted"] is not None
    elif doc.get("mode") == "construction":
        steps = doc["sections"]["construction"]["steps"]
        budget = doc["parameters"]["stage_budget"]
        exhausted = doc["sections"]["construction"]["exhausted_at_step"] is not None
    else:
        return None
    stages = sum(row["stage_found"] for row in steps if row["n"] >= 1)
    return stages + budget if exhausted else stages


def read_payloads(out: str) -> list[bytes]:
    """Remove and return the payload file, or every file of a payload directory."""
    if os.path.isdir(out):
        payloads = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                payloads.append(name.encode() + b"\0" + fh.read())
        shutil.rmtree(out)
        return payloads
    if os.path.exists(out):
        with open(out, "rb") as fh:
            payload = fh.read()
        os.remove(out)
        return [payload]
    return []


def run_pass(order: list[str], workload: str, scratch: str, tracer,
             calibrated: bool) -> dict:
    import solred.cli

    items = {item.id: item for item in WORKLOADS[workload]}
    rows = []
    # The chunk before the first item gives it calibration on both sides.
    first = previous = calibrate(FIRST_CAL_S) if calibrated else None
    for item_id in order:
        item = items[item_id]
        out = os.path.join(scratch, "payload.json" if len(item.paths) == 1 else "payloads")
        if tracer is not None:
            tracer.begin_item(item_id)
        stdout = io.StringIO()
        error = None
        code = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = solred.cli.main(item.argv(out))
        except (Exception, SystemExit) as exc:  # an item that raises is a mismatch
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        payloads = read_payloads(out)
        digest = hashlib.sha256()
        for payload in payloads:
            digest.update(payload)
        row = {
            "id": item_id,
            "code": code,
            "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "payload_sha256": digest.hexdigest() if payloads else None,
            "payload_bytes": sum(len(p) for p in payloads),
            "seconds": seconds,
            "error": error,
        }
        if tracer is not None and len(payloads) == 1:
            row["stages_scanned"] = stages_scanned(payloads[0])
        if calibrated:
            after = calibrate(CAL_SHARE * seconds)
            row.update(after)
            row["around"] = {key: previous[key] + after[key] for key in after}
            previous = after
        rows.append(row)
    return {"items": rows, "first_cal": first}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--scratch", help="directory for payload files (a pass)")
    parser.add_argument("--order", help="comma-separated item ids; without it the "
                                        "process is a set-up sample")
    parser.add_argument("--trace", action="store_true", help="trace the pass")
    parser.add_argument("--spans", help="file for the traced pass's spans")
    parser.add_argument("--calibrate", action="store_true",
                        help="follow each item with a calibration chunk")
    args = parser.parse_args()

    if args.order is None:
        start = perf_counter()
        import solred.cli  # noqa: F401  (import cost is part of set-up)
        from solred.scenario import load_scenario

        for path in scenario_paths(args.workload):
            load_scenario(path)
        result: dict = {"setup_s": perf_counter() - start, **calibrate(SETUP_CAL_S)}
    else:
        import solred.cli  # noqa: F401  (the tracer patches the loaded modules)

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result = run_pass(args.order.split(","), args.workload, args.scratch,
                          tracer, args.calibrate)
        if tracer is not None:
            result["trace"] = tracer.summary()
            if args.spans:
                tracer.dump(args.spans)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
