"""Command-line entry point.

Three subcommands over scenario JSON files:

* ``construct``: run the step construction and write the trace.
* ``verify``: run one verification mode and write the report.
* ``oracle``: run the independent minimal-hit search for a single step.

Payloads are deterministic: byte-identical across reruns with equal
inputs and overrides, in the format of ``json.dumps(payload, indent=2)``
plus a newline, which ``_dump`` writes directly, and only for a file
that --out names: standard output is the same without it.  Timing goes
to standard error only, marked non-deterministic, so it never
contaminates an output file.  Exit codes:
0 all checks hold / full success, 1 any certified failure, 2 any
Unknown or budget exhaustion (and none failed), 3 invalid input (a
malformed command line, or an --out that cannot be written or that
several files would write, too), 4 an internal error.  With several
files the worst code wins: 4, 3, 1, 2, 0.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .construction import ConstructionTrace, build_s2a_from_solovay
from .errors import InvalidScenario, ScenarioError
from .harness import (
    ORACLE_DEPTH,
    ladder_payload,
    row_table,
    trace_payload,
    verify_construction,
    verify_mirror,
    verify_prop1,
    verify_s2a_declared,
    verify_solovay_grid,
)
from .oracle import oracle_min_hit
from .scenario import MAX_DEPTH, MAX_GUARD, MAX_STAGE_BUDGET, Scenario, load_scenario

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4

_SEVERITY = {EXIT_INTERNAL: 4, EXIT_INVALID: 3, EXIT_FAILS: 2, EXIT_INCONCLUSIVE: 1, EXIT_OK: 0}


def worst_exit(codes) -> int:
    return max(codes, key=lambda c: _SEVERITY[c], default=EXIT_OK)


# Each scalar type's text, by exact type: a subclass, a float or any other value has none.
_SCALAR = {str: encode_basestring_ascii, int: int.__repr__,
           bool: ("false", "true").__getitem__, type(None): lambda _: "null"}


def _write(value, head: str, nl: str, out: list[str]) -> None:
    """Append value's text to out, head (its separator and key) joined onto
    its first chunk; nl is a newline and the indent of value's own line.
    Each dict entry or list element is one chunk, a scalar joined onto its
    key, except that a list whose items all have the one exact type str or
    int, or a row table, is one chunk, written in one join (see _dump)."""
    scalar = _SCALAR.get(type(value))
    if scalar is not None:
        out.append(head + scalar(value))
    elif type(value) is dict:
        if not value:
            out.append(head + "{}")
            return
        inner = nl + "  "
        sep = head + "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _write(item, sep + encode_basestring_ascii(key) + ": ", inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif type(value) is list or type(value) is tuple:
        if not value:
            out.append(head + "[]")
            return
        inner = nl + "  "
        types = set(map(type, value))
        if types == {str} or types == {int}:
            kind = types.pop()
            if kind is str and _bare("".join(value)):
                body = '"' + ('",' + inner + '"').join(value) + '"'
            else:
                body = ("," + inner).join(map(_SCALAR[kind], value))
            out.append(head + "[" + inner + body + nl + "]")
            return
        table = row_table(value)
        if table is not None:
            shape, columns = table
            texts = [map(_SCALAR[type(column[0])], column) for column in columns]
            out.append(head + "[" + inner + ("," + inner).join(
                map(_row_template(shape, inner).__mod__, zip(*texts))) + nl + "]")
            return
        sep = head + "[" + inner
        for item in value:
            _write(item, sep, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _bare(text: str) -> bool:
    """Whether json writes each str joined into text as itself between quotes (see _dump)."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _row_template(shape: list[tuple[str, int]], nl: str) -> str:
    """The % template of one row of a row table, as _write writes a dict at nl."""
    inner, deeper = nl + "  ", nl + "    "
    entries = [encode_basestring_ascii(key).replace("%", "%%") + ": "
               + ("[" + deeper + ("," + deeper).join(["%s"] * length) + inner + "]"
                  if length else "%s")
               for key, length in shape]
    return "{" + inner + ("," + inner).join(entries) + nl + "}"


def _dump(payload: dict) -> list[str]:
    """The chunks of json.dumps(payload, indent=2) + "\\n", written directly.

    With an indent, json.dumps always runs its pure-Python encoder; this
    keeps its format (two-space indent, "," and ": ", {} and [] when
    empty, strings through json's own C encoder) at about twice its
    speed.  A list of items of the one exact type str or int, such as a
    ladder's indices, points and values, is written in one join, and so
    is a row table (see harness.row_table), such as a report's per-step
    rows: one % template per table, filled from each row's column texts.
    A list of str whose joined text is printable ASCII with no " and no \\
    is joined as it is, each item between two quotes: json's own encoder
    escapes only \\, " and the characters outside space to ~, and
    str.isprintable rejects every control character, DEL among them, so
    with str.isascii it admits none of the latter.  Any other list of str
    encodes each item.
    The caller writes the chunks to the payload file as they are, never
    joined into one string.  A payload holds only dicts with str keys,
    lists, str, int, bool and None: exact rationals are already strings.
    Anything else, a float, a Fraction or a subclass of str or int,
    raises TypeError.
    """
    out: list[str] = []
    _write(payload, "", "\n", out)
    out.append("\n")
    return out


def _construct_text(payload: dict) -> str:
    lines = [
        f"construct  {payload['scenario']}",
        "params     " + "  ".join(f"{k}={v}" for k, v in payload["parameters"].items()),
        f"constant   {payload['constant']}",
        "steps",
        "  n    i    stage       a                b_i",
    ]
    for row in payload["steps"]:
        lines.append(f"  {row['n']:<4} {row['i']:<4} {row['stage_found']:<11} "
                     f"{row['a']:<16} {row['b_i']}")
    if payload["exhausted"] is not None:
        lines.append(f"exhausted  step {payload['exhausted']['step']} "
                     f"(stage budget {payload['exhausted']['stage_budget']})")
    else:
        lines.append("exhausted  none")
    return "\n".join(lines) + "\n"


def _exhausted_text(trace: ConstructionTrace) -> str:
    step, budget = trace.exhausted
    if step == 0:
        return f"g(0) is not defined within stage budget {budget}"
    return f"step {step} found no admissible ladder within stage budget {budget}"


def _load(path: str, opts: dict) -> Scenario:
    """The scenario at path with each --depth, --stage-budget and --guard given applied."""
    overrides = {k: opts[k] for k in ("depth", "stage_budget", "guard") if opts.get(k) is not None}
    return load_scenario(path).replace(**overrides)


def _run_construct(sc: Scenario, opts: dict) -> dict:
    if sc.solovay_witness is None:
        raise InvalidScenario("construct needs a scenario with a solovay_witness")
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx,
                                   sc.depth, sc.stage_budget)
    payload = trace_payload(sc, trace)
    if trace.exhausted is None:
        code, err = EXIT_OK, ""
    else:
        code, err = EXIT_INCONCLUSIVE, f"{sc.name}: {_exhausted_text(trace)}\n"
    return {"code": code, "stdout": _construct_text(payload), "stderr": err, "payload": payload}


def _run_verify(sc: Scenario, opts: dict) -> dict:
    mode = opts["mode"]
    # Each mode by name, not from a dict: the perfbench tracer rebinds these module names.
    if mode == "construction":
        report = verify_construction(sc, oracle_depth=opts["oracle_depth"])
    elif mode == "mirror":
        report = verify_mirror(sc)
    elif mode == "prop1":
        report = verify_prop1(sc)
    elif mode == "s2a-check":
        report = verify_s2a_declared(sc)
    else:  # solovay-check: argparse's choices admit no other mode
        report = verify_solovay_grid(sc)
    return {"code": report.exit_code(), "stdout": report.to_text(), "stderr": "",
            "payload": report.payload()}


def _run_oracle(sc: Scenario, opts: dict) -> dict:
    if sc.solovay_witness is None:
        raise InvalidScenario("oracle needs a scenario with a solovay_witness")
    n = opts["step"]
    budget = sc.stage_budget
    w = sc.solovay_witness
    trace = build_s2a_from_solovay(w, sc.beta_approx, n - 1, budget)
    if trace.exhausted is not None:
        return {"code": EXIT_INCONCLUSIVE, "stdout": "",
                "stderr": f"{sc.name}: cannot reach step {n}: {_exhausted_text(trace)}\n",
                "payload": None}
    prev_index = trace.steps[-1].index
    hit = oracle_min_hit(n, prev_index, w, trace.target, budget)
    payload: dict = {
        "format_version": "1",
        "kind": "oracle_result",
        "scenario": sc.name,
        "parameters": {"step": n, "stage_budget": budget, "prev_index": prev_index},
        "hit": None,
    }
    if hit is None:
        text = f"oracle     {sc.name}\nstep       {n}\nhit        none (stage cap {budget})\n"
        code = EXIT_INCONCLUSIVE
    else:
        payload["hit"] = {
            "stage": hit.stage_found,
            "i": hit.index,
            "ladder": ladder_payload(hit.tup, {}),
        }
        text = (f"oracle     {sc.name}\nstep       {n}\n"
                f"hit        stage {hit.stage_found}, i {hit.index}, "
                f"ladder length {hit.tup.ell}\n")
        code = EXIT_OK
    return {"code": code, "stdout": text, "stderr": "", "payload": payload}


# Each runs one command on a loaded scenario and returns its payload as an object, or None.
_RUNNERS = {"construct": _run_construct, "verify": _run_verify, "oracle": _run_oracle}


def _run_one(command: str, path: str, opts: dict, encode: bool) -> dict:
    """One file's exit code, stdout and stderr, and its payload's chunks when
    encode and it has a payload, else None.  The encoding is timed with the
    run, and a payload that cannot be encoded is an internal error."""
    start = time.perf_counter()
    try:
        result = _RUNNERS[command](_load(path, opts), opts)
        payload = result["payload"]
        result["payload"] = _dump(payload) if encode and payload is not None else None
    except (ScenarioError, InvalidScenario) as exc:
        result = {"code": EXIT_INVALID, "stdout": "",
                  "stderr": f"{path}: {exc}\n", "payload": None}
    except Exception as exc:  # a fault in the program, never a verdict on the input
        import traceback  # only here: exit 4 is the one user, and the import costs every run
        result = {"code": EXIT_INTERNAL, "stdout": "", "payload": None, "stderr":
                  f"{path}: internal error: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"}
    elapsed = time.perf_counter() - start
    result["stderr"] += f"{path}: {elapsed:.3f}s elapsed (non-deterministic)\n"
    return result


def _out_paths(out: str | None, paths: list[str]) -> list[Path | None]:
    """Each scenario's payload file: out itself for one, out/<stem>.json for several."""
    if out is None:
        return [None] * len(paths)
    if len(paths) == 1:
        return [Path(out)]
    return [Path(out) / (Path(p).stem + ".json") for p in paths]


def _cannot_write(target: str | Path, exc: OSError) -> int:
    sys.stderr.write(f"{target}: cannot write: {exc.strerror or exc}\n")
    return EXIT_INVALID


def _execute(command: str, args: argparse.Namespace, opts: dict) -> int:
    paths: list[str] = args.scenario
    targets = _out_paths(args.out, paths)
    if args.out is not None and len(paths) > 1:
        shared = next((t for t in targets if targets.count(t) > 1), None)
        if shared is not None:  # files with one stem would overwrite each other's payload
            sys.stderr.write(f"{shared}: more than one scenario file would write it\n")
            return EXIT_INVALID
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    codes = []
    for path, target in zip(paths, targets):  # each file's output, before the next file runs
        res = _run_one(command, path, opts, target is not None)
        sys.stdout.write(res["stdout"])
        sys.stderr.write(res["stderr"])
        codes.append(res["code"])
        if res["payload"] is not None:
            try:
                with open(target, "wb") as fh:  # each chunk is ASCII text
                    fh.writelines(map(str.encode, res["payload"]))
            except OSError as exc:
                codes.append(_cannot_write(target, exc))
    return worst_exit(codes)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are invalid input, exit 3."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    p.add_argument("--out", help="output file (one scenario) or directory (several)")
    p.add_argument("--stage-budget", type=int, dest="stage_budget",
                   help="override the scenario's stage budget")


@functools.cache  # one parser per process, however many times main runs
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solred",
        description="Deterministic construction and verification of "
                    "reducibility witnesses between computably approximable reals.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="run the step construction, write the trace")
    _add_common(c)
    c.add_argument("--depth", type=int, help="override the scenario's step depth")

    v = sub.add_parser("verify", help="run a verification mode, write the report")
    _add_common(v)
    v.add_argument("--mode", required=True,
                   choices=["construction", "mirror", "prop1", "s2a-check",
                            "solovay-check"])
    v.add_argument("--depth", type=int, help="override the scenario's step depth")
    v.add_argument("--guard", type=int, help="override the enclosure guard bits")
    v.add_argument("--oracle-depth", type=int, default=ORACLE_DEPTH, dest="oracle_depth",
                   help="largest step cross-checked against the independent oracle "
                        "(construction mode)")

    o = sub.add_parser("oracle", help="independent minimal-hit search for one step")
    _add_common(o)
    o.add_argument("--step", type=int, required=True, help="step number n >= 1")
    return parser


# Least and greatest accepted value of each numeric option; anything outside is invalid input.
_LEAST = {"depth": 0, "stage_budget": 0, "guard": 0, "oracle_depth": 0, "step": 1}
_MOST = {"depth": MAX_DEPTH, "stage_budget": MAX_STAGE_BUDGET, "guard": MAX_GUARD,
         "oracle_depth": MAX_DEPTH, "step": MAX_DEPTH}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and not least <= value <= _MOST.get(name, value):
            bound = f">= {least}" if value < least else f"<= {_MOST[name]}"
            sys.stderr.write(f"--{name.replace('_', '-')} must be {bound}\n")
            return EXIT_INVALID
    return _execute(args.command, args, vars(args))


if __name__ == "__main__":
    sys.exit(main())
