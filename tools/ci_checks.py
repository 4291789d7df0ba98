"""Deep checks of solred's command line, beyond tier-1: one named check each.

Each check runs the CLI as ``python -m solred.cli`` in a temporary
directory and finds the bundled scenario files through
``importlib.resources``, so it checks whichever solred this interpreter
imports.  CI runs the file from outside the checkout, with the package
installed and no PYTHONPATH; a checkout runs it with

    PYTHONPATH=src python -m pytest tools/ci_checks.py

in about 12 s, and ``tools/ci_checks.py::<check>`` runs one check.  The
file lies outside the tier-1 testpaths.  The CLI's PYTHONPATH is this
process's sys.path, whose entries are absolute, so the CLI imports the
same solred from its temporary directory.
"""
import functools, json, operator, os, re, subprocess, sys, threading
from fractions import Fraction
from importlib.resources import files

import pytest

from solred.scenario import load_scenario

CORPUS = files("solred") / "corpus"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
VALID = ("linear_basic", "identity_c2", "staged_delay", "oscillating", "table_tail", "scaled_alpha")
DEEP = ("--depth", "14", "--stage-budget", "65536")
# name: (the file it copies, {path of an item: its new value, or a function of the old one});
# each check that reads a copy says why
VARIANTS = {
    "late": ("linear_basic", {("solovay_witness", "stage_schedule", "overrides"): [[0, 7]]}),
    "falling": ("mirror_staircase", {("alpha_leftce_approx", "generator", "entries", 2): "1/8"}),
    "w256": ("linear_basic", {("beta_approx", key, "w"): 256 for key in ("generator", "modulus")}),
    "w256-max": ("w256", {("beta_approx", "generator"): lambda g: {"kind": "prefix_max", "inner": g}}),
    "valued": ("linear_basic", {("solovay_witness", "value_rule", "overrides"): [[4097, "193/1048576"],
               [9000, "51745/1048576"], [17000, "19729/1048576"], [33000, "3721/1048576"]]}),
    "extra-key": ("linear_basic", {("extra",): 1}),
    "negative-c": ("linear_basic", {("solovay_witness", "constant"): "-1"}),
}
# name: (subcommand, scenario, flags, timeout) of a run whose payload several checks read
PAYLOADS = {
    "trace-3": ("construct", "linear_basic", ("--depth", "3"), None),
    "trace-14": ("construct", "linear_basic", DEEP, None),
    "w256-trace": ("construct", "w256", (), 20),
    "report": ("verify", "linear_basic", ("--mode", "construction"), None),
    "oracle-3": ("oracle", "linear_basic", ("--step", "3"), None),
    "oracle-14": ("oracle", "linear_basic", ("--step", "14", "--stage-budget", "65536"), 20),
    "prop1-600": ("verify", "linear_basic", ("--mode", "prop1", "--depth", "600"), None),
    "mirror-600": ("verify", "mirror_geometric", ("--mode", "mirror", "--depth", "600"), None),
    "s2a-600": ("verify", "mirror_geometric", ("--mode", "s2a-check", "--depth", "600"), None),
    **{name: ("construct", name, (), None) for name in VALID},
}


def scenario(name: str, root):
    """The bundled file name, found through the package's resources, or the
    copy VARIANTS names, written to root; a name ending in .json is a file
    in the run's directory."""
    if name not in VARIANTS:
        return name if name.endswith(".json") else CORPUS / f"{name}.json"
    base, edits = VARIANTS[name]
    data = load(scenario(base, root))
    for (*keys, key), value in edits.items():
        item = functools.reduce(operator.getitem, keys, data)
        item[key] = value(item[key]) if callable(value) else value
    (out := root / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
    return out


def cli(command: str, name: str, *flags, cwd) -> list[str]:
    """The argument list of `solred command FILE flags...`, FILE being scenario(name, cwd)."""
    return [sys.executable, "-m", "solred.cli", command, *map(str, (scenario(name, cwd), *flags))]


def solred(*args, cwd, rc: int = 0, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run cli(*args) in cwd: it must exit rc within timeout seconds.  Its
    output is bytes."""
    done = subprocess.run(cli(*args, cwd=cwd), cwd=cwd, env=ENV, timeout=timeout, capture_output=True)
    assert done.returncode == rc, (args, done.returncode, done.stderr)
    return done


def load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def written(cwd, *args, rc: int = 0, timeout: float | None = None):
    """The payload that solred(*args) writes to --out in cwd."""
    solred(*args, "--out", "out.json", cwd=cwd, rc=rc, timeout=timeout)
    return load(cwd / "out.json")


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """payload[name]: the --out file of the run PAYLOADS names.  Each run
    must exit 0 within its timeout; all run once, before the first check
    that reads one."""
    root = tmp_path_factory.mktemp("payloads")
    for name, (command, file, flags, timeout) in PAYLOADS.items():
        solred(command, file, *flags, "--out", f"{name}.json", cwd=root, timeout=timeout)
    return {name: root / f"{name}.json" for name in PAYLOADS}


def test_cli_imports_neither_dataclasses_traceback_nor_heapq(tmp_path):
    """Importing solred.cli imports neither dataclasses nor traceback: each
    adds milliseconds to every run's start-up.  Nor heapq: the step search
    keeps its candidates in one sorted list."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import solred.cli"], cwd=tmp_path,
                         env=ENV, capture_output=True, text=True, check=True).stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()}
    assert "solred.cli" in names and not names & {"dataclasses", "traceback", "heapq"}, sorted(names)


def test_every_bundled_file_loads():
    """The package carries its corpus/*.json data, all ten files, and every
    one loads through the package's parser."""
    paths = [p for p in CORPUS.iterdir() if p.name.endswith(".json")]
    assert len(paths) == 10 and all(load_scenario(p) for p in paths)


@pytest.mark.parametrize("name, i, stage", [("oscillating", 26, 36862), ("table_tail", 16, 36863)])
def test_step_14_index_and_stage_at_budget_65536(tmp_path, name, i, stage):
    """Step 14 at stage budget 65,536, within 10 s, at its (index, stage).

    oscillating reaches it at stage 36,862 and target index 26: its indices
    pass the target's settle index n0, past which the keys repeat by
    parity, and the routing bound max(n0, i_{n-1} + 1) + 1 keeps the routed
    candidates to the two after i_{n-1}.  table_tail reaches it at stage
    36,863 and target index 16: its settle index at that scale is 5, so
    from step 4 on its routing reads keys past n0 + 1.
    """
    s = written(tmp_path, "construct", name, *DEEP, timeout=10)["steps"][14]
    assert (s["i"], s["stage_found"]) == (i, stage)


def test_linear_basic_at_budget_65536_exhausts_past_step_14(tmp_path, payload):
    """At stage budget 65,536 linear_basic must reach step 14 at stage
    36,862, which runs the domain to 4x the corpus's stage count.  At depth
    65,536 it must exhaust at step 15 within 60 s, with the 15 steps of the
    depth-14 trace: the domain's scale comes from the stage budget, not the
    depth, so every step past the budget's finest point level returns at
    once.  The run's peak resident set must stay
    under 64 MB: the domain holds two bytearrays and one list of 2^17
    slots, one per dyadic at the budget's scale, about 1.3 MB in all.
    os.wait4 reaps this child alone, so ru_maxrss (KiB on Linux) is its
    own peak, not the largest of every child this process has waited for.
    A run killed at 60 s exits -9.
    """
    cmd = ("construct", "linear_basic", "--depth", "65536", "--stage-budget", "65536", "--out", "t.json")
    proc = subprocess.Popen(cli(*cmd, cwd=tmp_path), cwd=tmp_path, env=ENV)
    (timer := threading.Timer(60, proc.kill)).start()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    assert rc == 2 and usage.ru_maxrss < 64 * 1024
    t, d = load(tmp_path / "t.json"), load(payload["trace-14"])
    assert d["exhausted"] is None and len(d["steps"]) == 15 and d["steps"][14]["stage_found"] == 36862
    assert t["exhausted"] == {"step": 15, "stage_budget": 65536} and t["steps"] == d["steps"]


@pytest.mark.parametrize("step", [3, 14])
def test_oracle_replays_a_trace_step(payload, step):
    """The oracle subcommand replays one step on its own and must give the
    stage, index and ladder of that step in linear_basic's trace: step 3 of
    the depth-3 trace, and, within 20 s, step 14 of the depth-14 trace at
    stage budget 65,536, where the subcommand still gallops from stage 1
    and bisects."""
    s, h = load(payload[f"trace-{step}"])["steps"][step], load(payload[f"oracle-{step}"])["hit"]
    assert h == {"stage": s["stage_found"], "i": s["i"], "ladder": s["ladder"]}


def test_overrides_replace_only_the_fields_given(tmp_path):
    """prop1 with --depth and --guard keeps linear_basic's stage budget in
    its parameters."""
    p = written(tmp_path, "verify", "linear_basic", "--mode", "prop1", "--depth", "8", "--guard", "4")
    assert p["parameters"] == {"depth": 8, "stage_budget": 10000, "guard": 4}


TWELVE, FOURTEEN = ("--oracle-depth", "12"), (*DEEP, "--oracle-depth", "14")
AGREEMENT = [("table_tail", TWELVE, None), ("linear_basic", TWELVE, 30), ("staged_delay", TWELVE, 20),
             ("late", TWELVE, 30), ("scaled_alpha", TWELVE, 20),
             *((name, FOURTEEN, 10) for name in (*VALID, "w256", "w256-max", "valued"))]


@pytest.mark.parametrize("name, flags, timeout",
                         [pytest.param(*a, id=f"{a[0]}-{a[1][-1]}") for a in AGREEMENT])
def test_construction_mode_agrees_with_the_oracle(tmp_path, name, flags, timeout):
    """Construction mode compares every step up to --oracle-depth with the
    oracle, and every one must agree, within the run's timeout.

    - At --oracle-depth 12: table_tail; linear_basic within 30 s, since the
      oracle builds one ladder per (cut, lo) position of a stage's
      candidates, where a ladder search per candidate took about 70 s;
      staged_delay within 20 s, the only bundled file with stage
      overrides, which the search's next event stage reads from its list
      of single points (a next event that misread them sent the search back
      to an earlier stage without end); the late copy of linear_basic
      (g(0) defined only at stage 7) within 30 s; and scaled_alpha within
      20 s: its stages differ from the other files', and the search (one
      scale per domain) and the oracle (one scale per stage) give equal
      ladders only at one canonical scale.
    - At depth 14, stage budget 65,536 and --oracle-depth 14, each within
      10 s: the six valid files, both w = 256 copies and the copy of
      linear_basic with value overrides.  The oracle starts each step's
      stage search at the search's stage, two probes a step, where
      galloping and bisecting from stage 1 took about 19.  The step search
      walks each ladder a run of equal hops at a time; scaled_alpha has two
      live finals per search, and the copy's overrides (slightly raised
      g-values at q_4097, q_9000, q_17000 and q_33000) lie inside the
      ladders of steps 12 to 14, where each must end a run and start the
      next.
    """
    r = written(tmp_path, "verify", name, "--mode", "construction", *flags, timeout=timeout)
    o = r["sections"]["oracle"]
    assert o["compared_steps"] == int(flags[-1]) and all(r["agrees"] for r in o["comparisons"]), o


@pytest.mark.parametrize("mode", ["mirror", "s2a-check"])
def test_mirror_geometric_passes(tmp_path, mode):
    """On mirror_geometric, mirror mode (which complements the declared
    left-c.e. approximation) and s2a-check (which checks the loaded pair
    witness) must both exit 0 with an overall pass."""
    r = written(tmp_path, "verify", "mirror_geometric", "--mode", mode)
    assert r["summary"]["overall"] == "pass"


def test_invalid_small_c_exhausts_at_step_3(tmp_path):
    """On invalid_small_c no stage within the budget hits: the oracle
    subcommand at step 3 must exit 2, not raise.  A construction to depth 3
    at stage budget 65,536 must exhaust at step 3, exit 2, within 10 s,
    through 8,189 event stages that each walk the ready prefix of the step
    search's candidate list: a final point that fails clause (v) against 0
    is walked once per step, where walking every final of every search's
    window took about 17 s."""
    solred("oracle", "invalid_small_c", "--step", "3", "--out", "o.json", cwd=tmp_path, rc=2)
    t = written(tmp_path, "construct", "invalid_small_c", "--depth", "3", "--stage-budget", "65536",
                rc=2, timeout=10)
    assert t["exhausted"] == {"step": 3, "stage_budget": 65536}


def test_a_late_g0_exhausts_construct_and_prop1_at_once(tmp_path):
    """A copy of linear_basic whose g(0) is defined only at stage 7 runs
    out of stages at step 0 under --stage-budget 5: construct and prop1
    must exit 2, inconclusive, not 3, and the trace must carry no steps;
    prop1's image must stop at term 0 and its summary say exhausted.  It is
    one of the reports' early exits."""
    t = written(tmp_path, "construct", "late", "--stage-budget", "5", rc=2)
    assert t["exhausted"] == {"step": 0, "stage_budget": 5} and t["steps"] == []
    r = written(tmp_path, "verify", "late", "--mode", "prop1", "--stage-budget", "5", rc=2)
    assert r["sections"]["image"]["exhausted_at_term"] == 0 and r["summary"]["exhausted"] is True


def test_a_falling_leftce_approximation_stops_mirror_mode(tmp_path):
    """A copy of mirror_staircase whose left-c.e. approximation falls at
    n = 2 must stop mirror mode there: exit 1, with the mirror section
    skipped.  It is the other early exit of the reports."""
    s = written(tmp_path, "verify", "falling", "--mode", "mirror", rc=1)["sections"]
    assert s["mirror"]["skipped"] == "left-c.e. prefix check failed"
    assert s["leftce_prefix"]["violation_at"] == 2


def test_w256_hits_at_the_shipped_stages_one_index_lower(payload, tmp_path):
    """A copy of linear_basic whose target decays at the largest legal
    rate, w = 256, must build within 20 s and hit every step at the shipped
    file's stage, one target index lower: the construction reads b_n by
    closed-form keys, not by dividing its 256*n-bit term at every stage.
    Its running maximum (a prefix_max over that generator) must build
    within 20 s too, at the file's own stage budget, with the same steps:
    the running maximum of a nondecreasing sequence is the sequence, and
    its keys are the running maxima of the inner keys."""
    t, s = load(payload["w256-trace"])["steps"], load(payload["linear_basic"])["steps"]
    assert [r["stage_found"] for r in t] == [r["stage_found"] for r in s]
    assert [r["i"] for r in t[1:]] == [r["i"] - 1 for r in s[1:]]
    assert written(tmp_path, "construct", "w256-max", timeout=20)["steps"] == t


def test_prop1_prints_the_same_stdout_without_out(tmp_path):
    """Without --out nothing is encoded, and prop1 at depth 600 must exit 0
    and print the same stdout as with it."""
    args = ("verify", "linear_basic", "--mode", "prop1", "--depth", "600")
    assert solred(*args, cwd=tmp_path).stdout == solred(*args, "--out", "p.json", cwd=tmp_path).stdout


@pytest.mark.parametrize("name", PAYLOADS)
def test_payload_is_what_json_dumps_writes(payload, name):
    """A payload must be byte for byte what this Python's json.dumps(indent=2)
    writes, as the payload writer is not json's own: the depth-600 prop1,
    mirror and s2a-check reports and linear_basic's construction-mode
    report, whose step rows are row tables, each written with one template;
    the depth-14 linear_basic trace, whose 16,374 ladder members are
    written from integers, a list of one exact type in one join; the six
    valid files' traces at their own depth, whose ladders write each
    index's texts once per trace and each list of plain ASCII texts
    between quotes in one join; and the oracle's step-3 result, whose one
    ladder is written by the same function with a fresh memo.  The depth-3
    trace, the w = 256 trace and the oracle's step-14 result are checked
    too."""
    data = payload[name].read_text(encoding="utf-8")
    assert data == json.dumps(json.loads(data), indent=2) + "\n"


def test_step_row_fractions_are_written_reduced(payload):
    """mirror and s2a-check on mirror_geometric at depth 600 must exit 0,
    and every fraction in the step rows of those two reports and of the
    depth-600 prop1 report must be written reduced, as str(Fraction(s))
    writes it: the checkers reduce each printed integer ratio with one gcd,
    and a missed one would write "4/2" or "-0".  Each of the 601 steps
    writes 10 fractions in prop1's rows and 7 in each of the other two."""
    rows = [row for name in ("prop1-600", "mirror-600", "s2a-600")
            for section in load(payload[name])["sections"].values()
            for row in section.get("steps", []) + section.get("terms", [])]
    texts = [s for row in rows for v in row.values() for s in (v if isinstance(v, list) else [v])
             if isinstance(s, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s)]
    assert [s for s in texts if str(Fraction(s)) != s] == [] and len(texts) == 601 * (10 + 7 + 7)


def test_solovay_check_writes_every_payload(tmp_path):
    """Several files run in one serial loop: solovay-check on linear_basic
    and invalid_g_above must exit 1, a certified failure, and write both
    payloads into the --out directory."""
    solred("verify", "linear_basic", scenario("invalid_g_above", tmp_path), "--mode", "solovay-check",
           "--out", "grid", cwd=tmp_path, rc=1)
    grid = tmp_path / "grid"
    assert (grid / "linear_basic.json").stat().st_size and (grid / "invalid_g_above.json").stat().st_size


@pytest.mark.parametrize("args", [
    ("construct", "linear_basic", "--jobs", "2"), ("verify", "linear_basic", "--mode", "no-such-mode"),
    ("construct", "linear_basic", "--depth", "1", "--out", "no-such-dir/x.json"),
    ("construct", "not-utf8.json"), ("construct", "extra-key"), ("construct", "negative-c")],
    ids=["jobs", "mode", "out", "utf8", "extra-key", "negative-c"])
def test_invalid_input_exits_3_without_traceback(tmp_path, args):
    """Invalid input must exit 3, with no traceback.

    - A malformed command line: argparse's 2 is read by the exit table as
      inconclusive.  An unknown --mode is one; so is --jobs, since there is
      no --jobs option.
    - An --out in a missing directory, where an uncaught error would exit 1.
    - A scenario file that is not UTF-8 (a leading 0xff byte).
    - A scenario file with an unknown top-level key, and one whose Solovay
      constant is -1: a malformed file and one that fails a constructor's
      precondition both raise ScenarioError.
    """
    (tmp_path / "not-utf8.json").write_bytes(b"\xff{}")
    assert b"Traceback" not in solred(*args, cwd=tmp_path, rc=3).stderr
