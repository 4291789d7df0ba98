from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
from enum import IntEnum
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solred import cli, construction, harness
from solred.construction import build_s2a_from_solovay
from solred.oracle import oracle_min_hit
from solred.scenario import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_GUARD,
    MAX_RATE,
    MAX_STAGE_BUDGET,
    ScenarioError,
    load_scenario,
)
from solred.witnesses import ValueRule

from conftest import ALL_NAMES, VALID_WITNESS_NAMES, corpus_path, nested_alpha_text

TIMING = re.compile(r": \d+\.\d{3}s elapsed \(non-deterministic\)$", re.M)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dumped(payload) -> bytes:
    """The bytes of the file that cli writes from _dump's chunks."""
    return "".join(cli._dump(payload)).encode("ascii")


def test_construct_writes_trace_and_reports_steps(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code, text, err = run(capsys, "construct", str(corpus_path("table_tail")),
                          "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_bytes())
    assert payload["kind"] == "construction_trace"
    assert payload["format_version"] == "1"
    assert len(payload["steps"]) == 13
    assert payload["exhausted"] is None
    assert "construct  table_tail" in text
    assert TIMING.search(err)
    assert "elapsed" not in out.read_text()


def test_construct_depth_override_and_rerun_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["construct", str(corpus_path("linear_basic")), "--depth", "3"]
    assert run(capsys, *base, "--out", str(a))[0] == 0
    assert run(capsys, *base, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_bytes())
    assert payload["parameters"]["depth"] == 3
    assert [row["i"] for row in payload["steps"]] == [0, 3, 4, 5]


def test_construct_rejects_scenario_without_witness(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, text, err = run(capsys, "construct", str(corpus_path("mirror_geometric")),
                          "--out", str(out))
    assert code == 3
    assert not out.exists()
    assert "solovay_witness" in err


def test_malformed_json_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "verify", str(bad), "--mode", "s2a-check",
                       "--out", str(out))
    assert code == 3
    assert not out.exists()
    first = err.splitlines()[0]
    assert first.startswith(f"{bad}: not valid JSON: ")
    assert first.count(str(bad)) == 1


@pytest.mark.parametrize("body", [b"\xff" + b'{"name": "x"}', b'{"name": "\xff"}'],
                         ids=["leading", "in-string"])
def test_a_file_that_is_not_utf8_is_invalid_input(tmp_path, body):
    """A byte that does not decode as UTF-8, at the start or inside a
    string, is invalid input: exit 3, one line, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "solred.cli", "construct", str(bad), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0].startswith(f"{bad}: not UTF-8 text: ")
    assert not out.exists()


def test_deep_nesting_is_invalid_input_without_traceback(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(nested_alpha_text(3000), encoding="utf-8")
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "solred.cli", "verify", str(deep),
         "--mode", "construction", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "nest deeper than" in proc.stderr
    assert not out.exists()


def test_zero_budget_construct_is_inconclusive_with_partial_trace(tmp_path, capsys):
    out = tmp_path / "partial.json"
    code, _, err = run(capsys, "construct", str(corpus_path("linear_basic")),
                       "--stage-budget", "0", "--out", str(out))
    assert code == 2
    payload = json.loads(out.read_bytes())
    assert payload["exhausted"] == {"step": 1, "stage_budget": 0}
    assert len(payload["steps"]) == 1


@pytest.mark.parametrize("mode,scenario", [
    ("solovay-check", "linear_basic"),
    ("prop1", "linear_basic"),
    ("s2a-check", "mirror_geometric"),
    ("mirror", "mirror_staircase"),
])
def test_verify_modes_pass_on_healthy_scenarios(tmp_path, capsys, mode, scenario):
    out = tmp_path / "report.json"
    code, text, _ = run(capsys, "verify", str(corpus_path(scenario)),
                        "--mode", mode, "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_bytes())
    assert payload["kind"] == "verification_report"
    assert payload["mode"] == mode
    assert payload["summary"]["overall"] == "pass"
    assert payload["summary"]["fails"] == 0
    assert "summary   holds=" in text


def test_mirror_stops_at_a_falling_leftce_prefix(tmp_path, capsys):
    """A left-c.e. claim that fails ends mirror mode: no pair bound, no right-c.e. section."""
    doc = json.loads(corpus_path("mirror_staircase").read_text(encoding="utf-8"))
    doc["alpha_leftce_approx"]["generator"]["entries"][2] = "1/8"  # 1/4, then 1/8: a fall
    falling, out = tmp_path / "falling.json", tmp_path / "report.json"
    falling.write_text(json.dumps(doc), encoding="utf-8")
    code, text, _ = run(capsys, "verify", str(falling), "--mode", "mirror", "--out", str(out))
    assert code == 1
    payload = json.loads(out.read_bytes())
    assert payload["sections"] == {
        "leftce_prefix": {"n_max": 12, "violation_at": 2},
        "mirror": {"skipped": "left-c.e. prefix check failed"},
    }
    assert payload["summary"]["holds"] == 0 and payload["summary"]["fails"] == 1
    assert "summary   holds=0 fails=1 " in text


def test_verify_construction_mode_with_overrides(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(corpus_path("linear_basic")),
                     "--mode", "construction", "--depth", "4",
                     "--oracle-depth", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_bytes())
    assert payload["parameters"]["depth"] == 4
    assert payload["sections"]["oracle"]["compared_steps"] == 2
    assert payload["summary"]["overall"] == "pass"


_VERIFY_MODES = {"construction": harness.verify_construction, "mirror": harness.verify_mirror,
                 "prop1": harness.verify_prop1, "s2a-check": harness.verify_s2a_declared,
                 "solovay-check": harness.verify_solovay_grid}


def _library_payload(argv: list[str], sc) -> dict:
    """The payload the library gives for the command in argv run on scenario sc."""
    if argv[0] == "verify":
        return _VERIFY_MODES[argv[2]](sc).payload()
    w = sc.solovay_witness
    if argv[0] == "construct":
        trace = build_s2a_from_solovay(w, sc.beta_approx, sc.depth, sc.stage_budget)
        return harness.trace_payload(sc, trace)
    step = int(argv[2])
    trace = build_s2a_from_solovay(w, sc.beta_approx, step - 1, sc.stage_budget)
    prev = trace.steps[-1].index
    hit = oracle_min_hit(step, prev, w, trace.target, sc.stage_budget)
    return {"format_version": "1", "kind": "oracle_result", "scenario": sc.name,
            "parameters": {"step": step, "stage_budget": sc.stage_budget, "prev_index": prev},
            "hit": {"stage": hit.stage_found, "i": hit.index,
                    "ladder": harness.ladder_payload(hit.tup, {})}}


_OVERRIDES = {"depth": 3, "stage_budget": 700, "guard": 3}
_ALL_FLAGS = tuple(_OVERRIDES)


@pytest.mark.parametrize("argv, name, flags", [
    pytest.param(argv, name, flags, id=" ".join(argv)) for argv, name, flags in [
        (["construct"], "linear_basic", ("depth", "stage_budget")),
        (["oracle", "--step", "2"], "linear_basic", ("stage_budget",)),
        (["verify", "--mode", "construction"], "linear_basic", _ALL_FLAGS),
        (["verify", "--mode", "mirror"], "mirror_geometric", _ALL_FLAGS),
        (["verify", "--mode", "prop1"], "linear_basic", _ALL_FLAGS),
        (["verify", "--mode", "s2a-check"], "mirror_staircase", _ALL_FLAGS),
        (["verify", "--mode", "solovay-check"], "table_tail", _ALL_FLAGS),
    ]])
def test_overrides_run_the_library_on_the_replaced_scenario(tmp_path, capsys, argv, name,
                                                            flags):
    path = corpus_path(name)
    sc = load_scenario(path)
    assert all(getattr(sc, k) != v for k, v in _OVERRIDES.items())
    for given in (flags, ()):
        out = tmp_path / f"{len(given)}.json"
        options = [a for k in given for a in (f"--{k.replace('_', '-')}", str(_OVERRIDES[k]))]
        assert run(capsys, argv[0], str(path), *argv[1:], *options, "--out", str(out))[0] == 0
        applied = sc.replace(**{k: _OVERRIDES[k] for k in given})
        assert out.read_bytes() == dumped(_library_payload(argv, applied))
        parameters = json.loads(out.read_bytes())["parameters"]
        for k in set(_OVERRIDES) & set(parameters):
            assert parameters[k] == (_OVERRIDES[k] if k in given else getattr(sc, k)), k


@pytest.mark.parametrize("mode,name", [("construction", "linear_basic"),
                                       ("mirror", "mirror_geometric"),
                                       ("prop1", "linear_basic"),
                                       ("s2a-check", "mirror_staircase"),
                                       ("solovay-check", "table_tail")])
def test_each_mode_calls_the_function_that_cli_names_when_it_runs(capsys, monkeypatch, mode,
                                                                    name):
    """main runs each verify mode through cli's module name for its function,
    read at each run, so a wrapper bound there after import (as the perfbench
    tracer binds one) is the function called."""
    assert list(cli._MODES) == list(_VERIFY_MODES)
    attr = _VERIFY_MODES[mode].__name__
    real, calls = getattr(cli, attr), []

    def counting(sc, *args, **kwargs):
        calls.append(sc.name)
        return real(sc, *args, **kwargs)

    monkeypatch.setattr(cli, attr, counting)
    assert run(capsys, "verify", str(corpus_path(name)), "--mode", mode, "--depth", "2")[0] == 0
    assert calls == [name]


def test_verify_flags_a_witness_that_overshoots(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", str(corpus_path("invalid_g_above")),
                     "--mode", "solovay-check", "--out", str(out))
    assert code == 1
    payload = json.loads(out.read_bytes())
    verdicts = {p["verdict"] for p in payload["sections"]["witness_grid"]["points"]}
    assert "fails_lower" in verdicts
    assert payload["summary"]["overall"] == "fail"


def test_wrong_mode_for_scenario_is_invalid(capsys):
    code, _, err = run(capsys, "verify", str(corpus_path("linear_basic")),
                       "--mode", "mirror")
    assert code == 3
    assert "alpha_leftce_approx" in err


def test_oracle_step_hit(tmp_path, capsys):
    out = tmp_path / "hit.json"
    code, text, _ = run(capsys, "oracle", str(corpus_path("linear_basic")),
                        "--step", "3", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_bytes())
    assert payload["kind"] == "oracle_result"
    assert payload["hit"]["stage"] == 16
    assert payload["hit"]["i"] == 5
    assert "hit        stage 16, i 5" in text


@pytest.mark.parametrize("argv", [
    ["construct"],
    ["verify", "--mode", "construction"],
    ["verify", "--mode", "prop1"],
    ["oracle", "--step", "1"],
])
def test_g_zero_defined_after_the_budget_is_inconclusive(tmp_path, capsys, argv):
    """Running out of stages before g(0) is defined exhausts step 0: exit 2, not 3."""
    doc = json.loads(corpus_path("linear_basic").read_text(encoding="utf-8"))
    doc["solovay_witness"]["stage_schedule"]["overrides"] = [[0, 7]]
    late, out = tmp_path / "late.json", tmp_path / "out.json"
    late.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, *argv, str(late), "--stage-budget", "5", "--out", str(out))
    assert code == 2, err
    if argv[0] == "construct":
        payload = json.loads(out.read_bytes())
        assert payload["steps"] == []
        assert payload["exhausted"] == {"step": 0, "stage_budget": 5}
    if argv[0] != "verify":
        assert "g(0) is not defined within stage budget 5" in err
    assert run(capsys, *argv, str(late), "--stage-budget", "7")[0] != 3  # valid input


def test_oracle_rejects_step_zero_and_mirrors(capsys):
    assert run(capsys, "oracle", str(corpus_path("linear_basic")),
               "--step", "0")[0] == 3
    assert run(capsys, "oracle", str(corpus_path("mirror_staircase")),
               "--step", "1")[0] == 3


def test_oracle_budget_cases(tmp_path, capsys):
    out = tmp_path / "none.json"
    code, _, _ = run(capsys, "oracle", str(corpus_path("linear_basic")),
                     "--step", "1", "--stage-budget", "0", "--out", str(out))
    assert code == 2
    assert json.loads(out.read_bytes())["hit"] is None
    blocked = tmp_path / "blocked.json"
    code, _, err = run(capsys, "oracle", str(corpus_path("linear_basic")),
                       "--step", "2", "--stage-budget", "0", "--out", str(blocked))
    assert code == 2
    assert not blocked.exists()
    assert "cannot reach step 2" in err


def test_jobs_is_a_usage_error(tmp_path, capsys):
    """Files run one after another: --jobs is not an option."""
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", str(corpus_path("linear_basic")), "--mode", "solovay-check",
                  "--jobs", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    assert "solred: error: unrecognized arguments: --jobs 2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command,flag,extra", [
    ("construct", "--depth", []),
    ("construct", "--stage-budget", []),
    ("verify", "--guard", ["--mode", "s2a-check"]),
    ("verify", "--depth", ["--mode", "construction"]),
    ("verify", "--oracle-depth", ["--mode", "construction"]),
    ("oracle", "--stage-budget", ["--step", "1"]),
])
def test_negative_overrides_are_invalid_input(tmp_path, capsys, command, flag, extra):
    out = tmp_path / "never.json"
    code, text, err = run(capsys, command, str(corpus_path("linear_basic")),
                          *extra, flag, "-1", "--out", str(out))
    assert (code, text, err) == (3, "", f"{flag} must be >= 0\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,most,extra", [
    ("construct", "--depth", MAX_DEPTH, []),
    ("construct", "--stage-budget", MAX_STAGE_BUDGET, []),
    ("verify", "--guard", MAX_GUARD, ["--mode", "s2a-check"]),
    ("verify", "--depth", MAX_DEPTH, ["--mode", "prop1"]),
    ("oracle", "--stage-budget", MAX_STAGE_BUDGET, ["--step", "1"]),
    ("verify", "--oracle-depth", MAX_DEPTH, ["--mode", "construction"]),
    ("oracle", "--step", MAX_DEPTH, []),
])
def test_overrides_above_their_bound_are_invalid_input(tmp_path, capsys, command, flag,
                                                        most, extra):
    out = tmp_path / "never.json"
    code, text, err = run(capsys, command, str(corpus_path("mirror_geometric")),
                          *extra, flag, str(most + 1), "--out", str(out))
    assert (code, text, err) == (3, "", f"{flag} must be <= {most}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "{path}", "--mode", "bogus"],
    ["construct", "{path}", "--depth", "x"],
    ["oracle", "{path}"],
    ["construct", "{path}", "--no-such-flag"],
    [],
], ids=["unknown-mode", "non-integer-depth", "missing-step", "unknown-flag",
        "no-subcommand"])
def test_malformed_command_line_is_invalid_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(path=corpus_path("linear_basic")) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    assert captured.err.startswith("usage: solred")
    assert re.search(r"^solred( \w+)?: error: ", captured.err, re.M)


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """main parses with one parser per process, and no call's options reach the next."""
    assert cli.build_parser() is cli.build_parser()
    path = str(corpus_path("linear_basic"))
    trace, report = tmp_path / "trace.json", tmp_path / "report.json"
    assert run(capsys, "construct", path, "--depth", "3", "--out", str(trace))[0] == 0
    assert [row["i"] for row in json.loads(trace.read_bytes())["steps"]] == [0, 3, 4, 5]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", path, "--mode", "bogus"])
    assert exc.value.code == 3
    assert "error: argument --mode" in capsys.readouterr().err
    assert run(capsys, "verify", path, "--mode", "construction", "--out", str(report))[0] == 0
    payload = json.loads(report.read_bytes())
    assert payload["parameters"] == {"depth": 12, "stage_budget": 10000, "guard": 8,
                                     "oracle_depth": 6}
    assert payload["summary"]["overall"] == "pass"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: solred verify")


def test_step_below_one_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "never.json"
    code, text, err = run(capsys, "oracle", str(corpus_path("linear_basic")),
                          "--step", "0", "--out", str(out))
    assert (code, text, err) == (3, "", "--step must be >= 1\n")
    assert not out.exists()


def test_step_and_oracle_depth_accept_their_bounds(tmp_path, capsys):
    path = str(corpus_path("linear_basic"))
    for step, reached in ((1, True), (MAX_DEPTH, False)):
        out = tmp_path / f"step{step}.json"
        code, _, err = run(capsys, "oracle", path, "--step", str(step),
                           "--stage-budget", "0", "--out", str(out))
        assert code == 2
        assert out.exists() == reached
        assert (f"cannot reach step {step}:" in err) != reached
    for oracle_depth, compared in ((0, 0), (MAX_DEPTH, 1)):
        out = tmp_path / f"depth{oracle_depth}.json"
        code, _, _ = run(capsys, "verify", path, "--mode", "construction", "--depth", "1",
                         "--oracle-depth", str(oracle_depth), "--out", str(out))
        assert code == 0
        assert json.loads(out.read_bytes())["sections"]["oracle"]["compared_steps"] == compared


def test_integer_literal_too_long_to_convert_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "long.json"
    text = corpus_path("linear_basic").read_text(encoding="utf-8")
    bad.write_text(text.replace('"depth": 12', '"depth": ' + "9" * 5000), encoding="utf-8")
    code, text, err = run(capsys, "verify", str(bad), "--mode", "s2a-check")
    assert (code, text) == (3, "")
    message, elapsed = err.splitlines()
    assert message.startswith(f"{bad}: ") and TIMING.search(elapsed)


def test_fraction_string_too_long_to_convert_is_invalid_input(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter converts integer strings of any length")
    bad = tmp_path / "long.json"
    text = corpus_path("linear_basic").read_text(encoding="utf-8")
    constant = "1" * (limit + 700)
    bad.write_text(text.replace('"constant": "1",', f'"constant": "{constant}",', 1),
                   encoding="utf-8")
    out = tmp_path / "trace.json"
    code, text, err = run(capsys, "construct", str(bad), "--out", str(out))
    assert (code, text) == (3, "")
    assert not out.exists()
    message, elapsed = err.splitlines()
    assert message == (f"{bad}: scenario.solovay_witness.constant: fraction string too long "
                       f"to convert ({limit + 700} characters)")
    assert TIMING.search(elapsed)


def test_multi_file_worst_exit_and_out_dir(tmp_path, capsys):
    out = tmp_path / "reports"
    code, _, _ = run(capsys, "verify",
                     str(corpus_path("linear_basic")),
                     str(corpus_path("invalid_g_above")),
                     "--mode", "solovay-check",
                     "--out", str(out))
    assert code == 1
    good = json.loads((out / "linear_basic.json").read_bytes())
    bad = json.loads((out / "invalid_g_above.json").read_bytes())
    assert good["summary"]["overall"] == "pass"
    assert bad["summary"]["overall"] == "fail"


def test_multi_file_writes_every_valid_file_and_one_error_line(tmp_path, capsys):
    paths = [str(corpus_path(name)) for name in
             ("linear_basic", "mirror_geometric", "invalid_g_above", "table_tail")]
    out = tmp_path / "reports"
    code, _, err = run(capsys, "verify", *paths, "--mode", "solovay-check", "--out", str(out))
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == [
        "invalid_g_above.json", "linear_basic.json", "table_tail.json"]
    untimed = [line for line in err.splitlines() if not TIMING.search(line)]
    assert len(untimed) == 1 and untimed[0].startswith(paths[1] + ": ")


def test_each_payload_is_written_before_the_next_file_runs(tmp_path, capsys, monkeypatch):
    """No file's output waits for the files after it."""
    paths = [str(corpus_path(name)) for name in ("linear_basic", "invalid_g_above")]
    out = tmp_path / "reports"
    seen = []
    real = cli._run_one

    def run_one(command, path, opts, encode):
        seen.append(sorted(p.name for p in out.iterdir()))
        return real(command, path, opts, encode)

    monkeypatch.setattr(cli, "_run_one", run_one)
    code, _, _ = run(capsys, "verify", *paths, "--mode", "solovay-check", "--out", str(out))
    assert code == 1
    assert seen == [[], ["linear_basic.json"]]


def test_multi_file_skips_output_for_invalid_member(tmp_path, capsys):
    out = tmp_path / "traces"
    code, _, _ = run(capsys, "construct",
                     str(corpus_path("table_tail")),
                     str(corpus_path("mirror_geometric")),
                     "--out", str(out))
    assert code == 3
    assert (out / "table_tail.json").exists()
    assert not (out / "mirror_geometric.json").exists()


@pytest.mark.parametrize("names,out", [
    (("table_tail",), "no-such-dir/x.json"),
    (("table_tail", "linear_basic"), "a-file"),
    (("table_tail",), "."),
], ids=["missing-dir", "file-as-dir", "dir-as-file"])
def test_unwritable_out_is_invalid_input(tmp_path, capsys, names, out):
    """An --out that cannot be written exits 3 with one line, never a traceback."""
    (tmp_path / "a-file").write_text("kept\n")
    target = tmp_path / out
    code, _, err = run(capsys, "construct", *(str(corpus_path(n)) for n in names),
                       "--depth", "1", "--out", str(target))
    assert code == 3
    untimed = [line for line in err.splitlines() if not TIMING.search(line)]
    assert len(untimed) == 1 and untimed[0].startswith(f"{target}: cannot write: ")
    assert (tmp_path / "a-file").read_text() == "kept\n"


def test_files_with_one_stem_are_rejected_before_any_run(tmp_path, capsys):
    """Two files named linear_basic.json would both write OUT/linear_basic.json."""
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    twin = copy_dir / "linear_basic.json"
    twin.write_bytes(corpus_path("linear_basic").read_bytes())
    out = tmp_path / "traces"
    code, text, err = run(capsys, "construct", str(corpus_path("linear_basic")), str(twin),
                          "--depth", "1", "--out", str(out))
    assert code == 3
    assert (text, err) == ("", f"{out / 'linear_basic.json'}: more than one scenario "
                               "file would write it\n")
    assert not out.exists()


def test_internal_error_exits_4_without_payload(tmp_path, capsys, monkeypatch):
    """A fault in the program is neither a verdict nor invalid input."""
    broken = str(corpus_path("table_tail"))
    real = cli._RUNNERS["verify"]

    def runner(sc, opts):
        if sc.name == "table_tail":
            raise RuntimeError("lost a ladder")
        return real(sc, opts)

    monkeypatch.setitem(cli._RUNNERS, "verify", runner)
    out = tmp_path / "reports"
    code, _, err = run(capsys, "verify", str(corpus_path("linear_basic")), broken,
                       "--mode", "solovay-check", "--out", str(out))
    assert code == cli.EXIT_INTERNAL == 4
    assert cli.worst_exit([cli.EXIT_INVALID, cli.EXIT_INTERNAL, cli.EXIT_FAILS]) == 4
    assert [p.name for p in out.iterdir()] == ["linear_basic.json"]
    assert json.loads((out / "linear_basic.json").read_bytes())["summary"]["overall"] == "pass"
    errors = [line for line in err.splitlines() if "internal error" in line]
    assert errors == [f"{broken}: internal error: RuntimeError: lost a ladder"]
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("elapsed (non-deterministic)")


def test_module_entry_point_smoke(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "solred.cli", "verify",
         str(corpus_path("mirror_geometric")), "--mode", "mirror",
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "elapsed (non-deterministic)" in proc.stderr
    assert json.loads(out.read_bytes())["summary"]["overall"] == "pass"


# -- fuzzing main() over mutated corpus files ---------------------------------

CORPUS_DOCS = {name: json.loads(corpus_path(name).read_text(encoding="utf-8"))
               for name in ALL_NAMES}
GENERATORS = [doc[key]["generator"] for doc in CORPUS_DOCS.values()
              for key in ("beta_approx", "alpha_leftce_approx") if key in doc]
# Legal integers at and just past each bound, and at the small end.
NEAR_BOUNDS = sorted({v for bound in (MAX_RATE, MAX_EXPONENT, MAX_DEPTH, MAX_GUARD,
                                      MAX_STAGE_BUDGET)
                      for v in (bound - 1, bound, bound + 1)} | {-1, 0, 1, 2})


def nodes(doc, path=()):
    """(path, value) of every dict, list and leaf below doc, doc itself included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from nodes(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# One value of each JSON type: null, integer, boolean, string, list and object.
RETYPED = [None, 7, True, "1/2", [], {}]

MODES = {"solovay_witness": ["construction", "prop1", "solovay-check"],
         "alpha_leftce_approx": ["mirror"], "s2a_witness": ["s2a-check"]}


def accepted_modes(doc) -> list[str]:
    """The verify modes a corpus document accepts: prop1 needs a left_ce beta claim."""
    return [m for key, ms in MODES.items() if key in doc for m in ms
            if m != "prop1" or doc["beta_approx"]["claim"] == "left_ce"]


def mutate(draw, doc):
    op = draw(st.sampled_from(["drop", "swap", "generator", "integer", "retype"]))
    if op == "drop":
        parents = [p for p, v in nodes(doc) if isinstance(v, dict) and v]
        parent = at(doc, draw(st.sampled_from(parents)))
        del parent[draw(st.sampled_from(sorted(parent)))]
    elif op == "swap":
        parents = [p for p, v in nodes(doc) if isinstance(v, dict) and len(v) > 1]
        if parents:
            parent = at(doc, draw(st.sampled_from(parents)))
            a, b = draw(st.lists(st.sampled_from(sorted(parent)), min_size=2, max_size=2,
                                 unique=True))
            parent[a], parent[b] = parent[b], parent[a]
    elif op == "generator":
        sites = [p for p, v in nodes(doc) if p and p[-1] in ("generator", "inner")
                 and isinstance(v, dict)]
        if sites:
            *head, last = draw(st.sampled_from(sites))
            at(doc, head)[last] = copy.deepcopy(draw(st.sampled_from(GENERATORS)))
    elif op == "retype":
        *head, last = draw(st.sampled_from([p for p, _ in nodes(doc) if p]))
        old = at(doc, head)[last]
        new = draw(st.sampled_from([v for v in RETYPED if type(v) is not type(old)]))
        at(doc, head)[last] = copy.deepcopy(new)
    else:
        ints = [p for p, v in nodes(doc) if type(v) is int]
        if ints:
            *head, last = draw(st.sampled_from(ints))
            at(doc, head)[last] = draw(st.sampled_from(NEAR_BOUNDS))


@st.composite
def mutated_runs(draw):
    """(scenario document, argv without the file): a corpus file after 0-2 mutations,
    run by a command it supports, at small depth and stage budget."""
    name = draw(st.sampled_from(ALL_NAMES))
    doc = copy.deepcopy(CORPUS_DOCS[name])
    for _ in range(draw(st.integers(0, 2))):
        mutate(draw, doc)
    depth, budget = str(draw(st.integers(0, 3))), str(draw(st.integers(0, 200)))
    modes = accepted_modes(CORPUS_DOCS[name])
    command = draw(st.sampled_from(["construct", "oracle", "verify", "verify"]))
    if command == "construct":
        return doc, ["construct", "--depth", depth, "--stage-budget", budget]
    if command == "oracle":
        return doc, ["oracle", "--step", str(draw(st.integers(1, 2))), "--stage-budget", budget]
    return doc, ["verify", "--mode", draw(st.sampled_from(modes)), "--depth", depth,
                 "--stage-budget", budget, "--guard", str(draw(st.integers(0, 8))),
                 "--oracle-depth", str(draw(st.integers(0, 2)))]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=mutated_runs())
def test_mutated_corpus_files_exit_honestly(run):
    """Every exit code is 0-3, no traceback escapes, and exit 1 is a reported failure.

    A file that load_scenario rejects exits 3 with no stdout and no payload,
    and stderr starts with "<path>: <its message>"; a file that loads exits 3
    only for a command's precondition ("... needs ...")."""
    doc, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_scenario(path)
            rejected = None
        except ScenarioError as exc:
            rejected = f"{path}: {exc}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, str(path), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err
        if rejected is not None:
            assert (code, stdout.getvalue(), out.exists()) == (3, "", False), err
            assert err.splitlines()[0] == rejected
        elif code == 3:
            first = err.splitlines()[0]
            assert first.startswith(f"{path}: ") and " needs " in first, err
        if code == 1:
            assert json.loads(out.read_bytes())["summary"]["fails"] > 0


def stdlib_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2) + "\n").encode("ascii")


def payload_runs(name: str) -> list[list[str]]:
    """Every command and verify mode the corpus file accepts, the checkers also at depth 600."""
    doc = CORPUS_DOCS[name]
    modes = accepted_modes(doc)
    runs = [["verify", "--mode", m] for m in modes]
    runs += [["verify", "--mode", m, "--depth", "600"] for m in modes
             if m in ("prop1", "mirror", "s2a-check")]
    if "solovay_witness" in doc:
        runs += [["construct"], ["oracle", "--step", "3"]]
    return runs


@pytest.mark.parametrize("name", ALL_NAMES)
def test_writer_matches_json_dumps_on_every_corpus_payload(tmp_path, capsys, monkeypatch, name):
    """Each payload the CLI writes for a corpus file is json.dumps(indent=2)'s bytes."""
    written = []
    real = cli._dump

    def checked(payload):
        chunks = real(payload)
        data = "".join(chunks).encode("ascii")
        assert data == stdlib_bytes(payload)
        written.append(data)
        return chunks

    monkeypatch.setattr(cli, "_dump", checked)
    out = tmp_path / "payload.json"
    for argv in payload_runs(name):
        out.unlink(missing_ok=True)
        code, _, err = run(capsys, argv[0], str(corpus_path(name)), *argv[1:], "--out", str(out))
        assert code in (0, 1, 2), (argv, err)
        if out.exists():
            assert out.read_bytes() == written[-1]
        else:  # the oracle finds no hit on invalid_small_c within its budget
            assert (name, argv[0], code) == ("invalid_small_c", "oracle", 2)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_payload_is_encoded_only_for_a_file_that_out_names(tmp_path, capsys, monkeypatch,
                                                             name):
    """Without --out no payload is encoded; with it, one per file written.  The exit
    code, stdout and stderr (less its timing) are the same either way."""
    encoded = []
    real = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda payload: encoded.append(payload) or real(payload))
    out = tmp_path / "payload.json"
    for argv in payload_runs(name):
        argv = [argv[0], str(corpus_path(name)), *argv[1:]]
        code, text, err = run(capsys, *argv)
        assert encoded == [], argv
        out.unlink(missing_ok=True)
        code_out, text_out, err_out = run(capsys, *argv, "--out", str(out))
        assert len(encoded) == out.exists(), argv
        encoded.clear()
        assert (code, text, TIMING.sub("", err)) == (code_out, text_out, TIMING.sub("", err_out))


def test_several_files_encode_one_payload_per_file_written(tmp_path, capsys, monkeypatch):
    """mirror_geometric has no Solovay witness to construct from, so it writes nothing."""
    encoded = []
    real = cli._dump
    monkeypatch.setattr(cli, "_dump", lambda payload: encoded.append(payload) or real(payload))
    argv = ["construct", *(str(corpus_path(n)) for n in
                           ("table_tail", "mirror_geometric", "linear_basic")), "--depth", "1"]
    code, text, _ = run(capsys, *argv)
    assert (code, encoded) == (3, [])
    out = tmp_path / "traces"
    assert run(capsys, *argv, "--out", str(out))[:2] == (code, text)
    assert sorted(p.name for p in out.iterdir()) == ["linear_basic.json", "table_tail.json"]
    assert [payload["scenario"] for payload in encoded] == ["table_tail", "linear_basic"]


VERDICTS = {"holds": "holds", "fails": "fails", "fails_lower": "fails", "fails_upper": "fails",
            "unknown": "unknown", "g_undefined": "unknown"}


def recount(sections: dict) -> dict[str, int]:
    """holds, fails and unknown counted afresh from a report's sections."""
    counts = {"holds": 0, "fails": 0, "unknown": 0}
    for name, body in sections.items():
        if "violation_at" in body:  # a kind claim, checked or derived
            verdicts = ["holds" if body["violation_at"] is None else "fails"]
        elif name == "image":  # a running maximum never decreases
            verdicts = ["holds"]
        elif name == "oracle":
            verdicts = ["holds" if row["agrees"] else "fails" for row in body["comparisons"]]
        else:
            verdicts = [row["verdict"] for row in body.get("steps", body.get("points", []))
                        if "verdict" in row]
        for v in verdicts:
            counts[VERDICTS[v]] += 1
    return counts


@pytest.mark.parametrize("name,mode", [
    *((name, mode) for name in ALL_NAMES for mode in accepted_modes(CORPUS_DOCS[name])),
    ("late", "prop1"), ("late", "construction"),
])
def test_summary_counts_are_the_sections_verdicts(tmp_path, capsys, name, mode):
    """Every verdict a section reports is counted in the summary, and nothing else is.

    late is linear_basic with g(0) defined at stage 7, run at stage budget 5:
    prop1's image and the construction both stop at their first term.
    """
    path, extra = corpus_path(name), []
    if name == "late":
        doc = copy.deepcopy(CORPUS_DOCS["linear_basic"])
        doc["solovay_witness"]["stage_schedule"]["overrides"] = [[0, 7]]
        path, extra = tmp_path / "late.json", ["--stage-budget", "5"]
        path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", str(path), "--mode", mode, *extra, "--out", str(out))
    assert code in (0, 1, 2), err
    payload = json.loads(out.read_bytes())
    summary = payload["summary"]
    assert recount(payload["sections"]) == {k: summary[k] for k in ("holds", "fails", "unknown")}
    assert summary["holds"] + summary["fails"] + summary["unknown"] > 0


def test_an_oracle_disagreement_is_a_counted_failure(tmp_path, capsys, monkeypatch):
    """No corpus step disagrees with the oracle, so one that does is made here."""
    monkeypatch.setattr(harness, "oracle_min_hit", lambda *args: None)
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", str(corpus_path("linear_basic")),
                       "--mode", "construction", "--out", str(out))
    assert code == 1, err
    payload = json.loads(out.read_bytes())
    rows = payload["sections"]["oracle"]["comparisons"]
    assert len(rows) == 6 and not any(row["agrees"] for row in rows)
    assert recount(payload["sections"])["fails"] == payload["summary"]["fails"] == 6


text_with_escapes = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t \ud800'),
                                      st.characters(exclude_categories=())))
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 300), 1 << 64) | text_with_escapes,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(text_with_escapes, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=200, deadline=None)
@example(tree=[True, False, True])
@example(tree=[1, True, 0, False])
@example(tree=["a", 1, "b", 2])
@example(tree={"ints": [-(1 << 200), 0, 7], "texts": ["\u00e9\n", '"', "1/3"], "rows": [[1], [2]]})
@given(tree=json_trees)
def test_writer_matches_json_dumps_on_random_trees(tree):
    """None, bools, large ints, any text (escapes, lone surrogates), tuples, empty containers.

    A list of items all of the one exact type str or int is written in one
    join, every other list item by item: lists of bools or of a mix of
    types must take the second path."""
    assert dumped(tree) == stdlib_bytes(tree)


@pytest.mark.parametrize("odd", ['"', "\\", "\x1f", "\x7f", "\u00e9", "\u2028", "", '""',
                                 'a"b', "1/2\\", "\x001"], ids=ascii)
@pytest.mark.parametrize("where", ["alone", "first", "middle", "last", "twice"])
def test_a_list_of_str_that_json_escapes_matches_json_dumps(odd, where):
    """A list of str whose joined text is printable ASCII with no " or \\
    is written in one join, each item between two quotes; any other list
    of str, here one with a quote, a backslash, a control character, DEL,
    a non-ASCII character or a line separator in one item, is written
    item by item through json's own encoder."""
    plain = ["0", "1/2", "-3/4"]
    value = {"alone": [odd], "first": [odd, *plain], "middle": [plain[0], odd, *plain[1:]],
             "last": [*plain, odd], "twice": [odd, *plain, odd]}[where]
    assert dumped({"ladder": {"points": value}}) == stdlib_bytes({"ladder": {"points": value}})


def test_construct_ladder_work_is_pinned(tmp_path, capsys, monkeypatch):
    """Reads, texts and encodes of the six valid files' construct runs.

    _Domain.pair is called only for a point that the walk tests before it
    is read: a final, the point 0 or a member; runs of equal hops test
    O(log t) of their t members, and the returned ladder's members not
    yet read are read in one pass.  ValueRule.ratio, the first read of
    each point, is unchanged.  Calling pair for each member test, with the
    final's side read again each time, cost 84,870 pair calls, testing
    each member in the walk 13,088, and reading both sides of each final's
    test against 0 through pair 383.  Each
    index's two texts are formatted once per trace: per member they took
    51,804 _ratio_text calls.  A ladder's points and values are printable
    ASCII with no quote or backslash, so _dump writes each list in one
    join: encoding each str of them cost 52,146 encodes.
    """
    calls = dict.fromkeys(("pair", "ratio", "ratio_text", "encode"), 0)

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(construction._Domain, "pair", counting("pair", construction._Domain.pair))
    monkeypatch.setattr(ValueRule, "ratio", counting("ratio", ValueRule.ratio))
    monkeypatch.setattr(harness, "_ratio_text", counting("ratio_text", harness._ratio_text))
    monkeypatch.setitem(cli._SCALAR, str, counting("encode", cli._SCALAR[str]))
    for name in VALID_WITNESS_NAMES:
        out = tmp_path / f"{name}.json"
        assert run(capsys, "construct", str(corpus_path(name)), "--out", str(out))[0] == 0
    assert calls == {"pair": 264, "ratio": 12975, "ratio_text": 25936, "encode": 186}


class Text(str):
    pass


class Count(int):
    pass


class Level(IntEnum):
    LOW = 1


class Opaque:
    """A value of no JSON type, with a repr that gives its test case a stable id."""

    def __repr__(self):
        return "Opaque()"


@pytest.mark.parametrize("value", [
    0.5, Q(1, 3), Text("1/3"), Count(3), {1: "one"}, {None: 0}, {True: 0}, {"a": {2.0}},
    [1, [2, Opaque()]], [Level.LOW, Level.LOW], [Text("a"), Text("b")], ["a", Text("b")],
    [1, Count(2)],
    [{"n": 1, "q": Text("1/3")}, {"n": 2, "q": Text("2/3")}],
    [{"n": 1, "k": Count(1)}, {"n": 2, "k": Count(2)}],
    [{"n": 1, "x": 0.5}, {"n": 2, "x": 1.5}],
    [{"n": 1, "q": Q(1, 3)}, {"n": 2, "q": Q(2, 3)}],
    [{"n": 1, "box": ["0", Text("1")]}, {"n": 2, "box": ["0", Text("1")]}],
], ids=repr)
def test_writer_rejects_what_a_payload_never_holds(value):
    """A float, a Fraction, a non-str key or a subclass of str or int raises
    TypeError, where json.dumps would write some of them; so does a list of
    such subclasses, which is never written in one join, and a row table
    with such a column, which is never written with one template."""
    with pytest.raises(TypeError):
        cli._dump({"rows": [value]})


def test_an_unwritable_payload_is_an_internal_error(tmp_path, capsys, monkeypatch):
    real = harness.trace_payload
    monkeypatch.setattr(cli, "trace_payload", lambda sc, trace: {**real(sc, trace), "c": Q(1, 2)})
    out = tmp_path / "trace.json"
    code, _, err = run(capsys, "construct", str(corpus_path("linear_basic")), "--depth", "1",
                       "--out", str(out))
    assert code == cli.EXIT_INTERNAL
    assert "internal error: TypeError: Object of type Fraction is not JSON serializable" in err
    assert "\nTraceback (most recent call last):\n" in err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # nor any temporary file beside it


# -- row tables: one template per list of uniform rows, in both writers -------

table_text = st.sampled_from(["-", "1/3", "%s", "%%", "a\nb"]) | text_with_escapes
table_keys = st.sampled_from(["n", "verdict", "%", '"q"', "a\nb", "\u00e9t\u00e9", "%(x)s"]) \
    | text_with_escapes
# Each column of a drawn row list: a uniform one, which a row table allows,
# or one of the shapes that sends the whole list through the walk.
COLUMNS = {
    "str": lambda n: st.lists(table_text, min_size=n, max_size=n),
    "int": lambda n: st.lists(st.integers(-(1 << 80), 1 << 80), min_size=n, max_size=n),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n),
    "none": lambda n: st.just([None] * n),
    "list": lambda n: st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(table_text, min_size=k, max_size=k), min_size=n, max_size=n)),
    "mixed": lambda n: st.lists(st.none() | st.booleans() | st.integers() | table_text
                                | st.lists(table_text, max_size=2), min_size=n, max_size=n),
    "bool-int": lambda n: st.lists(st.booleans() | st.integers(-2, 2), min_size=n, max_size=n),
    "ragged": lambda n: st.lists(st.lists(table_text, max_size=3), min_size=n, max_size=n),
    "nested": lambda n: st.lists(st.dictionaries(table_keys, st.integers() | table_text,
                                                 max_size=2), min_size=n, max_size=n),
}


@st.composite
def row_lists(draw):
    """A list of 0-5 dicts, usually with one key sequence, each column drawn from COLUMNS."""
    keys = draw(st.lists(table_keys, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMNS)), min_size=len(keys),
                          max_size=len(keys)))
    if draw(st.booleans()):  # mostly tables: every column uniform
        kinds = [k if k in ("str", "int", "bool", "none", "list") else "str" for k in kinds]
    columns = [draw(COLUMNS[kind](n)) for kind in kinds]
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    if rows and draw(st.integers(0, 4)) == 0:  # one row's keys in another order, or one fewer
        last = list(rows[-1].items())
        rows[-1] = dict(last[::-1] if len(last) > 1 and draw(st.booleans()) else last[:-1])
    return rows


@settings(max_examples=300, deadline=None)
@example(rows=[{"n": 0, "box": ["0", "1/2"]}, {"n": 1, "box": ["1/4", "1/2"]}])
@example(rows=[{"%": "a", '"k"': True}, {"%": "b", '"k"': False}])
@example(rows=[{"n": [], "v": 1}, {"n": [], "v": 2}])
@example(rows=[{"b": ["x"]}, {"b": ["x", "y"]}])
@given(rows=row_lists())
def test_writer_matches_json_dumps_on_row_lists(rows):
    """A list of uniform rows is written with one template, and every other
    list of dicts (mixed or bool-and-int columns, lists of unequal length or
    empty, nested dicts, other key orders) item by item: keys with %, quotes,
    newlines or non-ASCII text are escaped in the template as json escapes them."""
    for payload in ({"steps": rows}, {"table": {"steps": rows}, "more": [rows, rows]}):
        assert dumped(payload) == stdlib_bytes(payload)


def reference_section_lines(body: object, indent: str = "  ") -> list[str]:
    """harness._section_lines without row tables: every line by the walk."""
    out: list[str] = []
    if isinstance(body, dict):
        width = max((len(str(k)) for k in body), default=0)
        for k, v in body.items():
            if isinstance(v, (dict, list)):
                out.append(f"{indent}{k}:")
                out.extend(reference_section_lines(v, indent + "  "))
            else:
                out.append(f"{indent}{str(k).ljust(width)}  {v}")
    elif isinstance(body, list):
        for item in body:
            if isinstance(item, (dict, list)):
                out.extend(reference_section_lines(item, indent))
                out.append(indent + "-")
            else:
                out.append(f"{indent}{item}")
        if body and isinstance(body[-1], (dict, list)):
            out.pop()
    else:
        out.append(f"{indent}{body}")
    return out


def test_a_lists_last_item_dash_is_written():
    """Only the separator after a last nested item goes, not an item that reads "-"."""
    assert harness._section_lines(["a", "-"]) == ["  a", "  -"]
    assert harness._section_lines([{"k": 1}, "-"]) == ["  k  1", "  -", "  -"]
    assert harness._section_lines(["-", {"k": 1}]) == ["  -", "  k  1"]


def reference_text(report: harness.Report) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_section_lines", reference_section_lines)
        return report.to_text()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_report_text_matches_the_reference_walk(name):
    """Every corpus report, in each mode the file accepts, the checkers also at depth 600."""
    sc = load_scenario(corpus_path(name))
    for mode in accepted_modes(CORPUS_DOCS[name]):
        for depth in (sc.depth, 600) if mode in ("prop1", "mirror", "s2a-check") else (sc.depth,):
            report = _VERIFY_MODES[mode](sc.replace(depth=depth))
            assert report.to_text() == reference_text(report), (mode, depth)


@settings(max_examples=300, deadline=None)
@example(rows=[{"n": 0, "box": ["0", "-"]}, {"n": 1, "box": ["-", "1/2"]}], tree=None)
@example(rows=[{"n": 0, "%": "a"}, {"n": 1, "%": "b"}], tree=[])
@given(rows=row_lists(), tree=json_trees)
def test_report_text_matches_the_reference_walk_on_random_bodies(rows, tree):
    """A list's last item "-" is written by the walk, and so by a table too."""
    report = harness.Report("prop1", "random", {"depth": 1})
    report.add("rows", {"inequality": "a_n < alpha", "steps": rows, "nested": [rows, rows]})
    report.add("tree", {"tree": tree, "rows": rows})
    assert report.to_text() == reference_text(report)
