import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

from robovalid import cli, ctgen, theory
from robovalid.cli import main
from robovalid.logic import ModelError

from conftest import MODELS, ROOT, WAIT_MODEL

KITCHEN = str(MODELS / "kitchen4.sc")
KITCHEN7 = str(MODELS / "kitchen7.sc")
PUTFRAG = str(MODELS / "putfrag.sc")
PMAP = str(MODELS / "kitchen4.pmap")
SCENARIO = str(MODELS / "kitchen4_scenario.json")


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "model-format 1" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_enumerate_counts(capsys, monkeypatch):
    """The table comes from one pass at the largest depth, which runs the
    tasks forward and computes no weakest precondition."""
    wp_calls, passes = [], []
    enumerate_derivations = cli.enumerate_derivations
    monkeypatch.setattr(ctgen, "compute_wp", lambda *a: wp_calls.append(a))
    monkeypatch.setattr(cli, "enumerate_derivations",
                        lambda *a: passes.append(a) or enumerate_derivations(*a))
    assert main(["enumerate", "--model", KITCHEN, "--depth", "4"]) == 0
    assert wp_calls == []
    assert len(passes) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["depth", "syntax-valid", "accomplishable"]
    table = {int(a): (int(b), int(c))
             for a, b, c in (ln.split() for ln in lines[1:])}
    assert table[3] == (12, 3)
    assert table[4] == (28, 8)


def test_enumerate_with_a_derived_initial_axiom(derived_init_path, capsys):
    assert main(["enumerate", "--model", str(derived_init_path), "--depth", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == ["depth", "1", "2", "3"]


def test_wp_output(capsys):
    assert main(["wp", "--model", KITCHEN,
                 "--task", "[open(o_m) ; close(o_m)]"]) == 0
    out = capsys.readouterr().out.strip()
    assert "IsOpen" in out and "Running" in out
    assert main(["wp", "--model", KITCHEN,
                 "--task", "[open(o_m) ; open(o_m)]"]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_generate_putfrag_one_way(tmp_path, capsys):
    out = tmp_path / "g"
    assert main(["generate", "--model", PUTFRAG, "--depth", "3",
                 "--strength", "1", "--out", str(out)]) == 0
    lines = (out / "configs.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for ln in lines:
        rec = json.loads(ln)
        assert set(rec) == {"assignment", "fluents", "task"}
        assert rec["task"].startswith("put(")


# sha256 of kitchen7's configs.jsonl at depth 4, strength 2, as written
# when every operation grounded every atom's effect conditions
KITCHEN7_CONFIGS_SHA256 = json.loads(
    (ROOT / "tests" / "golden" / "kitchen7_configs_sha256.json").read_text())


def test_generate_seven_object_kitchen_computes_no_wp(tmp_path, capsys, monkeypatch):
    """On the seven-object kitchen, whose closure In chains over seven
    objects, `generate` runs the tasks forward and decodes the array
    without computing or grounding a weakest precondition."""
    wp_calls = []
    monkeypatch.setattr(ctgen, "compute_wp", lambda *a: wp_calls.append(a))
    assert main(["generate", "--model", KITCHEN7, "--depth", "4",
                 "--strength", "2", "--out", str(tmp_path)]) == 0
    assert wp_calls == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["4", "70", "14", "24", "2"]
    data = (tmp_path / "configs.jsonl").read_bytes()
    assert len(data.splitlines()) == 24
    assert hashlib.sha256(data).hexdigest() == KITCHEN7_CONFIGS_SHA256["4"]["2"]


def test_zero_ary_operation_enumerates_and_generates(tmp_path, capsys):
    """An operation without arguments parses, derives and runs: `wait()`
    completes from both initial worlds (Done false or true)."""
    path = tmp_path / "wait.sc"
    path.write_text(WAIT_MODEL)
    assert main(["enumerate", "--model", str(path), "--depth", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["1", "1", "1"]
    assert main(["generate", "--model", str(path), "--depth", "1", "--strength", "1",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["1", "1", "1", "2", "1"]
    records = [json.loads(line)
               for line in (tmp_path / "configs.jsonl").read_text().splitlines()]
    assert [(r["task"], r["fluents"]) for r in records] == [("wait()", []),
                                                            ("wait()", ["Done()"])]


def test_generate_grounds_each_effect_condition_once(tmp_path, capsys, monkeypatch,
                                                     kitchen):
    """A run grounds gamma+ and gamma- once per primitive atom, whatever
    the number of operations; each operation only binds itself in."""
    grounded = []
    real = theory.ground_effect_condition
    monkeypatch.setattr(theory, "ground_effect_condition",
                        lambda *a: grounded.append(a) or real(*a))
    assert main(["generate", "--model", KITCHEN, "--depth", "6",
                 "--strength", "1", "--out", str(tmp_path)]) == 0
    assert len(kitchen.all_primitive_atoms()) == 24
    assert len(grounded) == 2 * 24


# sha256 of kitchen4's configs.jsonl, by depth and strength, as written
# when the covering array counted gains over every t-tuple of all columns
CONFIGS_SHA256 = json.loads((ROOT / "tests" / "golden" / "kitchen4_configs_sha256.json")
                            .read_text())


@pytest.mark.parametrize("depth,strength", [(d, t) for d in sorted(CONFIGS_SHA256)
                                            for t in sorted(CONFIGS_SHA256[d])])
def test_generate_writes_the_golden_configs(tmp_path, capsys, depth, strength):
    """`generate`'s covering array, decoded, is byte for byte the recorded
    one at each pinned depth and strength."""
    assert main(["generate", "--model", KITCHEN, "--depth", depth,
                 "--strength", strength, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "configs.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CONFIGS_SHA256[depth][strength]


# sha256 of every file `falsify` writes for the 52 frozen depth-8
# configurations over a door-torque range, as the CI steps run it at
# seeds 0 and 7, and with grasps and timing that vary per sample
FALSIFY_TORQUE_SHA256 = json.loads(
    (ROOT / "tests" / "golden" / "kitchen4_falsify_d8_torque_sha256.json").read_text())
FALSIFY_TORQUE_SEED7_SHA256 = json.loads(
    (ROOT / "tests" / "golden" / "kitchen4_falsify_d8_torque_seed7_sha256.json").read_text())
FALSIFY_GRASP_TIMING_SHA256 = json.loads(
    (ROOT / "tests" / "golden" / "kitchen4_falsify_d8_grasp_timing_sha256.json").read_text())


def _falsify_frozen_run(tmp_path, capsys, seed: int, *knobs: str) -> tuple[str, dict[str, str]]:
    """The summary line and the sha256 of each written file of the frozen
    configurations' run at `seed` with the `--knob` overrides `knobs`."""
    argv = ["falsify", "--model", KITCHEN, "--configs",
            str(ROOT / "perfbench" / "inputs" / "kitchen4_d8_t2.configs.jsonl"),
            "--pmap", PMAP, "--scenario", SCENARIO, "--budget", "25",
            "--seed", str(seed), "--out", str(tmp_path)]
    for knob in knobs:
        argv += ["--knob", knob]
    assert main(argv) == 0
    return (capsys.readouterr().out.splitlines()[0],
            {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(tmp_path.iterdir())})


def _falsify_torque_run(tmp_path, capsys, seed: int) -> tuple[str, dict[str, str]]:
    """The summary line and the sha256 of each written file of the frozen
    configurations' torque run at `seed`."""
    return _falsify_frozen_run(tmp_path, capsys, seed, "doorTorqueLimit=0.4:2.0")


def test_falsify_writes_the_golden_report_and_traces(tmp_path, capsys):
    """The concrete layer's bytes are fixed: `report.json` and each
    counterexample trace of the frozen configurations' torque run."""
    assert _falsify_torque_run(tmp_path, capsys, 0) == (
        "falsified 4 / passed 48 / errors 0 of 52 configurations", FALSIFY_TORQUE_SHA256)


def test_falsify_at_seed_7_writes_the_golden_report_and_traces(tmp_path, capsys):
    """The same run at seed 7, whose searches improve their incumbents
    mid-search, so the incumbent that bounds each sample changes."""
    assert _falsify_torque_run(tmp_path, capsys, 7) == (
        "falsified 8 / passed 44 / errors 0 of 52 configurations",
        FALSIFY_TORQUE_SEED7_SHA256)


def test_falsify_with_grasps_and_timing_varying_writes_the_golden_report_and_traces(
        tmp_path, capsys):
    """The frozen configurations with the grasp margin and the timing
    scale drawn per sample: puts that drop their object, strokes the
    horizon cuts short, and 31 counterexamples."""
    got = _falsify_frozen_run(tmp_path, capsys, 0, "graspSuccessMargin=0.0:0.05",
                              "timingScale=0.5:2.0")
    assert got == ("falsified 31 / passed 21 / errors 0 of 52 configurations",
                   FALSIFY_GRASP_TIMING_SHA256)
    assert len(got[1]) == 32


def test_knob_override_rejects_unknown(tmp_path):
    with pytest.raises(SystemExit):
        main(["validate", "--model", KITCHEN, "--depth", "4",
              "--strength", "1", "--pmap", PMAP, "--scenario", SCENARIO,
              "--knob", "noSuchKnob=1", "--out", str(tmp_path)])


@pytest.mark.parametrize("knob", ["doorTorqueLimit=5", "doorTorqueLimit=1.5:0.2",
                                  "timingScale=-1", "doorTorqueLimit=abc"])
def test_knob_override_checked_like_scenario_file(tmp_path, capsys, knob):
    """An override outside the knob's legal range, reversed or not a number
    is a usage error that names the knob."""
    with pytest.raises(SystemExit) as e:
        main(["validate", "--model", KITCHEN, "--depth", "4",
              "--strength", "1", "--pmap", PMAP, "--scenario", SCENARIO,
              "--knob", knob, "--out", str(tmp_path)])
    assert e.value.code == 2
    assert knob.partition("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--depth", "2", "--strength", "abc"],
    ["generate", "--depth", "2", "--strength", "0"],
    ["generate", "--depth", "2", "--strength", "-1"],
    ["generate", "--depth", "0"],
    ["enumerate", "--depth", "0"],
], ids=" ".join)
def test_bad_depth_or_strength_is_usage_error(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path)] if argv[0] == "generate" else []
    with pytest.raises(SystemExit) as e:
        main(argv + ["--model", KITCHEN] + out)
    assert e.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_falsify_consumes_generated_configs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--model", KITCHEN, "--depth", "4",
                 "--strength", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["depth", "syntax-valid", "accomplishable",
                                "configurations", "strength"]
    # the depth-4 counts of tests/golden/kitchen4_depth_counts.json
    assert lines[1].split()[:3] == ["4", "28", "8"]
    assert main(["falsify", "--model", KITCHEN,
                 "--configs", str(out / "configs.jsonl"),
                 "--pmap", PMAP, "--scenario", SCENARIO,
                 "--budget", "10", "--seed", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "falsified 0" in text
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["errors"] == 0
    assert report["summary"]["falsified"] == 0
    assert len(report["configurations"]) == report["summary"]["configurations"]


def test_validate_fault_run_is_deterministic(tmp_path, capsys):
    def run(d):
        code = main(["validate", "--model", KITCHEN, "--depth", "4",
                     "--strength", "full", "--pmap", PMAP,
                     "--scenario", SCENARIO,
                     "--knob", "doorTorqueLimit=0.3",
                     "--budget", "20", "--seed", "5", "--out", str(d)])
        assert code == 0
        return ((d / "configs.jsonl").read_bytes(),
                (d / "report.json").read_bytes())

    a = run(tmp_path / "a")
    first_out = capsys.readouterr().out
    b = run(tmp_path / "b")
    assert a == b
    assert "passed the validation" in first_out
    report = json.loads(a[1])
    assert report["summary"]["configurations"] == 33
    assert report["summary"]["falsified"] == 6
    # falsified configurations get a counterexample trace on disk
    falsified = [c["index"] for c in report["configurations"]
                 if c["status"] == "falsified"]
    for i in falsified:
        assert (tmp_path / "a" / ("trace_%03d.csv" % i)).exists()


def test_error_rows_give_nonzero_exit(tmp_path, capsys):
    """A pmap without the Running mapping fails every spec synthesis: the
    rows are recorded as errors and both campaign commands exit 1."""
    pmap = tmp_path / "no_running.pmap"
    lines = (MODELS / "kitchen4.pmap").read_text().splitlines(keepends=True)
    pmap.write_text("".join(ln for ln in lines if not ln.startswith("pmap: Running")))
    out = tmp_path / "run"
    flags = ["--model", KITCHEN, "--pmap", str(pmap), "--scenario", SCENARIO,
             "--budget", "5", "--out", str(out)]
    assert main(["validate", "--depth", "4", "--strength", "1"] + flags) == 1
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["errors"] == summary["configurations"] == 6
    assert main(["falsify", "--configs", str(out / "configs.jsonl")] + flags) == 1
    assert "errors 6 of 6" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["falsify", "--configs", "configs.jsonl"],
                                     ["validate", "--depth", "2"]], ids=lambda c: c[0])
def test_sim_dt_is_not_an_option(tmp_path, capsys, command):
    """The simulation step is fixed; `--sim-dt` is a usage error."""
    with pytest.raises(SystemExit) as e:
        main(command + ["--model", KITCHEN, "--pmap", PMAP, "--scenario", SCENARIO,
                        "--sim-dt", "0.5", "--out", str(tmp_path)])
    assert e.value.code == 2
    assert "--sim-dt" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-3", "2.5"])
@pytest.mark.parametrize("command", [["falsify", "--configs", "configs.jsonl"],
                                     ["validate", "--depth", "2"]], ids=lambda c: c[0])
def test_nonpositive_budget_is_usage_error(tmp_path, capsys, command, budget):
    """A budget below one evaluation is rejected before anything runs."""
    with pytest.raises(SystemExit) as e:
        main(command + ["--model", KITCHEN, "--pmap", PMAP, "--scenario", SCENARIO,
                        "--budget", budget, "--out", str(tmp_path)])
    assert e.value.code == 2
    assert "--budget" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_task_that_cannot_run_is_an_error_row(tmp_path, capsys, kitchen_worlds):
    """A configs line whose task cannot run from its world, here the test
    IsOpen(o_m) on a closed microwave, is an error row that says so, and
    falsify exits 1."""
    world = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) not in w.true_atoms)
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps({
        "fluents": sorted("%s(%s)" % (f, ",".join(args)) for f, args in world.true_atoms),
        "task": "IsOpen(o_m)@s ?", "assignment": []}) + "\n")
    out = tmp_path / "run"
    assert main(["falsify", "--model", KITCHEN, "--configs", str(configs),
                 "--pmap", PMAP, "--scenario", SCENARIO, "--out", str(out)]) == 1
    assert "errors 1 of 1" in capsys.readouterr().out
    row, = json.loads((out / "report.json").read_text())["configurations"]
    assert row["status"] == "error"
    assert row["error"] == "StlError: no branch of the task can run from the initial world"


@pytest.mark.parametrize("task", ["[alpha = open(o_m) ? ; open(o_m)]",
                                  "[IsOpen(x)@s ? ; open(o_m)]"])
def test_task_with_a_test_that_cannot_run_is_rejected_on_load(tmp_path, capsys,
                                                              kitchen_worlds, task):
    """A configs line whose test could never be decided, an operation
    equality or a free variable, stops `falsify` before any configuration
    runs, with a CtError naming the file and line; it is not an error
    row."""
    world = kitchen_worlds[0]
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps({
        "fluents": sorted("%s(%s)" % (f, ",".join(args)) for f, args in world.true_atoms),
        "task": task, "assignment": []}) + "\n")
    out = tmp_path / "run"
    with pytest.raises(ctgen.CtError, match="^%s:1: test " % configs):
        main(["falsify", "--model", KITCHEN, "--configs", str(configs),
              "--pmap", PMAP, "--scenario", SCENARIO, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("task", ["[open(o_zz) ; nil]", "open(o_m,o_m)"])
def test_task_with_an_operation_that_cannot_run_is_rejected_on_load(tmp_path, capsys,
                                                                    kitchen_worlds, task):
    """A configs line whose operation names an undeclared object, or has
    the wrong number of arguments, stops `falsify` before any configuration
    runs, with a CtError naming the file and line; it is not an error
    row."""
    world = kitchen_worlds[0]
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps({
        "fluents": sorted("%s(%s)" % (f, ",".join(args)) for f, args in world.true_atoms),
        "task": task, "assignment": []}) + "\n")
    out = tmp_path / "run"
    with pytest.raises(ctgen.CtError, match="^%s:1: operation open\\(" % configs):
        main(["falsify", "--model", KITCHEN, "--configs", str(configs),
              "--pmap", PMAP, "--scenario", SCENARIO, "--out", str(out)])
    assert not out.exists()


def test_report_is_strict_json_with_an_infinite_robustness(tmp_path, capsys, kitchen_worlds):
    """Task nil passes with robustness +inf, which the report writes as
    the string "inf": a parser that rejects Infinity and NaN reads it."""
    world = kitchen_worlds[0]
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps({
        "fluents": sorted("%s(%s)" % (f, ",".join(args)) for f, args in world.true_atoms),
        "task": "nil", "assignment": []}) + "\n")
    out = tmp_path / "run"
    assert main(["falsify", "--model", KITCHEN, "--configs", str(configs),
                 "--pmap", PMAP, "--scenario", SCENARIO, "--budget", "2",
                 "--out", str(out)]) == 0
    assert "passed 1" in capsys.readouterr().out

    def reject(constant):
        raise ValueError("not JSON: %s" % constant)

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    row, = report["configurations"]
    assert row["status"] == "passed-budget-exhausted"
    assert row["robustness"] == "inf" and float(row["robustness"]) == math.inf


def _bad_inputs(tmp):
    """(argv, start of the message) for bad input of each kind."""
    model = tmp / "no_grammar.sc"
    model.write_text("".join(ln for ln in (MODELS / "kitchen4.sc").read_text()
                             .splitlines(keepends=True) if not ln.startswith("grammar:")))
    scenario = tmp / "door_past_180.json"
    scenario.write_text(open(SCENARIO).read().replace('"open": [81.0, 180.0]',
                                                      '"open": [81.0, 400.0]'))
    configs = str(ROOT / "perfbench" / "inputs" / "kitchen4_d8_t2_every4th.configs.jsonl")
    out = ["--out", str(tmp / "out")]
    return [
        (["enumerate", "--model", str(model), "--depth", "2"], "empty grammar"),
        (["enumerate", "--model", str(tmp / "missing.sc"), "--depth", "2"],
         "[Errno 2] No such file or directory"),
        (["falsify", "--model", KITCHEN, "--configs", configs, "--pmap", PMAP,
          "--scenario", str(scenario)] + out,
         "%s: door open of object o_m [81, 400] is not an ordered range" % scenario),
        (["wp", "--model", KITCHEN, "--task", "open(o_m"], "unexpected end of input"),
    ]


def test_bad_input_is_one_stderr_line_with_exit_status_2(tmp_path, capsys):
    """`run`, the console entry, reports each typed load error and an
    input that cannot be opened as argparse reports a bad flag; `main`
    still raises them."""
    for argv, start in _bad_inputs(tmp_path):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("robovalid: error: " + start)
        with pytest.raises(cli._INPUT_ERRORS):
            main(argv)


def test_module_entry_reports_bad_input_in_one_line(tmp_path):
    argv, start = _bad_inputs(tmp_path)[0]
    proc = subprocess.run([sys.executable, "-m", "robovalid.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "robovalid: error: empty grammar: the model has no grammar rules\n"


@pytest.mark.parametrize("error", [KeyError("a programming error"),
                                   ModelError("unknown formula node: None")])
def test_other_errors_keep_their_traceback(monkeypatch, error):
    """Only bad input is one line: a programming error and an internal
    invariant of the formula layer (a ModelError) propagate out of `run`."""
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_enumerate", broken)
    with pytest.raises(type(error)):
        cli.run(["enumerate", "--model", KITCHEN, "--depth", "1"])


def test_an_output_that_cannot_be_written_keeps_its_traceback(tmp_path):
    """An OSError that is not from opening an input propagates out of
    `run`."""
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    with pytest.raises(OSError):
        cli.run(["generate", "--model", KITCHEN, "--depth", "1",
                 "--out", str(blocker / "out")])
