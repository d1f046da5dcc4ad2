"""Command-line pipeline: enumerate tasks, print weakest preconditions,
generate covering-array configurations, and run falsification campaigns.

All artifacts are line-oriented text with sorted keys, so reruns with the
same flags and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Union

from . import ctgen, falsify as fz, sim, stl
from .logic import ParseError, format_formula, TRUE
from .tasks import Grammar, enumerate_derivations, format_task, parse_task
from .theory import (
    TheoryError, WorldState, enumerate_initial_worlds, load_model,
    parse_ground_atom, satisfies_init,
)
from .wp import wp

MODEL_FORMAT_VERSION = "1"


class InputError(Exception):
    """An input file that cannot be opened or read."""


def _load(load, path, *args):
    """`load(path, *args)`, a loader that reads the input file `path`; an
    OSError from reading it is an InputError."""
    try:
        return load(path, *args)
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _atom_str(atom) -> str:
    return "%s(%s)" % (atom[0], ",".join(atom[1]))


def _config_record(cfg: ctgen.Configuration) -> dict:
    return {
        "fluents": sorted(_atom_str(a) for a in cfg.initial_world.true_atoms),
        "task": format_task(cfg.task),
        "assignment": list(cfg.source_assignment),
    }


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_configs(out_dir, configs) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "configs.jsonl")
    with open(path, "w") as f:
        for cfg in configs:
            f.write(_json_line(_config_record(cfg)))
    return path


def _load_configs(path, theory) -> list[ctgen.Configuration]:
    """The configurations of a configs.jsonl file; a malformed line, or a
    world that is not an initial world of the model, is a CtError naming
    its path and line.  Each distinct world is checked against the
    initial axioms once."""
    primitive = frozenset(theory.all_primitive_atoms())
    initial: dict[frozenset, bool] = {}  # satisfies_init per world
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                w0 = WorldState(frozenset(parse_ground_atom(a) for a in rec["fluents"]))
                unknown = sorted(w0.true_atoms - primitive)
                if unknown:
                    raise ValueError("%s is not a primitive fluent atom of the model"
                                     % _atom_str(unknown[0]))
                ok = initial.get(w0.true_atoms)
                if ok is None:
                    ok = initial[w0.true_atoms] = satisfies_init(theory, w0)
                if not ok:
                    raise ValueError("the world does not satisfy the initial axioms")
                task = parse_task(rec["task"], theory)
                out.append(ctgen.Configuration(w0, task, tuple(rec["assignment"])))
            except KeyError as exc:
                raise ctgen.CtError("%s:%d: missing field %s" % (path, lineno, exc)) from exc
            except (ValueError, TypeError, TheoryError, ParseError) as exc:
                raise ctgen.CtError("%s:%d: %s" % (path, lineno, exc)) from exc
    return out


def _knob_override(text: str) -> tuple[str, tuple[float, float]]:
    """`--knob NAME=LO[:HI]`, checked as a scenario file's range is."""
    name, _, bounds = text.partition("=")
    lo, _, hi = bounds.partition(":")
    try:
        lo = float(lo)
        hi = float(hi) if hi else lo
        sim.check_knob_range(name, lo, hi)
    except (ValueError, sim.SimError) as exc:
        raise argparse.ArgumentTypeError("%s: %s" % (text, exc)) from exc
    return name, (lo, hi)


def _load_scenario(path, theory, overrides) -> sim.Scenario:
    """The scenario file with the `--knob` overrides applied; it must
    describe the model's objects, and the simulator must have a
    controller for each of the model's operations."""
    scn = _load(sim.load_scenario, path)
    if sorted(scn.objects) != sorted(theory.objects):
        raise sim.SimError("%s: scenario objects %s differ from the model's %s"
                           % (path, " ".join(sorted(scn.objects)),
                              " ".join(sorted(theory.objects))))
    sim.check_operations(theory.operations)
    ranges = dict(scn.policy_ranges)
    ranges.update(overrides)
    return sim.Scenario(scn.objects, scn.workspace, ranges)


def _positive_int(text: str) -> int:
    """A positive integer, as `--depth` and `--budget` take."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return int(text)


def _strength(text: str) -> Union[int, str]:
    """A positive integer or 'full', as `--strength` takes."""
    return text if text == "full" else _positive_int(text)


def _count_table(theory, grammar, depth: int, worlds) -> list[tuple[int, int]]:
    """(syntax-valid, accomplishable) derivation counts for each depth
    1..`depth`.  A derivation of n steps is one of every depth k >= n, so
    one pass at the largest depth gives every row as a cumulative count by
    length."""
    syntax_valid = [0] * (depth + 1)
    accomplishable = [0] * (depth + 1)
    for steps, _, sat in enumerate_derivations(grammar, depth, theory, worlds):
        syntax_valid[len(steps)] += 1
        accomplishable[len(steps)] += bool(sat)
    return [(sum(syntax_valid[:k + 1]), sum(accomplishable[:k + 1]))
            for k in range(1, depth + 1)]


def _counts_for_depth(theory, grammar, depth: int, worlds) -> tuple[int, int]:
    """The last row of `_count_table`.  No production path calls it; it
    serves the acceptance criteria and the test oracles."""
    return _count_table(theory, grammar, depth, worlds)[-1]


def cmd_enumerate(args) -> int:
    theory = _load(load_model, args.model)
    worlds = list(enumerate_initial_worlds(theory))
    table = _count_table(theory, Grammar(theory), args.depth, worlds)
    print("depth  syntax-valid  accomplishable")
    for k, (syntax_valid, accomplishable) in enumerate(table, 1):
        print("%5d  %12d  %14d" % (k, syntax_valid, accomplishable))
    return 0


def cmd_wp(args) -> int:
    theory = _load(load_model, args.model)
    task = parse_task(args.task, theory)
    print(format_formula(wp(TRUE, task, theory).formula))
    return 0


def _generate(theory, depth: int, strength):
    grammar = Grammar(theory)
    model = ctgen.build_model(theory, grammar, depth, strength)
    valid = list(ctgen.enumerate_valid(model))
    rows = ctgen.generate_covering_array(model, strength, valid)
    configs = [ctgen.realize_configuration(model, r) for r in rows]
    return model, valid, rows, configs


def cmd_generate(args) -> int:
    theory = _load(load_model, args.model)
    model, _, rows, configs = _generate(theory, args.depth, args.strength)
    path = _write_configs(args.out, configs)
    print("depth  syntax-valid  accomplishable  configurations  strength")
    print("%5d  %12d  %14d  %14d  %8s" % (args.depth, model.syntax_valid,
                                          len(model.accomplishable), len(rows), args.strength))
    print("wrote %s" % path)
    return 0


def _json_number(x: Optional[float]) -> Union[float, str, None]:
    """x itself when it is finite or None; else "inf", "-inf" or "nan",
    which strict JSON can hold and `float()` reads back."""
    return x if x is None or math.isfinite(x) else repr(x)


def _write_report(out_dir, outcomes, summary) -> str:
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "summary": summary,
        "configurations": [
            {"index": e.index, "task": e.task_text, "status": e.status,
             "robustness": _json_number(e.robustness), "evaluations": e.evaluations,
             "error": e.error}
            for e, _ in outcomes
        ],
    }
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as f:
        f.write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    for e, res in outcomes:
        if res is not None and res.status == "falsified":
            tpath = os.path.join(out_dir, "trace_%03d.csv" % e.index)
            with open(tpath, "w") as f:
                f.write(res.best_trace.to_csv())
    return path


def cmd_falsify(args) -> int:
    theory = _load(load_model, args.model)
    pmap = _load(stl.load_pmap, args.pmap)
    scn = _load_scenario(args.scenario, theory, args.knob)
    configs = _load(_load_configs, args.configs, theory)
    outcomes = fz.campaign(configs, theory, scn, pmap, args.budget, args.seed)
    summary = fz.summarize([e for e, _ in outcomes])
    path = _write_report(args.out, outcomes, summary)
    print("falsified %d / passed %d / errors %d of %d configurations"
          % (summary["falsified"], summary["passed"], summary["errors"],
             summary["configurations"]))
    print("wrote %s" % path)
    return 1 if summary["errors"] else 0


def cmd_validate(args) -> int:
    theory = _load(load_model, args.model)
    pmap = _load(stl.load_pmap, args.pmap)
    scn = _load_scenario(args.scenario, theory, args.knob)
    _, valid, rows, configs = _generate(theory, args.depth, args.strength)
    cpath = _write_configs(args.out, configs)
    outcomes = fz.campaign(configs, theory, scn, pmap, args.budget, args.seed)
    summary = fz.summarize([e for e, _ in outcomes])
    summary["valid_assignments"] = len(valid)
    summary["strength"] = str(args.strength)
    path = _write_report(args.out, outcomes, summary)
    passed = summary["passed"]
    print("Only %d configurations passed the validation (%d falsified, %d errors)"
          % (passed, summary["falsified"], summary["errors"]))
    print("wrote %s and %s" % (cpath, path))
    return 1 if summary["errors"] else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="robovalid",
        description="Two-layer validation: combinatorial world-task generation "
                    "plus STL falsification against a toy kitchen.")
    p.add_argument("--version", action="version",
                   version="model-format %s" % MODEL_FORMAT_VERSION)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True)

    sp = sub.add_parser("enumerate", help="task counts per derivation depth")
    common(sp)
    sp.add_argument("--depth", type=_positive_int, required=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("wp", help="weakest precondition of a task")
    common(sp)
    sp.add_argument("--task", required=True)
    sp.set_defaults(func=cmd_wp)

    sp = sub.add_parser("generate", help="covering-array configurations")
    common(sp)
    sp.add_argument("--depth", type=_positive_int, required=True)
    sp.add_argument("--strength", type=_strength, default="2",
                    help="coverage strength: 1, 2, 3, ... or 'full'")
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_generate)

    def falsify_flags(sp):
        sp.add_argument("--pmap", required=True)
        sp.add_argument("--scenario", required=True)
        sp.add_argument("--budget", type=_positive_int, default=25)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--knob", type=_knob_override, action="append", default=[],
                        metavar="NAME=LO[:HI]",
                        help="override a policy knob range, e.g. "
                             "doorTorqueLimit=0.3")
        sp.add_argument("--out", default="out")

    sp = sub.add_parser("falsify", help="falsify configurations from a file")
    common(sp)
    sp.add_argument("--configs", required=True)
    falsify_flags(sp)
    sp.set_defaults(func=cmd_falsify)

    sp = sub.add_parser("validate", help="full generate-and-falsify pipeline")
    common(sp)
    sp.add_argument("--depth", type=_positive_int, required=True)
    sp.add_argument("--strength", type=_strength, default="2")
    falsify_flags(sp)
    sp.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


# What bad input raises: a malformed or inconsistent file or task, or an
# input file that cannot be opened.
_INPUT_ERRORS = (TheoryError, sim.SimError, stl.StlError, ctgen.CtError,
                 ParseError, InputError)


def run(argv=None) -> int:
    """The console entry: `main`, with bad input reported as one stderr
    line, `robovalid: error: <message>`, and exit status 2, as argparse
    reports a bad flag.  Any other exception keeps its traceback."""
    try:
        return main(argv)
    except _INPUT_ERRORS as exc:
        print("robovalid: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
