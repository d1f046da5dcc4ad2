"""Malformed input files fail with the loader's own error type and, for
line-oriented files, the path and line number of the offending line."""

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from robovalid import cli
from robovalid.cli import _load_configs, main
from robovalid.ctgen import CtError
from robovalid.logic import ParseError
from robovalid.sim import SimError, load_scenario
from robovalid.stl import StlError, Trace, load_pmap
from robovalid.theory import TheoryError, load_model

from conftest import MODELS, ROOT

KITCHEN = (MODELS / "kitchen4.sc").read_text()
PMAP = (MODELS / "kitchen4.pmap").read_text()
THEORY = load_model(MODELS / "kitchen4.sc")
CONFIG = ('{"assignment":[],"fluents":["IsOpen(o_b)","IsOpen(o_p)","IsOpen(o_t)",'
          '"Loc(o_b,o_p)","Loc(o_p,o_t)"],"task":"open(o_m)"}\n')
SCENARIO = MODELS / "kitchen4_scenario.json"


# file name -> (valid text, loader, the error a bad line must raise)
BASES = {
    "kitchen4.sc": (KITCHEN, load_model, TheoryError),
    "kitchen4.pmap": (PMAP, load_pmap, StlError),
    "trace.csv": ("time,x\n0,1\n", lambda path: Trace.from_csv(path.read_text()),
                  StlError),
    "configs.jsonl": (CONFIG, lambda path: _load_configs(path, THEORY), CtError),
}


@pytest.mark.parametrize("name,line", [
    ("kitchen4.sc", "rigid: Foo"),
    ("kitchen4.sc", "rigid: Foo/x"),
    ("kitchen4.sc", "fluent: Loc"),
    # a closure must be binary, over a binary primitive fluent; kitchen4.sc
    # already declares In, so the In lines are also second declarations
    ("kitchen4.sc", "fluent: In/2 closure-of IsOpen"),
    ("kitchen4.sc", "fluent: In/3 closure-of Loc"),
    ("kitchen4.sc", "fluent: Inside/2 closure-of IsOpen"),
    ("kitchen4.sc", "fluent: Inside/3 closure-of Loc"),
    # a name declared twice, in any section
    ("kitchen4.sc", "objects: o_b"),
    ("kitchen4.sc", "objects: o_c o_c"),
    ("kitchen4.sc", "rigid: IsOpen/1"),
    ("kitchen4.sc", "fluent: Placeable/2 primitive"),
    ("kitchen4.sc", "op: open(o) pre: true"),
    ("kitchen4.sc", "successor: IsOpen(o) plus: false minus: false"),
    ("kitchen4.sc", "grammar: r_act: T ::= A"),
    ("kitchen4.sc", "op: swap(o,o) pre: true"),
    # alpha = f(...) belongs in successor axioms only
    ("kitchen4.sc", "op: swap(o) pre: alpha = open(o)"),
    ("kitchen4.sc", "init: alpha = open(o_m)"),
    # each atom of a formula names a declared predicate, with its arity and
    # kind, at the situation variable or s0, and each free variable is a
    # parameter: what grounding the formula would check later
    ("kitchen4.sc", "op: swap(o) pre: HasDoor(o,o)"),
    ("kitchen4.sc", "op: swap(o) pre: IsOpen(o)"),
    ("kitchen4.sc", "op: swap(o) pre: HasDoor(o)@s"),
    ("kitchen4.sc", "op: swap(o) pre: IsOpen(p)@s"),
    ("kitchen4.sc", "op: swap(o) pre: IsOpen(o)@do(open(o),s)"),
    ("kitchen4.sc", "init: !Running(o_b,o_b)@s0"),
    ("kitchen4.sc", "init: !Running(x)@s0"),
    ("kitchen4.sc", "init: exists x . Nope(x)@s0"),
    # declarations that contradict the others name their own line
    ("kitchen4.sc", "fluent: Door/0 primitive"),
    ("kitchen4.sc", "successor: Door() plus: false minus: false"),
    # a rigid truth must be a declared rigid predicate over declared objects
    ("kitchen4.sc", "rigidtrue: Placeable(o_b,o_zz)"),
    ("kitchen4.sc", "rigidtrue: Nope(o_b)"),
    ("kitchen4.sc", "rigidtrue: Placeable(o_b)"),
    ("kitchen4.sc", "rigidtrue: IsOpen(o_b)"),
    ("kitchen4.pmap", "deltat: x"),
    ("kitchen4.pmap", "deltat: 1.0"),
    ("kitchen4.pmap", "pmap: Foo"),
    ("kitchen4.pmap", "pmap: Foo := s > 1"),
    ("kitchen4.pmap", "pmap: IsOpen(a) := DoorAngle_{a} > 70"),
    ("kitchen4.pmap", "pmap: Foo(a,a) := s_{a} > 1"),
    # a finite threshold, and placeholders that are the head's parameters
    ("kitchen4.pmap", "pmap: Foo(a) := s_{a} > nan"),
    ("kitchen4.pmap", "pmap: Foo(a) := s_{a} > inf"),
    ("kitchen4.pmap", "pmap: Foo(a) := s_{b} > 1"),
    ("kitchen4.pmap", "pmap: Foo(a) := s_{a > 1"),
    ("trace.csv", "0.5,abc"),
    ("configs.jsonl", "not json"),
    ("configs.jsonl", '{"fluents": []}'),
    # a world must be an initial world of the model: declared objects,
    # declared primitive fluents, and the initial axioms hold
    ("configs.jsonl", CONFIG.strip().replace("Loc(o_b,o_p)", "Loc(o_b,o_zz)")),
    ("configs.jsonl", CONFIG.strip().replace("Loc(o_b,o_p)", "Nope(o_b)")),
    ("configs.jsonl", CONFIG.strip().replace("Loc(o_p,o_t)", "Loc(o_p,o_b)")),
])
def test_bad_line_raises_typed_error(tmp_path, name, line):
    base, load, error = BASES[name]
    path = tmp_path / name
    text = base.rstrip("\n") + "\n" + line + "\n"
    path.write_text(text)
    with pytest.raises(error) as info:
        load(path)
    if name != "trace.csv":  # the line-oriented files name the bad line
        assert str(info.value).startswith("%s:%d: " % (path, text.count("\n")))


@pytest.mark.parametrize("equality", ["alpha = opn(o)", "alpha = open(o,o)"])
def test_successor_names_a_declared_operation(tmp_path, equality):
    """Each alpha = f(...) of a successor axiom names a declared operation
    with its arity; otherwise loading fails on the axiom's line."""
    old = "successor: IsOpen(o) plus: alpha = open(o)"
    assert old in KITCHEN
    path = tmp_path / "kitchen4.sc"
    path.write_text(KITCHEN.replace(old, "successor: IsOpen(o) plus: " + equality))
    lineno = KITCHEN[:KITCHEN.index(old)].count("\n") + 1
    with pytest.raises(TheoryError) as info:
        load_model(path)
    assert str(info.value).startswith("%s:%d: %s: " % (path, lineno, equality))


def _without(key):
    def edit(raw):
        del raw[key]
    return edit


def _set(value, *keys):
    def edit(raw):
        for key in keys[:-1]:
            raw = raw[key]
        raw[keys[-1]] = value
    return edit


@pytest.mark.parametrize("edit, text", [
    (_without("policy"), "missing key 'policy'"),
    (_without("workspace"), "missing key 'workspace'"),
    (_set("tall", "objects", "o_b", "height"), "expected a finite number, got 'tall'"),
    (_set(float("nan"), "objects", "o_b", "height"), "expected a finite number, got nan"),
    (_set([0.0, 0.0], "objects", "o_t", "position"), "expected a list of 3 numbers"),
    (_set(["a", 1.0], "policy", "timingScale"), "expected a finite number, got 'a'"),
    (_set("false", "objects", "o_t", "fixed"), "fixed of o_t must be true or false"),
    (_set([], "objects"), "'list' object has no attribute 'items'"),
    (_set(0.25, "objects", "o_t", "zone_raduis"), "unknown key 'zone_raduis' in object o_t"),
    (_set(1, "workspaces"), "unknown key 'workspaces' in the scenario"),
    (_set(0.1, "objects", "o_m", "support", "raduis"),
     "unknown key 'raduis' in the support of object o_m"),
    (_set(0.1, "objects", "o_b", "region", "dz_hi"),
     "unknown key 'dz_hi' in the region of object o_b"),
    (_set([0.0, 1.0], "objects", "o_m", "door", "ajar"),
     "unknown key 'ajar' in the door of object o_m"),
    (_set({}, "objects", "o_m", "door"), "missing key 'closed'"),
    (_set([81.0, 400.0], "objects", "o_m", "door", "open"),
     "door open of object o_m [81, 400] is not an ordered range within [0, 180]"),
    (_set([0.9, 0.0], "objects", "o_m", "door", "closed"),
     "door closed of object o_m [0.9, 0] is not an ordered range within [0, 180]"),
    (_set([0.0, 1.0], "policy", "gripForce"), "unknown key 'gripForce' in the policy"),
    (_set([0.0, 1.0], "workspace", "w"), "unknown key 'w' in the workspace"),
    (_set([0.4, 0.0], "objects", "o_t", "zones", "o_x"),
     "zone of o_t for o_x, which is not a movable object"),
    (_set([0.4, 0.0], "objects", "o_t", "zones", "o_m"),
     "zone of o_t for o_m, which is not a movable object"),
], ids=["no-policy", "no-workspace", "text-height", "nan-height", "short-position",
        "text-range", "text-fixed", "objects-list", "object-key", "top-level-key",
        "support-key", "region-key", "door-key", "empty-door", "door-open-past-180",
        "door-closed-unordered", "policy-key", "workspace-key",
        "zone-of-no-object", "zone-of-a-fixed-object"])
def test_bad_scenario_raises_sim_error(tmp_path, edit, text):
    """A bad value, or a misspelt key that would otherwise read as its
    default, is a SimError that names the file and the key."""
    raw = json.loads(SCENARIO.read_text())
    edit(raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SimError) as info:
        load_scenario(path)
    assert str(info.value).startswith("%s: " % path) and text in str(info.value)


def test_each_distinct_world_is_checked_once(tmp_path, monkeypatch):
    """The 52 frozen configurations have 12 distinct initial worlds, and
    every fourth of them 9: each is checked against the initial axioms
    once.  A bad world is still reported at its first line."""
    calls = []
    real = cli.satisfies_init

    def counting(theory, w0):
        calls.append(w0)
        return real(theory, w0)

    monkeypatch.setattr(cli, "satisfies_init", counting)
    for name, worlds in (("kitchen4_d8_t2", 12), ("kitchen4_d8_t2_every4th", 9)):
        calls.clear()
        configs = _load_configs(ROOT / "perfbench" / "inputs" / (name + ".configs.jsonl"),
                                THEORY)
        assert len(calls) == len({c.initial_world for c in configs}) == worlds
    bad = CONFIG.replace('"Loc(o_b,o_p)",', "")  # the bread is nowhere
    path = tmp_path / "configs.jsonl"
    path.write_text(CONFIG + bad + CONFIG + bad)
    calls.clear()
    with pytest.raises(CtError, match="^%s:2: the world does not satisfy" % path):
        _load_configs(path, THEORY)
    assert len(calls) == 2


def test_scenario_that_is_not_json_raises_sim_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(SCENARIO.read_text()[:-20])
    with pytest.raises(SimError, match="^%s: " % path):
        load_scenario(path)


@pytest.mark.parametrize("command", [
    ["falsify", "--configs",
     str(ROOT / "perfbench" / "inputs" / "kitchen4_d8_t2.configs.jsonl")],
    ["validate", "--depth", "2"],
], ids=lambda c: c[0])
def test_scenario_must_describe_the_model_objects(tmp_path, command):
    raw = json.loads(SCENARIO.read_text())
    del raw["objects"]["o_t"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SimError, match="scenario objects o_b o_m o_p differ"):
        main(command + ["--model", str(MODELS / "kitchen4.sc"),
                        "--pmap", str(MODELS / "kitchen4.pmap"),
                        "--scenario", str(path), "--out", str(tmp_path / "out")])


LINES = KITCHEN.splitlines()
TOKENS = ["forall", "exists", "primitive", "closure-of", "pre:", "plus:",
          "minus:", "::=", "alpha", "do(", "s0", "@s", "/", "/2", "()", "x"]
edits = st.one_of(st.text(alphabet=":/()@,.&|!=-<>?;[]#_ abxo0129", max_size=4),
                  st.sampled_from(TOKENS))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, len(LINES) - 1), st.integers(0, 200), st.integers(0, 6),
       edits)
def test_mutated_model_fails_typed(index, start, length, insert):
    """Replacing a slice of one line of kitchen4.sc with other text either
    loads or raises TheoryError / ParseError, never another exception."""
    line = LINES[index]
    start = min(start, len(line))
    lines = list(LINES)
    lines[index] = line[:start] + insert + line[start + length:]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutant.sc"
        path.write_text("\n".join(lines) + "\n")
        try:
            load_model(path)
        except (TheoryError, ParseError):
            pass
