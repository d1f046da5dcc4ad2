"""Malformed input files fail with the loader's own error type and, for
line-oriented files, the path and line number of the offending line."""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from robovalid.cli import _load_configs
from robovalid.ctgen import CtError
from robovalid.logic import ParseError
from robovalid.stl import StlError, Trace, load_pmap
from robovalid.theory import TheoryError, load_model

from conftest import MODELS

KITCHEN = (MODELS / "kitchen4.sc").read_text()
PMAP = (MODELS / "kitchen4.pmap").read_text()
THEORY = load_model(MODELS / "kitchen4.sc")
CONFIG = '{"assignment":[],"fluents":["Loc(o_b,o_p)"],"task":"open(o_m)"}\n'


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
    # declarations that contradict the others name their own line
    ("kitchen4.sc", "fluent: Door/0 primitive"),
    ("kitchen4.sc", "successor: Door() plus: false minus: false"),
    ("kitchen4.pmap", "deltat: x"),
    ("kitchen4.pmap", "deltat: 1.0"),
    ("kitchen4.pmap", "pmap: Foo"),
    ("kitchen4.pmap", "pmap: Foo := s > 1"),
    ("kitchen4.pmap", "pmap: IsOpen(a) := DoorAngle_{a} > 70"),
    ("trace.csv", "0.5,abc"),
    ("configs.jsonl", "not json"),
    ("configs.jsonl", '{"fluents": []}'),
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
