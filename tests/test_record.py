"""`Record` against the frozen dataclass it replaces.

Every `Record` subclass of the package is compared with a twin built by
`dataclasses.make_dataclass(name, fields, frozen=True)`, given the same
`__post_init__`: equality, hash, repr, construction and its errors, and
the refusal to assign or delete.  The start-up guard checks which
package classes are still dataclasses once `robovalid.cli` is imported."""

import dataclasses
import math
import os
import subprocess
import sys
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

import robovalid.cli  # noqa: F401  (imports every module of the package)
from conftest import ROOT
from robovalid import ctgen, falsify, logic, stl, theory
from robovalid.record import Record


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted((c for c in _subclasses(Record) if c.__module__.startswith("robovalid.")),
                 key=lambda c: (c.__module__, c.__qualname__))


def twin(cls):
    """The frozen dataclass with `cls`'s name, fields and `__post_init__`."""
    post = getattr(cls, "__post_init__", None)
    return dataclasses.make_dataclass(cls.__qualname__, cls._fields, frozen=True,
                                      namespace={} if post is None else {"__post_init__": post})


TWINS = {cls: twin(cls) for cls in RECORDS}


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the error itself is what is compared
        return ("raised", type(exc), str(exc))


# Field values: ±0.0, NaN and infinities, other scalars, and tuples and
# package records nested in them.
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=2),
                    st.floats(allow_nan=True),
                    st.sampled_from([0.0, -0.0, math.nan, math.inf]))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple),
    st.builds(logic.Obj, inner),
    st.builds(logic.And, inner, inner)), max_leaves=6)


@st.composite
def value_pairs(draw, n):
    """Two lists of n field values: the second takes each of the first's
    values itself (the same object), an equal copy or a new draw."""
    first = [draw(VALUES) for _ in range(n)]
    second = []
    for v in first:
        how = draw(st.sampled_from(["same", "copy", "new"]))
        if how == "same":
            second.append(v)
        elif how == "copy" and isinstance(v, float):
            second.append(float(repr(v)) if not math.isnan(v) else float("nan"))
        else:
            second.append(draw(VALUES))
    return first, second


def test_every_converted_class_is_found():
    names = {c.__qualname__ for c in RECORDS}
    assert {"Obj", "PAnd", "Seq", "GroundOp", "WorldState", "Configuration",
            "ScenarioSample", "Scenario", "Trace", "SpecSynthesisResult",
            "FalsificationResult", "CampaignEntry", "WpResult"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data):
    tw = TWINS[cls]
    n = len(cls._fields)
    a, b = data.draw(value_pairs(n))
    ra, rb, ta, tb = (outcome(cls, *a), outcome(cls, *b), outcome(tw, *a), outcome(tw, *b))
    # construction, with every __post_init__ error and its text
    for r, t in ((ra, ta), (rb, tb)):
        if isinstance(t, tuple) and t[:1] == ("raised",):
            assert r == t
        else:
            assert isinstance(r, cls) and isinstance(t, tw)
    if not isinstance(ra, cls) or not isinstance(rb, cls):
        return
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert ra == ra and (ra != ra) is False
    assert outcome(hash, ra) == outcome(hash, ta)
    assert repr(ra) == repr(ta)
    assert cls(**dict(zip(cls._fields, a))) == ra
    # another class with equal fields, or the twin itself, is never equal
    other = type(cls.__qualname__, (Record,), {"__annotations__": dict.fromkeys(cls._fields)})
    assert ra != other(*a) and not (ra == ta)
    # arity and keyword errors
    assert outcome(cls, *a, None)[:2] == ("raised", TypeError)
    assert outcome(tw, *a, None)[:2] == ("raised", TypeError)
    assert outcome(cls, *a, unknown_field=1)[:2] == ("raised", TypeError)
    if n:
        assert outcome(cls, *a[:-1])[:2] == ("raised", TypeError)
        assert outcome(cls, *a, **{cls._fields[0]: a[0]})[:2] == ("raised", TypeError)
    for name in cls._fields[:1] + ("not_a_field",):
        for r in (ra, ta):
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
            with pytest.raises(AttributeError):
                delattr(r, name)


# Each __post_init__ error of a converted class, with the text it raises.
POST_INIT_ERRORS = [
    (theory.PredicateDecl, ("p", -1, "rigid"), "negative arity for p"),
    (theory.PredicateDecl, ("p", 1, "other"), "bad predicate kind 'other'"),
    (ctgen.CtParameter, ("x", ()), "parameter x has an empty domain"),
    (stl.Trace, ((), {}), "empty trace"),
    (stl.Trace, ((0.0, 0.0), {}), "timestamps must be strictly increasing"),
    (stl.Trace, ((0.0, 1.0), {"s": (1.0,)}), "signal s has 1 samples for 2 timestamps"),
    (falsify.FalsificationResult, ("falsified", 0.5, None, None, 1, 0),
     "status/robustness inconsistency"),
]


@pytest.mark.parametrize("cls, args, text", POST_INIT_ERRORS,
                         ids=lambda x: getattr(x, "__qualname__", None))
def test_post_init_errors_match_the_twin(cls, args, text):
    got = outcome(cls, *args)
    assert got == outcome(TWINS[cls], *args)
    assert got[0] == "raised" and got[2] == text


def test_fields_are_inherited_and_cached_properties_do_not_count():
    class Base(Record):
        a: int

    class Sub(Base):
        b: float

        @cached_property
        def total(self):
            return self.a + self.b

    assert Sub._fields == ("a", "b")
    x, y = Sub(1, 2.0), Sub(b=2.0, a=1)
    assert x.total == 3.0 and "total" in vars(x)
    assert x == y and hash(x) == hash(y) == hash((1, 2.0))
    assert repr(x) == Sub.__qualname__ + "(a=1, b=2.0)"
    with pytest.raises(TypeError):
        class Defaulted(Record):  # noqa: F841  (a field with a default)
            a: int = 0


def test_import_leaves_only_the_named_dataclasses():
    """Importing the CLI builds the package's value classes as records;
    the dataclasses left are the STL formula nodes, which the benchmark
    walks with `dataclasses.fields`, the three mutable classes, and the
    two whose fields take options."""
    code = ("import dataclasses, sys, robovalid.cli\n"
            "for name, mod in sorted(sys.modules.items()):\n"
            "    if name.startswith('robovalid'):\n"
            "        for obj in vars(mod).values():\n"
            "            if (isinstance(obj, type) and obj.__module__ == name\n"
            "                    and dataclasses.is_dataclass(obj)):\n"
            "                print(name.partition('.')[2] + '.' + obj.__qualname__)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    stl_nodes = {"stl.STrue", "stl.Atom", "stl.SNot", "stl.SAnd", "stl.SOr",
                 "stl.Eventually", "stl.Always"}
    assert stl_nodes <= set(out)
    assert sorted(out) == sorted(stl_nodes | {
        "stl._Interval", "theory.ActionTheory", "ctgen.CtModel", "sim.ConcreteState",
        "theory.GrammarRule", "sim.ObjectGeometry"})
