import pathlib

import pytest

from robovalid import sim, stl
from robovalid.cli import _load_configs
from robovalid.tasks import Grammar
from robovalid.theory import enumerate_initial_worlds, load_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# A two-object model with 0-ary predicates, a 2-ary primitive fluent (R)
# that the initial axioms keep false in every initial world, and one
# (Near) true of 0, 1 or 2 pairs.
TINY_MODEL = """\
objects: a b
rigid: Ready/0
rigid: Link/2
rigidtrue: Ready() Link(a,b)
fluent: R/2 primitive
fluent: On/0 primitive
fluent: Up/1 primitive
fluent: Near/2 primitive
op: link(x,y) pre: Ready() & Link(x,y) & On()@s & !R(x,y)@s
op: raise(x) pre: !Up(x)@s
successor: R(x,y) plus: alpha = link(x,y) minus: false
successor: On() plus: false minus: false
successor: Up(x) plus: alpha = raise(x) minus: false
successor: Near(x,y) plus: false minus: false
init: forall x . forall y . !R(x,y)@s0
init: !Up(b)@s0
init: forall x . !Near(x,x)@s0
grammar: r_t1: T ::= A
grammar: r_t2: T ::= [ A ; T ]
grammar: r_l: A ::= link ( O , O )
grammar: r_r: A ::= raise ( O )
grammar: r_a: O ::= a
grammar: r_b: O ::= b
"""


# Two lamps.  Pressing a lamp lights it, and any other operation puts it
# out: Lit's gamma- negates an operation equality, so it may hold whatever
# the operation.  The room is warm after a step from a state with a lamp
# lit; Warm's effect conditions mention no operation at all.  Only tapping
# a lamp marks it Used, so every other operation leaves Used unchanged.
SWITCH_MODEL = """\
objects: a b
fluent: Lit/1 primitive
fluent: Used/1 primitive
fluent: Warm/0 primitive
op: press(x) pre: !Lit(x)@s
op: tap(x) pre: true
successor: Lit(x) plus: alpha = press(x) minus: Lit(x)@s & !(alpha = press(x))
successor: Used(x) plus: alpha = tap(x) minus: false
successor: Warm() plus: exists x . Lit(x)@s minus: !(exists x . Lit(x)@s)
init: !Warm()@s0
"""


# One operation without arguments, which makes the 0-ary fluent Done true.
WAIT_MODEL = """\
objects: a
fluent: Done/0 primitive
op: wait() pre: true
successor: Done() plus: alpha = wait() minus: false
grammar: r_w: T ::= wait ( )
"""


@pytest.fixture(scope="session")
def kitchen():
    return load_model(MODELS / "kitchen4.sc")


@pytest.fixture(scope="session")
def kitchen7():
    return load_model(MODELS / "kitchen7.sc")


@pytest.fixture(scope="session")
def kitchen_grammar(kitchen):
    return Grammar(kitchen)


@pytest.fixture(scope="session")
def kitchen_worlds(kitchen):
    return list(enumerate_initial_worlds(kitchen))


@pytest.fixture(scope="session")
def derived_init_path(tmp_path_factory):
    """kitchen4 plus an initial axiom over the closure In: the bread does
    not start in the microwave, directly or on the plate."""
    path = tmp_path_factory.mktemp("derived_init") / "kitchen4_init_in.sc"
    path.write_text((MODELS / "kitchen4.sc").read_text() + "init: !In(o_b,o_m)@s0\n")
    return path


@pytest.fixture(scope="session")
def derived_gamma_path(tmp_path_factory):
    """kitchen4 with an effect condition over the closure In: turn_on sets
    Running only when something is in the appliance."""
    text = (MODELS / "kitchen4.sc").read_text()
    old = "successor: Running(o) plus: alpha = turn_on(o) minus: false"
    assert old in text
    path = tmp_path_factory.mktemp("derived_gamma") / "kitchen4_gamma_in.sc"
    path.write_text(text.replace(old, "successor: Running(o) plus: alpha = turn_on(o) "
                                      "& (exists x . In(x,o)@s) minus: false"))
    return path


@pytest.fixture(scope="session")
def putfrag():
    return load_model(MODELS / "putfrag.sc")


@pytest.fixture(scope="session")
def putfrag_grammar(putfrag):
    return Grammar(putfrag)


@pytest.fixture(scope="session")
def tiny(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "tiny.sc"
    path.write_text(TINY_MODEL)
    return load_model(path)


@pytest.fixture(scope="session")
def switch(tmp_path_factory):
    path = tmp_path_factory.mktemp("switch") / "switch.sc"
    path.write_text(SWITCH_MODEL)
    return load_model(path)


@pytest.fixture(scope="session")
def tiny_grammar(tiny):
    return Grammar(tiny)


def place(w0, scn, chi_w0, point):
    """`sim.instantiate` at `point`, with the plan of `w0` in `scn` and the
    literal table of `chi_w0`."""
    return sim.instantiate(sim.InstantiationPlan(w0, scn), stl.LiteralTable(chi_w0), point)


@pytest.fixture(scope="session")
def pmap():
    return stl.load_pmap(MODELS / "kitchen4.pmap")


@pytest.fixture(scope="session")
def scenario():
    return sim.load_scenario(MODELS / "kitchen4_scenario.json")


@pytest.fixture(scope="session")
def fault_scenario(scenario):
    # doorTorqueLimit pinned below the 80-degree stall point
    return sim.Scenario(scenario.objects, scenario.workspace,
                        dict(scenario.policy_ranges, doorTorqueLimit=(0.3, 0.3)))


@pytest.fixture(scope="session")
def frozen_configs(kitchen):
    """The 52 frozen depth-8, strength-2 configurations of the benchmark."""
    return _load_configs(ROOT / "perfbench" / "inputs" / "kitchen4_d8_t2.configs.jsonl",
                         kitchen)
