import itertools

import pytest
from hypothesis import given, settings, strategies as st

import logic_oracle
from logic_oracle import TotalityError, World
from robovalid.logic import (
    And, Do, Eq, Exists, FALSE, Fluent, Forall, Iff, Implies, Not, Obj,
    OpTerm, Or, PEq, ParseError, Rigid, S0, SitVar, SubstitutionError, TRUE,
    Var, anchor, evaluate, fold, format_formula, ground, parse_formula, peval,
    substitute, substitute_all, tokenize,
)

OBJECTS = ("o_b", "o_p", "o_m", "o_t")
PREDICATES = {"Placeable": (2, "rigid"), "Ready": (0, "rigid"),
              "IsOpen": (1, "fluent"), "Running": (1, "fluent"),
              "Loc": (2, "fluent"), "Door": (0, "fluent")}


def world(loc=(), isopen=()):
    rigid = {("Placeable", pair): pair in {("o_b", "o_p"), ("o_b", "o_t")}
             for pair in itertools.product(OBJECTS, repeat=2)}
    rigid[("Ready", ())] = True
    fluents = {("Door", (), "s0"): False}
    for a, b in itertools.product(OBJECTS, repeat=2):
        fluents[("Loc", (a, b), "s0")] = (a, b) in set(loc)
    for o in OBJECTS:
        fluents[("IsOpen", (o,), "s0")] = o in set(isopen)
        fluents[("Running", (o,), "s0")] = False
    return World(OBJECTS, PREDICATES, rigid, fluents)


def test_parse_format_roundtrip():
    texts = [
        "IsOpen(o_m)@s0",
        "!IsOpen(o_m)@s0 & !Running(o_m)@s0",
        "forall x . Placeable(x,o_t) -> Loc(x,o_t)@s0",
        "exists x . exists y . Loc(x,y)@s0 & x != y",
        "(IsOpen(o_m)@s <-> Running(o_m)@s) | false",
    ]
    for t in texts:
        phi = parse_formula(t, OBJECTS)
        assert parse_formula(format_formula(phi), OBJECTS) == phi


def test_evaluate_quantifiers():
    w = world(loc=[("o_b", "o_p")])
    assert evaluate(w, parse_formula("exists x . Loc(o_b,x)@s0", OBJECTS))
    assert not evaluate(w, parse_formula("forall x . Loc(o_b,x)@s0", OBJECTS))
    assert evaluate(w, parse_formula("forall x . Loc(x,o_m)@s0 -> false", OBJECTS))


def test_evaluate_equality_and_rigids():
    w = world()
    assert evaluate(w, parse_formula("o_b != o_p", OBJECTS))
    assert evaluate(w, parse_formula("Placeable(o_b,o_p)", OBJECTS))
    assert not evaluate(w, parse_formula("Placeable(o_p,o_b)", OBJECTS))


def test_substitute_respects_binding():
    phi = parse_formula("Loc(x,o_p)@s0 & (exists x . Loc(x,o_m)@s0)", OBJECTS)
    text = format_formula(substitute(phi, "x", Obj("o_b")))
    assert "Loc(o_b,o_p)" in text
    assert "exists x . Loc(x,o_m)" in text  # bound occurrence untouched
    # a quantifier binds an object variable only, never the situation s
    phi = parse_formula("exists s . IsOpen(o_m)@s & s = o_b", OBJECTS)
    do = Do(OpTerm("open", (Obj("o_m"),)), SitVar("s"))
    assert substitute_all(phi, {"s": do}) == parse_formula(
        "exists s . IsOpen(o_m)@do(open(o_m),s) & s = o_b", OBJECTS)


def test_substitute_sort_errors():
    with pytest.raises(SubstitutionError):
        # situation term into an object slot
        substitute(parse_formula("x != o_p", OBJECTS), "x", S0)
    with pytest.raises(SubstitutionError):
        # object constant into a situation slot
        substitute(parse_formula("IsOpen(o_m)@s", OBJECTS), "s", Obj("o_b"))


def test_substitute_all_swaps_in_one_step():
    phi = parse_formula("Loc(o,p)@s & alpha = put(o,p) & (exists p . Loc(o,p)@s)",
                        OBJECTS)
    got = substitute_all(phi, {"o": Var("p"), "p": Var("o")})
    assert got == parse_formula("Loc(p,o)@s & alpha = put(p,o) & "
                                "(exists p . Loc(p,p)@s)", OBJECTS)
    # replacing one variable after the other would give Loc(o,o)
    assert substitute(substitute(phi, "o", Var("p")), "p", Var("o")) != got


def test_fold_constants():
    phi = And(TRUE, Or(FALSE, Not(Not(Fluent("IsOpen", (Obj("o_m"),), S0)))))
    assert format_formula(fold(phi)) == "IsOpen(o_m)@s0"
    assert fold(And(FALSE, TRUE)) == FALSE
    assert fold(Implies(FALSE, Fluent("Running", (Obj("o_m"),), S0))) == TRUE


def test_unassigned_atom_is_an_error():
    w = World(OBJECTS, PREDICATES, {}, {})
    with pytest.raises(TotalityError):
        evaluate(w, parse_formula("IsOpen(o_m)@s0", OBJECTS))


FLUENT_ATOMS = [(name, args) for name, arity in (("IsOpen", 1), ("Running", 1),
                                                 ("Loc", 2), ("Door", 0))
                for args in itertools.product(OBJECTS, repeat=arity)]


def grounded(phi, rigid=lambda name, args: False):
    """phi grounded over OBJECTS: rigid atoms by `rigid`, each fluent atom
    F(args) to the variable (F, args) of an assignment."""
    def atom(node, args):
        if isinstance(node, Rigid):
            return rigid(node.name, args)
        return PEq((node.name, args), True)
    return ground(phi, OBJECTS, atom)


def assignment_of(w):
    """A World's fluent truth at s0 as an assignment for `grounded`."""
    return {(name, args): v for (name, args, sit), v in w.fluent_truth.items()}


# every fluent atom is false except IsOpen(o_m), which is unknown
PARTIAL = {a: False for a in FLUENT_ATOMS if a != ("IsOpen", ("o_m",))}


def test_three_valued_kleene():
    def v(phi):
        return peval(grounded(phi), PARTIAL)

    unknown = parse_formula("IsOpen(o_m)@s0", OBJECTS)
    known = parse_formula("IsOpen(o_b)@s0", OBJECTS)
    assert v(unknown) is None
    assert v(And(unknown, FALSE)) is False
    assert v(Or(unknown, Not(known))) is True
    # Kleene, not supervaluation: the excluded middle stays unknown
    assert v(Or(unknown, Not(unknown))) is None
    assert v(parse_formula("exists x . IsOpen(x)@s0", OBJECTS)) is None
    assert v(parse_formula("forall x . !Running(x)@s0", OBJECTS)) is True


def test_three_valued_agrees_with_classical_on_total_worlds():
    w = world(loc=[("o_b", "o_p")], isopen=["o_m"])
    for text in ["exists x . Loc(o_b,x)@s0",
                 "forall x . forall y . Loc(x,y)@s0 -> Placeable(x,y)",
                 "IsOpen(o_m)@s0 | !IsOpen(o_m)@s0",
                 "(IsOpen(o_m)@s0 <-> Running(o_m)@s0) -> o_b != o_b"]:
        phi = parse_formula(text, OBJECTS)
        assert peval(grounded(phi, w.rigid_value), assignment_of(w)) is evaluate(w, phi)


# ---------------------------------------------------------------------------
# Random formulas over the kitchen objects
# ---------------------------------------------------------------------------

# few names, so nested quantifiers rebind (shadow) an enclosing variable
VARIABLES = ("x", "y")


@st.composite
def formulas(draw, sits=(S0,), scope=(), depth=4):
    """Closed formulas: every variable is bound by an enclosing quantifier."""
    term = st.sampled_from([Obj(o) for o in OBJECTS] + [Var(v) for v in scope])
    sit = st.sampled_from(sits)
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(["true", "false", "rigid", "ready", "isopen",
                                     "running", "loc", "door", "eq", "neq"]))
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "rigid":
            return Rigid("Placeable", (draw(term), draw(term)))
        if kind == "ready":
            return Rigid("Ready", ())
        if kind == "isopen":
            return Fluent("IsOpen", (draw(term),), draw(sit))
        if kind == "running":
            return Fluent("Running", (draw(term),), draw(sit))
        if kind == "loc":
            return Fluent("Loc", (draw(term), draw(term)), draw(sit))
        if kind == "door":
            return Fluent("Door", (), draw(sit))
        eq = Eq(draw(term), draw(term))
        return eq if kind == "eq" else Not(eq)
    kind = draw(st.sampled_from(["not", "and", "or", "implies", "iff",
                                 "exists", "forall"]))
    if kind == "not":
        return Not(draw(formulas(sits, scope, depth - 1)))
    if kind in ("exists", "forall"):
        var = draw(st.sampled_from(VARIABLES))
        body = draw(formulas(sits, tuple(sorted(set(scope) | {var})), depth - 1))
        return (Exists if kind == "exists" else Forall)(var, body)
    node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
    return node(draw(formulas(sits, scope, depth - 1)),
                draw(formulas(sits, scope, depth - 1)))


class _DictView:
    """A world that answers None for the fluent atoms it does not assign."""

    objects = OBJECTS

    def __init__(self, rigid, fluents):
        self.rigid, self.fluents = rigid, fluents

    def rigid_value(self, name, args):
        return self.rigid(name, args)

    def fluent_value(self, name, args, sit):
        return self.fluents.get((name, args))


assignments = st.fixed_dictionaries(
    {a: st.sampled_from([True, False, None]) for a in FLUENT_ATOMS}).map(
        lambda d: {a: v for a, v in d.items() if v is not None})


@settings(max_examples=500, deadline=None)
@given(formulas(), assignments, st.booleans())
def test_ground_peval_matches_recursive_oracle(phi, assigned, total):
    w = world()
    if total:
        # unassigned atoms read as false
        assigned = {a: assigned.get(a, False) for a in FLUENT_ATOMS}
    got = peval(grounded(phi, w.rigid_value), assigned)
    assert got is logic_oracle.evaluate3(_DictView(w.rigid_value, assigned), phi)
    if total:
        for (name, args), v in assigned.items():
            w.fluent_truth[(name, args, "s0")] = v
        assert got is evaluate(w, phi)


KEYWORDS = {"forall", "exists", "true", "false", "alpha", "do", "s0"}


@settings(max_examples=500, deadline=None)
@given(formulas(sits=(S0, SitVar("s"),
                      Do(OpTerm("put", (Obj("o_b"), Obj("o_p"))), SitVar("s")))))
def test_format_parse_roundtrip(phi):
    assert not (set(VARIABLES) & (set(OBJECTS) | KEYWORDS))
    assert parse_formula(format_formula(phi), OBJECTS) == phi


SIT_TERMS = (S0, SitVar("s"), SitVar("t"),
             Do(OpTerm("open", (Obj("o_m"),)), SitVar("s")))
# formulas with free variables: x and y in object slots and in an
# operation term, s and s0 in situation slots
open_formulas = formulas(
    sits=(S0, SitVar("s"), Do(OpTerm("put", (Var("x"), Obj("o_p"))), SitVar("s"))),
    scope=VARIABLES)


@settings(max_examples=500, deadline=None)
@given(open_formulas, st.sampled_from(VARIABLES + ("s",)),
       st.sampled_from([Obj(o) for o in OBJECTS] + [Var("x"), Var("z")]
                       + list(SIT_TERMS)))
def test_substitute_all_matches_oracle(phi, var, value):
    """One variable: the same formula as the oracle walk, and an error
    wherever it raises.  The one difference: a situation term put into
    an object slot outside an equality is an error only here."""
    try:
        want = logic_oracle.substitute(phi, var, value)
    except SubstitutionError:
        want = None
    try:
        got = substitute_all(phi, {var: value})
    except SubstitutionError:
        assert want is None or value in SIT_TERMS
        return
    assert got == want


@settings(max_examples=300, deadline=None)
@given(open_formulas, st.sampled_from([Obj(o) for o in OBJECTS]),
       st.sampled_from([Obj(o) for o in OBJECTS]),
       st.sampled_from([S0, Do(OpTerm("open", (Obj("o_m"),)), S0)]))
def test_substitute_all_of_ground_values_is_sequential(phi, x, y, s):
    """Values without variables cannot be captured, so putting them in at
    once equals putting them in one after the other with the oracle."""
    want = phi
    for var, value in (("x", x), ("y", y), ("s", s)):
        want = logic_oracle.substitute(want, var, value)
    assert substitute_all(phi, {"x": x, "y": y, "s": s}) == want


@settings(max_examples=300, deadline=None)
@given(formulas(sits=SIT_TERMS))
def test_anchor_puts_s0_in_for_each_situation_variable(phi):
    """Anchoring at s0 equals the oracle's substitution of s0 for s,
    then for t, inside do terms too."""
    want = logic_oracle.substitute(logic_oracle.substitute(phi, "s", S0), "t", S0)
    assert anchor(phi, S0) == want


def _tokens(lex, text):
    """The tokens of `text`, or the raised ParseError's type and text."""
    try:
        return lex(text)
    except ParseError as e:
        return type(e), str(e)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(alphabet="<->!=()&|.,@?;[]_ abxo01#$~\t\né", max_size=12),
                 st.text(max_size=6)))
def test_tokenize_matches_character_loop(text):
    """The compiled pattern gives the tokens of the character loop it
    replaced, or its ParseError with the same text: on formula
    characters mixed with others that are not, and on any text."""
    assert _tokens(tokenize, text) == _tokens(logic_oracle.tokenize, text)
