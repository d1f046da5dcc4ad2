import random

import pytest

from robovalid.cli import main
from robovalid.logic import (
    Do, Fluent, Not, Obj, S0, TRUE, evaluate, format_formula, parse_formula,
    substitute,
)
from robovalid.tasks import (
    Grammar, enumerate_derivations, execute, format_task, parse_task,
)
from robovalid.theory import (
    GroundOp, StateView, enumerate_initial_worlds, load_model, possible, progress,
)
from robovalid.wp import (
    SIT, holds_at, poss_formula, regress, unfold_derived, wp,
)

from conftest import MODELS


def test_wp_nil_is_postcondition(kitchen):
    phi = parse_formula("IsOpen(o_m)@s", kitchen.objects)
    assert wp(phi, parse_task("nil", kitchen), kitchen).formula == phi


def test_open_then_close(kitchen, kitchen_worlds):
    """WP of [open(o_m); close(o_m)] picks exactly the closed, idle worlds."""
    tau = parse_task("[open(o_m) ; close(o_m)]", kitchen)
    got = wp(TRUE, tau, kitchen).formula
    want = parse_formula("!IsOpen(o_m)@s & !Running(o_m)@s", kitchen.objects)
    for w in kitchen_worlds:
        assert holds_at(got, kitchen, w) == holds_at(want, kitchen, w)
    assert any(holds_at(got, kitchen, w) for w in kitchen_worlds)


def test_open_twice_is_false(kitchen):
    tau = parse_task("[open(o_m) ; open(o_m)]", kitchen)
    assert format_formula(wp(TRUE, tau, kitchen).formula) == "false"


def test_wp_of_test_conjoins(kitchen, kitchen_worlds):
    tau = parse_task("[IsOpen(o_m)@s ? ; close(o_m)]", kitchen)
    got = wp(TRUE, tau, kitchen).formula
    sat = [w for w in kitchen_worlds if holds_at(got, kitchen, w)]
    assert all(("IsOpen", ("o_m",)) in w.true_atoms for w in sat)
    assert len(sat) == 6


def test_wp_choice_disjoins(kitchen, kitchen_worlds):
    tau = parse_task("[open(o_m) | close(o_m)]", kitchen)
    got = wp(TRUE, tau, kitchen).formula
    # one of the two door moves is always possible initially
    assert all(holds_at(got, kitchen, w) for w in kitchen_worlds)


def test_unfold_derived_bounds_chains(kitchen):
    phi = parse_formula("In(o_b,o_t)@s", kitchen.objects)
    unfolded = unfold_derived(phi, kitchen)
    text = format_formula(unfolded)
    assert "In(" not in text
    assert text.count("Loc(") >= 3  # 1-, 2-, 3-hop chains over 4 objects


def test_poss_formula_matches_possible(kitchen, kitchen_worlds):
    for op in kitchen.ground_ops():
        phi = poss_formula(kitchen, op)
        for w in kitchen_worlds:
            assert holds_at(phi, kitchen, w) == possible(kitchen, w, op)


def _random_formula(rng, kitchen, sit):
    atoms = [Fluent("IsOpen", (Obj("o_m"),), sit),
             Fluent("Running", (Obj("o_m"),), sit),
             Fluent("Loc", (Obj("o_b"), Obj("o_p")), sit),
             parse_formula("exists x . Loc(o_b,x)@s", kitchen.objects),
             parse_formula("forall x . !Running(x)@s", kitchen.objects)]
    phi = rng.choice(atoms)
    for _ in range(rng.randint(0, 2)):
        other = rng.choice(atoms)
        phi = rng.choice([lambda: Not(phi),
                          lambda: parse_formula(
                              "(%s) & (%s)" % (format_formula(phi), format_formula(other)),
                              kitchen.objects)])()
    return phi


def test_regression_progression_duality(kitchen, kitchen_worlds):
    """evaluate(w, Regr(phi)) == evaluate(progress(w, op), phi) on 200 triples."""
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        w = rng.choice(kitchen_worlds)
        op = rng.choice(kitchen.ground_ops())
        if not possible(kitchen, w, op):
            continue
        phi = unfold_derived(_random_formula(rng, kitchen, SIT), kitchen)
        shifted = substitute(phi, "s", Do(op.term(), S0))
        regr = regress(shifted, kitchen)
        before = evaluate(StateView(kitchen, w, S0), regr)
        after = evaluate(StateView(kitchen, progress(kitchen, w, op), S0),
                         substitute(phi, "s", S0))
        assert before == after
        checked += 1


def test_wp_text_does_not_depend_on_earlier_calls(capsys):
    argv = ["wp", "--model", str(MODELS / "kitchen4.sc"),
            "--task", "[put(o_b,o_m) ; put(o_b,o_p)]"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "exists _g1 ." in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_regression_avoids_capturing_fresh_names(kitchen, kitchen_worlds):
    """A variable fluent argument named like the successor axiom's first
    fresh bound name must not be captured by that quantifier."""
    op = GroundOp("put", ("o_b", "o_p"))
    checked = 0
    for text in ["exists _g1 . Loc(_g1,o_m)@s", "forall _g1 . !Loc(_g1,o_p)@s",
                 "exists _g1 . exists _g2 . Loc(_g1,_g2)@s & !Loc(_g2,_g1)@s"]:
        phi = parse_formula(text, kitchen.objects)
        regr = regress(substitute(phi, "s", Do(op.term(), S0)), kitchen)
        for w in kitchen_worlds:
            if not possible(kitchen, w, op):
                continue
            after = evaluate(StateView(kitchen, progress(kitchen, w, op), S0),
                             substitute(phi, "s", S0))
            assert evaluate(StateView(kitchen, w, S0), regr) == after, (text, w)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("text,worlds", [
    # o and p are the Loc successor axiom's parameters
    ("[put(o_b,o_m) ; exists p . exists o . Loc(p,o)@s & p = o_b & o = o_m ?]", 3),
    ("[put(o_b,o_m) ; exists x . exists y . Loc(x,y)@s & x = o_b & y = o_m ?]", 3),
    # _c1 is the first chain variable of the unfolded closure In
    ("exists _c1 . In(_c1,o_m)@s & _c1 = o_b ?", 6),
    # a quantifier binds an object variable, not the situation variable s
    ("[open(o_m) ; exists s . IsOpen(o_m)@s & s = o_b ?]", 6),
])
def test_wp_equals_execution_with_clashing_names(kitchen, kitchen_worlds, text, worlds):
    """Task variables named like the regression's own variables stay
    apart from them: the successor axiom's parameters are replaced all at
    once, closure chains take names the atom does not use, and an object
    quantifier named s leaves the situation s to the regression."""
    tau = parse_task(text, kitchen)
    phi = wp(TRUE, tau, kitchen).formula
    got = [holds_at(phi, kitchen, w) for w in kitchen_worlds]
    assert got == [execute(kitchen, w, tau) for w in kitchen_worlds]
    assert sum(got) == worlds


def test_regression_avoids_capturing_the_axioms_own_names(tmp_path):
    """An effect condition that binds _g1 inside another quantifier:
    renaming the outer quantifier to _g1 would capture the inner one."""
    text = (MODELS / "kitchen4.sc").read_text()
    old = "minus: exists q . alpha = put(o,q)"
    assert old in text
    path = tmp_path / "kitchen4_g1.sc"
    path.write_text(text.replace(
        old, "minus: exists q . exists _g1 . alpha = put(o,q) & _g1 != q"))
    theory = load_model(path)
    worlds = list(enumerate_initial_worlds(theory))
    for test in ["Loc(o_b,o_p)@s", "!Loc(o_b,o_p)@s"]:
        tau = parse_task("[put(o_b,o_m) ; %s ?]" % test, theory)
        phi = wp(TRUE, tau, theory).formula
        assert ([holds_at(phi, theory, w) for w in worlds]
                == [execute(theory, w, tau) for w in worlds])


def test_wp_equals_execution_depth4(kitchen, kitchen_grammar, kitchen_worlds):
    for _, task in enumerate_derivations(kitchen_grammar, 4, kitchen):
        phi = wp(TRUE, task, kitchen).formula
        for w in kitchen_worlds:
            assert holds_at(phi, kitchen, w) == execute(kitchen, w, task)


DERIVED_GAMMA_TASK = "[close(o_m) ; [turn_on(o_m) ; Running(o_m)@s ?]]"


def test_wp_command_with_a_derived_effect_condition(derived_gamma_path, capsys):
    """Regression unfolds the closure in an effect condition, so the WP
    holds primitive fluents only."""
    assert main(["wp", "--model", str(derived_gamma_path),
                 "--task", DERIVED_GAMMA_TASK]) == 0
    out = capsys.readouterr().out
    assert "Loc(" in out and "In(" not in out


def test_wp_equals_execution_with_a_derived_effect_condition(derived_gamma_path,
                                                              kitchen_worlds):
    theory = load_model(derived_gamma_path)
    tau = parse_task(DERIVED_GAMMA_TASK, theory)
    phi = wp(TRUE, tau, theory).formula
    assert any(holds_at(phi, theory, w) for w in kitchen_worlds)
    tasks = [tau] + [t for _, t in enumerate_derivations(Grammar(theory), 5, theory)]
    for task in tasks:
        phi = wp(TRUE, task, theory).formula
        assert ([holds_at(phi, theory, w) for w in kitchen_worlds]
                == [execute(theory, w, task) for w in kitchen_worlds]), format_task(task)
