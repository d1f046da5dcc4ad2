import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

import tasks_oracle
import theory_oracle
from conftest import TINY_MODEL
from robovalid.logic import (
    FALSE, PAnd, PEq, PNot, POr, S0, anchor, evaluate, parse_formula, peval,
)
from robovalid.tasks import Op, run_branch
from robovalid.tasks import Test as TaskTest
from robovalid.theory import (
    GroundOp, GroundedOp, ModelError, PreconditionViolation, StateView,
    SuccessorAxiom, TheoryError, WorldState, apply_op, compute_derived,
    enumerate_initial_worlds, ground_op, ground_state_formula, load_model,
    parse_ground_atom, possible, progress, satisfies_init, state_truth,
)


def test_kitchen_declarations(kitchen):
    assert set(kitchen.objects) == {"o_b", "o_p", "o_m", "o_t"}
    assert kitchen.predicates["Placeable"].kind == "rigid"
    assert kitchen.predicates["Loc"].kind == "primitive"
    assert kitchen.predicates["In"].kind == "derived"
    assert set(kitchen.operations) == {"put", "open", "close", "turn_on"}
    assert set(kitchen.successor) == {"Loc", "IsOpen", "Running"}


def test_kitchen_rigid_truths(kitchen):
    assert kitchen.rigid_value("HasDoor", ("o_m",))
    assert not kitchen.rigid_value("HasDoor", ("o_t",))
    assert kitchen.rigid_value("Placeable", ("o_b", "o_p"))
    assert not kitchen.rigid_value("Placeable", ("o_t", "o_b"))


def test_initial_world_count(kitchen, kitchen_worlds):
    # 3 bread locations x 2 plate locations x open-or-closed microwave
    assert len(kitchen_worlds) == 12
    keys = {frozenset(w.true_atoms) for w in kitchen_worlds}
    assert len(keys) == 12
    for w in kitchen_worlds:
        assert satisfies_init(kitchen, w)  # independent re-check
        assert ("Running", ("o_m",)) not in w.true_atoms


def test_enumeration_is_deterministic(kitchen, kitchen_worlds):
    again = list(enumerate_initial_worlds(kitchen))
    assert [w.true_atoms for w in again] == [w.true_atoms for w in kitchen_worlds]


def test_non_worlds_rejected(kitchen):
    # bread in two places at once violates the uniqueness axiom
    bad = WorldState(frozenset({("Loc", ("o_b", "o_p")), ("Loc", ("o_b", "o_t")),
                                ("Loc", ("o_p", "o_t")),
                                ("IsOpen", ("o_b",)), ("IsOpen", ("o_p",)),
                                ("IsOpen", ("o_t",))}))
    assert not satisfies_init(kitchen, bad)


def test_derived_transitive_closure(kitchen):
    w = WorldState(frozenset({("Loc", ("o_b", "o_p")), ("Loc", ("o_p", "o_m"))}))
    derived = compute_derived(kitchen, w)
    assert ("In", ("o_b", "o_p")) in derived
    assert ("In", ("o_b", "o_m")) in derived  # two hops
    assert ("In", ("o_p", "o_m")) in derived
    assert ("In", ("o_m", "o_b")) not in derived


def test_possible_and_progress(kitchen, kitchen_worlds):
    w = next(w for w in kitchen_worlds
             if ("IsOpen", ("o_m",)) not in w.true_atoms)
    open_m = GroundOp("open", ("o_m",))
    assert possible(kitchen, w, open_m)
    w2 = progress(kitchen, w, open_m)
    assert ("IsOpen", ("o_m",)) in w2.true_atoms
    assert not possible(kitchen, w2, open_m)  # already open
    with pytest.raises(PreconditionViolation):
        progress(kitchen, w2, open_m)
    assert not possible(kitchen, w, GroundOp("open", ("o_t",)))  # no door


def test_put_moves_exactly_one_location(kitchen, kitchen_worlds):
    w = next(w for w in kitchen_worlds if ("Loc", ("o_b", "o_t")) in w.true_atoms
             and ("Loc", ("o_p", "o_t")) in w.true_atoms)
    w2 = progress(kitchen, w, GroundOp("put", ("o_b", "o_p")))
    assert ("Loc", ("o_b", "o_p")) in w2.true_atoms
    assert ("Loc", ("o_b", "o_t")) not in w2.true_atoms
    assert ("Loc", ("o_p", "o_t")) in w2.true_atoms  # plate untouched


def test_state_view_situation_anchor(kitchen, kitchen_worlds):
    w = kitchen_worlds[0]
    view = StateView(kitchen, w, S0)
    phi = parse_formula("IsOpen(o_b)@s0", kitchen.objects)
    evaluate(view, phi)  # anchored query is fine
    wrong = parse_formula("IsOpen(o_b)@s1", kitchen.objects)
    with pytest.raises(ModelError):
        evaluate(view, wrong)


def test_every_atom_is_checked_against_the_theory(kitchen, kitchen_worlds):
    """Grounding checks each atom, including one the connectives would
    never read; the recursive evaluator this replaced returned False."""
    view = StateView(kitchen, kitchen_worlds[0], S0)
    for text in ["false & Nope(o_b)@s0", "true | Loc(o_b)@s0"]:
        with pytest.raises(ModelError):
            evaluate(view, parse_formula(text, kitchen.objects))


def test_ground_state_formula_rejects_other_atoms(kitchen):
    """An undeclared atom, a wrong arity or a fluent at a do(...)
    situation is a ModelError naming the atom; a fluent at s0 or at any
    situation variable, derived ones included, has a variable, and a
    kitchen4 test grounds as written as it does anchored at s0."""
    def grounded(text):
        return ground_state_formula(kitchen, parse_formula(text, kitchen.objects))

    for text in ["IsOpen(o_b)@do(open(o_m),s0)", "Loc(o_b)@s0", "Nope(o_b)", "Nope(o_b)@s"]:
        with pytest.raises(ModelError, match=re.escape(text)):
            grounded(text)
    assert grounded("In(o_b,o_p)@s0") == PEq(("In", ("o_b", "o_p")), True)
    assert grounded("IsOpen(o_b)@s1") == PEq(("IsOpen", ("o_b",)), True)
    for text in _TESTS["kitchen"] + ["%sIsOpen(%s)@s" % (neg, o)
                                     for neg in ("", "!") for o in kitchen.objects]:
        phi = parse_formula(text, kitchen.objects)
        assert ground_state_formula(kitchen, phi) == ground_state_formula(kitchen, anchor(phi, S0))


def test_enumeration_matches_satisfies_init_on_one_atom_flips(kitchen, kitchen_worlds):
    """Every state one primitive atom away from an initial world is
    enumerated if and only if the independent check accepts it."""
    enumerated = {w.true_atoms for w in kitchen_worlds}
    atoms = kitchen.all_primitive_atoms()
    flips = {w.true_atoms ^ {a} for w in kitchen_worlds for a in atoms}
    assert len(kitchen_worlds) * len(atoms) == 288
    assert any(f in enumerated for f in flips)
    for f in flips:
        assert (f in enumerated) == satisfies_init(kitchen, WorldState(f)), sorted(f)


def test_initial_axiom_over_a_derived_fluent(derived_init_path, kitchen, kitchen_worlds):
    """An initial axiom may mention a closure: the worlds are the kitchen
    worlds where it holds of the computed closure, in the same order."""
    theory = load_model(derived_init_path)
    want = [w.true_atoms for w in kitchen_worlds
            if ("In", ("o_b", "o_m")) not in compute_derived(kitchen, w)]
    assert len(want) == 6
    assert [w.true_atoms for w in enumerate_initial_worlds(theory)] == want


def _satisfies_init_reference(theory, state):
    """Every initial axiom evaluated at s0 over a view of the state, which
    computes derived fluents as closures."""
    view = StateView(theory, state, S0)
    return all(evaluate(view, anchor(ax, S0)) for ax in theory.init_axioms)


@pytest.mark.parametrize("derived_init", [False, True], ids=["kitchen4", "derived-init"])
def test_satisfies_init_matches_evaluation_on_one_atom_flips(
        kitchen, kitchen_worlds, derived_init_path, derived_init):
    """The grounded check agrees with evaluating each axiom over the
    state on every state one primitive atom away from a kitchen world."""
    theory = load_model(derived_init_path) if derived_init else kitchen
    atoms = theory.all_primitive_atoms()
    states = [WorldState(w.true_atoms ^ {a}) for w in kitchen_worlds for a in atoms]
    assert len(states) == 288
    got = [satisfies_init(theory, w) for w in states]
    assert got == [_satisfies_init_reference(theory, w) for w in states]
    assert True in got and False in got


def test_zero_ary_atoms_load(tiny):
    """`rigid: Ready/0` with `rigidtrue: Ready()` makes Ready() true, and
    0-ary atoms parse in preconditions and successor-axiom heads."""
    assert parse_ground_atom("P()") == ("P", ())
    assert parse_ground_atom("Loc(o_b, o_p)") == ("Loc", ("o_b", "o_p"))
    assert tiny.rigid_value("Ready", ())
    assert tiny.successor["On"].params == ()
    worlds = [sorted(a for a in w.true_atoms if a[0] != "Near")
              for w in enumerate_initial_worlds(tiny)]
    assert len(worlds) == 16
    assert sorted(set(map(tuple, worlds))) == [
        (), (("On", ()),), (("On", ()), ("Up", ("a",))), (("Up", ("a",)),)]
    on = WorldState(frozenset({("On", ())}))
    assert possible(tiny, on, GroundOp("link", ("a", "b")))
    assert not possible(tiny, WorldState(frozenset()), GroundOp("link", ("a", "b")))


NO_ATOMS_MODEL = """\
objects: a b
rigid: Ready/0
rigidtrue: Ready()
init: Ready()
"""


@pytest.fixture(scope="module")
def oracle_theories(kitchen, tiny, putfrag, switch, derived_init_path, derived_gamma_path,
                    tmp_path_factory):
    """The models the grounded paths are checked on, by name: a constant
    false axiom leaves no world, with primitive atoms or without, and the
    one world of a theory without primitive atoms and without a false
    axiom is the empty one."""
    texts = {"constant-false": TINY_MODEL + "init: false\n",
             "no-atoms": NO_ATOMS_MODEL,
             "no-atoms-false": NO_ATOMS_MODEL + "init: false\n"}
    out = {"kitchen": kitchen, "tiny": tiny, "putfrag": putfrag, "switch": switch,
           "derived-init": load_model(derived_init_path),
           "derived-gamma": load_model(derived_gamma_path)}
    for name, text in texts.items():
        path = tmp_path_factory.mktemp("oracle") / (name + ".sc")
        path.write_text(text)
        out[name] = load_model(path)
    return out


@pytest.mark.parametrize("name", ["kitchen", "tiny", "putfrag", "derived-init",
                                  "derived-gamma", "constant-false", "no-atoms",
                                  "no-atoms-false"])
def test_enumeration_matches_backtracking_oracle(oracle_theories, name):
    """Re-checking only the conjuncts an assignment touches yields the
    worlds, in order, that re-checking every axiom yields."""
    theory = oracle_theories[name]
    got = [w.true_atoms for w in enumerate_initial_worlds(theory)]
    assert got == [w.true_atoms for w in theory_oracle.enumerate_initial_worlds(theory)]
    assert len(got) == {"kitchen": 12, "derived-init": 6, "constant-false": 0,
                        "no-atoms": 1, "no-atoms-false": 0}.get(name, len(got))


# Test formulas for branches, per model; derived fluents included.
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_axioms_grounded_once_agree_with_satisfies_init(oracle_theories, data):
    """`satisfies_init`, over the initial axioms the theory grounds once,
    agrees with membership in the enumerated worlds, on worlds and
    non-worlds alike: an initial world, or the empty state, with any set
    of atoms flipped."""
    theory = oracle_theories[data.draw(st.sampled_from(sorted(oracle_theories)))]
    worlds = [w.true_atoms for w in enumerate_initial_worlds(theory)]
    atoms = theory.all_primitive_atoms()
    base = data.draw(st.sampled_from(worlds + [frozenset()]))
    flips = data.draw(st.sets(st.sampled_from(atoms)) if atoms else st.just(set()))
    state = WorldState(base ^ flips)
    assert satisfies_init(theory, state) == (state.true_atoms in worlds)
    assert theory.grounded_init is theory.grounded_init


@pytest.mark.parametrize("name", ["kitchen", "putfrag", "switch", "kitchen7"])
def test_ground_op_effects_match_per_atom_oracle(request, name):
    """`ground_op` keeps exactly the atoms whose effect conditions, grounded
    atom by atom after substituting the atom's arguments and folding the
    operation in, are not both constant false, in the oracle's order.
    Under the step's overlay each kept condition has the oracle's value
    on every assignment of the state atoms the two mention."""
    theory = request.getfixturevalue(name)
    dropped = 0
    for op in theory.ground_ops():
        step = ground_op(theory, op)
        got = step.effects
        want = theory_oracle.ground_effects(theory, op)
        assert list(got) == [atom for atom in want if atom in got]
        for atom, gammas in want.items():
            constant_false = all(peval(g, {}) is False for g in gammas)
            assert (atom not in got) == constant_false, (op, atom)
            if atom not in got:
                continue
            atoms = sorted({p for g in gammas + got[atom] for p in _params(g)
                            if not isinstance(p, GroundOp)})
            for values in itertools.product((False, True), repeat=len(atoms)):
                truth = dict(zip(atoms, values))
                assert ([peval(g, {**truth, **step.overlay}) for g in got[atom]]
                        == [peval(g, truth) for g in gammas]), (op, atom, truth)
        dropped += len(want) - len(got)
    assert dropped > 0


def _params(phi):
    """The atoms a grounded formula reads."""
    if isinstance(phi, PEq):
        return {phi.param}
    if isinstance(phi, PNot):
        return _params(phi.body)
    if isinstance(phi, (PAnd, POr)):
        return set().union(*map(_params, phi.parts))
    return set()


def _states(theory, neighbours: bool):
    """The states reachable from the initial worlds by any operations, in
    a fixed order, and with `neighbours` every state one atom away from
    one of them too."""
    seen = {w: None for w in enumerate_initial_worlds(theory)}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for op in theory.ground_ops():
            if possible(theory, state, op):
                nxt = progress(theory, state, op)
                if nxt not in seen:
                    seen[nxt] = None
                    frontier.append(nxt)
    if neighbours:
        for state in list(seen):
            for atom in theory.all_primitive_atoms():
                seen.setdefault(WorldState(state.true_atoms ^ {atom}))
    return list(seen)


@pytest.mark.parametrize("name", ["kitchen", "kitchen7", "switch"])
def test_grounded_steps_match_the_per_atom_oracle_on_every_state(request, name):
    """Each grounded operation, applied over a state's truth with its
    overlay, gives the state the per-atom oracle gives, or is not possible
    where the oracle's precondition fails.  The switch theory is checked
    on every state; kitchen4 on its reachable states and every state one
    atom away from them; kitchen7 on its reachable states."""
    theory = request.getfixturevalue(name)
    atoms = theory.all_primitive_atoms()
    if name == "switch":
        states = [WorldState(frozenset(a for a, v in zip(atoms, values) if v))
                  for values in itertools.product((False, True), repeat=len(atoms))]
    else:
        states = _states(theory, neighbours=name == "kitchen")
    steps = [ground_op(theory, op) for op in theory.ground_ops()]
    ran = 0
    for state in states:
        truth = state_truth(theory, state)
        for step in steps:
            want = _outcome(tasks_oracle.progress, theory, state, step.op)
            got = apply_op(step, state, truth)
            if got is None:
                got = PreconditionViolation
            assert got == want, (state, step.op)
            ran += want is not PreconditionViolation
    assert ran > len(states)


_TESTS = {"kitchen": ["IsOpen(o_m)@s", "exists x . In(x,o_m)@s"],
          "derived-gamma": ["!IsOpen(o_m)@s", "In(o_b,o_m)@s"],
          "tiny": ["On()@s", "exists x . Up(x)@s & !R(x,x)@s"],
          "putfrag": ["In(o_b,o_m)@s", "!Loc(o_p,o_t)@s"],
          "switch": ["Warm()@s", "exists x . Lit(x)@s & !Used(x)@s"]}


def _outcome(step, theory, state, op):
    """The state `step` gives, or the type of the exception it raises."""
    try:
        return step(theory, state, op)
    except Exception as exc:
        return type(exc)


def _branch_by_view(theory, state, branch):
    """run_branch's result, stepping with the oracle."""
    states = []
    for atom in branch:
        if isinstance(atom, TaskTest):
            if not evaluate(StateView(theory, state), anchor(atom.formula, S0)):
                return None
            continue
        if not tasks_oracle.possible(theory, state, atom.op):
            return None
        state = tasks_oracle.progress(theory, state, atom.op)
        states.append(state)
    return states


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_progress_matches_view_oracle(oracle_theories, data):
    """From any primitive state, not only initial worlds, each ground
    operation gives the per-atom oracle's state or the same exception
    type, alone or inside a branch with tests, through the theory's
    caches, which every example shares and which keep each operation
    grounded once."""
    name = data.draw(st.sampled_from(sorted(_TESTS)))
    theory = oracle_theories[name]
    state = WorldState(frozenset(data.draw(st.sets(st.sampled_from(
        theory.all_primitive_atoms())))))
    for op in theory.ground_ops():
        want = _outcome(tasks_oracle.progress, theory, state, op)
        assert _outcome(progress, theory, state, op) == want, op
        stepped = run_branch(theory, state, [Op(op)])
        assert stepped == (None if want is PreconditionViolation else [want]), op
        assert isinstance(theory._steps[op][0], GroundedOp)
    tests = [TaskTest(parse_formula(t, theory.objects)) for t in _TESTS[name]]
    for test in tests:
        assert run_branch(theory, state, [test]) == _branch_by_view(theory, state, [test])
    atom = st.one_of(st.sampled_from([Op(op) for op in theory.ground_ops()]),
                     st.sampled_from(tests))
    branch = data.draw(st.lists(atom, max_size=4))
    assert run_branch(theory, state, branch) == _branch_by_view(theory, state, branch)


def test_a_bad_effect_atom_fails_at_load(tmp_path, tiny):
    """An effect condition over an undeclared fluent is a TheoryError
    naming its line when the model loads.  A theory built without the
    loader keeps it, and it is a ModelError at the operation's first
    step, whether or not the step is possible."""
    old = "successor: On() plus: false"
    path = tmp_path / "bad.sc"
    path.write_text(TINY_MODEL.replace(old, "successor: On() plus: Nope()@s"))
    lineno = TINY_MODEL[:TINY_MODEL.index(old)].count("\n") + 1
    with pytest.raises(TheoryError, match="^%s:%d: Nope\\(\\)@s is not a declared fluent "
                       % (re.escape(str(path)), lineno)):
        load_model(path)
    theory = dataclasses.replace(tiny, successor=dict(tiny.successor, On=SuccessorAxiom(
        "On", (), parse_formula("Nope()@s", tiny.objects), FALSE)))
    for state in (WorldState(frozenset()), WorldState(frozenset({("On", ())}))):
        with pytest.raises(ModelError):
            progress(theory, state, GroundOp("link", ("a", "b")))
        with pytest.raises(ModelError):
            run_branch(theory, state, [Op(GroundOp("raise", ("a",)))])


def test_model_errors():
    with pytest.raises(Exception):
        from robovalid.theory import load_model
        load_model("/nonexistent/model.sc")
