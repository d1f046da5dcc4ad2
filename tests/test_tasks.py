import random

import pytest

from robovalid.logic import ParseError
from robovalid.tasks import (
    Choice, Grammar, Op, Seq, enumerate_derivations, execute, format_task,
    normalize, parse_task, run_branch,
)
from robovalid.tasks import Test as TaskTest
from robovalid.theory import GrammarRule, GroundOp, progress
from tasks_oracle import branch_to_task, replay_derivation, traces


def test_parse_format_roundtrip(kitchen):
    texts = [
        "nil",
        "put(o_b,o_p)",
        "[open(o_m) ; close(o_m)]",
        "[open(o_m) | nil]",
        "[IsOpen(o_m)@s ? ; turn_on(o_m)]",
        # closed tests over quantifiers, rigid atoms and derived fluents
        "[exists x . IsOpen(x)@s ? ; open(o_m)]",
        "[forall x . (Placeable(x,o_m) -> !In(x,o_m)@s) ? ; nil]",
        "[[open(o_m) ; put(o_b,o_m)] ; close(o_m)]",
    ]
    for t in texts:
        tau = parse_task(t, kitchen)
        assert parse_task(format_task(tau), kitchen) == tau


@pytest.mark.parametrize("text", [
    "[alpha = open(o_m) ? ; open(o_m)]",
    "[IsOpen(x)@s ? ; open(o_m)]",
    "[exists x . Loc(x,y)@s ? ; nil]",
    "[IsOpen(o_m)@do(open(o_m),s) ? ; nil]",
    "[Nope(o_m)@s ? ; nil]",
])
def test_test_that_cannot_run_is_a_parse_error(kitchen, text):
    """A test is grounded when it is parsed, as running it grounds it, so an
    operation equality, a free variable, a fluent at another situation or
    an undeclared fluent fails here and not when a branch reaches it."""
    with pytest.raises(ParseError, match="^test .* cannot be decided in a state: "):
        parse_task(text, kitchen)


@pytest.mark.parametrize("text", ["[open(o_zz) ; nil]", "open(o_m,o_m)"])
def test_operation_that_cannot_run_is_a_parse_error(kitchen, text):
    """An operation over an undeclared object or with the wrong number of
    arguments fails when it is parsed, not when a branch reaches it."""
    with pytest.raises(ParseError, match="^operation open\\(.*\\): "):
        parse_task(text, kitchen)


def test_step_semantics(kitchen, kitchen_worlds):
    w = next(w for w in kitchen_worlds
             if ("IsOpen", ("o_m",)) not in w.true_atoms)
    open_m, turn_on_m = GroundOp("open", ("o_m",)), GroundOp("turn_on", ("o_m",))
    memo = {}
    # open succeeds, then turn_on with the door open is stuck
    [branch] = normalize(parse_task("[open(o_m) ; turn_on(o_m)]", kitchen))
    assert run_branch(kitchen, w, branch, memo) is None
    opened = progress(kitchen, w, open_m)
    assert memo[Op(open_m)][w.true_atoms] == opened
    assert memo[Op(turn_on_m)][opened.true_atoms] is None

    # open, close, then turn_on runs where bread, which needs heat, is
    # inside; there is one state per operation, none for the test
    [branch] = normalize(parse_task(
        "[open(o_m) ; [IsOpen(o_m)@s ? ; [close(o_m) ; turn_on(o_m)]]]", kitchen))
    ready = next(w for w in kitchen_worlds
                 if ("IsOpen", ("o_m",)) not in w.true_atoms
                 and ("Loc", ("o_b", "o_m")) in w.true_atoms)
    states = run_branch(kitchen, ready, branch, memo)
    assert len(states) == 3
    assert ("Running", ("o_m",)) in states[-1].true_atoms
    assert states[0] == progress(kitchen, ready, open_m)


def test_test_construct(kitchen, kitchen_worlds):
    w_open = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) in w.true_atoms)
    w_closed = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) not in w.true_atoms)
    tau = parse_task("[IsOpen(o_m)@s ? ; close(o_m)]", kitchen)
    assert execute(kitchen, w_open, tau)
    assert not execute(kitchen, w_closed, tau)  # test fails, path stuck


def test_choice_explores_both(kitchen, kitchen_worlds):
    w_closed = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) not in w.true_atoms)
    tau = parse_task("[close(o_m) | open(o_m)]", kitchen)
    assert execute(kitchen, w_closed, tau)  # right branch completes
    ts = traces(kitchen, w_closed, tau)
    assert ts == {(GroundOp("open", ("o_m",)),)}


def test_normalize_trace_equivalent(kitchen, kitchen_worlds):
    rng = random.Random(3)
    ops = ["open(o_m)", "close(o_m)", "turn_on(o_m)", "put(o_b,o_p)",
           "put(o_p,o_m)", "IsOpen(o_m)@s ?", "!IsOpen(o_m)@s ?", "nil"]

    def rand_task(depth):
        if depth == 0:
            return parse_task(rng.choice(ops), kitchen)
        k = rng.randint(0, 2)
        if k == 0:
            return parse_task(rng.choice(ops), kitchen)
        left, right = rand_task(depth - 1), rand_task(depth - 1)
        return Seq(left, right) if k == 1 else Choice(left, right)

    for _ in range(60):
        tau = rand_task(3)
        branches = normalize(tau)
        flat = None
        for b in branches:
            t = branch_to_task(b)
            flat = t if flat is None else Choice(flat, t)
        for w in kitchen_worlds[:4]:
            assert traces(kitchen, w, tau) == traces(kitchen, w, flat)
        for w in kitchen_worlds:
            assert execute(kitchen, w, tau) == bool(traces(kitchen, w, tau))


def test_branch_atoms_are_choice_free(kitchen):
    tau = parse_task("[[open(o_m) | nil] ; [close(o_m) | turn_on(o_m)]]", kitchen)
    branches = normalize(tau)
    assert len(branches) == 4
    for b in branches:
        assert all(isinstance(a, (Op, TaskTest)) for a in b)


def test_grammar_enumeration_counts(kitchen, kitchen_grammar):
    counts = {k: sum(1 for _ in enumerate_derivations(kitchen_grammar, k, kitchen))
              for k in (2, 3, 4, 5, 6)}
    assert counts == {2: 0, 3: 12, 4: 28, 5: 28, 6: 268}


def test_derivations_deterministic_and_replayable(kitchen, kitchen_grammar):
    pairs = list(enumerate_derivations(kitchen_grammar, 4, kitchen))
    assert pairs == list(enumerate_derivations(kitchen_grammar, 4, kitchen))
    for steps, task in pairs:
        assert replay_derivation(kitchen_grammar, steps, kitchen) == task


def test_putfrag_syntactic_tasks(putfrag, putfrag_grammar):
    tasks = [t for _, t in enumerate_derivations(putfrag_grammar, 3, putfrag)]
    assert len(tasks) == 16  # every put(o1, o2) over four objects
    assert len(set(tasks)) == 16


def test_grammar_rejects_nonterminating():
    with pytest.raises(ValueError):
        Grammar([GrammarRule("r1", "T", ("T",))])
