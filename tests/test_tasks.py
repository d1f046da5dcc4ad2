import dataclasses
import random

import pytest

import tasks_oracle
from robovalid import logic, tasks
from robovalid.ctgen import build_model
from robovalid.logic import ParseError
from robovalid.tasks import (
    Choice, Grammar, Op, Seq, TaskParser, enumerate_derivations, execute,
    format_task, normalize, parse_task, run_branch,
)
from robovalid.tasks import Test as TaskTest
from robovalid.theory import (
    GrammarRule, GroundOp, TheoryError, enumerate_initial_worlds, load_model,
    progress,
)
from tasks_oracle import branch_to_task, replay_derivation, traces

from conftest import MODELS, WAIT_MODEL


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


def test_step_semantics(kitchen_worlds):
    """Each step a branch takes is kept in the transition table of its
    operation, on a freshly loaded theory; a test keeps none."""
    kitchen = load_model(MODELS / "kitchen4.sc")
    w = next(w for w in kitchen_worlds
             if ("IsOpen", ("o_m",)) not in w.true_atoms)
    open_m, turn_on_m = GroundOp("open", ("o_m",)), GroundOp("turn_on", ("o_m",))
    # open succeeds, then turn_on with the door open is stuck
    [branch] = normalize(parse_task("[open(o_m) ; turn_on(o_m)]", kitchen))
    assert run_branch(kitchen, w, branch) is None
    opened = progress(kitchen, w, open_m)
    assert kitchen._steps[open_m][1] == {w.true_atoms: opened}
    assert kitchen._steps[turn_on_m][1] == {opened.true_atoms: None}

    # open, close, then turn_on runs where bread, which needs heat, is
    # inside; there is one state per operation, none for the test
    [branch] = normalize(parse_task(
        "[open(o_m) ; [IsOpen(o_m)@s ? ; [close(o_m) ; turn_on(o_m)]]]", kitchen))
    ready = next(w for w in kitchen_worlds
                 if ("IsOpen", ("o_m",)) not in w.true_atoms
                 and ("Loc", ("o_b", "o_m")) in w.true_atoms)
    states = run_branch(kitchen, ready, branch)
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


def test_grammar_rejects_nonterminating(kitchen):
    rules = [GrammarRule("r1", "T", ("T",), "m.sc:7")]
    with pytest.raises(TheoryError, match=r"^m\.sc:7: grammar rule r1: nonterminals cannot "
                                          r"terminate: T$"):
        Grammar(dataclasses.replace(kitchen, grammar=rules))


def test_grammar_rejects_an_empty_grammar(kitchen):
    with pytest.raises(TheoryError, match="empty grammar"):
        Grammar(dataclasses.replace(kitchen, grammar=[]))


# Two choices over the kitchen grammar: one between two actions, and one
# between an action and nil, followed by a test and the rest of the task.
CHOICE_RULES = [GrammarRule("r_or", "T", ("[", "A", "|", "A", "]")),
                GrammarRule("r_orx", "T", tuple("[ [ A | nil ] ; [ G ? ; T ] ]".split()))]


@pytest.fixture(scope="module")
def choice_grammar(kitchen):
    return Grammar(dataclasses.replace(kitchen, grammar=kitchen.grammar + CHOICE_RULES))


@pytest.fixture(scope="module")
def kitchen7_grammar(kitchen7):
    return Grammar(kitchen7)


@pytest.mark.parametrize("name,grammar,depths", [
    ("kitchen", "kitchen_grammar", range(1, 9)),
    ("kitchen7", "kitchen7_grammar", range(1, 7)),
    ("putfrag", "putfrag_grammar", (1, 2, 3)),
    ("tiny", "tiny_grammar", (6,)),
    ("kitchen", "choice_grammar", (8,)),
])
def test_live_state_derivations_match_the_text_oracle(request, name, grammar, depths):
    """Tasks built from the rules' fragments, with live states carried
    down the derivation tree, give the oracle's (steps, task, worlds)
    stream: every derivation's text parsed again and its task run at the
    leaf from every world.  Without worlds the stream is its (steps,
    task) pairs."""
    theory = request.getfixturevalue(name)
    grammar = request.getfixturevalue(grammar)
    worlds = list(enumerate_initial_worlds(theory))
    for depth in depths:
        got = list(enumerate_derivations(grammar, depth, theory, worlds))
        assert got == list(tasks_oracle.accomplishing_worlds(
            dataclasses.replace(theory), grammar, depth, worlds))
        assert list(enumerate_derivations(grammar, depth, theory)) == [
            (steps, task) for steps, task, _ in got]


def test_choice_grammar_runs_tests_after_choices(kitchen, kitchen_worlds, choice_grammar):
    """The choice grammar's derivations reach choices, and tests after
    choices, whose task completes in some worlds only, and choices after
    the test `!IsOpen(o_b)@s`, which no world passes."""
    sizes = {"r_or": set(), "r_orx": set()}
    after_dead_test = []
    for steps, _, sat in enumerate_derivations(choice_grammar, 8, kitchen, kitchen_worlds):
        for rid in sizes:
            if rid in steps:
                sizes[rid].add(len(sat))
        if steps[:4] == ("r_tst", "r_g2", "r_o1", "r_or"):
            after_dead_test.append(sat)
    assert all(any(0 < n < len(kitchen_worlds) for n in s) for s in sizes.values())
    assert after_dead_test and not any(after_dead_test)


def test_build_model_prints_and_parses_no_text(kitchen, monkeypatch):
    """Generating builds every task from the compiled fragments: neither
    the task parser nor the tokenizer runs once the grammar is compiled."""
    grammar = Grammar(kitchen)

    def refuse(*args):
        raise AssertionError("text parsed while generating")
    monkeypatch.setattr(TaskParser, "parse", refuse)
    monkeypatch.setattr(logic, "tokenize", refuse)
    monkeypatch.setattr(tasks, "tokenize", refuse)
    model = build_model(kitchen, grammar, 6, 3)
    assert (model.syntax_valid, len(model.accomplishable)) == (268, 24)


@pytest.mark.parametrize("rules,message", [
    # a right side that is only part of a task, finished by another rule
    (["r_p: A ::= put ( O Z", "r_z: Z ::= , O )"],
     r":\d+: grammar rule r_p: A ::= put \( O Z does not read as a task: "
     r"nonterminal Z cannot stand here"),
    (["r_p: A ::= put ( O , O"],
     r":\d+: grammar rule r_p: A ::= put \( O , O does not read as a task: "
     r"unexpected end of input"),
    # O is an operation argument in r_open, and a task here
    (["r_x: T ::= [ O ; T ]"],
     r":\d+: grammar rule r_x: nonterminal O stands for both an object and a task"),
    (["r_x: G ::= O"],
     r":\d+: grammar rule r_x: nonterminal O stands for both an object and a test formula"),
    # a test formula may stand only where a whole formula does: `! ( G )`
    # is one, but in `! G` the text of G would bind to `!` alone
    (["r_x: G ::= ! G"],
     r":\d+: grammar rule r_x: G ::= ! G does not read as a test formula: "
     r"expected atom at 'G'"),
    # no kind, so no fragment, for a nonterminal the start symbol never reaches
    (["r_x: Q ::= put ( O"],
     r":\d+: grammar rule r_x: Q is not reached from the start symbol T"),
])
def test_a_rule_that_is_not_a_fragment_names_its_line(tmp_path, rules, message):
    """The grammar compiles each rule's right side into one fragment; a
    rule that is not one, or a nonterminal that stands for two kinds, is
    a TheoryError naming the model line it compiles."""
    text = (MODELS / "kitchen4.sc").read_text().replace(
        "grammar: r_put: A ::= put ( O , O )\n", "")
    path = tmp_path / "bad.sc"
    path.write_text(text + "".join("grammar: %s\n" % r for r in rules))
    theory = load_model(path)
    with pytest.raises(TheoryError, match=message) as exc:
        Grammar(theory)
    line = int(str(exc.value).split(":")[1])
    assert path.read_text().splitlines()[line - 1].startswith("grammar: ")


def test_zero_ary_operation_parses(tmp_path):
    path = tmp_path / "wait.sc"
    path.write_text(WAIT_MODEL)
    theory = load_model(path)
    assert parse_task("wait()", theory) == Op(GroundOp("wait", ()))
    assert parse_task("[wait() ; wait()]", theory) == Seq(Op(GroundOp("wait", ())),
                                                          Op(GroundOp("wait", ())))
    with pytest.raises(ParseError, match="^operation wait\\(a\\): "):
        parse_task("wait(a)", theory)
