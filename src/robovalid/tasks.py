"""Task programs: AST, branch normal form, forward execution, grammar
derivation.

Tasks are the five-construct core (nil, operation, test, sequence,
nondeterministic choice); grammar-level sugar is expanded away by the
grammar itself, which produces core task text.

Forward execution decides accomplishability: a task can complete from a
world iff some choice-free branch of `normalize` runs there, test by
test and operation by operation (`run_branch`).  Weakest preconditions
(`wp`) describe the same worlds symbolically; they feed the constraints
of the combinatorial model, which check its rows independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .logic import (
    Formula, FormulaParser, ModelError, ParseError, TokenStream, format_formula,
    peval, tokenize,
)
from .theory import (
    ActionTheory, GrammarRule, GroundOp, PreconditionViolation, TheoryError,
    WorldState, apply_op, check_ground_op, ground_op, ground_state_formula,
    state_truth,
)


@dataclass(frozen=True)
class Nil:
    pass


@dataclass(frozen=True)
class Op:
    op: GroundOp


@dataclass(frozen=True)
class Test:
    formula: Formula


@dataclass(frozen=True)
class Seq:
    first: "Task"
    second: "Task"


@dataclass(frozen=True)
class Choice:
    left: "Task"
    right: "Task"


Task = Union[Nil, Op, Test, Seq, Choice]

NIL = Nil()


def format_task(tau: Task) -> str:
    if isinstance(tau, Nil):
        return "nil"
    if isinstance(tau, Op):
        return str(tau.op)
    if isinstance(tau, Test):
        return format_formula(tau.formula) + " ?"
    if isinstance(tau, Seq):
        return "[%s ; %s]" % (format_task(tau.first), format_task(tau.second))
    if isinstance(tau, Choice):
        return "[%s | %s]" % (format_task(tau.left), format_task(tau.right))
    raise TypeError("unknown task node %r" % (tau,))


class TaskParser:
    """Parses the task text syntax: nil, op(a,b), phi ?, [t;t], [t|t].

    An operation must name a declared operation, with its arity, over
    declared objects, and a test is grounded as `run_branch` grounds it,
    so an operation no state could run or a test no state could decide
    (a free variable, an operation equality, a fluent at a `do(...)`
    situation, an undeclared atom) is a ParseError here, not an error
    when a branch reaches it."""

    def __init__(self, theory: ActionTheory):
        self.theory = theory
        self.fparser = FormulaParser(theory.objects)

    def parse(self, text: str) -> Task:
        ts = TokenStream(tokenize(text))
        tau = self.task(ts)
        if not ts.at_end():
            raise ParseError("trailing tokens after task: %r" % ts.toks[ts.pos:])
        return tau

    def task(self, ts: TokenStream) -> Task:
        if ts.peek() == "[":
            ts.next()
            first = self.task(ts)
            sep = ts.next()
            if sep not in (";", "|"):
                raise ParseError("expected ';' or '|' in task, got %r" % sep)
            second = self.task(ts)
            ts.expect("]")
            return Seq(first, second) if sep == ";" else Choice(first, second)
        if ts.peek() == "nil":
            ts.next()
            return NIL
        # operation instance or a test formula terminated by '?'
        mark = ts.pos
        tok = ts.peek()
        if tok in self.theory.operations:
            ts.next()
            ts.expect("(")
            args = [ts.next()]
            while ts.peek() == ",":
                ts.next()
                args.append(ts.next())
            ts.expect(")")
            if ts.peek() != "?":  # a fluent named like an op would carry @/?
                op = GroundOp(tok, tuple(args))
                try:
                    check_ground_op(self.theory, op)
                except TheoryError as exc:
                    raise ParseError("operation %s: %s" % (op, exc)) from exc
                return Op(op)
            ts.pos = mark
        phi = self.fparser.formula(ts)
        ts.expect("?")
        try:
            ground_state_formula(self.theory, phi)
        except ModelError as exc:
            raise ParseError("test %s cannot be decided in a state: %s"
                             % (format_formula(phi), exc)) from exc
        return Test(phi)


def parse_task(text: str, theory: ActionTheory) -> Task:
    return TaskParser(theory).parse(text)


# ---------------------------------------------------------------------------
# Branch normal form
# ---------------------------------------------------------------------------

def normalize(tau: Task) -> list[list[Task]]:
    """Rewrite to a list of choice-free branches via distributivity.

    Each branch is a list of Op/Test atoms whose sequential composition,
    unioned over branches, has the same execution traces as `tau`.
    """
    if isinstance(tau, Nil):
        return [[]]
    if isinstance(tau, (Op, Test)):
        return [[tau]]
    if isinstance(tau, Seq):
        return [a + b for a in normalize(tau.first) for b in normalize(tau.second)]
    if isinstance(tau, Choice):
        return normalize(tau.left) + normalize(tau.right)
    raise TypeError("unknown task node %r" % (tau,))


# ---------------------------------------------------------------------------
# Forward execution
# ---------------------------------------------------------------------------

def run_branch(theory: ActionTheory, state: WorldState, branch: list[Task],
               memo: dict) -> Optional[list[WorldState]]:
    """Run a choice-free branch of `normalize` forward from `state`.

    Returns the state after each operation, or None when a test fails or
    an operation is not possible on the way.  `memo` keeps one
    transition table per branch atom (`transitions`), each operation
    grounded once (`theory.ground_op`, keyed by its GroundOp), each
    test's formula grounded once (keyed by the formula) and each state's
    `theory.state_truth` computed once (keyed by its `true_atoms`).  The
    caller owns it and shares it across the branches and worlds of a run,
    whose branches share most of their prefixes and reach the same
    states.
    """
    return walk(theory, state, transitions(branch, memo), memo)


def transitions(branch: list[Task], memo: dict) -> list[tuple[bool, Task, dict]]:
    """(is an operation, atom, transition table) for each atom of
    `branch`.  An atom's table, kept in `memo` under the atom, maps a
    state's `true_atoms`, whose hash the frozenset caches, to the state
    after the atom, or to None when the atom is stuck there.  A caller
    that runs one branch from many states looks its tables up once."""
    out = []
    for atom in branch:
        table = memo.get(atom)
        if table is None:
            table = memo[atom] = {}
        out.append((isinstance(atom, Op), atom, table))
    return out


def walk(theory: ActionTheory, state: WorldState,
         tables: list[tuple[bool, Task, dict]], memo: dict) -> Optional[list[WorldState]]:
    """`run_branch` over the branch's `transitions`: each step is a table
    lookup, and a state's first visit runs the atom and fills its entry."""
    states = []
    for is_op, atom, table in tables:
        key = state.true_atoms
        if key in table:
            state = table[key]
        else:
            state = table[key] = _run_atom(theory, state, atom, memo)
        if state is None:
            return None
        if is_op:
            states.append(state)
    return states


def _run_atom(theory: ActionTheory, state: WorldState, atom: Task,
              memo: dict) -> Optional[WorldState]:
    truth = memo.get(state.true_atoms)
    if truth is None:
        truth = memo[state.true_atoms] = state_truth(theory, state)
    if isinstance(atom, Op):
        step = memo.get(atom.op)
        if step is None:
            step = memo[atom.op] = ground_op(theory, atom.op)
        try:
            return apply_op(step, state, truth)
        except PreconditionViolation:
            return None
    if isinstance(atom, Test):
        phi = memo.get(atom.formula)
        if phi is None:
            phi = memo[atom.formula] = ground_state_formula(theory, atom.formula)
        return state if peval(phi, truth) else None
    raise TypeError("branch atom %r is neither an operation nor a test" % (atom,))


def execute(theory: ActionTheory, w0: WorldState, tau: Task) -> bool:
    """Whether `tau` can complete from `w0`: some branch of its normal
    form runs to the end.  No production path calls it; it serves the
    acceptance criteria and the test oracles."""
    memo: dict = {}
    return any(run_branch(theory, w0, b, memo) is not None for b in normalize(tau))


# ---------------------------------------------------------------------------
# Grammar-bounded derivation
# ---------------------------------------------------------------------------

EPSILON = "eps"


class Grammar:
    """A set of rules with distinct ids, as `theory.load_model` checks, plus
    the start symbol (the first rule's left side)."""

    def __init__(self, rules: list[GrammarRule]):
        if not rules:
            raise ValueError("empty grammar")
        self.rules = list(rules)
        self.start = rules[0].lhs
        self.nonterminals = {r.lhs for r in rules}
        self.by_lhs: dict[str, list[GrammarRule]] = {}
        for r in sorted(rules, key=lambda r: r.id):
            self.by_lhs.setdefault(r.lhs, []).append(r)
        self._min_cost = self._compute_min_costs()

    def _compute_min_costs(self) -> dict[str, int]:
        # least number of rule applications to eliminate each nonterminal
        cost = {nt: None for nt in self.nonterminals}
        changed = True
        while changed:
            changed = False
            for r in self.rules:
                parts = [cost[t] for t in r.rhs if t in self.nonterminals]
                if any(c is None for c in parts):
                    continue
                c = 1 + sum(parts)
                if cost[r.lhs] is None or c < cost[r.lhs]:
                    cost[r.lhs] = c
                    changed = True
        dead = [nt for nt, c in cost.items() if c is None]
        if dead:
            raise ValueError("nonterminals cannot terminate: %s" % ", ".join(sorted(dead)))
        return cost

    def min_completion(self, form: tuple[str, ...]) -> int:
        return sum(self._min_cost[t] for t in form if t in self.nonterminals)


def enumerate_derivations(grammar: Grammar, depth: int,
                          theory: ActionTheory) -> Iterator[tuple[tuple[str, ...], Task]]:
    """Every leftmost derivation with at most `depth` rule applications,
    as its applied rule ids (without epsilon padding) paired with the task
    it generates, in deterministic order.
    """
    if depth < 1:
        return
    parser = TaskParser(theory)

    def rec(form: tuple[str, ...],
            steps: tuple[str, ...]) -> Iterator[tuple[tuple[str, ...], Task]]:
        idx = next((i for i, t in enumerate(form) if t in grammar.nonterminals), None)
        if idx is None:
            yield steps, parser.parse(" ".join(form))
            return
        if len(steps) >= depth:
            return
        for rule in grammar.by_lhs.get(form[idx], ()):
            new_form = form[:idx] + rule.rhs + form[idx + 1:]
            if len(steps) + 1 + grammar.min_completion(new_form) > depth:
                continue
            yield from rec(new_form, steps + (rule.id,))

    yield from rec((grammar.start,), ())
