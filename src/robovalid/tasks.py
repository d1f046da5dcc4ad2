"""Task programs: AST, transition semantics, grammar derivation, branch form.

Tasks are the five-construct core (nil, operation, test, sequence,
nondeterministic choice); grammar-level sugar is expanded away by the
grammar itself, which produces core task text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .logic import (
    Formula, FormulaParser, ParseError, S0, _TokenStream, anchor, evaluate,
    format_formula, tokenize,
)
from .theory import (
    ActionTheory, GrammarRule, GroundOp, StateView, WorldState, possible,
    progress,
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
    """Parses the task text syntax: nil, op(a,b), phi ?, [t;t], [t|t]."""

    def __init__(self, theory: ActionTheory):
        self.theory = theory
        self.fparser = FormulaParser(theory.objects)

    def parse(self, text: str) -> Task:
        ts = _TokenStream(tokenize(text))
        tau = self.task(ts)
        if not ts.at_end():
            raise ParseError("trailing tokens after task: %r" % ts.toks[ts.pos:])
        return tau

    def task(self, ts: _TokenStream) -> Task:
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
                return Op(GroundOp(tok, tuple(args)))
            ts.pos = mark
        phi = self.fparser.formula(ts)
        ts.expect("?")
        return Test(phi)


def parse_task(text: str, theory: ActionTheory) -> Task:
    return TaskParser(theory).parse(text)


# ---------------------------------------------------------------------------
# Transition semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionState:
    """A world state paired with the remaining task.

    Final iff the task is nil; depth counts applied operations and stands
    in for the situation term.
    """
    state: WorldState
    remaining: Task
    depth: int = 0

    @property
    def final(self) -> bool:
        return isinstance(self.remaining, Nil)


def step(theory: ActionTheory, es: ExecutionState) -> list[ExecutionState]:
    """All single-step successors; empty for stuck (and final) states."""
    if es.final:
        return []
    tau = es.remaining
    if isinstance(tau, Op):
        if possible(theory, es.state, tau.op):
            return [ExecutionState(progress(theory, es.state, tau.op), NIL, es.depth + 1)]
        return []
    if isinstance(tau, Test):
        phi = anchor(tau.formula, S0)
        if evaluate(StateView(theory, es.state), phi):
            return [ExecutionState(es.state, NIL, es.depth)]
        return []
    if isinstance(tau, Seq):
        if isinstance(tau.first, Nil):
            return [ExecutionState(es.state, tau.second, es.depth)]
        out = []
        for nxt in step(theory, ExecutionState(es.state, tau.first, es.depth)):
            out.append(ExecutionState(nxt.state, Seq(nxt.remaining, tau.second), nxt.depth))
        return out
    if isinstance(tau, Choice):
        left = step(theory, ExecutionState(es.state, tau.left, es.depth))
        right = step(theory, ExecutionState(es.state, tau.right, es.depth))
        return left + right
    raise TypeError("unknown task node %r" % (tau,))


def execute(theory: ActionTheory, w0: WorldState, tau: Task) -> bool:
    """Exhaustive search of the transition relation; True iff some path
    reaches a final state (task completes), False iff every path gets stuck.
    """
    seen = set()
    frontier = [ExecutionState(w0, tau)]
    while frontier:
        es = frontier.pop()
        key = (es.state.true_atoms, es.remaining)
        if key in seen:
            continue
        seen.add(key)
        if es.final:
            return True
        frontier.extend(step(theory, es))
    return False


def traces(theory: ActionTheory, w0: WorldState, tau: Task) -> set[tuple[GroundOp, ...]]:
    """Operation sequences of all completing executions (for equivalence
    checks between a task and its branch normal form)."""
    out: set[tuple[GroundOp, ...]] = set()

    def rec2(state: WorldState, tau: Task, ops: tuple[GroundOp, ...]) -> None:
        if isinstance(tau, Nil):
            out.add(ops)
            return
        if isinstance(tau, Op):
            if possible(theory, state, tau.op):
                rec2(progress(theory, state, tau.op), NIL, ops + (tau.op,))
            return
        if isinstance(tau, Test):
            if evaluate(StateView(theory, state), anchor(tau.formula, S0)):
                rec2(state, NIL, ops)
            return
        if isinstance(tau, Seq):
            head, rest = tau.first, tau.second
            if isinstance(head, Nil):
                rec2(state, rest, ops)
            elif isinstance(head, Seq):
                rec2(state, Seq(head.first, Seq(head.second, rest)), ops)
            elif isinstance(head, Choice):
                rec2(state, Seq(head.left, rest), ops)
                rec2(state, Seq(head.right, rest), ops)
            elif isinstance(head, Op):
                if possible(theory, state, head.op):
                    rec2(progress(theory, state, head.op), rest, ops + (head.op,))
            elif isinstance(head, Test):
                if evaluate(StateView(theory, state), anchor(head.formula, S0)):
                    rec2(state, rest, ops)
            return
        if isinstance(tau, Choice):
            rec2(state, tau.left, ops)
            rec2(state, tau.right, ops)
            return

    rec2(w0, tau, ())
    return out


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


def branch_to_task(branch: list[Task]) -> Task:
    """Right-nested sequence for one branch ([] is nil)."""
    if not branch:
        return NIL
    out = branch[-1]
    for atom in reversed(branch[:-1]):
        out = Seq(atom, out)
    return out


# ---------------------------------------------------------------------------
# Grammar-bounded derivation
# ---------------------------------------------------------------------------

EPSILON = "eps"


@dataclass(frozen=True)
class Derivation:
    """A leftmost derivation: the applied rule ids, without epsilon padding."""
    steps: tuple[str, ...]


class Grammar:
    """A set of rules plus the start symbol (the first rule's left side)."""

    def __init__(self, rules: list[GrammarRule]):
        if not rules:
            raise ValueError("empty grammar")
        ids = [r.id for r in rules]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate grammar rule ids")
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
                          theory: ActionTheory) -> Iterator[tuple[Derivation, Task]]:
    """Every leftmost derivation with at most `depth` rule applications,
    paired with the task it generates, in deterministic order.
    """
    if depth < 1:
        return
    parser = TaskParser(theory)

    def rec(form: tuple[str, ...], steps: tuple[str, ...]) -> Iterator[tuple[Derivation, Task]]:
        idx = next((i for i, t in enumerate(form) if t in grammar.nonterminals), None)
        if idx is None:
            yield Derivation(steps), parser.parse(" ".join(form))
            return
        if len(steps) >= depth:
            return
        for rule in grammar.by_lhs.get(form[idx], ()):
            new_form = form[:idx] + rule.rhs + form[idx + 1:]
            if len(steps) + 1 + grammar.min_completion(new_form) > depth:
                continue
            yield from rec(new_form, steps + (rule.id,))

    yield from rec((grammar.start,), ())


def replay_derivation(grammar: Grammar, steps: tuple[str, ...],
                      theory: ActionTheory) -> Task:
    """Apply rule ids to the start symbol (leftmost) and parse the result."""
    by_id = {r.id: r for r in grammar.rules}
    form: tuple[str, ...] = (grammar.start,)
    for rid in steps:
        if rid == EPSILON:
            break
        rule = by_id[rid]
        idx = next((i for i, t in enumerate(form) if t in grammar.nonterminals), None)
        if idx is None or form[idx] != rule.lhs:
            raise ValueError("rule %s does not apply to leftmost nonterminal" % rid)
        form = form[:idx] + rule.rhs + form[idx + 1:]
    if any(t in grammar.nonterminals for t in form):
        raise ValueError("derivation %r does not terminate" % (steps,))
    return TaskParser(theory).parse(" ".join(form))
