"""Task programs: AST, branch normal form, forward execution, grammar
derivation.

Tasks are the five-construct core (nil, operation, test, sequence,
nondeterministic choice); grammar-level sugar is expanded away by the
grammar itself, whose rules are fragments of the core task syntax.

Forward execution decides accomplishability: a task can complete from a
world iff some choice-free branch of `normalize` runs there, test by
test and operation by operation (`run_branch`).  Weakest preconditions
(`wp`) describe the same worlds symbolically; they feed the constraints
of the combinatorial model, which check its rows independently.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

from .logic import (
    Formula, FormulaParser, Hole, ModelError, Obj, ParseError, TokenStream, Var,
    fill_holes, format_formula, peval, tokenize,
)
from .record import Record
from .theory import (
    ActionTheory, GrammarRule, GroundOp, PreconditionViolation, TheoryError,
    WorldState, apply_op, check_ground_op, ground_op, ground_state_formula,
    state_truth,
)


class Nil(Record):
    pass


class Op(Record):
    op: GroundOp


class Test(Record):
    formula: Formula


class Seq(Record):
    first: "Task"
    second: "Task"


class Choice(Record):
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
    """Parses the task text syntax: nil, op(a,b), op(), phi ?, [t;t], [t|t].

    `parse` checks each atom of the task, in text order, as `operation`
    and `test` do: an operation must name a declared operation, with its
    arity, over declared objects, and a test is grounded as `run_branch`
    grounds it.  So an operation no state could run or a test no state
    could decide (a free variable, an operation equality, a fluent at a
    `do(...)` situation, an undeclared atom) is a ParseError here, not an
    error when a branch reaches it.  `task` reads the structure alone, so
    it also reads a grammar rule's right side, whose nonterminals are
    `Hole`s, as a fragment (`Grammar`).

    Each operation is checked once and each test grounded once per
    parser.  `grounded` keeps the grounded tests, keyed by formula as
    `run_branch`'s memo keeps them, so a parser can share that memo."""

    def __init__(self, theory: ActionTheory, grounded: Optional[dict] = None):
        self.theory = theory
        self.fparser = FormulaParser(theory.objects)
        self.grounded = {} if grounded is None else grounded
        self.checked: dict[GroundOp, Op] = {}

    def parse(self, text: str) -> Task:
        ts = TokenStream(tokenize(text))
        tau = self.task(ts)
        if not ts.at_end():
            raise ParseError("trailing tokens after task: %r" % ts.toks[ts.pos:])
        self.check(tau)
        return tau

    def check(self, tau: Task) -> None:
        """Check each atom of `tau` in text order."""
        if isinstance(tau, Seq):
            self.check(tau.first)
            self.check(tau.second)
        elif isinstance(tau, Choice):
            self.check(tau.left)
            self.check(tau.right)
        elif isinstance(tau, Op):
            self.operation(tau.op)
        elif isinstance(tau, Test):
            self.test(tau.formula)

    def operation(self, op: GroundOp) -> Op:
        """The atom running `op`, once `op` is checked."""
        atom = self.checked.get(op)
        if atom is None:
            try:
                check_ground_op(self.theory, op)
            except TheoryError as exc:
                raise ParseError("operation %s: %s" % (op, exc)) from exc
            atom = self.checked[op] = Op(op)
        return atom

    def test(self, phi: Formula) -> Test:
        """The atom testing `phi`, once `phi` is grounded."""
        if phi not in self.grounded:
            try:
                self.grounded[phi] = ground_state_formula(self.theory, phi)
            except ModelError as exc:
                raise ParseError("test %s cannot be decided in a state: %s"
                                 % (format_formula(phi), exc)) from exc
        return Test(phi)

    def task(self, ts: TokenStream) -> Task:
        tok = ts.peek()
        if isinstance(tok, Hole) and ts.peek(1) in (";", "|", "]", None):
            return ts.hole("task")
        if tok == "[":
            ts.next()
            first = self.task(ts)
            sep = ts.next()
            if sep not in (";", "|"):
                raise ParseError("expected ';' or '|' in task, got %r" % sep)
            second = self.task(ts)
            ts.expect("]")
            return Seq(first, second) if sep == ";" else Choice(first, second)
        if tok == "nil":
            ts.next()
            return NIL
        # operation instance or a test formula terminated by '?'
        mark = ts.pos
        if tok in self.theory.operations:
            ts.next()
            ts.expect("(")
            args = []
            if ts.peek() != ")":
                args.append(self.argument(ts))
                while ts.peek() == ",":
                    ts.next()
                    args.append(self.argument(ts))
            ts.expect(")")
            if ts.peek() != "?":  # a fluent named like an op would carry @/?
                return Op(GroundOp(tok, tuple(args)))
            ts.pos = mark
        phi = self.fparser.formula(ts)
        ts.expect("?")
        return Test(phi)

    def argument(self, ts: TokenStream):
        """An operation argument: an object name, or a hole for one."""
        return ts.hole("object") if isinstance(ts.peek(), Hole) else ts.next()


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
    transition table per atom (`_table`), each operation grounded once
    (`theory.ground_op`, keyed by its GroundOp), each test's formula
    grounded once (keyed by the formula) and each state's
    `theory.state_truth` computed once (keyed by its `true_atoms`).  The
    caller owns it and shares it across the branches and worlds of a run,
    whose branches share most of their prefixes and reach the same
    states.
    """
    states = []
    for atom in branch:
        state = _step(theory, state, atom, _table(atom, memo), memo)
        if state is None:
            return None
        if isinstance(atom, Op):
            states.append(state)
    return states


def _table(atom: Task, memo: dict) -> dict:
    """`atom`'s transition table, kept in `memo` under the atom: it maps a
    state's `true_atoms` to the state after the atom, or to None when the
    atom is stuck there."""
    table = memo.get(atom)
    if table is None:
        table = memo[atom] = {}
    return table


def _step(theory: ActionTheory, state: WorldState, atom: Task, table: dict,
          memo: dict) -> Optional[WorldState]:
    """The state after `atom` from `state`, or None when it is stuck there,
    looked up in the atom's transition `table` and filled on a miss."""
    key = state.true_atoms
    if key not in table:
        table[key] = _run_atom(theory, state, atom, memo)
    return table[key]


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

# A rule's program, run left to right as a leftmost derivation reaches
# it: a nonterminal (str) to expand, whose value is pushed once its own
# program has run; a (make, n) pair, which replaces the top n values by
# make(values, parser); or _CHOICE, which marks where a choice opens.
_CHOICE = object()


class Grammar:
    """A theory's grammar rules, with distinct ids as `theory.load_model`
    checks, and the start symbol (the first rule's left side), each rule's
    right side compiled once into a fragment: a task, an object term or a
    whole test formula, according to what its left side stands for, whose
    nonterminals are holes.

    The start symbol stands for a task; every other nonterminal stands
    for what its place in the fragments that reach it says: a task where
    a task may stand, an object where an operation argument or a term of
    a test may, a test formula where a whole formula may (before '?', in
    parentheses or as a quantifier's body).  A rule whose right side is
    not one such fragment, whose left side the start symbol does not
    reach, or that makes a nonterminal stand for two kinds, is a
    TheoryError naming the rule's model line.  A fragment is then what
    the rule's text means wherever its left side occurs, so a derivation
    builds the task its text parses to.  An empty grammar, or a
    nonterminal no derivation can eliminate, is a TheoryError too, the
    latter naming the model line of the first rule that expands one."""

    def __init__(self, theory: ActionTheory):
        rules = list(theory.grammar)
        if not rules:
            raise TheoryError("empty grammar: the model has no grammar rules")
        self.rules = rules
        self.start = rules[0].lhs
        self.nonterminals = {r.lhs for r in rules}
        self.by_lhs: dict[str, list[GrammarRule]] = {}
        for r in sorted(rules, key=lambda r: r.id):
            self.by_lhs.setdefault(r.lhs, []).append(r)
        self.min_cost = self._compute_min_costs()
        programs = self._compile(theory)
        # per nonterminal, (rule id, program, least applications to
        # eliminate the rule's nonterminals) of each of its rules, in
        # `by_lhs` order
        self.expansions: dict[str, list[tuple[str, tuple, int]]] = {
            nt: [(r.id, programs[r.id],
                  sum(self.min_cost[t] for t in r.rhs if t in self.nonterminals))
                 for r in rs]
            for nt, rs in self.by_lhs.items()}

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
        dead = sorted(nt for nt, c in cost.items() if c is None)
        if dead:
            first = next(r for r in self.rules if r.lhs in dead)
            raise TheoryError("%s: nonterminals cannot terminate: %s"
                              % (_where(first), ", ".join(dead)))
        return cost

    def _compile(self, theory: ActionTheory) -> dict[str, tuple]:
        """The program of each rule, by rule id.  Rules are compiled in
        file order, over and over, as the kinds of their left sides become
        known; a rule whose left side the start symbol never reaches is a
        TheoryError, as its kind is unknown."""
        kinds = {self.start: "task"}
        parser = TaskParser(theory)
        programs: dict[str, tuple] = {}
        changed = True
        while changed:
            changed = False
            for rule in self.rules:
                if rule.id in programs or rule.lhs not in kinds:
                    continue
                changed = True
                kind = kinds[rule.lhs]
                try:
                    ts = TokenStream(self._tokens(rule))
                    if kind == "task":
                        node = parser.task(ts)
                    elif kind == "formula":
                        node = parser.fparser.formula(ts)
                    else:
                        node = parser.fparser.term(ts)
                    if not ts.at_end():
                        raise ParseError("trailing tokens %r"
                                         % [str(t) for t in ts.toks[ts.pos:]])
                except ParseError as exc:
                    raise TheoryError("%s: %s ::= %s does not read as %s: %s"
                                      % (_where(rule), rule.lhs, " ".join(rule.rhs), _KINDS[kind],
                                         exc)) from exc
                for hole, k in ts.kinds.items():
                    if kinds.setdefault(hole.name, k) != k:
                        raise TheoryError("%s: nonterminal %s stands for both %s and %s"
                                          % (_where(rule), hole.name, _KINDS[kinds[hole.name]],
                                             _KINDS[k]))
                programs[rule.id] = tuple(_program(node, kind))
        for rule in self.rules:
            if rule.id not in programs:
                raise TheoryError("%s: %s is not reached from the start symbol %s"
                                  % (_where(rule), rule.lhs, self.start))
        return programs

    def _tokens(self, rule: GrammarRule) -> list:
        """The rule's right side as tokens, each nonterminal a `Hole`."""
        toks: list = []
        for sym in rule.rhs:
            if sym in self.nonterminals:
                toks.append(Hole(sym, sum(isinstance(t, Hole) for t in toks)))
            else:
                toks.extend(tokenize(sym))
        return toks


_KINDS = {"task": "a task", "object": "an object", "formula": "a test formula"}


def _where(rule: GrammarRule) -> str:
    return "%s: grammar rule %s" % (rule.where, rule.id) if rule.where \
        else "grammar rule %s" % rule.id


def _program(node, kind: str) -> list:
    """The program of a fragment of `kind`: each hole and each node in
    text order, a node after its parts, so an atom's make runs as soon as
    the atom is complete."""
    if isinstance(node, Hole):
        return [node.name]
    if kind == "object":
        name = node.name
        return [(lambda values, parser: name, 0)]
    if kind == "formula":
        return _formula_program(node, lambda phi, parser: phi)
    if isinstance(node, Seq):
        return (_program(node.first, kind) + _program(node.second, kind)
                + [(lambda values, parser: Seq(*values), 2)])
    if isinstance(node, Choice):
        return ([_CHOICE] + _program(node.left, kind) + _program(node.right, kind)
                + [(lambda values, parser: Choice(*values), 2)])
    if isinstance(node, Op):
        name, args = node.op.name, node.op.args
        holes = [a.name for a in args if isinstance(a, Hole)]

        def make_op(values, parser):
            it = iter(values)
            return parser.operation(GroundOp(name, tuple(
                next(it) if isinstance(a, Hole) else a for a in args)))
        return holes + [(make_op, len(holes))]
    if isinstance(node, Test):
        return _formula_program(node.formula, lambda phi, parser: parser.test(phi))
    return [(lambda values, parser: NIL, 0)]


def _formula_program(phi: Formula, finish) -> list:
    """The holes of a formula fragment, then finish(the filled formula,
    parser).  An object hole's value, a name, becomes the term the
    formula parser reads for it."""
    holes: list[Hole] = []
    fill_holes(phi, holes.append)  # visits the holes in text order
    first = holes[0].index if holes else 0

    def make(values, parser):
        objects = parser.fparser.objects

        def value(h: Hole):
            v = values[h.index - first]
            if isinstance(v, str):
                return Obj(v) if v in objects else Var(v)
            return v
        return finish(fill_holes(phi, value), parser)
    return [h.name for h in holes] + [(make, len(holes))]


def enumerate_derivations(grammar: Grammar, depth: int, theory: ActionTheory,
                          worlds: Optional[list[WorldState]] = None) -> Iterator[tuple]:
    """Every leftmost derivation with at most `depth` rule applications,
    in deterministic order, as its applied rule ids (without epsilon
    padding) and the task it generates.  The task is built from the
    rules' compiled fragments, a node as soon as its parts are complete:
    no text is printed or parsed, and each distinct operation and test is
    checked once (`TaskParser.operation` and `TaskParser.test`).

    With `worlds`, each derivation comes as (steps, task, the worlds of
    `worlds`, in their order, from which the task can complete).  Each
    world's state after the derivation's completed atoms is carried down
    the derivation tree: an atom, once complete, runs once from its
    parent's live states, through `run_branch`'s transition tables and
    memo.  When no state is live, the subtree is dead: it is still
    enumerated, with no worlds, and runs nothing.  Once a choice opens,
    the atoms completed inside it are not a prefix of every branch, so
    the leaf runs each branch of the task's `normalize` by `run_branch`
    from the worlds still live where the choice opened.
    """
    if depth < 1:
        return
    memo: dict = {}
    parser = TaskParser(theory, memo)
    expansions, min_cost = grammar.expansions, grammar.min_cost

    def rec(program: tuple, values: tuple, steps: tuple[str, ...],
            live: tuple, choice: bool, pending: int) -> Iterator[tuple]:
        # `values` are the completed parts, `live` each world's state or
        # None, `pending` the least applications left for `program`
        for i, ins in enumerate(program):
            if ins.__class__ is str:
                break
            if ins is _CHOICE:
                choice = True
                continue
            make, n = ins
            k = len(values) - n
            value = make(values[k:], parser)
            values = values[:k] + (value,)
            if not choice and isinstance(value, (Op, Test)) and any(live):
                table = _table(value, memo)
                live = tuple(None if s is None else _step(theory, s, value, table, memo)
                             for s in live)
        else:
            (task,) = values
            if worlds is None:
                yield steps, task
                return
            sat = [w for w, s in zip(worlds, live) if s is not None]
            if choice and sat:
                branches = normalize(task)
                sat = [w for w in sat
                       if any(run_branch(theory, w, b, memo) is not None for b in branches)]
            yield steps, task, sat
            return
        if len(steps) >= depth:
            return
        nt, rest = program[i], program[i + 1:]
        left = pending - min_cost[nt]
        for rid, prog, cost in expansions[nt]:
            if len(steps) + 1 + left + cost <= depth:
                yield from rec(prog + rest, values, steps + (rid,), live, choice, left + cost)

    yield from rec((grammar.start,), (), (), tuple(worlds or ()), False,
                   min_cost[grammar.start])
