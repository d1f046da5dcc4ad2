"""Reference task semantics for differential tests.

`traces` is an independent recursive semantics of the task constructs:
it follows every choice of the task itself, without `tasks.normalize`,
and collects the operation sequences of all completing executions.
`execute` and `run_branch` are checked against it, and `normalize`
against it through `branch_to_task`.  `replay_derivation` rebuilds a
task from its rule ids, to check `tasks.enumerate_derivations`.

`enumerate_derivations` and `accomplishing_worlds` are the derivation
path the package used before it built tasks from the rules' compiled
fragments and carried live states down the derivation tree: every
derivation's sentential form is printed and parsed again, and each task
is run at its leaf, branch by branch of `normalize`, from every world.
`branch_states` runs a branch without the theory's caches, so the
forward-execution caches of `ActionTheory` are not on both sides of a
comparison with it.

`possible` and `progress` are the per-step semantics the package used
before it grounded each operation once: every call instantiates the
precondition and each atom's effect conditions afresh and evaluates
them over a `theory.StateView`, which computes derived fluents as
closures.  `traces` steps with them, so it shares no progression code
with `theory.progress` or `tasks.run_branch`.
"""

from typing import Iterator, Optional

from robovalid.logic import S0, anchor, evaluate, peval
from robovalid.tasks import (
    EPSILON, NIL, Choice, Grammar, Nil, Op, Seq, Task, TaskParser, Test,
    normalize,
)
from robovalid.theory import (
    ActionTheory, GroundAtom, GroundOp, PreconditionViolation, StateView,
    WorldState, apply_op, ground_op, ground_state_formula, instantiate_precondition,
    state_truth,
)
from theory_oracle import instantiate_gamma


def possible(theory: ActionTheory, state: WorldState, op: GroundOp) -> bool:
    phi = anchor(instantiate_precondition(theory, op), S0)
    return evaluate(StateView(theory, state), phi)


def progress(theory: ActionTheory, state: WorldState, op: GroundOp) -> WorldState:
    """New truth is gamma+ or (old and not gamma-), each evaluated per atom."""
    view = StateView(theory, state)
    if not evaluate(view, anchor(instantiate_precondition(theory, op), S0)):
        raise PreconditionViolation("%s is not possible here" % op)
    new_true: set[GroundAtom] = set()
    for atom in theory.all_primitive_atoms():
        fname, args = atom
        sa = theory.successor[fname]
        gplus = anchor(instantiate_gamma(sa.gamma_plus, sa.params, args, op), S0)
        gminus = anchor(instantiate_gamma(sa.gamma_minus, sa.params, args, op), S0)
        if evaluate(view, gplus) or (state.holds(atom) and not evaluate(view, gminus)):
            new_true.add(atom)
    return WorldState(frozenset(new_true))


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


def branch_to_task(branch: list[Task]) -> Task:
    """Right-nested sequence for one branch ([] is nil)."""
    if not branch:
        return NIL
    out = branch[-1]
    for atom in reversed(branch[:-1]):
        out = Seq(atom, out)
    return out


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


def enumerate_derivations(grammar: Grammar, depth: int, theory: ActionTheory
                          ) -> Iterator[tuple[tuple[str, ...], Task]]:
    """Every leftmost derivation with at most `depth` rule applications,
    as its rule ids and the task its sentential form parses to, in the
    package's order."""
    if depth < 1:
        return
    parser = TaskParser(theory)

    def min_completion(form: tuple[str, ...]) -> int:
        return sum(grammar.min_cost[t] for t in form if t in grammar.nonterminals)

    def rec(form: tuple[str, ...], steps: tuple[str, ...]):
        idx = next((i for i, t in enumerate(form) if t in grammar.nonterminals), None)
        if idx is None:
            yield steps, parser.parse(" ".join(form))
            return
        if len(steps) >= depth:
            return
        for rule in grammar.by_lhs.get(form[idx], ()):
            new_form = form[:idx] + rule.rhs + form[idx + 1:]
            if len(steps) + 1 + min_completion(new_form) > depth:
                continue
            yield from rec(new_form, steps + (rule.id,))

    yield from rec((grammar.start,), ())


def accomplishing_worlds(theory: ActionTheory, grammar: Grammar, depth: int,
                         worlds: list[WorldState]
                         ) -> Iterator[tuple[tuple[str, ...], Task, list[WorldState]]]:
    """Each derivation of `enumerate_derivations` with the worlds of
    `worlds` from which some branch of its task runs to the end
    (`branch_states`).  Pass a theory object of its own: the parser
    grounds each test through the theory's cache."""
    grounded: dict = {}
    for steps, task in enumerate_derivations(grammar, depth, theory):
        branches = normalize(task)
        yield steps, task, [w for w in worlds
                            if any(branch_states(theory, w, b, grounded) is not None
                                   for b in branches)]


def branch_states(theory: ActionTheory, state: WorldState, branch: list[Task],
                  grounded: dict) -> Optional[list[WorldState]]:
    """`tasks.run_branch` without the theory's caches: each step reads the
    state's `state_truth` afresh, and `grounded` keeps each operation's
    `ground_op` and each test's `ground_state_formula`."""
    states = []
    for atom in branch:
        truth = state_truth(theory, state)
        if isinstance(atom, Op):
            if atom.op not in grounded:
                grounded[atom.op] = ground_op(theory, atom.op)
            state = apply_op(grounded[atom.op], state, truth)
            if state is None:
                return None
            states.append(state)
        else:
            if atom.formula not in grounded:
                grounded[atom.formula] = ground_state_formula(theory, atom.formula)
            if not peval(grounded[atom.formula], truth):
                return None
    return states
