"""Reference implementations of `robovalid.ctgen` for differential tests.

`enumerate_valid` is the backtracking constraint solver that `robovalid.
ctgen.enumerate_valid` replaced: it searches the parameter space of a
`CtModel` in parameter order and prunes with `peval` on partial rows,
using only the model's constraints and its derivation table.  It keeps
its own copy of `pparams`, which the package no longer needs.

`derivation_wps` is the grounded-WP test of accomplishability that the
forward runs of `robovalid.tasks.enumerate_derivations` replaced: it
computes the weakest precondition of every derivation, grounds it once
and evaluates it with `peval` on every world, where the package runs
the task forward.  It takes the derivations from the text-parsing path
of `tasks_oracle`.

`generate_covering_array` is the greedy that `robovalid.ctgen.
generate_covering_array` replaced: every round it rescans every valid row
and intersects its frozenset of t-tuples with the uncovered set, where the
package keeps stale gains in a heap and counts bits of int masks.  Both
take the row of highest gain, the lowest index in sorted order among
ties, so they must return the same rows.  Called without valid rows, it
takes them from this module's solver.  It builds the tuple sets with its
own `_row_tuples`, not with the package's mask builder.

`param_index` and `coverable_tuples` are lookups over a model that only
the tests read: each parameter's position by name, and every t-tuple a
valid row holds.
"""

import itertools
from typing import Iterator, Optional, Union

from robovalid.ctgen import CtError, CtModel
from robovalid.logic import TRUE, Formula, PAnd, PEq, PFormula, PNot, POr, peval
from robovalid.tasks import Grammar, Task
from robovalid.theory import ActionTheory, WorldState, ground_state_formula
from robovalid.wp import wp
from tasks_oracle import enumerate_derivations


def derivation_wps(theory: ActionTheory, grammar: Grammar, depth: int,
                   worlds: list[WorldState]
                   ) -> Iterator[tuple[tuple[str, ...], Task, Formula, list[WorldState]]]:
    """Every derivation of at most `depth` steps, as its rule ids, with its
    task, its WP and
    the worlds of `worlds` that satisfy the WP, in their order.  The
    derivation is accomplishable when that list is not empty.

    Each WP is grounded once and then evaluated against every world."""
    atoms = theory.all_primitive_atoms()
    assignments = [{a: w.holds(a) for a in atoms} for w in worlds]
    for steps, task in enumerate_derivations(grammar, depth, theory):
        wpf = wp(TRUE, task, theory).formula
        grounded = ground_state_formula(theory, wpf)
        yield steps, task, wpf, [w for w, a in zip(worlds, assignments)
                                 if peval(grounded, a)]


def param_index(model: CtModel) -> dict[str, int]:
    return {p.name: i for i, p in enumerate(model.parameters)}


def pparams(phi: PFormula) -> frozenset:
    """The parameters phi mentions."""
    if isinstance(phi, PEq):
        return frozenset((phi.param,))
    if isinstance(phi, PNot):
        return pparams(phi.body)
    if isinstance(phi, (PAnd, POr)):
        out: frozenset = frozenset()
        for p in phi.parts:
            out |= pparams(p)
        return out
    return frozenset()


def enumerate_valid(model: CtModel) -> Iterator[tuple[str, ...]]:
    """All assignments satisfying every constraint, in deterministic
    (parameter-order lexicographic) order, by pruned backtracking.

    The derivation parameters come first in parameter order, so their
    grammar-validity disjunction is checked as a prefix-set membership
    test, and once they are fixed the constraints already decided true
    (every other derivation's implication) are dropped for the subtree.
    """
    params = model.parameters
    index = param_index(model)
    depth = model.depth
    assert all(params[k].name == "d%d" % (k + 1) for k in range(depth))

    prefixes: list[set[tuple[str, ...]]] = [set() for _ in range(depth + 1)]
    for steps in model.derivations:
        padded = steps
        for k in range(depth + 1):
            prefixes[k].add(padded[:k])

    def build_watch(formulas: list[PFormula], start: int) -> list[list[PFormula]]:
        w: list[list[PFormula]] = [[] for _ in params]
        for f in formulas:
            for p in pparams(f):
                i = index[p]
                if i >= start:
                    w[i].append(f)
        return w

    # the prefix-set test subsumes the flat grammar-validity disjunction
    all_formulas = [c.formula for c in model.constraints
                    if c.label != "grammar validity"]
    d_names = {"d%d" % (k + 1) for k in range(depth)}
    d_only = [f for f in all_formulas if pparams(f) <= d_names]
    d_watch = build_watch(d_only, 0)
    assignment: dict[str, str] = {}

    def rec(i: int, watch) -> Iterator[tuple[str, ...]]:
        if i == len(params):
            yield tuple(assignment[p.name] for p in params)
            return
        pname = params[i].name
        for value in params[i].domain:
            if i < depth:
                pfx = tuple(assignment["d%d" % (k + 1)] for k in range(i)) + (value,)
                if pfx not in prefixes[i + 1]:
                    continue
            assignment[pname] = value
            if all(peval(f, assignment) is not False for f in watch[i]):
                if i + 1 == depth:
                    # derivation now fixed: drop the constraints it decides
                    live, dead = [], False
                    for f in all_formulas:
                        v = peval(f, assignment)
                        if v is False:
                            dead = True
                            break
                        if v is None:
                            live.append(f)
                    if not dead:
                        yield from rec(i + 1, build_watch(live, depth))
                else:
                    yield from rec(i + 1, watch)
            del assignment[pname]

    if not model.derivations:
        return
    yield from rec(0, d_watch)


def _row_tuples(model: CtModel, rows: list[tuple[str, ...]],
                t: int) -> list[frozenset[tuple]]:
    """The t-tuples of (parameter index, value) pairs of each row, indices
    ascending.  A strength above the number of parameters means all of
    them, so every row then has exactly one tuple: the whole row."""
    t = min(t, len(model.parameters))
    return [frozenset(itertools.combinations(tuple(enumerate(row)), t))
            for row in rows]


def coverable_tuples(model: CtModel, t: int,
                     valid: list[tuple[str, ...]]) -> set[tuple]:
    """Every t-tuple of (parameter index, value) pairs extendable to a
    valid full assignment; `valid` is `enumerate_valid(model)`'s rows."""
    return set().union(*_row_tuples(model, valid, t))


def generate_covering_array(model: CtModel, t: Union[int, str],
                            valid: Optional[list[tuple[str, ...]]] = None) -> list[tuple[str, ...]]:
    """Greedy one-row-at-a-time covering array over the valid assignments.

    Among equally covering candidates the lexicographically smallest row
    wins, so arrays are reproducible across runs and platforms.
    """
    valid = sorted(enumerate_valid(model)) if valid is None else sorted(valid)
    if t == "full":
        return valid
    if not isinstance(t, int) or t < 1:
        raise CtError("coverage strength must be a positive integer or 'full'")
    tuples = _row_tuples(model, valid, t)
    uncovered = set().union(*tuples)
    rows: list[tuple[str, ...]] = []
    while uncovered:
        best_i, best_gain = None, -1
        for i, rt in enumerate(tuples):
            gain = len(rt & uncovered)
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_gain <= 0:
            raise CtError("uncoverable tuples remain; internal inconsistency")
        rows.append(valid[best_i])
        uncovered -= tuples[best_i]
    return rows
