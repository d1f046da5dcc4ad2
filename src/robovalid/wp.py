"""Regression over successor situations and inductive weakest preconditions.

Derived fluents are unfolded to primitives before any regression, in the
postcondition, in tests and preconditions and in each instantiated effect
condition, and executability atoms are macro-expanded to their defining
conditions, so a weakest precondition is always a pure fluent/rigid
formula over one situation variable.
"""

from __future__ import annotations

from .logic import (
    And, Do, Exists, Fluent, Forall, Formula, Iff, Implies, Not, Obj, Or, S0,
    SitVar, Var, LogicError, anchor, evaluate, fold, map_atoms, substitute,
    substitute_all,
)
from .record import Record
from .theory import (
    ActionTheory, GroundOp, StateView, WorldState, instantiate_op_equalities,
    instantiate_precondition, unfold_derived,
)
from .tasks import Choice, Nil, Op, Seq, Task, Test

SIT = SitVar("s")


class RegressionError(LogicError):
    """Formula shape violates the regression contract."""


def regress(phi: Formula, theory: ActionTheory) -> Formula:
    """One regression step: every fluent at do(a, s) for a single known
    ground operation is rewritten to gamma+ or (F and not gamma-) at s,
    with the derived fluents of gamma+ and gamma- unfolded.
    """
    def regress_fluent(a: Formula) -> Formula:
        if not isinstance(a, Fluent):
            return a
        if a.name in theory.derived:
            raise RegressionError("derived fluent %s must be unfolded before "
                                  "regression" % a.name)
        sit = a.sit
        if not isinstance(sit, Do):
            raise RegressionError("fluent %s is not at a successor situation" % (a,))
        if isinstance(sit.prev, Do):
            raise RegressionError("regression must be applied innermost-out; "
                                  "%s nests two do terms" % (a,))
        if any(not isinstance(x, Obj) for x in sit.op.args):
            raise RegressionError("operation term %s is not ground" % (sit.op,))
        op = GroundOp(sit.op.name, tuple(x.name for x in sit.op.args))
        sa = theory.successor[a.name]
        gplus = _inst(theory, sa.gamma_plus, sa.params, a.args, op, sit.prev)
        gminus = _inst(theory, sa.gamma_minus, sa.params, a.args, op, sit.prev)
        return fold(Or(gplus, And(Fluent(a.name, a.args, sit.prev), Not(gminus))))

    return map_atoms(phi, regress_fluent)


def _inst(theory, gamma, params, args, op, sit):
    # the template's own quantified variables get names that no parameter,
    # no variable fluent argument and no quantifier of the template has, so
    # neither substituting the arguments nor renaming an enclosing
    # quantifier can capture them
    taken = (set(params) | {a.name for a in args if isinstance(a, Var)}
             | _bound_names(gamma))
    phi = substitute_all(_rename_bound(gamma, taken), dict(zip(params, args)))
    return unfold_derived(anchor(instantiate_op_equalities(phi, op), sit), theory)


def _bound_names(phi: Formula) -> set[str]:
    """The variables that the quantifiers of phi bind."""
    if isinstance(phi, (Exists, Forall)):
        return {phi.var} | _bound_names(phi.body)
    if isinstance(phi, (And, Or, Implies, Iff)):
        return _bound_names(phi.left) | _bound_names(phi.right)
    if isinstance(phi, Not):
        return _bound_names(phi.body)
    return set()


def _rename_bound(phi: Formula, taken: set[str], depth: int = 1) -> Formula:
    """phi with each quantified variable renamed by its nesting depth d
    to the d-th of _g1, _g2, ... that is not in `taken`."""
    if isinstance(phi, (Exists, Forall)):
        names = ("_g%d" % i for i in range(1, depth + len(taken) + 1))
        fresh = [n for n in names if n not in taken][depth - 1]
        body = substitute(phi.body, phi.var, Var(fresh))
        return type(phi)(fresh, _rename_bound(body, taken, depth + 1))
    if isinstance(phi, (And, Or, Implies, Iff)):
        return type(phi)(_rename_bound(phi.left, taken, depth),
                         _rename_bound(phi.right, taken, depth))
    if isinstance(phi, Not):
        return Not(_rename_bound(phi.body, taken, depth))
    return phi


def poss_formula(theory: ActionTheory, op: GroundOp) -> Formula:
    """The defining executability condition of a ground operation at s,
    with derived fluents unfolded."""
    return unfold_derived(anchor(instantiate_precondition(theory, op), SIT), theory)


class WpResult(Record):
    formula: Formula


def wp(phi: Formula, tau: Task, theory: ActionTheory) -> WpResult:
    """Weakest precondition of postcondition `phi` under task `tau`.

    The result references only primitive fluents at the situation variable
    s plus rigid atoms; do terms and executability atoms are all expanded.
    """
    return WpResult(fold(_wp(unfold_derived(anchor(phi, SIT), theory), tau, theory)))


def _wp(phi: Formula, tau: Task, theory: ActionTheory) -> Formula:
    if isinstance(tau, Nil):
        return phi
    if isinstance(tau, Test):
        psi = unfold_derived(anchor(tau.formula, SIT), theory)
        return And(phi, psi)
    if isinstance(tau, Op):
        op = tau.op
        for a in op.args:
            if a not in theory.objects:
                raise RegressionError("operation %s has ungrounded or unknown "
                                      "argument %s" % (op, a))
        shifted = substitute(phi, SIT.name, Do(op.term(), SIT))
        return fold(And(poss_formula(theory, op), regress(shifted, theory)))
    if isinstance(tau, Seq):
        return _wp(fold(_wp(phi, tau.second, theory)), tau.first, theory)
    if isinstance(tau, Choice):
        return Or(_wp(phi, tau.left, theory), _wp(phi, tau.right, theory))
    raise TypeError("unknown task node %r" % (tau,))


def holds_at(phi: Formula, theory: ActionTheory, state: WorldState) -> bool:
    """Evaluate a one-situation formula (typically a WP) at a world state.
    No production path calls it; it serves the acceptance criteria and the
    test oracles."""
    return evaluate(StateView(theory, state), anchor(phi, S0))
