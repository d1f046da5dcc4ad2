"""Reference formula evaluator for differential tests.

This is the recursive Kleene evaluator that `robovalid.logic.ground` plus
`robovalid.logic.peval` replaced: it rebuilds the body with `substitute`
once per object at every quantifier and asks the world for each atom only
when the connectives need it.  A world returns None for an atom it does
not know; with partial=False that is a TotalityError, which gives
classical two-valued evaluation.
"""

from typing import Optional

from robovalid.logic import (
    And, Eq, Exists, FalseF, Fluent, Forall, Formula, Iff, Implies, ModelError,
    Not, Obj, OpEq, Or, Rigid, Term, TotalityError, TrueF, substitute,
)


def _ground_names(args: tuple[Term, ...]) -> tuple[str, ...]:
    names = []
    for a in args:
        if not isinstance(a, Obj):
            raise ModelError("formula is not variable-free: free variable %s" % a)
        names.append(a.name)
    return tuple(names)


def evaluate3(world, phi: Formula, partial: bool = True) -> Optional[bool]:
    """Kleene three-valued evaluation; None means undetermined.

    With partial=False an unassigned atom raises TotalityError instead of
    yielding None, which gives classical two-valued evaluation.
    """
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Rigid):
        return world.rigid_value(phi.name, _ground_names(phi.args))
    if isinstance(phi, Fluent):
        v = world.fluent_value(phi.name, _ground_names(phi.args), phi.sit)
        if v is None and not partial:
            raise TotalityError("fluent atom %s undetermined" % (phi,))
        return v
    if isinstance(phi, Eq):
        l, r = phi.left, phi.right
        if not isinstance(l, Obj) or not isinstance(r, Obj):
            raise ModelError("equality over non-ground terms: %s = %s" % (l, r))
        return l.name == r.name
    if isinstance(phi, OpEq):
        raise ModelError("operation-equality atom reached the evaluator "
                         "(missing gamma instantiation)")
    if isinstance(phi, Not):
        v = evaluate3(world, phi.body, partial)
        return None if v is None else (not v)
    if isinstance(phi, And):
        l = evaluate3(world, phi.left, partial)
        if l is False:
            return False
        r = evaluate3(world, phi.right, partial)
        if r is False:
            return False
        if l is None or r is None:
            return None
        return True
    if isinstance(phi, Or):
        l = evaluate3(world, phi.left, partial)
        if l is True:
            return True
        r = evaluate3(world, phi.right, partial)
        if r is True:
            return True
        if l is None or r is None:
            return None
        return False
    if isinstance(phi, Implies):
        return evaluate3(world, Or(Not(phi.left), phi.right), partial)
    if isinstance(phi, Iff):
        l = evaluate3(world, phi.left, partial)
        r = evaluate3(world, phi.right, partial)
        if l is None or r is None:
            return None
        return l == r
    if isinstance(phi, Exists):
        saw_none = False
        for o in world.objects:
            v = evaluate3(world, substitute(phi.body, phi.var, Obj(o)), partial)
            if v is True:
                return True
            if v is None:
                saw_none = True
        return None if saw_none else False
    if isinstance(phi, Forall):
        saw_none = False
        for o in world.objects:
            v = evaluate3(world, substitute(phi.body, phi.var, Obj(o)), partial)
            if v is False:
                return False
            if v is None:
                saw_none = True
        return None if saw_none else True
    raise ModelError("unknown formula node: %r" % (phi,))
