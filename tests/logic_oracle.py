"""Reference formula evaluator, substitution and world for differential
tests.

`substitute` is the substitution that `robovalid.logic.substitute_all`
replaced: one walk per sort, replacing one variable at a time.  A
situation term put into an object variable is an error only in an
equality; `substitute_all` rejects it in every object slot.

`evaluate3` is the recursive Kleene evaluator that `robovalid.logic.
ground` plus `robovalid.logic.peval` replaced: it rebuilds the body with
`substitute` once per object at every quantifier and asks the world for
each atom only when the connectives need it.  A world returns None for an
atom it does not know; with partial=False that is a TotalityError, which
gives classical two-valued evaluation.

`World` is an explicit truth table over ground atoms that both evaluators
can read, as `theory.StateView` presents a world state to the acceptance
criteria and the oracles; the package itself decides a formula over a
state by `logic.peval` on the state's `ActionTheory.truth`.

`tokenize` is the character loop that the compiled pattern of
`robovalid.logic.tokenize` replaced: at each character it tries every
punctuation token, longest first where they share a prefix, then a run
of alphanumerics and underscores.
"""

from typing import Optional, Union

from robovalid.logic import (
    And, Do, Eq, Exists, FalseF, Fluent, Forall, Formula, Iff, Implies,
    LogicError, ModelError, Not, Obj, OpEq, OpTerm, Or, ParseError, Rigid,
    SitConst, SitTerm, SitVar, SubstitutionError, Term, TrueF, Var,
)

_BINARY = (And, Or, Implies, Iff)
_QUANT = (Exists, Forall)


_PUNCT = ("<->", "->", "!=", "(", ")", ",", "&", "|", "!", ".", "@", "=", "?", ";", "[", "]")


def tokenize(text: str) -> list[str]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(p)
                i += len(p)
                break
        else:
            if c.isalnum() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                toks.append(text[i:j])
                i = j
            else:
                raise ParseError("unexpected character %r in %r" % (c, text))
    return toks


class TotalityError(LogicError):
    """A ground atom was queried that the world does not assign."""


class World:
    """Truth assignment over all ground predicate instances.

    rigid_truth maps (name, arg-names) to bool; fluent_truth maps
    (name, arg-names, sit-key) to bool where sit-key is str(sit).
    Querying an unassigned atom is a TotalityError, never a default.
    """

    def __init__(self, objects, predicates, rigid_truth=None, fluent_truth=None):
        self.objects = tuple(objects)
        self.predicates = dict(predicates)  # name -> (arity, kind)
        self.rigid_truth = dict(rigid_truth or {})
        self.fluent_truth = dict(fluent_truth or {})

    def check_atom(self, name: str, arity: int, fluent: bool) -> None:
        decl = self.predicates.get(name)
        if decl is None:
            raise ModelError("undeclared predicate %s" % name)
        want_arity, kind = decl
        if arity != want_arity:
            raise ModelError("%s expects %d arguments, got %d" % (name, want_arity, arity))
        if fluent == (kind == "rigid"):
            raise ModelError("%s used with wrong predicate kind" % name)

    def rigid_value(self, name: str, args: tuple[str, ...]) -> bool:
        self.check_atom(name, len(args), fluent=False)
        v = self.rigid_truth.get((name, args))
        if v is None:
            raise TotalityError("rigid atom %s%r unassigned" % (name, args))
        return v

    def fluent_value(self, name: str, args: tuple[str, ...], sit: SitTerm) -> bool:
        self.check_atom(name, len(args), fluent=True)
        v = self.fluent_truth.get((name, args, str(sit)))
        if v is None:
            raise TotalityError("fluent atom %s%r at %s unassigned" % (name, args, sit))
        return v


def substitute(phi: Formula, var: str, value: Union[Obj, Var, SitTerm]) -> Formula:
    """Replace every free occurrence of `var` in phi by `value`.

    Object variables accept object constants or other object variables;
    situation variables accept only situation terms.  Bound occurrences
    are untouched.
    """
    if isinstance(value, (Obj, Var)):
        return _subst_obj(phi, var, value)
    if isinstance(value, (SitConst, SitVar, Do)):
        return _subst_sit(phi, var, value)
    raise SubstitutionError("cannot substitute value of type %s" % type(value).__name__)


def _subst_term(t: Term, var: str, value: Term) -> Term:
    if isinstance(t, Var) and t.name == var:
        return value
    return t


def _subst_obj(phi: Formula, var: str, value: Term) -> Formula:
    def sub_args(args):
        return tuple(_subst_term(a, var, value) for a in args)

    def sub_sit(s: SitTerm) -> SitTerm:
        if isinstance(s, Do):
            return Do(OpTerm(s.op.name, sub_args(s.op.args)), sub_sit(s.prev))
        if isinstance(s, (SitVar, SitConst)) and s.name == var:
            raise SubstitutionError(
                "object constant %s substituted into situation slot %s" % (value, var))
        return s

    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, Rigid):
        return Rigid(phi.name, sub_args(phi.args))
    if isinstance(phi, Fluent):
        return Fluent(phi.name, sub_args(phi.args), sub_sit(phi.sit))
    if isinstance(phi, Eq):
        return Eq(_subst_term(phi.left, var, value), _subst_term(phi.right, var, value))
    if isinstance(phi, OpEq):
        return OpEq(phi.name, sub_args(phi.args))
    if isinstance(phi, Not):
        return Not(_subst_obj(phi.body, var, value))
    if isinstance(phi, _BINARY):
        return type(phi)(_subst_obj(phi.left, var, value), _subst_obj(phi.right, var, value))
    if isinstance(phi, _QUANT):
        if phi.var == var:
            return phi
        return type(phi)(phi.var, _subst_obj(phi.body, var, value))
    raise ModelError("unknown formula node: %r" % (phi,))


def _subst_sit(phi: Formula, var: str, value: SitTerm) -> Formula:
    def sub_sit(s: SitTerm) -> SitTerm:
        if isinstance(s, (SitVar, SitConst)) and s.name == var:
            return value
        if isinstance(s, Do):
            return Do(s.op, sub_sit(s.prev))
        return s

    if isinstance(phi, (TrueF, FalseF, Rigid, OpEq)):
        return phi
    if isinstance(phi, Eq):
        for t in (phi.left, phi.right):
            if isinstance(t, Var) and t.name == var:
                raise SubstitutionError(
                    "situation term substituted into object slot %s" % var)
        return phi
    if isinstance(phi, Fluent):
        return Fluent(phi.name, phi.args, sub_sit(phi.sit))
    if isinstance(phi, Not):
        return Not(_subst_sit(phi.body, var, value))
    if isinstance(phi, _BINARY):
        return type(phi)(_subst_sit(phi.left, var, value), _subst_sit(phi.right, var, value))
    if isinstance(phi, _QUANT):
        if phi.var == var:
            return phi
        return type(phi)(phi.var, _subst_sit(phi.body, var, value))
    raise ModelError("unknown formula node: %r" % (phi,))


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
