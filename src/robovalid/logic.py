"""Finite-domain sorted first-order logic over rigid and fluent atoms.

Formulas are immutable trees with structural equality, so they can be
hashed, deduplicated and compared syntactically.  `ground` unrolls a
formula's quantifiers over a finite object domain into a propositional
form whose atoms a callback chooses: truth values of a world, ground-atom
variables of a partial assignment, or combinatorial-model parameters.
Its constants are the bools True and False.  `peval`, the one formula
evaluator, decides that form in Kleene three-valued logic.
"""

from __future__ import annotations

import re
from typing import Callable, Hashable, Mapping, Optional, Union

from .record import Record


class LogicError(Exception):
    """Base class for errors raised by the logic kernel."""


class ModelError(LogicError):
    """An atom references an undeclared predicate or has the wrong arity."""


class SubstitutionError(LogicError):
    """Sort mismatch during substitution (object vs. situation)."""


class ParseError(LogicError):
    """Malformed formula or term text."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Obj(Record):
    """An object constant, element of the finite object set."""
    name: str

    def __str__(self) -> str:
        return self.name


class Var(Record):
    """An object variable."""
    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Obj, Var]


class SitConst(Record):
    """A named situation constant (in practice only the initial one, s0)."""
    name: str

    def __str__(self) -> str:
        return self.name


class SitVar(Record):
    """A situation variable."""
    name: str

    def __str__(self) -> str:
        return self.name


class OpTerm(Record):
    """An operation instance, possibly with variable arguments."""
    name: str
    args: tuple[Term, ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.name, ",".join(str(a) for a in self.args))


class Do(Record):
    """The successor situation do(op, s)."""
    op: OpTerm
    prev: "SitTerm"

    def __str__(self) -> str:
        return "do(%s,%s)" % (self.op, self.prev)


SitTerm = Union[SitConst, SitVar, Do]

S0 = SitConst("s0")


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class TrueF(Record):
    pass


class FalseF(Record):
    pass


class Rigid(Record):
    name: str
    args: tuple[Term, ...]


class Fluent(Record):
    name: str
    args: tuple[Term, ...]
    sit: SitTerm


class Eq(Record):
    """Equality between two object terms."""
    left: Term
    right: Term


class OpEq(Record):
    """Equality between the operation variable alpha and op(args).

    Only meaningful inside successor-axiom effect conditions; it is folded
    to object equalities once a ground operation is known and must never
    reach the evaluator.
    """
    name: str
    args: tuple[Term, ...]


class Not(Record):
    body: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


class Implies(Record):
    left: "Formula"
    right: "Formula"


class Iff(Record):
    left: "Formula"
    right: "Formula"


class Exists(Record):
    var: str
    body: "Formula"


class Forall(Record):
    var: str
    body: "Formula"


Formula = Union[
    TrueF, FalseF, Rigid, Fluent, Eq, OpEq,
    Not, And, Or, Implies, Iff, Exists, Forall,
]

TRUE = TrueF()
FALSE = FalseF()

_BINARY = (And, Or, Implies, Iff)
_QUANT = (Exists, Forall)


def conj(parts) -> Formula:
    """Right-nested conjunction of an iterable of formulas (True if empty)."""
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj(parts) -> Formula:
    """Right-nested disjunction of an iterable of formulas (False if empty)."""
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


_ATOMS = (TrueF, FalseF, Rigid, Fluent, Eq, OpEq)


def map_atoms(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """phi rebuilt with every atom node replaced by fn(atom).

    Quantifiers keep their variable, so fn must not introduce free
    variables that a quantifier of phi binds.
    """
    if isinstance(phi, Not):
        return Not(map_atoms(phi.body, fn))
    if isinstance(phi, _BINARY):
        return type(phi)(map_atoms(phi.left, fn), map_atoms(phi.right, fn))
    if isinstance(phi, _QUANT):
        return type(phi)(phi.var, map_atoms(phi.body, fn))
    if isinstance(phi, _ATOMS):
        return fn(phi)
    raise ModelError("unknown formula node: %r" % (phi,))


def map_terms(phi: Formula, term: Callable[[Term, frozenset], Term],
              sit: Optional[Callable[[SitTerm], SitTerm]] = None) -> Formula:
    """phi rebuilt with each object term t replaced by term(t, bound),
    where `bound` holds the variables that the quantifiers enclosing t
    bind, and each situation constant or variable s by sit(s), or kept
    without `sit`.  The operation arguments of a do term are object terms
    too, and so is a `Hole` that stands for a whole formula.  The terms
    are visited in text order."""
    def sits(s: SitTerm, bound) -> SitTerm:
        if isinstance(s, Do):
            return Do(OpTerm(s.op.name, tuple([term(a, bound) for a in s.op.args])),
                      sits(s.prev, bound))
        return s if sit is None else sit(s)

    def walk(f, bound):
        if isinstance(f, Fluent):
            return Fluent(f.name, tuple([term(a, bound) for a in f.args]), sits(f.sit, bound))
        if isinstance(f, Rigid):
            return Rigid(f.name, tuple([term(a, bound) for a in f.args]))
        if isinstance(f, Eq):
            return Eq(term(f.left, bound), term(f.right, bound))
        if isinstance(f, Not):
            return Not(walk(f.body, bound))
        if isinstance(f, _BINARY):
            return type(f)(walk(f.left, bound), walk(f.right, bound))
        if isinstance(f, _QUANT):
            return type(f)(f.var, walk(f.body, bound | {f.var}))
        if isinstance(f, OpEq):
            return OpEq(f.name, tuple([term(a, bound) for a in f.args]))
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, Hole):
            return term(f, bound)
        raise ModelError("unknown formula node: %r" % (f,))

    return walk(phi, frozenset())


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(phi: Formula, var: str, value: Union[Term, SitTerm]) -> Formula:
    """Replace every free occurrence of `var` in phi by `value`."""
    return substitute_all(phi, {var: value})


def substitute_all(phi: Formula, values: Mapping[str, Union[Term, SitTerm]]) -> Formula:
    """Replace every free occurrence of each variable named in `values`
    by its value, all at once, so a value put in is never substituted
    again.

    Object variables take object constants or object variables, and
    situation variables take situation terms; a value of the other sort
    in a slot is a SubstitutionError.  Bound occurrences are untouched.
    A quantifier binds an object variable only: inside it, the value for
    its name no longer goes into object slots but still goes into
    situation slots.
    """
    for value in values.values():
        if not isinstance(value, (Obj, Var, SitConst, SitVar, Do)):
            raise SubstitutionError("cannot substitute value of type %s"
                                    % type(value).__name__)

    def term(t: Term, bound) -> Term:
        if isinstance(t, Var) and t.name in values and t.name not in bound:
            value = values[t.name]
            if not isinstance(value, (Obj, Var)):
                raise SubstitutionError("situation term %s substituted into "
                                        "object slot %s" % (value, t.name))
            return value
        return t

    def sit(s: SitTerm) -> SitTerm:
        if s.name in values:
            value = values[s.name]
            if isinstance(value, (Obj, Var)):
                raise SubstitutionError("object term %s substituted into "
                                        "situation slot %s" % (value, s.name))
            return value
        return s

    return map_terms(phi, term, sit) if values else phi


# ---------------------------------------------------------------------------
# Fragments
# ---------------------------------------------------------------------------

class Hole(Record):
    """The `index`-th nonterminal of a grammar rule's right side, in a
    fragment compiled from it: it stands for one object term, one whole
    formula or one whole task, as its position says."""
    name: str
    index: int

    def __str__(self) -> str:
        return self.name


def fill_holes(phi: Formula, fn: Callable[[Hole], Union[Term, Formula]]) -> Formula:
    """phi, a formula fragment, with each `Hole` h replaced by fn(h): an
    object term where h stands for a term, a formula where it stands for
    a whole formula.  Nothing is renamed, so a quantifier of phi binds a
    variable put in, as it would in the text with the variable written
    there.  The holes are visited in text order."""
    return map_terms(phi, lambda t, bound: fn(t) if isinstance(t, Hole) else t)


# ---------------------------------------------------------------------------
# Propositional form
# ---------------------------------------------------------------------------

class PEq(Record):
    """`param` has the value `value`: a combinatorial-model parameter and
    one of its values, or a ground atom and its truth value."""
    param: Hashable
    value: Hashable


class PNot(Record):
    body: "PFormula"


class PAnd(Record):
    parts: tuple["PFormula", ...]


class POr(Record):
    parts: tuple["PFormula", ...]


PFormula = Union[bool, PEq, PNot, PAnd, POr]


def peval(phi: PFormula, assignment: dict) -> Optional[bool]:
    """Kleene evaluation over a partial assignment; None = undetermined."""
    if phi is True or phi is False:
        return phi
    if isinstance(phi, PEq):
        v = assignment.get(phi.param)
        return None if v is None else (v == phi.value)
    if isinstance(phi, PNot):
        v = peval(phi.body, assignment)
        return None if v is None else (not v)
    if isinstance(phi, PAnd):
        saw_none = False
        for p in phi.parts:
            v = peval(p, assignment)
            if v is False:
                return False
            if v is None:
                saw_none = True
        return None if saw_none else True
    if isinstance(phi, POr):
        saw_none = False
        for p in phi.parts:
            v = peval(p, assignment)
            if v is True:
                return True
            if v is None:
                saw_none = True
        return None if saw_none else False
    raise TypeError("unknown constraint node %r" % (phi,))


# ---------------------------------------------------------------------------
# Grounding and evaluation
# ---------------------------------------------------------------------------

def ground(phi: Formula, objects,
           atom: Callable[[Formula, tuple[str, ...]], PFormula],
           env: Optional[Mapping[str, str]] = None,
           op_atom: Optional[Callable[[str, tuple[str, ...]], PFormula]] = None
           ) -> PFormula:
    """The propositional form of phi over the finite domain `objects`.

    `env` binds free object variables of phi to object names, as
    substituting those objects first would.  Quantifiers unroll into
    POr / PAnd over `objects` in their order, binding the variable in
    the environment over any outer binding; Implies and Iff become their
    PNot / PAnd / POr definitions; equalities and true / false become
    the constants True and False; each rigid or fluent atom becomes
    atom(node, argument names); and an operation equality alpha = f(args)
    becomes op_atom(f, argument names), or is a ModelError without
    `op_atom`.  Constants fold as each node is built: a negated constant
    flips, a neutral part drops out of a PAnd or POr, and an absorbing
    one is the node, so every assignment gives the form the Kleene value
    the unfolded form has.  Every atom is visited, so an atom that `atom`
    rejects raises even where the connectives would not need its value.
    Situation terms reach `atom` as written.
    """
    def names(args: tuple[Term, ...], env: dict[str, str]) -> tuple[str, ...]:
        out = []
        for a in args:
            if isinstance(a, Obj):
                out.append(a.name)
            elif a.name in env:
                out.append(env[a.name])
            else:
                raise ModelError("formula is not variable-free: free variable %s" % a)
        return tuple(out)

    def g(f: Formula, env: dict[str, str]) -> PFormula:
        if isinstance(f, (Rigid, Fluent)):
            return atom(f, names(f.args, env))
        if isinstance(f, Not):
            return _pnot(g(f.body, env))
        if isinstance(f, And):
            return _pjoin(PAnd, (g(f.left, env), g(f.right, env)))
        if isinstance(f, Or):
            return _pjoin(POr, (g(f.left, env), g(f.right, env)))
        if isinstance(f, Implies):
            return _pjoin(POr, (_pnot(g(f.left, env)), g(f.right, env)))
        if isinstance(f, Iff):
            l, r = g(f.left, env), g(f.right, env)
            return _pjoin(POr, (_pjoin(PAnd, (l, r)), _pjoin(PAnd, (_pnot(l), _pnot(r)))))
        if isinstance(f, _QUANT):
            parts = tuple(g(f.body, {**env, f.var: o}) for o in objects)
            return _pjoin(POr if isinstance(f, Exists) else PAnd, parts)
        if isinstance(f, Eq):
            l, r = names((f.left, f.right), env)
            return l == r
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, OpEq):
            if op_atom is not None:
                return op_atom(f.name, names(f.args, env))
            raise ModelError("operation-equality atom reached the evaluator "
                             "(missing gamma instantiation)")
        raise ModelError("unknown formula node: %r" % (f,))

    return g(phi, env or {})


def _pnot(p: PFormula) -> PFormula:
    """PNot(p), or the other constant when p is one."""
    if p is True or p is False:
        return not p
    return PNot(p)


def _pjoin(node: type, parts: tuple) -> PFormula:
    """node(parts), a PAnd or a POr, less its neutral constants (true in a
    conjunction, false in a disjunction); its absorbing constant, a lone
    part, or no part left is the result itself.  Every assignment gives
    the result the Kleene value it gives node(parts)."""
    neutral = node is PAnd
    absorbing = not neutral
    kept = []
    for p in parts:
        if p is absorbing:
            return p
        if p is not neutral:
            kept.append(p)
    if len(kept) == 1:
        return kept[0]
    return node(tuple(kept)) if kept else neutral


def evaluate(world, phi: Formula) -> bool:
    """Truth of a variable-free formula in `world` (w |= phi).

    `world` answers rigid_value(name, args) and fluent_value(name, args,
    sit) and has the object domain `objects`.  phi is grounded first, so
    every atom is checked against the world.  No production path calls
    it; it serves the acceptance criteria and the test oracles.
    """
    def atom(node: Formula, args: tuple[str, ...]) -> PFormula:
        if isinstance(node, Rigid):
            v = world.rigid_value(node.name, args)
        else:
            v = world.fluent_value(node.name, args, node.sit)
        return bool(v)

    return peval(ground(phi, world.objects, atom), {})


def anchor(phi: Formula, sit: SitTerm) -> Formula:
    """Replace the situation variable at the root of each fluent's
    situation term by `sit`."""
    return map_terms(phi, lambda t, bound: t,
                     lambda s: sit if isinstance(s, SitVar) else s)


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

def fold(phi: Formula) -> Formula:
    """Constant folding of True/False plus double-negation elimination.

    No other simplification is performed, so folded output stays close to
    a hand calculation.
    """
    if isinstance(phi, Eq):
        if isinstance(phi.left, Obj) and isinstance(phi.right, Obj):
            return TRUE if phi.left.name == phi.right.name else FALSE
        return phi
    if isinstance(phi, Not):
        b = fold(phi.body)
        if isinstance(b, TrueF):
            return FALSE
        if isinstance(b, FalseF):
            return TRUE
        if isinstance(b, Not):
            return b.body
        return Not(b)
    if isinstance(phi, And):
        l, r = fold(phi.left), fold(phi.right)
        if isinstance(l, FalseF) or isinstance(r, FalseF):
            return FALSE
        if isinstance(l, TrueF):
            return r
        if isinstance(r, TrueF):
            return l
        return And(l, r)
    if isinstance(phi, Or):
        l, r = fold(phi.left), fold(phi.right)
        if isinstance(l, TrueF) or isinstance(r, TrueF):
            return TRUE
        if isinstance(l, FalseF):
            return r
        if isinstance(r, FalseF):
            return l
        return Or(l, r)
    if isinstance(phi, Implies):
        l, r = fold(phi.left), fold(phi.right)
        if isinstance(l, FalseF) or isinstance(r, TrueF):
            return TRUE
        if isinstance(l, TrueF):
            return r
        if isinstance(r, FalseF):
            return fold(Not(l))
        return Implies(l, r)
    if isinstance(phi, Iff):
        l, r = fold(phi.left), fold(phi.right)
        if isinstance(l, TrueF):
            return r
        if isinstance(r, TrueF):
            return l
        if isinstance(l, FalseF):
            return fold(Not(r))
        if isinstance(r, FalseF):
            return fold(Not(l))
        return Iff(l, r)
    if isinstance(phi, _QUANT):
        b = fold(phi.body)
        if isinstance(b, (TrueF, FalseF)):
            return b
        return type(phi)(phi.var, b)
    return phi


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def _print_term(t: Term) -> str:
    return t.name


def format_formula(phi: Formula) -> str:
    """Canonical text form; `parse_formula` round-trips it."""
    return _fmt(phi, 0)


# precedence: iff 1 < implies 2 < or 3 < and 4 < unary 5.  The parser
# groups -> to the right but &, | and <-> to the left, so an operand of
# &, | or <-> with the same connective is bracketed on either side.
def _fmt(phi: Formula, prec: int) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Rigid):
        return "%s(%s)" % (phi.name, ",".join(_print_term(a) for a in phi.args))
    if isinstance(phi, Fluent):
        return "%s(%s)@%s" % (phi.name, ",".join(_print_term(a) for a in phi.args), phi.sit)
    if isinstance(phi, Eq):
        return "%s = %s" % (_print_term(phi.left), _print_term(phi.right))
    if isinstance(phi, OpEq):
        return "alpha = %s(%s)" % (phi.name, ",".join(_print_term(a) for a in phi.args))
    if isinstance(phi, Not):
        return "!" + _fmt(phi.body, 5)
    if isinstance(phi, And):
        s = "%s & %s" % (_fmt(phi.left, 4), _fmt(phi.right, 4))
        return s if prec <= 3 else "(%s)" % s
    if isinstance(phi, Or):
        s = "%s | %s" % (_fmt(phi.left, 3), _fmt(phi.right, 3))
        return s if prec <= 2 else "(%s)" % s
    if isinstance(phi, Implies):
        s = "%s -> %s" % (_fmt(phi.left, 2), _fmt(phi.right, 1))
        return s if prec <= 1 else "(%s)" % s
    if isinstance(phi, Iff):
        s = "%s <-> %s" % (_fmt(phi.left, 1), _fmt(phi.right, 1))
        return s if prec <= 0 else "(%s)" % s
    if isinstance(phi, Exists):
        s = "exists %s . %s" % (phi.var, _fmt(phi.body, 0))
        return s if prec <= 0 else "(%s)" % s
    if isinstance(phi, Forall):
        s = "forall %s . %s" % (phi.var, _fmt(phi.body, 0))
        return s if prec <= 0 else "(%s)" % s
    raise ModelError("unknown formula node: %r" % (phi,))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# a token, or any other non-space character, which is an error
_TOKEN = re.compile(r"<->|->|!=|[()&|!.,@=?;\[\]]|\w+|(\S)")


def tokenize(text: str) -> list[str]:
    toks = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is not None:
            raise ParseError("unexpected character %r in %r" % (m.group(1), text))
        toks.append(m.group())
    return toks


class TokenStream:
    """Tokens of a text, or of a grammar rule's right side, whose
    nonterminals are `Hole`s.  A parser takes a hole with `hole` where a
    term, a whole formula or a whole task may stand, and `kinds` records
    which one each hole stood for; anywhere else a hole is a ParseError."""

    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0
        self.kinds: dict[Hole, str] = {}

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self) -> str:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        t = self.toks[self.pos]
        if isinstance(t, Hole):
            raise ParseError("nonterminal %s cannot stand here" % t.name)
        self.pos += 1
        return t

    def hole(self, kind: str) -> Hole:
        h = self.toks[self.pos]
        self.pos += 1
        self.kinds[h] = kind
        return h

    def expect(self, tok: str) -> None:
        t = self.next()
        if t != tok:
            raise ParseError("expected %r, got %r" % (tok, t))

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)


class FormulaParser:
    """Recursive-descent parser for the formula text syntax.

    `objects` decides which identifiers are constants; every other
    identifier in a term slot is an object variable.
    """

    def __init__(self, objects):
        self.objects = set(objects)

    def parse(self, text: str) -> Formula:
        ts = TokenStream(tokenize(text))
        phi = self.formula(ts)
        if not ts.at_end():
            raise ParseError("trailing tokens after formula: %r" % ts.toks[ts.pos:])
        return phi

    def formula(self, ts: TokenStream) -> Formula:
        if isinstance(ts.peek(), Hole) and ts.peek(1) in ("?", ")", None):
            return ts.hole("formula")
        return self.iff(ts)

    def iff(self, ts: TokenStream) -> Formula:
        f = self.implies(ts)
        while ts.peek() == "<->":
            ts.next()
            f = Iff(f, self.implies(ts))
        return f

    def implies(self, ts: TokenStream) -> Formula:
        f = self.disjunction(ts)
        if ts.peek() == "->":
            ts.next()
            return Implies(f, self.implies(ts))
        return f

    def disjunction(self, ts: TokenStream) -> Formula:
        f = self.conjunction(ts)
        while ts.peek() == "|":
            ts.next()
            f = Or(f, self.conjunction(ts))
        return f

    def conjunction(self, ts: TokenStream) -> Formula:
        f = self.unary(ts)
        while ts.peek() == "&":
            ts.next()
            f = And(f, self.unary(ts))
        return f

    def unary(self, ts: TokenStream) -> Formula:
        t = ts.peek()
        if t == "!":
            ts.next()
            return Not(self.unary(ts))
        if t == "(":
            ts.next()
            f = self.formula(ts)
            ts.expect(")")
            return f
        if t in ("forall", "exists"):
            ts.next()
            var = ts.next()
            ts.expect(".")
            body = self.formula(ts)
            return (Forall if t == "forall" else Exists)(var, body)
        if t == "true":
            ts.next()
            return TRUE
        if t == "false":
            ts.next()
            return FALSE
        return self.atom(ts)

    def term(self, ts: TokenStream) -> Term:
        if isinstance(ts.peek(), Hole):
            return ts.hole("object")
        name = ts.next()
        if not name or not (name[0].isalpha() or name[0] == "_"):
            raise ParseError("expected a term, got %r" % name)
        return Obj(name) if name in self.objects else Var(name)

    def sit_term(self, ts: TokenStream) -> SitTerm:
        name = ts.next()
        if name == "do":
            ts.expect("(")
            opname = ts.next()
            ts.expect("(")
            args = self.term_list(ts)
            ts.expect(")")
            ts.expect(",")
            prev = self.sit_term(ts)
            ts.expect(")")
            return Do(OpTerm(opname, args), prev)
        if name == "s0":
            return S0
        return SitVar(name)

    def term_list(self, ts: TokenStream) -> tuple[Term, ...]:
        """Comma-separated terms before a ')', none for a 0-ary atom."""
        if ts.peek() == ")":
            return ()
        args = [self.term(ts)]
        while ts.peek() == ",":
            ts.next()
            args.append(self.term(ts))
        return tuple(args)

    def atom(self, ts: TokenStream) -> Formula:
        if isinstance(ts.peek(), Hole):
            return self.equality(self.term(ts), ts)
        name = ts.next()
        if name == "alpha":
            ts.expect("=")
            opname = ts.next()
            ts.expect("(")
            args = self.term_list(ts)
            ts.expect(")")
            return OpEq(opname, args)
        if ts.peek() == "(":
            ts.next()
            args = self.term_list(ts)
            ts.expect(")")
            if ts.peek() == "@":
                ts.next()
                sit = self.sit_term(ts)
                return Fluent(name, args, sit)
            return Rigid(name, args)
        return self.equality(Obj(name) if name in self.objects else Var(name), ts)

    def equality(self, left: Term, ts: TokenStream) -> Formula:
        """A bare term's equality or inequality with the next term."""
        nxt = ts.peek()
        if nxt == "=":
            ts.next()
            return Eq(left, self.term(ts))
        if nxt == "!=":
            ts.next()
            return Not(Eq(left, self.term(ts)))
        raise ParseError("expected atom at %r" % str(left))


def parse_formula(text: str, objects) -> Formula:
    return FormulaParser(objects).parse(text)
