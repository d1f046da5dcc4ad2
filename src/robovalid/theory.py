"""Action theories: declarations, derived fluents, executability, progression.

An ActionTheory bundles the object set, predicate and operation
declarations, initial axioms, successor-state effect conditions and
derived-fluent definitions, loaded from a line-oriented model file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional

from .logic import (
    FALSE, And, Eq, Exists, Fluent, Formula, ModelError, Obj, OpEq, OpTerm,
    P_FALSE, P_TRUE, PAnd, PEq, PFormula, PNot, POr, ParseError, Rigid, S0,
    SitTerm, FormulaParser, Var, anchor, conj, disj, format_formula, ground,
    map_atoms, peval, substitute_all,
)
from .record import Record


class TheoryError(Exception):
    """Malformed action theory or model file."""


class DeclarationError(TheoryError):
    """A declaration the others contradict.  `key` is its section and
    name, such as ("successor", "Loc"), so a loader can name its line."""

    def __init__(self, key: tuple[str, str], message: str):
        super().__init__(message)
        self.key = key


class PreconditionViolation(Exception):
    """progress() called for an operation that is not possible."""


GroundAtom = tuple[str, tuple[str, ...]]  # (fluent name, object names)


class GroundOp(Record):
    name: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "%s(%s)" % (self.name, ",".join(self.args))

    def term(self) -> OpTerm:
        return OpTerm(self.name, tuple(Obj(a) for a in self.args))


class PredicateDecl(Record):
    name: str
    arity: int
    kind: str  # rigid | primitive | derived

    def __post_init__(self):
        if self.arity < 0:
            raise TheoryError("negative arity for %s" % self.name)
        if self.kind not in ("rigid", "primitive", "derived"):
            raise TheoryError("bad predicate kind %r" % self.kind)


class OperationDecl(Record):
    name: str
    params: tuple[str, ...]
    precondition: Formula  # free vars: params plus situation variable s


class SuccessorAxiom(Record):
    fluent: str
    params: tuple[str, ...]
    gamma_plus: Formula
    gamma_minus: Formula


class DerivedFluentDef(Record):
    fluent: str
    arity: int
    closure_of: str  # transitive closure of this primitive fluent

    def check(self, predicates: dict[str, PredicateDecl]) -> None:
        """A closure is binary, over a declared binary primitive fluent."""
        if self.arity != 2:
            raise DeclarationError(("predicate", self.fluent),
                                   "closure %s must have arity 2, not %d"
                                   % (self.fluent, self.arity))
        base = predicates.get(self.closure_of)
        if base is None or base.kind != "primitive" or base.arity != 2:
            raise DeclarationError(("predicate", self.fluent),
                                   "%s is a closure of %s, which is not a declared "
                                   "binary primitive fluent" % (self.fluent, self.closure_of))


@dataclass(frozen=True)  # a dataclass: `where` is left out of equality
class GrammarRule:
    id: str
    lhs: str
    rhs: tuple[str, ...]
    where: str = field(default="", compare=False)  # "path:line" of a loaded rule


@dataclass  # mutable, so not a Record
class ActionTheory:
    objects: tuple[str, ...]
    predicates: dict[str, PredicateDecl]
    operations: dict[str, OperationDecl]
    successor: dict[str, SuccessorAxiom]
    derived: dict[str, DerivedFluentDef]
    init_axioms: list[Formula]
    rigid_truths: frozenset[tuple[str, tuple[str, ...]]]
    grammar: list[GrammarRule] = field(default_factory=list)

    def __post_init__(self):
        for name in self.successor:
            decl = self.predicates.get(name)
            if decl is None or decl.kind != "primitive":
                raise DeclarationError(("successor", name), "successor axiom for "
                                       "non-primitive fluent %s" % name)
        for d in self.derived.values():
            d.check(self.predicates)
        for f in self.primitive_fluents():
            if f not in self.successor:
                raise DeclarationError(("predicate", f),
                                       "primitive fluent %s has no successor axiom" % f)
        arities = {name: len(d.params) for name, d in self.operations.items()}
        for ax in self.successor.values():
            try:
                _check_op_equalities(And(ax.gamma_plus, ax.gamma_minus), arities)
            except TheoryError as exc:
                raise DeclarationError(("successor", ax.fluent), str(exc)) from exc

    def primitive_fluents(self) -> list[str]:
        return sorted(n for n, d in self.predicates.items() if d.kind == "primitive")

    def derived_fluents(self) -> list[str]:
        return sorted(n for n, d in self.predicates.items() if d.kind == "derived")

    def ground_atoms(self, fluent: str) -> list[GroundAtom]:
        arity = self.predicates[fluent].arity
        return [(fluent, combo)
                for combo in itertools.product(self.objects, repeat=arity)]

    def all_primitive_atoms(self) -> list[GroundAtom]:
        out = []
        for f in self.primitive_fluents():
            out.extend(self.ground_atoms(f))
        return out

    def ground_ops(self) -> list[GroundOp]:
        out = []
        for name in sorted(self.operations):
            decl = self.operations[name]
            for combo in itertools.product(self.objects, repeat=len(decl.params)):
                out.append(GroundOp(name, combo))
        return out

    def rigid_value(self, name: str, args: tuple[str, ...]) -> bool:
        decl = self.predicates.get(name)
        if decl is None or decl.kind != "rigid" or decl.arity != len(args):
            raise ModelError("bad rigid atom %s%r" % (name, args))
        return (name, args) in self.rigid_truths

    @cached_property
    def grounded_init(self) -> list[PFormula]:
        """`initial_formulas`, grounded over the primitive atoms at s0.
        Built on first read."""
        return [ground_primitive(self, f, S0) for f in initial_formulas(self)]

    @cached_property
    def preconditions(self) -> dict[str, Formula]:
        """Each operation's precondition anchored at s0, by name; `ground_op`
        grounds it with the operation's arguments bound.  Built on first
        read."""
        return {name: anchor(d.precondition, S0) for name, d in self.operations.items()}

    @cached_property
    def effect_conditions(self) -> dict[GroundOp, list[tuple[GroundAtom, PFormula, PFormula,
                                                          frozenset[GroundOp]]]]:
        """For each ground operation, (atom, gamma+, gamma-, the operation
        atoms the two mention) of the primitive atoms it can change, in
        `all_primitive_atoms` order: those whose conditions mention it, and
        those whose conditions are not constant false when every operation
        atom is false.  Each successor axiom's conditions are anchored once
        and grounded once per atom, by `ground_effect_condition`, for every
        operation.  Built on first read."""
        out: dict[GroundOp, list] = {op: [] for op in self.ground_ops()}
        for fname in self.primitive_fluents():
            sa = self.successor[fname]
            gammas = [anchor(g, S0) for g in (sa.gamma_plus, sa.gamma_minus)]
            for atom in self.ground_atoms(fname):
                env = dict(zip(sa.params, atom[1]))
                plus, minus = (ground_effect_condition(self, g, env) for g in gammas)
                ops = frozenset(p for p in _mentioned_atoms(PAnd((plus, minus)))
                                if isinstance(p, GroundOp))
                no_op = dict.fromkeys(ops, False)
                always = peval(plus, no_op) is not False or peval(minus, no_op) is not False
                for op in (out if always else ops):
                    out[op].append((atom, plus, minus, ops))
        return out


# ---------------------------------------------------------------------------
# World states
# ---------------------------------------------------------------------------

class WorldState(Record):
    """Truth over all ground primitive-fluent atoms at one situation.

    Only the true atoms are stored; the theory's declarations make the
    assignment total.  Derived fluents are always recomputed, never stored.
    """
    true_atoms: frozenset[GroundAtom]

    def holds(self, atom: GroundAtom) -> bool:
        return atom in self.true_atoms


class StateView:
    """Adapter presenting a WorldState (plus derived atoms) as the world
    `logic.evaluate` reads.

    Fluent atoms are accepted at any situation term syntactically equal to
    the anchor; other situation terms are a ModelError, which keeps
    progression bugs from silently reading the wrong situation.  No
    production path uses it; it serves the acceptance criteria and the
    test oracles.
    """

    def __init__(self, theory: ActionTheory, state: WorldState, sit: SitTerm = S0):
        self.theory = theory
        self.state = state
        self.sit_key = str(sit)
        self.derived = compute_derived(theory, state)
        self.objects = theory.objects

    def rigid_value(self, name: str, args: tuple[str, ...]) -> bool:
        return self.theory.rigid_value(name, args)

    def fluent_value(self, name: str, args: tuple[str, ...], sit: SitTerm) -> bool:
        decl = self.theory.predicates.get(name)
        if decl is None or decl.kind == "rigid" or decl.arity != len(args):
            raise ModelError("bad fluent atom %s%r" % (name, args))
        if str(sit) != self.sit_key:
            raise ModelError("fluent %s queried at %s, view anchored at %s"
                             % (name, sit, self.sit_key))
        if decl.kind == "derived":
            return (name, args) in self.derived
        return self.state.holds((name, args))


# ---------------------------------------------------------------------------
# Derived fluents: computed over a state, or unfolded in a formula
# ---------------------------------------------------------------------------

def compute_derived(theory: ActionTheory, state: WorldState) -> frozenset[GroundAtom]:
    """All true derived-fluent atoms for `state`: each transitive
    closure, computed to fixpoint by a search from every object."""
    out: set[GroundAtom] = set()
    for name in theory.derived_fluents():
        base = theory.derived[name].closure_of
        edges: dict[str, set[str]] = {}
        for (f, args) in state.true_atoms:
            if f == base:
                edges.setdefault(args[0], set()).add(args[1])
        for src in theory.objects:
            seen: set[str] = set()
            frontier = list(edges.get(src, ()))
            while frontier:
                nxt = frontier.pop()
                if nxt in seen:
                    continue
                seen.add(nxt)
                frontier.extend(edges.get(nxt, ()))
            for dst in seen:
                out.add((name, (src, dst)))
    return frozenset(out)


def unfold_derived(phi: Formula, theory: ActionTheory) -> Formula:
    """Replace derived-fluent atoms by formulas over primitive fluents.

    A transitive closure is expanded exactly by bounding chains at
    |objects| - 1 compositions.  The chain variables are the first of
    _c1, _c2, ... that the atom's arguments do not name.
    """
    def unfold(a: Formula) -> Formula:
        if not (isinstance(a, Fluent) and a.name in theory.derived):
            return a
        src, dst = a.args
        base = theory.derived[a.name].closure_of
        hops = max(1, len(theory.objects) - 1)
        taken = {t.name for t in a.args if isinstance(t, Var)}
        names = [n for n in ("_c%d" % i for i in range(1, hops + 2)) if n not in taken]
        terms = [Fluent(base, (src, dst), a.sit)]
        for length in range(2, hops + 1):
            mids = names[:length - 1]
            chain = [Fluent(base, (src, Var(mids[0])), a.sit)]
            for x, y in zip(mids, mids[1:]):
                chain.append(Fluent(base, (Var(x), Var(y)), a.sit))
            chain.append(Fluent(base, (Var(mids[-1]), dst), a.sit))
            body = conj(chain)
            for m in reversed(mids):
                body = Exists(m, body)
            terms.append(body)
        return disj(terms)

    return map_atoms(phi, unfold)


# ---------------------------------------------------------------------------
# Executability and progression
# ---------------------------------------------------------------------------

def instantiate_op_equalities(phi: Formula, op: GroundOp) -> Formula:
    """Fold alpha-equality atoms for a known ground operation.

    alpha = f(t...) becomes the conjunction of argument equalities when f
    matches op's name (with its arity, as `ActionTheory` checks), else false.
    """
    def fold_op_eq(a: Formula) -> Formula:
        if not isinstance(a, OpEq):
            return a
        if a.name != op.name:
            return FALSE
        return conj([Eq(t, Obj(x)) for t, x in zip(a.args, op.args)])

    return map_atoms(phi, fold_op_eq)


def check_ground_op(theory: ActionTheory, op: GroundOp) -> OperationDecl:
    """The declaration of `op`, which must name a declared operation,
    with its arity, over declared objects; else a TheoryError."""
    decl = theory.operations.get(op.name)
    if decl is None:
        raise TheoryError("undeclared operation %s" % op.name)
    if len(op.args) != len(decl.params):
        raise TheoryError("operation %s expects %d arguments, got %d"
                          % (op.name, len(decl.params), len(op.args)))
    for a in op.args:
        if a not in theory.objects:
            raise TheoryError("undeclared object %s" % a)
    return decl


def instantiate_precondition(theory: ActionTheory, op: GroundOp) -> Formula:
    """The precondition of a ground operation, at the situation variable
    of its declaration."""
    decl = check_ground_op(theory, op)
    return substitute_all(decl.precondition, dict(zip(decl.params, map(Obj, op.args))))


class GroundedOp(Record):
    """A ground operation with its precondition and the effect conditions
    of the atoms it may change, grounded at s0 by `ground_primitive` with
    derived atoms as their own keys.  `effects` maps each primitive atom
    whose gamma+ or gamma- is not constant false for this operation to
    (gamma+, gamma-), in `all_primitive_atoms` order; every other atom
    keeps its truth across the operation.  The conditions keep each
    alpha = g as the atom PEq(g, True), and `overlay` decides those atoms
    for this operation: g is true exactly when it is the operation, which
    is what grounding alpha = g with the operation folded in gives.
    `apply_op` decides a step by `peval` over a state's `state_truth` with
    the overlay merged in."""
    op: GroundOp
    pre: PFormula
    effects: dict[GroundAtom, tuple[PFormula, PFormula]]
    overlay: dict[GroundOp, bool]


def ground_op(theory: ActionTheory, op: GroundOp) -> GroundedOp:
    """Ground `op`'s precondition, anchored once per declaration, with the
    arguments bound in `ground`'s environment, and keep the effect
    conditions of the atoms `theory.effect_conditions` lists for it (the
    only ones it can change) that are not constant false under its
    overlay.  An undeclared operation is a TheoryError; an atom the theory
    does not declare, or a fluent at another situation, in any effect
    condition is a ModelError here, whatever the state."""
    decl = check_ground_op(theory, op)
    pre = ground_primitive(theory, theory.preconditions[op.name], S0, derived=True,
                           env=dict(zip(decl.params, op.args)))
    entries = theory.effect_conditions[op]
    overlay = {g: g == op for *_, ops in entries for g in ops}
    effects = {atom: (plus, minus) for atom, plus, minus, _ in entries
               if peval(plus, overlay) is not False or peval(minus, overlay) is not False}
    return GroundedOp(op, pre, effects, overlay)


def ground_effect_condition(theory: ActionTheory, gamma: Formula,
                            env: dict[str, str]) -> PFormula:
    """An effect condition anchored at s0, grounded as
    `ground_state_formula` grounds with its successor axiom's parameters
    bound by `env`, and with each alpha = f(t...) kept as the atom
    PEq(GroundOp(f, t...), True)."""
    return ground_primitive(theory, gamma, S0, derived=True, env=env,
                            op_atom=lambda name, args: PEq(GroundOp(name, args), True))


def ground_state_formula(theory: ActionTheory, phi: Formula) -> PFormula:
    """phi, over one situation, anchored at s0 and grounded with derived
    atoms as keys of their own, so `peval` decides it over a state's
    `state_truth`."""
    return ground_primitive(theory, anchor(phi, S0), S0, derived=True)


def state_truth(theory: ActionTheory, state: WorldState) -> dict[GroundAtom, bool]:
    """The truth value in `state` of every ground primitive atom and every
    ground derived atom, the keys of `ground_primitive`'s formulas."""
    truth = {atom: atom in state.true_atoms for atom in theory.all_primitive_atoms()}
    for name in theory.derived_fluents():
        truth.update(dict.fromkeys(theory.ground_atoms(name), False))
    truth.update(dict.fromkeys(compute_derived(theory, state), True))
    return truth


def apply_op(step: GroundedOp, state: WorldState,
             truth: dict[GroundAtom, bool]) -> WorldState:
    """The state after `step` from `state`, whose `state_truth` is
    `truth`.  An atom of `step.effects` is true after it when gamma+
    holds, or when it held and gamma- does not, over `truth` with the
    step's overlay merged in; every other atom is carried over from
    `state`."""
    if not peval(step.pre, truth):
        raise PreconditionViolation("%s is not possible here" % step.op)
    effects = step.effects
    truth = {**truth, **step.overlay}
    return WorldState(frozenset(
        [atom for atom in state.true_atoms if atom not in effects]
        + [atom for atom, (plus, minus) in effects.items()
           if peval(plus, truth) or (truth[atom] and not peval(minus, truth))]))


def possible(theory: ActionTheory, state: WorldState, op: GroundOp) -> bool:
    """Whether `op` is executable in `state` (its precondition holds).
    No production path calls it; it serves the acceptance criteria and the
    test oracles."""
    return peval(ground_op(theory, op).pre, state_truth(theory, state)) is True


def progress(theory: ActionTheory, state: WorldState, op: GroundOp) -> WorldState:
    """The state after `op`, or PreconditionViolation when it is not
    possible.  `op` is grounded for this one step; `tasks.run_branch`
    keeps each grounded operation for a whole run.  No production path
    calls it; it serves the acceptance criteria and the test oracles."""
    return apply_op(ground_op(theory, op), state, state_truth(theory, state))


# ---------------------------------------------------------------------------
# Initial world enumeration
# ---------------------------------------------------------------------------

def ground_primitive(theory: ActionTheory, phi: Formula, sit: SitTerm,
                     derived: bool = False,
                     env: Optional[dict[str, str]] = None,
                     op_atom: Optional[Callable[[str, tuple[str, ...]], PFormula]] = None
                     ) -> PFormula:
    """phi, over rigid atoms and primitive fluents at `sit`, grounded over
    the theory's objects, with the free object variables in `env` bound
    and operation equalities grounded by `op_atom`, as `logic.ground`
    does.

    Each fluent atom F(args)@sit becomes PEq((F, args), True) and each
    rigid atom its truth value, so `peval` decides the result over a dict
    from ground atoms to truth values, partial or total.  With `derived`,
    a derived-fluent atom is a key of its own too, as `state_truth` fills
    them; without, it is a ModelError.
    """
    kinds = ("primitive", "derived") if derived else ("primitive",)

    def atom(node: Formula, args: tuple[str, ...]) -> PFormula:
        if isinstance(node, Rigid):
            return P_TRUE if theory.rigid_value(node.name, args) else P_FALSE
        decl = theory.predicates.get(node.name)
        if decl is None or decl.kind not in kinds or decl.arity != len(args):
            raise ModelError("bad %s fluent atom %s%r"
                             % ("/".join(kinds), node.name, args))
        if node.sit != sit:
            raise ModelError("fluent %s at %s, expected %s" % (node.name, node.sit, sit))
        return PEq((node.name, args), True)

    return ground(phi, theory.objects, atom, env, op_atom)


def initial_formulas(theory: ActionTheory) -> list[Formula]:
    """The initial axioms at s0, with derived fluents unfolded, so they
    mention only rigid atoms and primitive fluents."""
    return [unfold_derived(anchor(ax, S0), theory) for ax in theory.init_axioms]


def enumerate_initial_worlds(theory: ActionTheory) -> Iterator[WorldState]:
    """All WorldStates satisfying the initial axioms, in deterministic order.

    Backtracks over ground primitive atoms, False before True, with
    three-valued pruning: a partial assignment that already falsifies
    some initial axiom is abandoned, which avoids the 2^N
    generate-then-filter blowup.  The grounded axioms are split into
    their top-level conjuncts (a forall grounds to a PAnd), and assigning
    an atom re-checks only the conjuncts that mention it: `peval` is
    monotone, so every other conjunct keeps its value.  An atom-free
    conjunct that is false leaves no world, with primitive atoms or
    without; a theory without any has at most the empty world.
    """
    atoms = theory.all_primitive_atoms()
    conjuncts: list[PFormula] = []
    for ax in theory.grounded_init:
        _split_conjuncts(ax, conjuncts)
    touching: dict[GroundAtom, list[PFormula]] = {a: [] for a in atoms}
    constant = []
    for c in conjuncts:
        mentioned = _mentioned_atoms(c)
        for a in mentioned:
            touching[a].append(c)
        if not mentioned:
            constant.append(c)
    if any(peval(c, {}) is False for c in constant):
        return
    assigned: dict[GroundAtom, bool] = {}

    def rec(i: int) -> Iterator[WorldState]:
        if i == len(atoms):
            yield WorldState(frozenset(a for a, v in assigned.items() if v))
            return
        for value in (False, True):
            assigned[atoms[i]] = value
            if all(peval(c, assigned) is not False for c in touching[atoms[i]]):
                yield from rec(i + 1)
            del assigned[atoms[i]]

    yield from rec(0)


def _split_conjuncts(phi: PFormula, out: list[PFormula]) -> None:
    """Append the conjuncts of phi's top-level PAnd nodes to `out`."""
    if isinstance(phi, PAnd):
        for p in phi.parts:
            _split_conjuncts(p, out)
    else:
        out.append(phi)


def _mentioned_atoms(phi: PFormula) -> set:
    """The ground atoms that phi's PEq nodes read."""
    if isinstance(phi, PEq):
        return {phi.param}
    if isinstance(phi, PNot):
        return _mentioned_atoms(phi.body)
    if isinstance(phi, (PAnd, POr)):
        return set().union(*map(_mentioned_atoms, phi.parts))
    return set()


def satisfies_init(theory: ActionTheory, state: WorldState) -> bool:
    """Whether `state` satisfies every initial axiom, decided over
    `theory.grounded_init`."""
    truth = {atom: atom in state.true_atoms for atom in theory.all_primitive_atoms()}
    return all(peval(ax, truth) is True for ax in theory.grounded_init)


# ---------------------------------------------------------------------------
# Model file loading
# ---------------------------------------------------------------------------

def load_model(path) -> ActionTheory:
    """Parse the line-oriented model file format.

    Sections: objects:, rigid:, rigidtrue:, fluent:, op:, successor:,
    init:, grammar:.  '#' starts a comment.  An object, predicate,
    operation, successor axiom or grammar rule id declared twice is an
    error at its second declaration.
    """
    objects: list[str] = []
    predicates: dict[str, PredicateDecl] = {}
    operations: dict[str, OperationDecl] = {}
    successor: dict[str, SuccessorAxiom] = {}
    derived: dict[str, DerivedFluentDef] = {}
    init_axioms: list[Formula] = []
    rigid_truths: dict[GroundAtom, int] = {}  # atom -> its first line
    grammar: list[GrammarRule] = []
    pending: list[tuple[int, str, str]] = []
    lines: dict[tuple[str, str], int] = {}  # (section, name) -> its line

    def declare(section: str, name: str, lineno: int) -> None:
        if (section, name) in lines:
            raise TheoryError("%s %s is already declared on line %d"
                              % (section, name, lines[(section, name)]))
        lines[(section, name)] = lineno

    with open(path) as fh:
        raw_lines = fh.readlines()

    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, sep, rest = line.partition(":")
            if not sep:
                raise TheoryError("missing section keyword")
            key, rest = key.strip(), rest.strip()
            if key == "objects":
                for name in rest.split():
                    declare("object", name, lineno)
                    objects.append(name)
            elif key == "rigid":
                name, arity = _parse_declaration(rest)
                declare("predicate", name, lineno)
                predicates[name] = PredicateDecl(name, arity, "rigid")
            elif key == "rigidtrue":
                for atom in rest.split():
                    rigid_truths.setdefault(parse_ground_atom(atom), lineno)
            elif key == "fluent":
                parts = rest.split() or [""]
                name, arity = _parse_declaration(parts[0])
                declare("predicate", name, lineno)
                if len(parts) >= 2 and parts[1] == "primitive":
                    predicates[name] = PredicateDecl(name, arity, "primitive")
                elif len(parts) >= 3 and parts[1] == "closure-of":
                    predicates[name] = PredicateDecl(name, arity, "derived")
                    derived[name] = DerivedFluentDef(name, arity, closure_of=parts[2])
                else:
                    raise TheoryError("bad fluent declaration %r" % rest)
            elif key in ("op", "successor", "init", "grammar"):
                pending.append((lineno, key, rest))
            else:
                raise TheoryError("unknown section %r" % key)
        except TheoryError as exc:
            raise TheoryError("%s:%d: %s" % (path, lineno, exc)) from exc

    if not objects:
        raise TheoryError("%s: no objects declared" % path)
    # a rigidtrue: line may come before the declarations its atoms use
    for (name, args), lineno in rigid_truths.items():
        decl = predicates.get(name)
        if (decl is None or decl.kind != "rigid" or decl.arity != len(args)
                or not set(args) <= set(objects)):
            raise TheoryError("%s:%d: rigidtrue %s(%s) is not a declared rigid "
                              "predicate, with its arity, over declared objects"
                              % (path, lineno, name, ",".join(args)))
    parser = FormulaParser(objects)

    for lineno, key, rest in pending:
        try:
            if key == "op":
                head, pre = rest.split("pre:", 1)
                name, params = parse_head(head)
                declare("op", name, lineno)
                operations[name] = OperationDecl(
                    name, params, _check_op_equalities(parser.parse(pre), {}))
            elif key == "successor":
                head, tail = rest.split("plus:", 1)
                plus_text, minus_text = tail.split("minus:", 1)
                name, params = parse_head(head)
                declare("successor", name, lineno)
                successor[name] = SuccessorAxiom(
                    name, params, parser.parse(plus_text), parser.parse(minus_text))
            elif key == "init":
                init_axioms.append(_check_op_equalities(parser.parse(rest), {}))
            elif key == "grammar":
                rid, rule = rest.split(":", 1)
                lhs, rhs = rule.split("::=", 1)
                declare("grammar rule", rid.strip(), lineno)
                grammar.append(GrammarRule(rid.strip(), lhs.strip(), tuple(rhs.split()),
                                           "%s:%d" % (path, lineno)))
        except (ValueError, ParseError, TheoryError) as exc:
            raise TheoryError("%s:%d: %s" % (path, lineno, exc)) from exc

    # a closure's base, a fluent's successor axiom and the operations its
    # effect conditions name may come after it, so the declarations are
    # checked against each other once all are read
    try:
        return ActionTheory(
            objects=tuple(objects),
            predicates=predicates,
            operations=operations,
            successor=successor,
            derived=derived,
            init_axioms=init_axioms,
            rigid_truths=frozenset(rigid_truths),
            grammar=grammar,
        )
    except DeclarationError as exc:
        raise TheoryError("%s:%d: %s" % (path, lines[exc.key], exc)) from exc


def _check_op_equalities(phi: Formula, arities: dict[str, int]) -> Formula:
    """phi, if each alpha = f(...) in it names an operation of `arities`
    with its arity: any declared one in an effect condition, none in a
    precondition or an initial axiom."""
    def check(a: Formula) -> Formula:
        if isinstance(a, OpEq) and arities.get(a.name) != len(a.args):
            raise TheoryError("%s: alpha may name only a declared operation, with "
                              "its arity, in a successor axiom" % format_formula(a))
        return a

    return map_atoms(phi, check)


def parse_head(text: str) -> tuple[str, tuple[str, ...]]:
    """`name(x,y)`, the head of an operation, a successor axiom or a
    predicate-map line, whose parameters are distinct."""
    name, params = parse_ground_atom(text.strip())
    if len(set(params)) != len(params):
        raise TheoryError("repeated parameter in %s" % text.strip())
    return name, params


def _parse_declaration(text: str) -> tuple[str, int]:
    """`Name/arity`, as in `rigid: Placeable/2`."""
    name, _, arity = text.partition("/")
    if not name.strip() or not arity.strip().isdecimal():
        raise TheoryError("expected Name/arity, got %r" % text)
    return name.strip(), int(arity)


def parse_ground_atom(text: str) -> GroundAtom:
    """`Name(a,b)` or `Name()` as (name, args): a rigid truth, an operation
    or successor-axiom signature, a predicate-map head, or a fluent of a
    configs.jsonl record."""
    name, paren, argtext = text.partition("(")
    if not paren or not name.strip() or not argtext.endswith(")"):
        raise TheoryError("bad ground atom %r" % text)
    argtext = argtext[:-1]
    args = tuple(a.strip() for a in argtext.split(",")) if argtext.strip() else ()
    if "" in args:
        raise TheoryError("empty argument in ground atom %r" % text)
    return name.strip(), args
