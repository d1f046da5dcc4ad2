"""Constraint-aware combinatorial model and greedy t-way covering arrays.

The model's parameters jointly encode an initial world state (boolean
parameters for unary and 0-ary fluents, symmetry-broken tuple parameters
for n-ary fluent families) and a bounded grammar derivation.  The valid
rows are built, not searched for: each is the padded steps of an
accomplishable derivation followed by the encoding of one enumerated
initial world from which its task completes.  Forward execution,
carried down the derivation tree as the derivations are enumerated
(`tasks.enumerate_derivations`), decides that.
`encode_world` is the one codec of a row's world part;
`realize_configuration` looks a row's steps, its
world and their pairing up in the model's tables.  The
constraints (initial axioms, symmetry breaking, grammar validity and
per-derivation WPs) describe the same set independently;
`check_assignment` and `verify_covering_array` check rows against them.
`CtModel.constraints` and `CtModel.wps` are built on their first read,
so generating a covering array computes and grounds no WP.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Union

from .logic import (
    Formula, PAnd, PEq, PFormula, PNot, POr, Rigid, TRUE,
    ground, peval,
)
from .record import Record
from .tasks import EPSILON, Grammar, Task, enumerate_derivations
from .theory import (
    ActionTheory, GroundAtom, WorldState, enumerate_initial_worlds,
    initial_formulas,
)
from .wp import wp as compute_wp


class CtError(Exception):
    """Inconsistent combinatorial model or assignment."""


class CtParameter(Record):
    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.domain:
            raise CtError("parameter %s has an empty domain" % self.name)


class CtConstraint(Record):
    label: str
    formula: PFormula


@dataclass  # mutable, so not a Record
class CtModel:
    parameters: list[CtParameter]
    # decode metadata
    theory: ActionTheory = None
    depth: int = 0
    # every initial world of the theory
    worlds: frozenset[WorldState] = frozenset()
    derivations: dict[tuple[str, ...], Task] = field(default_factory=dict)
    # the initial worlds each accomplishable derivation's task completes
    # from, keyed like `derivations`; an unaccomplishable one has no key
    wp_worlds: dict[tuple[str, ...], frozenset[WorldState]] = field(default_factory=dict)
    unary_params: dict[str, GroundAtom] = field(default_factory=dict)
    tuple_params: dict[str, list[list[str]]] = field(default_factory=dict)  # family -> [instance][component]

    @cached_property
    def world_codes(self) -> dict[tuple[str, ...], WorldState]:
        """Each initial world by its `encode_world` values, built on first read."""
        return {encode_world(self, w): w for w in self.worlds}

    @cached_property
    def wps(self) -> dict[tuple[str, ...], Formula]:
        """The WP of each accomplishable derivation, in `derivations`
        order, computed on first read."""
        return {steps: compute_wp(TRUE, task, self.theory).formula
                for steps, task in self.derivations.items() if steps in self.wp_worlds}

    @cached_property
    def constraints(self) -> list[CtConstraint]:
        """The constraints over the parameters, grounded on first read:
        each tuple instance all or none epsilon, symmetry breaking between
        instances, the initial axioms, per derivation its WP or a block
        when it is unaccomplishable, and grammar validity.  They describe
        the valid rows independently of forward execution."""
        theory = self.theory
        constraints = []
        for fam, insts in self.tuple_params.items():
            for i, inst in enumerate(insts):
                constraints.append(CtConstraint(
                    "%s instance %d all-or-none epsilon" % (fam, i + 1),
                    _all_or_none_eps(inst)))
            for a, b in zip(insts, insts[1:]):
                constraints.append(CtConstraint(
                    "%s symmetry break %s < %s" % (fam, a[0], b[0]),
                    _lex_less_or_both_eps(a, b, sorted(theory.objects))))

        unary_atoms = {atom: PEq(pname, "true")
                       for pname, atom in self.unary_params.items()}
        encodings: dict[tuple[bool, str, tuple[str, ...]], PFormula] = {}

        def param_atom(node: Formula, args: tuple[str, ...]) -> PFormula:
            """A ground atom as a constraint over the parameters encoding
            it, built once per (rigid or fluent, name, args)."""
            key = (isinstance(node, Rigid), node.name, args)
            enc = encodings.get(key)
            if enc is not None:
                return enc
            if isinstance(node, Rigid):
                enc = theory.rigid_value(node.name, args)
            elif (node.name, args) in unary_atoms:
                enc = unary_atoms[(node.name, args)]
            else:
                comps = self.tuple_params.get(node.name)
                if comps is None:
                    raise CtError("fluent %s has no parameter encoding" % node.name)
                enc = POr(tuple(PAnd(tuple(PEq(c, a) for c, a in zip(inst, args)))
                                for inst in comps))
            encodings[key] = enc
            return enc

        for i, phi in enumerate(initial_formulas(theory)):
            constraints.append(CtConstraint(
                "initial axiom %d" % (i + 1), ground(phi, theory.objects, param_atom)))

        valid_ants = []
        for steps in self.derivations:
            ant = PAnd(tuple(PEq("d%d" % (k + 1), v) for k, v in enumerate(steps)))
            valid_ants.append(ant)
            shown = ",".join(s for s in steps if s != EPSILON)
            if steps in self.wp_worlds:
                constraints.append(CtConstraint(
                    "WP of derivation %s" % shown,
                    POr((PNot(ant), ground(self.wps[steps], theory.objects, param_atom)))))
            else:
                constraints.append(CtConstraint(
                    "block unaccomplishable derivation %s" % shown, PNot(ant)))
        constraints.append(CtConstraint(
            "grammar validity", POr(tuple(valid_ants)) if valid_ants else False))
        return constraints


class Configuration(Record):
    """An accomplishable world-task pair decoded from a valid assignment."""
    initial_world: WorldState
    task: Task
    source_assignment: tuple[str, ...]  # values in parameter order


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def build_model(theory: ActionTheory, grammar: Grammar, depth: int,
                strength: Union[int, str]) -> CtModel:
    """Assemble the parameters of (initial world, task) pairs, and the
    derivations with the worlds each one's task completes from, run
    forward.  Weakest preconditions and constraints are left to the
    first read of `wps` and `constraints`.

    The model does not depend on the coverage `strength`; a bad one is
    rejected here, before any work, as `generate_covering_array` rejects
    it.
    """
    _check_strength(strength)
    if depth < 1:
        raise CtError("derivation depth must be at least 1")
    worlds = list(enumerate_initial_worlds(theory))

    model = CtModel(parameters=[], theory=theory, depth=depth, worlds=frozenset(worlds))
    rule_ids = sorted(r.id for r in grammar.rules)

    # (c) derivation-step parameters
    for k in range(1, depth + 1):
        model.parameters.append(CtParameter("d%d" % k, tuple(rule_ids) + (EPSILON,)))

    # (b) n-ary fluent-family tuple parameters, symmetry-broken by `constraints`
    obj_domain = tuple(sorted(theory.objects)) + (EPSILON,)
    arities = {fam: theory.predicates[fam].arity for fam in theory.primitive_fluents()}
    for fam, arity in arities.items():
        if arity < 2:
            continue
        insts = [["%s_%d_%d" % (fam, i, j) for j in range(1, arity + 1)]
                 for i in range(1, _instance_bound(fam, worlds) + 1)]
        model.tuple_params[fam] = insts
        model.parameters.extend(CtParameter(name, obj_domain)
                                for inst in insts for name in inst)

    # (a) boolean parameters of the unary fluents, then of the 0-ary ones
    model.unary_params.update(("%s_%s" % (fam, o), (fam, (o,))) for fam, n in arities.items()
                              if n == 1 for o in sorted(theory.objects))
    model.unary_params.update((fam, (fam, ())) for fam, n in arities.items() if n == 0)
    model.parameters.extend(CtParameter(name, ("false", "true"))
                            for name in model.unary_params)

    for steps, task, sat in enumerate_derivations(grammar, depth, theory, worlds):
        padded = _pad(steps, depth)
        model.derivations[padded] = task
        if sat:
            model.wp_worlds[padded] = frozenset(sat)
    return model


def _check_strength(strength: Union[int, str]) -> None:
    """Reject a coverage strength that is neither a positive integer nor
    'full'."""
    if strength != "full" and (not isinstance(strength, int) or strength < 1):
        raise CtError("coverage strength must be a positive integer or 'full'")


def _pad(steps: tuple[str, ...], depth: int) -> tuple[str, ...]:
    return steps + (EPSILON,) * (depth - len(steps))


def _instance_bound(fam: str, worlds: list[WorldState]) -> int:
    """The most true atoms of `fam` in any world; 0 when it is never true."""
    return max((sum(1 for (f, _) in w.true_atoms if f == fam) for w in worlds),
               default=0)


def _all_or_none_eps(comps: list[str]) -> PFormula:
    all_eps = PAnd(tuple(PEq(c, EPSILON) for c in comps))
    none_eps = PAnd(tuple(PNot(PEq(c, EPSILON)) for c in comps))
    return POr((all_eps, none_eps))


def _lex_less_or_both_eps(a: list[str], b: list[str], objects: list[str]) -> PFormula:
    """tuple(a) strictly below tuple(b), or both are the epsilon tuple.

    Component order is object-name order with epsilon as the maximum.
    """
    order = list(objects) + [EPSILON]
    rank = {v: i for i, v in enumerate(order)}
    cases = []
    for j in range(len(a)):
        prefix = tuple(POr(tuple(PAnd((PEq(a[i], v), PEq(b[i], v))) for v in order))
                       for i in range(j))
        less = POr(tuple(PAnd((PEq(a[j], v), PEq(b[j], w)))
                         for v in order for w in order if rank[v] < rank[w]))
        cases.append(PAnd(prefix + (less,)))
    both_eps = PAnd(tuple(PEq(c, EPSILON) for c in a) + tuple(PEq(c, EPSILON) for c in b))
    return POr(tuple(cases) + (both_eps,))


# ---------------------------------------------------------------------------
# Valid-assignment enumeration
# ---------------------------------------------------------------------------

def enumerate_valid(model: CtModel) -> Iterator[tuple[str, ...]]:
    """All valid assignments, in parameter-order lexicographic order
    (each parameter's values in its domain order).

    Each row is an accomplishable derivation's padded steps followed by
    the encoding of one world its task completes from, as `build_model`
    stored them.  The constraints are the independent check of these rows:
    `check_assignment` accepts every one of them.
    """
    rank = [{v: i for i, v in enumerate(p.domain)} for p in model.parameters]
    encoded = {w: code for code, w in model.world_codes.items()}
    rows = [steps + encoded[w]
            for steps, sat in model.wp_worlds.items() for w in sat]
    yield from sorted(rows, key=lambda row: tuple(r[v] for r, v in zip(rank, row)))


def check_assignment(model: CtModel, row: tuple[str, ...]) -> bool:
    """Full (non-incremental) constraint check of one assignment."""
    assignment = {p.name: v for p, v in zip(model.parameters, row)}
    return all(peval(c.formula, assignment) is True for c in model.constraints)


# ---------------------------------------------------------------------------
# Covering arrays
# ---------------------------------------------------------------------------

def _tuple_masks(model: CtModel, rows: list[tuple[str, ...]], t: int,
                 bits: dict[tuple, int],
                 columns: Optional[list[int]] = None) -> list[int]:
    """Each row's t-tuples of (parameter index, value) pairs over
    `columns` (default: every parameter), indices ascending, as an int
    mask.  `bits` numbers the tuples; a tuple not in it yet gets the next
    free bit.  A strength above the number of columns means all of them,
    so every row then has exactly one tuple: the whole row over them."""
    if columns is None:
        columns = range(len(model.parameters))
    t = min(t, len(columns))
    masks = []
    for row in rows:
        pairs = tuple((c, row[c]) for c in columns)
        indices = [bits.setdefault(tup, len(bits))
                   for tup in itertools.combinations(pairs, t)]
        buf = bytearray((max(indices) >> 3) + 1)
        for i in indices:
            buf[i >> 3] |= 1 << (i & 7)
        masks.append(int.from_bytes(buf, "little"))
    return masks


def generate_covering_array(model: CtModel, t: Union[int, str],
                            valid: Optional[list[tuple[str, ...]]] = None) -> list[tuple[str, ...]]:
    """Greedy one-row-at-a-time covering array over the valid assignments.

    Each round takes the valid row that covers the most t-tuples not yet
    covered; among rows of equal gain the one with the lowest index in
    sorted order wins, so arrays are reproducible across runs and
    platforms.  `"full"` returns every valid row.

    The gains are counted over the columns that vary among the valid
    rows only.  A column with one value in every valid row is in every
    row alike, so a t-tuple that uses j of the c such columns is covered
    exactly when its (t - j)-part over the varying columns is, and
    C(c, j) t-tuples share each such part.  A row's gain, the number of
    its t-tuples not yet covered, is therefore the sum over j of C(c, j)
    times the number of its uncovered (t - j)-tuples over the varying
    columns: the same integer as a count over all columns, from far
    fewer tuples.  With every column varying it is that count itself.

    The choice is made by lazy greedy (Minoux 1978).  Each distinct
    (t - j)-tuple is one bit of the mask of its size, each row has one
    int mask per size, and a heap holds (-gain, row index) with gains as
    last computed.  The top entry's gain is recomputed from
    `(mask & uncovered).bit_count()` per size; the row is taken when that
    entry still sorts no later than the next one, and is pushed back
    otherwise.  Gains only fall as tuples get covered, so a stale gain
    bounds the true one and the row taken is the row a full rescan would
    take.
    """
    _check_strength(t)
    valid = sorted(enumerate_valid(model)) if valid is None else sorted(valid)
    if t == "full":
        return valid
    n = len(model.parameters)
    t = min(t, n)
    varying = [c for c in range(n) if len({row[c] for row in valid}) > 1]
    const = n - len(varying)
    # per size k of the varying part: its weight, the rows' masks and the
    # uncovered k-tuples
    weights, masks, uncovered = [], [], []
    for k in range(max(0, t - const), min(t, len(varying)) + 1):
        bits: dict[tuple, int] = {}
        masks.append(_tuple_masks(model, valid, k, bits, varying))
        weights.append(math.comb(const, t - k))
        uncovered.append((1 << len(bits)) - 1)

    def gain(i: int) -> int:
        return sum(w * (m[i] & u).bit_count() for w, m, u in zip(weights, masks, uncovered))

    heap = [(-gain(i), i) for i in range(len(valid))]
    heapq.heapify(heap)
    rows: list[tuple[str, ...]] = []
    while any(uncovered):
        _, i = heapq.heappop(heap)
        g = gain(i)
        if heap and (-g, i) > heap[0]:
            heapq.heappush(heap, (-g, i))
            continue
        if g == 0:
            raise CtError("uncoverable tuples remain; internal inconsistency")
        rows.append(valid[i])
        uncovered = [u & ~m[i] for m, u in zip(masks, uncovered)]
    return rows


def verify_covering_array(model: CtModel, rows: list[tuple[str, ...]], t: int,
                          valid: list[tuple[str, ...]]) -> bool:
    """Independent soundness + coverage pass over a generated array: every
    row satisfies the constraints, and numbering the rows of `valid`
    (`enumerate_valid(model)`'s) after the array's adds no new tuple."""
    for row in rows:
        if not check_assignment(model, row):
            return False
    bits: dict[tuple, int] = {}
    _tuple_masks(model, rows, t, bits)
    covered = len(bits)
    _tuple_masks(model, valid, t, bits)
    return len(bits) == covered


# ---------------------------------------------------------------------------
# Encoding and lookup
# ---------------------------------------------------------------------------

def encode_world(model: CtModel, world: WorldState) -> tuple[str, ...]:
    """The values of the world parameters (all but the derivation steps)
    encoding `world`, the one writer of a row's world part.

    A unary or 0-ary atom reads "true" or "false".  An n-ary family lists
    its true tuples in object-name order, then epsilon tuples up to its
    instance bound, as the symmetry-breaking constraints require.
    """
    values = {pname: "true" if world.holds(atom) else "false"
              for pname, atom in model.unary_params.items()}
    for fam, insts in model.tuple_params.items():
        tuples = sorted(args for f, args in world.true_atoms if f == fam)
        if len(tuples) > len(insts):
            raise CtError("%s has %d true tuples, above its instance bound %d"
                          % (fam, len(tuples), len(insts)))
        eps = (EPSILON,) * model.theory.predicates[fam].arity
        for inst, args in zip(insts, tuples + [eps] * (len(insts) - len(tuples))):
            values.update(zip(inst, args))
    return tuple(values[p.name] for p in model.parameters[model.depth:])


def realize_configuration(model: CtModel, row: tuple[str, ...]) -> Configuration:
    """The accomplishable configuration of a valid assignment, by lookup:
    its steps must be a derivation's, its world part the encoding of an
    initial world (`world_codes`), and that world one its derivation's
    task completes from (`wp_worlds`)."""
    steps = row[:model.depth]
    task = model.derivations.get(steps)
    if task is None:
        raise CtError("assignment's derivation %r is not a valid one" % (steps,))
    w0 = model.world_codes.get(row[model.depth:])
    if w0 is None:
        raise CtError("decoded world violates the initial axioms (encoding bug)")
    if w0 not in model.wp_worlds.get(steps, ()):
        raise CtError("decoded configuration is not accomplishable (encoding bug)")
    return Configuration(w0, task, row)
