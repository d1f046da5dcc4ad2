"""Signal temporal logic: quantitative robustness over timed traces and
specification synthesis from world-task configurations.

The fragment is true, atoms (a signal compared with a threshold), not,
and, or, and the bounded temporal operators eventually and always.

Signals are piecewise-constant between strictly increasing sample times.
Window extrema are taken over the window start plus every sample time in
(start, end]; the end counts only when it is a sample time.  Monitoring is
therefore reproducible bit for bit.

`robustness` is one recursive pass that evaluates each node at the
list of times its parent asks for, so a window's body is evaluated once
at the points of all the window's times, not once per window.

Synthesis runs each branch of a configuration's task forward
(`tasks.run_branch`): that decides which branches the initial world can
follow and gives their checkpoint states.  Weakest preconditions play no
part here; they feed the combinatorial model's constraints, which
`ctgen` builds only when they are read.
"""

from __future__ import annotations

import bisect
import io
import math
import string
from dataclasses import dataclass
from operator import ge, gt, le, lt
from typing import Optional, Union

from .ctgen import Configuration
from .record import Record
from .tasks import Op, normalize, run_branch
from .theory import (
    ActionTheory, TheoryError, WorldState, compute_derived, parse_head,
)


class StlError(Exception):
    """Malformed specification, trace, or predicate map."""


class TruncationError(StlError):
    """The evaluation window lies entirely past the end of the trace."""


class SynthesisError(StlError):
    """A fluent family has no concrete-signal mapping."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

_HOLDS = {">": gt, ">=": ge, "<": lt, "<=": le}  # each comparator's test


# Formula nodes stay dataclasses: the benchmark counts them by `dataclasses.fields`.
@dataclass(frozen=True)
class STrue:
    pass


@dataclass(frozen=True)
class Atom:
    signal: str
    comparator: str
    threshold: float

    def __post_init__(self):
        if self.comparator not in _HOLDS:
            raise StlError("unknown comparator %r" % self.comparator)

    def margin(self, value: float) -> float:
        if self.comparator in (">", ">="):
            return value - self.threshold
        return self.threshold - value

    def holds(self, value: float) -> bool:
        return _HOLDS[self.comparator](value, self.threshold)


@dataclass(frozen=True)
class SNot:
    body: "StlFormula"


@dataclass(frozen=True)
class SAnd:
    parts: tuple["StlFormula", ...]


@dataclass(frozen=True)
class SOr:
    parts: tuple["StlFormula", ...]


@dataclass(frozen=True)
class _Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi):
            raise StlError("bad interval [%g, %g]" % (self.lo, self.hi))


@dataclass(frozen=True)
class Eventually(_Interval):
    body: "StlFormula"


@dataclass(frozen=True)
class Always(_Interval):
    body: "StlFormula"


StlFormula = Union[STrue, Atom, SNot, SAnd, SOr, Eventually, Always]


def format_stl(phi: StlFormula) -> str:
    """Canonical prefix text form."""
    if isinstance(phi, STrue):
        return "true"
    if isinstance(phi, Atom):
        return "(%s %s %.10g)" % (phi.comparator, phi.signal, phi.threshold)
    if isinstance(phi, SNot):
        return "(not %s)" % format_stl(phi.body)
    if isinstance(phi, SAnd):
        return "(and %s)" % " ".join(format_stl(p) for p in phi.parts)
    if isinstance(phi, SOr):
        return "(or %s)" % " ".join(format_stl(p) for p in phi.parts)
    if isinstance(phi, Eventually):
        return "(ev %.10g %.10g %s)" % (phi.lo, phi.hi, format_stl(phi.body))
    if isinstance(phi, Always):
        return "(alw %.10g %.10g %s)" % (phi.lo, phi.hi, format_stl(phi.body))
    raise TypeError("unknown formula node %r" % (phi,))


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class Trace(Record):
    times: tuple[float, ...]
    signals: dict[str, tuple[float, ...]]

    def __post_init__(self):
        if not self.times:
            raise StlError("empty trace")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise StlError("timestamps must be strictly increasing")
        for name, vals in self.signals.items():
            if len(vals) != len(self.times):
                raise StlError("signal %s has %d samples for %d timestamps"
                               % (name, len(vals), len(self.times)))

    @property
    def end(self) -> float:
        return self.times[-1]

    def value(self, signal: str, t: float) -> float:
        vals = self.signals.get(signal)
        if vals is None:
            raise StlError("unknown signal %r" % signal)
        if t < self.times[0]:
            raise StlError("time %g precedes the trace start" % t)
        i = bisect.bisect_right(self.times, t) - 1
        return vals[i]

    def window_times(self, lo: float, hi: float) -> list[float]:
        return _window_times(self.times, lo, hi)

    def to_csv(self) -> str:
        names = sorted(self.signals)
        buf = io.StringIO()
        buf.write(",".join(["time"] + names) + "\n")
        for i, t in enumerate(self.times):
            row = [_fmt(t)] + [_fmt(self.signals[n][i]) for n in names]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Trace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise StlError("empty trace file")
        header = lines[0].split(",")
        if header[0] != "time":
            raise StlError("trace header must start with 'time'")
        names = header[1:]
        times: list[float] = []
        cols: list[list[float]] = [[] for _ in names]
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(header):
                raise StlError("ragged trace row: %r" % ln)
            try:
                times.append(float(parts[0]))
                for c, v in zip(cols, parts[1:]):
                    c.append(float(v))
            except ValueError:
                raise StlError("non-numeric trace row: %r" % ln) from None
        return Trace(tuple(times), {n: tuple(c) for n, c in zip(names, cols)})


def _fmt(x: float) -> str:
    return "%.10g" % x


def _window_times(times: tuple[float, ...], lo: float, hi: float) -> list[float]:
    """Evaluation instants for a window: its start plus every strictly
    later sample time up to its end, clipped to the sample times."""
    if lo > times[-1]:
        raise TruncationError(
            "window [%g, %g] starts past the trace end %g" % (lo, hi, times[-1]))
    i = bisect.bisect_right(times, lo)
    return [lo, *times[i:bisect.bisect_right(times, hi, i)]]


# ---------------------------------------------------------------------------
# Robustness and boolean satisfaction
# ---------------------------------------------------------------------------

class RobustnessResult(Record):
    value: float
    truncated: bool


def robustness(phi: StlFormula, trace: Trace, t: float = 0.0) -> RobustnessResult:
    """Quantitative semantics; `truncated` is set when any window had to be
    clipped at the end of the trace.

    Each node is evaluated in one call, at the list of times its parent
    asks for (`_values`): a window asks its body for the points of all
    its windows, each point once.  For windows of bounded size the cost is
    linear in the formula and in the trace, instead of growing with the
    product of the nested window sizes.
    """
    if t > trace.end:
        raise TruncationError("evaluation time %g past trace end %g" % (t, trace.end))
    truncated = [False]
    try:
        value, = _values(phi, trace, [t], _rows(trace.times, [t]), truncated)
    except StlError:
        _raise_first_error(phi, trace, t)
        raise
    return RobustnessResult(value, truncated[0])


def _rows(times: tuple[float, ...], at: list[float]) -> list[int]:
    """The sample row of each time of `at`; -1 before the first sample."""
    return [bisect.bisect_right(times, u) - 1 for u in at]


def _values(phi: StlFormula, trace: Trace, at: list[float], rows: list[int],
            truncated: list[bool]) -> list[float]:
    """The robustness of `phi` at each time of `at`, an increasing list
    whose sample rows are `rows`.  `truncated[0]` is set when a window
    ends past the trace.  `min` and `max` keep the earlier of equal
    operands, as the recursive semantics does, so signed zeros come out
    the same.  This raises exactly when the recursive semantics does,
    but not always its error (see `_raise_first_error`).

    An atom over a column that holds one nonzero value gives one margin
    for every time: 0.0 and -0.0 compare equal but give margins of
    different signs."""
    if isinstance(phi, Atom):
        samples = trace.signals.get(phi.signal)
        if samples is None or rows[0] < 0:
            raise StlError("atom on %r cannot be sampled" % phi.signal)
        s0 = samples[0]
        if s0 != 0.0 and samples.count(s0) == len(samples):
            return [phi.margin(s0)] * len(at)
        if phi.comparator in (">", ">="):
            return [samples[i] - phi.threshold for i in rows]
        return [phi.threshold - samples[i] for i in rows]
    if isinstance(phi, SNot):
        return [-v for v in _values(phi.body, trace, at, rows, truncated)]
    if isinstance(phi, (SAnd, SOr)):
        agg = min if isinstance(phi, SAnd) else max
        if not phi.parts:
            return [math.inf if agg is min else -math.inf] * len(at)
        cols = [_values(p, trace, at, rows, truncated) for p in phi.parts]
        return cols[0] if len(cols) == 1 else list(map(agg, *cols))
    if isinstance(phi, (Eventually, Always)):
        times = trace.times
        windows = [_window_times(times, u + phi.lo, u + phi.hi) for u in at]
        if at[-1] + phi.hi > times[-1]:
            truncated[0] = True
        inner = sorted(set().union(*windows))
        body = _values(phi.body, trace, inner, _rows(times, inner), truncated)
        agg = max if isinstance(phi, Eventually) else min
        out = []
        for pts in windows:
            # `inner` and `pts` increase, so the window is a slice of
            # `inner` when its last point sits where the slice would end
            j = bisect.bisect_left(inner, pts[0])
            k = j + len(pts)
            if inner[k - 1] == pts[-1]:
                out.append(agg(body[j:k]))
            else:
                out.append(agg([body[bisect.bisect_left(inner, u)] for u in pts]))
        return out
    if isinstance(phi, STrue):
        return [math.inf] * len(at)
    raise TypeError("unknown formula node %r" % (phi,))


def _raise_first_error(phi: StlFormula, trace: Trace, t: float) -> None:
    """Raise the error that evaluating the formula recursively, operands in
    order and windows from their start, meets first.  The walk skips
    (node, time) pairs it has already cleared, so it stays linear."""
    cleared: set[tuple[int, float]] = set()

    def visit(f: StlFormula, t: float) -> None:
        if (id(f), t) in cleared:
            return
        if isinstance(f, Atom):
            trace.value(f.signal, t)
        elif isinstance(f, SNot):
            visit(f.body, t)
        elif isinstance(f, (SAnd, SOr)):
            for p in f.parts:
                visit(p, t)
        elif isinstance(f, (Eventually, Always)):
            for u in trace.window_times(t + f.lo, t + f.hi):
                visit(f.body, u)
        cleared.add((id(f), t))

    visit(phi, t)


def bool_sat(phi: StlFormula, trace: Trace, t: float = 0.0) -> bool:
    """Boolean satisfaction, implemented independently of robustness so the
    two semantics can be cross-checked."""
    if isinstance(phi, STrue):
        return True
    if isinstance(phi, Atom):
        return phi.holds(trace.value(phi.signal, t))
    if isinstance(phi, SNot):
        return not bool_sat(phi.body, trace, t)
    if isinstance(phi, SAnd):
        return all(bool_sat(p, trace, t) for p in phi.parts)
    if isinstance(phi, SOr):
        return any(bool_sat(p, trace, t) for p in phi.parts)
    if isinstance(phi, Eventually):
        return any(bool_sat(phi.body, trace, u)
                   for u in trace.window_times(t + phi.lo, t + phi.hi))
    if isinstance(phi, Always):
        return all(bool_sat(phi.body, trace, u)
                   for u in trace.window_times(t + phi.lo, t + phi.hi))
    raise TypeError("unknown formula node %r" % (phi,))


# ---------------------------------------------------------------------------
# Predicate map
# ---------------------------------------------------------------------------

class PredicateTemplate(Record):
    family: str
    params: tuple[str, ...]
    signal_template: str  # with {param} placeholders
    comparator: str
    threshold: float

    def atom(self, args: tuple[str, ...]) -> Atom:
        if len(args) != len(self.params):
            raise SynthesisError("%s expects %d arguments, got %d"
                                 % (self.family, len(self.params), len(args)))
        signal = self.signal_template.format(**dict(zip(self.params, args)))
        return Atom(signal, self.comparator, self.threshold)


class PredicateMap(Record):
    templates: dict[str, PredicateTemplate]
    delta_t: float

    def atom(self, family: str, args: tuple[str, ...]) -> Atom:
        tpl = self.templates.get(family)
        if tpl is None:
            raise SynthesisError("no concrete-signal mapping for fluent family %s"
                                 % family)
        return tpl.atom(args)


def load_pmap(path) -> PredicateMap:
    """File format: one `pmap: Fluent(a,b) := signal_{a}_{b} <cmp> <threshold>`
    line per fluent family plus one `deltat: <seconds>` line.  '#' starts
    a comment.  A signal's placeholders must be the head's parameters,
    with balanced braces, and a threshold must be finite."""
    templates: dict[str, PredicateTemplate] = {}
    delta_t = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                key, sep, rest = line.partition(":")
                if not sep:
                    raise StlError("missing ':'")
                key, rest = key.strip(), rest.strip()
                if key == "deltat":
                    if delta_t is not None:
                        raise StlError("second deltat line")
                    delta_t = float(rest)
                    if not 0 < delta_t < math.inf:
                        raise StlError("deltat must be positive and finite")
                elif key == "pmap":
                    head, sep, expr = rest.partition(":=")
                    if not sep:
                        raise StlError("expected 'Fluent(a,b) := <signal> <cmp> "
                                       "<threshold>'")
                    name, params = parse_head(head)
                    if name in templates:
                        raise StlError("second pmap line for %s" % name)
                    toks = expr.split()
                    if len(toks) != 3 or toks[1] not in _HOLDS:
                        raise StlError("expected '<signal> <cmp> <threshold>'")
                    threshold = float(toks[2])
                    if not math.isfinite(threshold):
                        raise StlError("threshold must be finite")
                    for _, field, spec, conv in string.Formatter().parse(toks[0]):
                        if field is not None and (field not in params or spec or conv):
                            raise StlError("signal %s: a placeholder must be {p} for "
                                           "a parameter p of %s" % (toks[0], head.strip()))
                    templates[name] = PredicateTemplate(
                        name, params, toks[0], toks[1], threshold)
                else:
                    raise StlError("unknown section %r" % key)
            except (ValueError, StlError, TheoryError) as exc:
                raise StlError("%s:%d: %s" % (path, lineno, exc)) from exc
    if delta_t is None:
        raise StlError("%s: no deltat line" % path)
    return PredicateMap(templates, delta_t)


# ---------------------------------------------------------------------------
# Specification synthesis
# ---------------------------------------------------------------------------

def chi(theory: ActionTheory, state: WorldState, pmap: PredicateMap) -> StlFormula:
    """Propositional encoding of a total world state: one literal per
    ground fluent instance, primitive and derived alike."""
    derived_true = compute_derived(theory, state)
    literals: list[StlFormula] = []
    for fam in theory.primitive_fluents() + theory.derived_fluents():
        truths = state.true_atoms if theory.predicates[fam].kind == "primitive" \
            else derived_true
        for atom in theory.ground_atoms(fam):
            lit = pmap.atom(fam, atom[1])
            literals.append(lit if atom in truths else SNot(lit))
    return SAnd(tuple(literals))


class LiteralTable:
    """A conjunction of literals, as `chi` builds it, as one flat table:
    `rows` holds (signal, threshold, comparator, negated) per literal, in
    the conjunction's order, which `holds` and `least_margin` read with
    the float expressions of `Atom.holds` and `Atom.margin`.  Two tables
    are equal, and hash alike, when their formulas are.  To word a
    violation, walk `formula`'s literals."""

    def __init__(self, formula: SAnd):
        self.formula = formula
        rows = []
        for lit in formula.parts:
            negated = isinstance(lit, SNot)
            atom = lit.body if negated else lit
            rows.append((atom.signal, atom.threshold, atom.comparator, negated))
        self.rows = tuple(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, LiteralTable) and self.formula == other.formula

    def __hash__(self) -> int:
        return hash(self.formula)

    def holds(self, values: dict[str, float]) -> bool:
        """Whether every literal holds of the signal `values`; False also
        when `values` lacks one of their signals."""
        try:
            for signal, threshold, comparator, negated in self.rows:
                if _HOLDS[comparator](values[signal], threshold) == negated:
                    return False
        except KeyError:
            return False
        return True

    def least_margin(self, values: dict[str, float]) -> Optional[float]:
        """The least margin of the literals over the signal `values`, a
        negated literal's its atom's negated, as `min` over the literals
        in order gives it, zero's sign included; None when a margin is
        NaN, which `min` does not order, and +inf when there is no
        literal."""
        least = math.inf
        for signal, threshold, comparator, negated in self.rows:
            v = values[signal]
            m = v - threshold if comparator in (">", ">=") else threshold - v
            if negated:
                m = -m
            if m < least:
                least = m
            elif m != m:  # NaN
                return None
        return least


def _chi_table(theory: ActionTheory, state: WorldState, pmap: PredicateMap,
               tables: dict[frozenset, LiteralTable]) -> LiteralTable:
    """chi of `state` as a literal table, kept in `tables`, the tables of
    `pmap`, under the state's `true_atoms`."""
    table = tables.get(state.true_atoms)
    if table is None:
        table = tables[state.true_atoms] = LiteralTable(chi(theory, state, pmap))
    return table


class BranchSpec(Record):
    ops: tuple  # GroundOp sequence after stripping tests
    formula: StlFormula
    checkpoints: tuple[LiteralTable, ...]  # chi after each op; situation index k+1


class SpecSynthesisResult(Record):
    formula: StlFormula
    branches: tuple[BranchSpec, ...]
    delta_t: float
    initial: LiteralTable  # chi of the initial world


def synthesize(config: Configuration, theory: ActionTheory, pmap: PredicateMap,
               tables: dict[frozenset, LiteralTable]) -> SpecSynthesisResult:
    """Nested-Eventually specification for an accomplishable configuration,
    with chi of its initial world, which every instantiation of it must
    satisfy.

    The task is normalized into choice-free branches and each is run
    forward from the initial world (`tasks.run_branch`).  Branches that
    get stuck are pruned; each surviving branch contributes one nested
    formula over the checkpoint states its operations reach, with its
    tests stripped.  The result is the disjunction over surviving
    branches; a task none of whose branches can run from the initial world
    is an StlError.

    `tables` keeps chi of each state as a literal table, by the state's
    `true_atoms`.  It holds only what the theory and `pmap` determine, so
    a caller may share one across configurations of the same theory and
    map, as `falsify.campaign` does: chi of each distinct state is built
    once.  A caller with another map passes another dict.
    """
    delta_t = pmap.delta_t
    if delta_t <= 0:
        raise StlError("delta_t must be positive")
    specs: list[BranchSpec] = []
    for branch in normalize(config.task):
        states = run_branch(theory, config.initial_world, branch)
        if states is None:
            continue
        ops = tuple(a.op for a in branch if isinstance(a, Op))
        checkpoints = tuple(_chi_table(theory, state, pmap, tables) for state in states)
        formula: StlFormula = None
        for table in reversed(checkpoints):
            ck = table.formula
            formula = Eventually(0.0, delta_t, ck if formula is None else SAnd((ck, formula)))
        specs.append(BranchSpec(ops, formula or STrue(), checkpoints))
    if not specs:
        raise StlError("no branch of the task can run from the initial world")
    top = specs[0].formula if len(specs) == 1 else SOr(tuple(s.formula for s in specs))
    return SpecSynthesisResult(top, tuple(specs), delta_t,
                               _chi_table(theory, config.initial_world, pmap, tables))


def checkpoint_bound(spec: SpecSynthesisResult, times: tuple[float, ...],
                     rows: list[tuple[int, dict[str, float]]]) -> Optional[float]:
    """A lower bound on the robustness of `spec.formula` at time 0 over any
    trace sampled at `times` whose row at each index of `rows`, one per
    checkpoint of the first branch, holds that row's signals; or None.

    The bound is the least margin of the checkpoints' chi literals at
    their rows, an `SNot` negating its atom's, read from the checkpoints'
    literal tables (`LiteralTable.least_margin`).  It holds because an
    Eventually is at least its body at any point of its window, an And
    is the least of its operands and the disjunction of the branches is
    at least its first.  So each checkpoint's time must lie in the window
    its enclosing Eventually opens at the previous one's time t: every
    window `synthesize` builds is [t, t + delta_t], compared as
    `_window_times` compares it; otherwise there is no bound.  Nor is
    there one when some margin is NaN, which `min` and `max` do not
    order."""
    bound, t = math.inf, 0.0
    for table, (i, signals) in zip(spec.branches[0].checkpoints, rows):
        u = times[i]
        if not t <= u <= t + spec.delta_t:
            return None
        m = table.least_margin(signals)
        if m is None:
            return None
        if m < bound:
            bound = m
        t = u
    return bound
