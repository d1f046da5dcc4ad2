"""Signal temporal logic: quantitative robustness over timed traces and
specification synthesis from world-task configurations.

The fragment is true, atoms (a signal compared with a threshold), not,
and, or, and the bounded temporal operators eventually and always.

Signals are piecewise-constant between strictly increasing sample times.
Window extrema are taken over the window start plus every sample time in
(start, end]; the end counts only when it is a sample time.  Monitoring is
therefore reproducible bit for bit.

A `Monitor` compiles a formula for one set of sample times: the node
DAG, each node's demanded times as an ordered list, and index plans
that say where a node's operand values sit in its operands' lists.
`robustness` then fills one list of values per node by position, with
no lookup by time.

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
from itertools import repeat
from operator import ge, gt, is_, le, lt
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
    out = [lo]
    i = bisect.bisect_right(times, lo)
    while i < len(times) and times[i] <= hi:
        out.append(times[i])
        i += 1
    return out


# ---------------------------------------------------------------------------
# Robustness and boolean satisfaction
# ---------------------------------------------------------------------------

class RobustnessResult(Record):
    value: float
    truncated: bool


class Monitor:
    """A formula compiled for traces sampled at `times` and evaluated at
    `t`.  For each node of its DAG the monitor keeps the times the node
    is needed at, as an ordered list, and an index plan into the lists
    below it: for a not, and or or node, the positions of its times in
    each operand's list, or None where the two lists are equal; for a
    window, the positions of each of its times' window points in its
    body's list; for an atom, the sample row of each of its times.
    None of it depends on the signal values, so one monitor serves every
    trace with these times, and evaluating a trace fills one list of
    values per node by position alone.  A node over signals the trace
    holds constant costs one value, not one per time (see `_evaluate`),
    so an evaluation pays for the signals the trace moves.  `robustness`
    takes a monitor in place of a formula, as `re.search` takes a
    compiled pattern."""

    def __init__(self, phi: StlFormula, times: tuple[float, ...], t: float = 0.0):
        if t > times[-1]:
            raise TruncationError("evaluation time %g past trace end %g"
                                  % (t, times[-1]))
        self.times, self.t = times, t
        self.nodes = _compile(phi)
        self.demand, self.plans, self.truncated, self.error = None, None, False, None
        try:
            self.demand, self.plans, self.truncated = _plan(self.nodes, times, t)
        except StlError as exc:
            # a window starts past the end; evaluating a trace raises this
            # error or one the recursive semantics meets earlier
            self.error = exc


def robustness(phi: Union[StlFormula, Monitor], trace: Trace,
               t: float = 0.0) -> RobustnessResult:
    """Quantitative semantics; `truncated` is set when any window had to be
    clipped at the end of the trace.  In place of a formula, `phi` can be
    a `Monitor` built for the trace's times and for `t`.

    Each distinct subformula is evaluated once per time point at which an
    enclosing operator asks for it, from the leaves up.  For windows of
    bounded size the cost is linear in the formula and in the trace,
    instead of growing with the product of the nested window sizes.
    """
    if not isinstance(phi, Monitor):
        monitor = Monitor(phi, trace.times, t)
    elif phi.times != trace.times or phi.t != t:
        raise StlError("the monitor was built for other sample times or another "
                       "evaluation time than %g" % t)
    else:
        monitor = phi
    try:
        if monitor.error is not None:
            raise monitor.error.with_traceback(None)
        values = _evaluate(monitor.nodes, monitor.demand, monitor.plans, trace)
    except StlError:
        _raise_first_error(monitor.nodes, trace, t)
        raise
    return RobustnessResult(values[-1][0], monitor.truncated)


# Node kinds of the compiled formula.  A node is a tuple whose first entry
# is its kind; its children are indices of earlier nodes.
_TRUE, _ATOM, _NOT, _AND, _OR, _EV, _ALW = range(7)


def _compile(phi: StlFormula) -> list[tuple]:
    """Post-order DAG of `phi`, root last.  Structurally equal subformulas
    share one node; nodes are keyed by their fields and child indices, so
    no formula dataclass is hashed."""
    nodes: list[tuple] = []
    index: dict[tuple, int] = {}

    def add(node: tuple) -> int:
        i = index.get(node)
        if i is None:
            i = index[node] = len(nodes)
            nodes.append(node)
        return i

    def visit(f) -> int:
        if isinstance(f, Atom):
            # 0.0 and -0.0 thresholds compare equal but give different margins
            return add((_ATOM, f.signal, f.comparator, f.threshold,
                        math.copysign(1.0, f.threshold)))
        if isinstance(f, SNot):
            return add((_NOT, (visit(f.body),)))
        if isinstance(f, SAnd):
            return add((_AND, tuple(visit(p) for p in f.parts)))
        if isinstance(f, SOr):
            return add((_OR, tuple(visit(p) for p in f.parts)))
        if isinstance(f, Eventually):
            return add((_EV, f.lo, f.hi, visit(f.body)))
        if isinstance(f, Always):
            return add((_ALW, f.lo, f.hi, visit(f.body)))
        if isinstance(f, STrue):
            return add((_TRUE,))
        raise TypeError("unknown formula node %r" % (f,))

    visit(phi)
    return nodes


def _plan(nodes: list[tuple], times: tuple[float, ...],
          root_time: float) -> tuple[list[list[float]], list, bool]:
    """Each node's demanded times and index plan (see `Monitor`), and
    whether the result is truncated: exactly when some window ends past
    the trace.

    A top-down pass collects the times at which each node is needed, in
    the order they are first asked for; a window operator maps each of
    its times to the points `_window_times` gives it.  Every parent of a
    node comes later in post-order, so a node's times are complete when
    the pass reaches it.  Nodes asked for the same times, in the same
    order, share one list and one map from time to position, so two
    lists are equal exactly when they are the same object.  The plans
    then look up positions in those maps.  An atom whose times include
    one before the first sample has no rows (None); evaluating it raises.
    """
    demand: list[dict] = [{} for _ in nodes]
    demand[-1][root_time] = None
    end = times[-1]
    truncated = False
    for node, asked in zip(reversed(nodes), reversed(demand)):
        kind = node[0]
        if kind == _NOT or kind == _AND or kind == _OR:
            for c in node[1]:
                demand[c].update(asked)
        elif kind == _EV or kind == _ALW:
            _, lo, hi, body = node
            inner = demand[body]
            for t in asked:
                pts = asked[t] = _window_times(times, t + lo, t + hi)
                truncated = truncated or t + hi > end
                inner.update(dict.fromkeys(pts))
    # nodes demanded at the same times share one list and one position map
    lists: list[list[float]] = []
    position: list[dict[float, int]] = []
    shared: dict[tuple, tuple[list[float], dict[float, int]]] = {}
    for asked in demand:
        key = tuple(asked)
        entry = shared.get(key)
        if entry is None:
            entry = shared[key] = (list(key), {u: j for j, u in enumerate(key)})
        lists.append(entry[0])
        position.append(entry[1])
    rows_at: dict[int, list[int]] = {}  # sample rows per shared list, by id
    plans: list = []
    for node, asked, own in zip(nodes, demand, lists):
        kind = node[0]
        plan = None
        if kind == _ATOM:
            plan = rows_at.get(id(own))
            if plan is None:
                plan = rows_at[id(own)] = [bisect.bisect_right(times, u) - 1 for u in own]
            if min(plan) < 0:
                plan = None
        elif kind == _NOT or kind == _AND or kind == _OR:
            plan = tuple(None if lists[c] is own else [position[c][u] for u in own]
                         for c in node[1])
        elif kind == _EV or kind == _ALW:
            at = position[node[3]]
            plan = [[at[u] for u in pts] for pts in asked.values()]
        plans.append(plan)
    return lists, plans, truncated


def _evaluate(nodes: list[tuple], demand: list[list[float]], plans: list,
              trace: Trace) -> list[list[float]]:
    """Bottom-up pass: every node's robustness at each of its demanded
    times, one list per node in the order of `demand`.  `min` and `max`
    keep the earlier of equal operands, as the recursive semantics does,
    so signed zeros come out the same.

    A node whose list repeats one value is a constant run, and a parent
    reads only its first entry.  An atom is one when its signal's column
    holds one value from the first sample to the last (the same object,
    where that value is a zero); a not or window node is one over a
    constant operand, and an and or or node when all its operands are.
    An and or or node that mixes the two folds its constant operands, in
    order, into one operand that stands where the first of them stood.
    A zero or NaN fold is not made: only then could moving an operand
    change the result's bits.  So a trace costs time in
    proportion to the signals it moves, plus one check per signal."""
    inf = float("inf")
    values: list[list[float]] = []
    constant: list[bool] = []
    for node, asked, plan in zip(nodes, demand, plans):
        kind = node[0]
        flat = True
        if kind == _ATOM:
            _, signal, comparator, threshold, _ = node
            samples = trace.signals.get(signal)
            if samples is None or plan is None:
                raise StlError("atom on %r cannot be sampled" % signal)
            s0 = samples[0]
            if samples.count(s0) == len(samples) and (
                    s0 != 0.0 or all(map(is_, samples, repeat(s0)))):
                # Atom.margin, once for every row
                vals = [s0 - threshold if comparator in (">", ">=")
                        else threshold - s0] * len(plan)
            else:
                flat = False
                if comparator in (">", ">="):
                    vals = [samples[i] - threshold for i in plan]
                else:
                    vals = [threshold - samples[i] for i in plan]
        elif kind == _NOT:
            (c,), (idx,) = node[1], plan
            body = values[c]
            if constant[c]:
                vals = [-body[0]] * len(asked)
            else:
                flat = False
                vals = [-v for v in body] if idx is None else [-body[j] for j in idx]
        elif kind == _AND or kind == _OR:
            agg = min if kind == _AND else max
            fixed = [values[c][0] for c in node[1] if constant[c]]
            if len(fixed) == len(node[1]):
                vals = [agg(fixed, default=inf if kind == _AND else -inf)] * len(asked)
            else:
                flat = False
                folded = agg(fixed, default=0.0)
                fold = folded == folded and folded != 0.0
                parts, placed = [], False
                for c, idx in zip(node[1], plan):
                    col = values[c]
                    if not constant[c]:
                        parts.append(col if idx is None else [col[j] for j in idx])
                    elif not fold:
                        parts.append(repeat(col[0]))
                    elif not placed:
                        parts.append(repeat(folded))
                        placed = True
                vals = parts[0] if len(parts) == 1 else list(map(agg, *parts))
        elif kind == _EV or kind == _ALW:
            body = values[node[3]]
            if constant[node[3]]:
                vals = [body[0]] * len(plan)
            else:
                flat = False
                agg = max if kind == _EV else min
                vals = [agg([body[j] for j in idx]) for idx in plan]
        else:  # _TRUE
            vals = [inf] * len(asked)
        values.append(vals)
        constant.append(flat)
    return values


def _raise_first_error(nodes: list[tuple], trace: Trace, t: float) -> None:
    """Raise the error that evaluating the formula recursively, operands in
    order and windows from their start, meets first.  The walk skips
    (node, time) pairs it has already cleared, so it stays linear."""
    cleared: set[tuple[int, float]] = set()

    def visit(i: int, t: float) -> None:
        if (i, t) in cleared:
            return
        node = nodes[i]
        kind = node[0]
        if kind == _ATOM:
            trace.value(node[1], t)
        elif kind == _NOT or kind == _AND or kind == _OR:
            for c in node[1]:
                visit(c, t)
        elif kind == _EV or kind == _ALW:
            for u in trace.window_times(t + node[1], t + node[2]):
                visit(node[3], u)
        cleared.add((i, t))

    visit(len(nodes) - 1, t)


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
