"""Reference robustness evaluators for differential tests.

`robustness` is the direct recursive reading of the quantitative
semantics that `robovalid.stl.robustness` replaced: every subformula is
re-evaluated at every point of every enclosing window, so its cost grows
with the product of the window sizes along each nesting path.  Keep it
for short traces and shallow formulas only.

`keyed_robustness` is the evaluator `robovalid.stl.Monitor` replaced: it
also evaluates each node of the formula's DAG once per demanded time,
but keeps one dict per node from time to value and looks every operand
value up by its time.  It stays linear, so it checks the positional
monitor on the nested specs `synthesize` builds.

`plan` is the planning pass `robovalid.stl.Monitor` ran before it
shared one list and one position map among the nodes demanded at the
same times: it builds both for every node.

`checkpoint_bound` is the bound `robovalid.stl.checkpoint_bound`
computed before it read flat literal tables: it walks each checkpoint's
chi literal by literal.
"""

import bisect
import math

from robovalid import stl
from robovalid.stl import (
    Always, Atom, Eventually, RobustnessResult, SAnd, SNot, SOr, STrue,
    StlError, StlFormula, Trace, TruncationError,
)


def plan(nodes, times, root_time):
    demand = [{} for _ in nodes]
    demand[-1][root_time] = None
    end = times[-1]
    truncated = False
    for node, asked in zip(reversed(nodes), reversed(demand)):
        kind = node[0]
        if kind == stl._NOT or kind == stl._AND or kind == stl._OR:
            for c in node[1]:
                demand[c].update(asked)
        elif kind == stl._EV or kind == stl._ALW:
            _, lo, hi, body = node
            inner = demand[body]
            for t in asked:
                pts = asked[t] = stl._window_times(times, t + lo, t + hi)
                truncated = truncated or t + hi > end
                inner.update(dict.fromkeys(pts))
    lists = [list(asked) for asked in demand]
    position = [{u: j for j, u in enumerate(asked)} for asked in demand]
    rows_at = {}
    plans = []
    for node, asked, own in zip(nodes, demand, lists):
        kind = node[0]
        p = None
        if kind == stl._ATOM:
            key = tuple(own)
            p = rows_at.get(key)
            if p is None:
                p = rows_at[key] = [bisect.bisect_right(times, u) - 1 for u in key]
            if min(p) < 0:
                p = None
        elif kind == stl._NOT or kind == stl._AND or kind == stl._OR:
            p = tuple(None if lists[c] == own else [position[c][u] for u in own]
                      for c in node[1])
        elif kind == stl._EV or kind == stl._ALW:
            at = position[node[3]]
            p = [[at[u] for u in pts] for pts in asked.values()]
        plans.append(p)
    return lists, plans, truncated


def checkpoint_bound(spec, times, rows):
    branch = spec.branches[0]
    bound, t, ev = math.inf, 0.0, branch.formula
    for k, (table, (i, signals)) in enumerate(zip(branch.checkpoints, rows)):
        ck = table.formula
        if k:
            ev = ev.body.parts[1]
        u = times[i]
        if not t + ev.lo <= u <= t + ev.hi:
            return None
        for lit in ck.parts:
            if isinstance(lit, SNot):
                m = -lit.body.margin(signals[lit.body.signal])
            else:
                m = lit.margin(signals[lit.signal])
            if m != m:
                return None
            if m < bound:
                bound = m
        t = u
    return bound


def robustness(phi: StlFormula, trace: Trace, t: float = 0.0) -> RobustnessResult:
    if t > trace.end:
        raise TruncationError("evaluation time %g past trace end %g" % (t, trace.end))
    return _rho(phi, trace, t)


def _rho(phi: StlFormula, trace: Trace, t: float) -> RobustnessResult:
    if isinstance(phi, STrue):
        return RobustnessResult(float("inf"), False)
    if isinstance(phi, Atom):
        return RobustnessResult(phi.margin(trace.value(phi.signal, t)), False)
    if isinstance(phi, SNot):
        r = _rho(phi.body, trace, t)
        return RobustnessResult(-r.value, r.truncated)
    if isinstance(phi, (SAnd, SOr)):
        if not phi.parts:
            v = float("inf") if isinstance(phi, SAnd) else float("-inf")
            return RobustnessResult(v, False)
        rs = [_rho(p, trace, t) for p in phi.parts]
        agg = min if isinstance(phi, SAnd) else max
        return RobustnessResult(agg(r.value for r in rs), any(r.truncated for r in rs))
    if isinstance(phi, (Eventually, Always)):
        lo, hi = t + phi.lo, t + phi.hi
        pts = trace.window_times(lo, hi)
        truncated = hi > trace.end
        rs = [_rho(phi.body, trace, u) for u in pts]
        agg = max if isinstance(phi, Eventually) else min
        return RobustnessResult(agg(r.value for r in rs),
                                truncated or any(r.truncated for r in rs))
    raise TypeError("unknown formula node %r" % (phi,))


def keyed_robustness(phi: StlFormula, trace: Trace, t: float = 0.0) -> RobustnessResult:
    if t > trace.end:
        raise TruncationError("evaluation time %g past trace end %g" % (t, trace.end))
    nodes = stl._compile(phi)
    try:
        demand, truncated = _demand(nodes, trace.times, t)
        values = _evaluate(nodes, demand, _atom_rows(nodes, demand, trace.times), trace)
    except StlError:
        stl._raise_first_error(nodes, trace, t)
        raise
    return RobustnessResult(values[-1][t], truncated)


def _demand(nodes, times, root_time):
    """Top-down pass: the times at which each node is needed, as the keys
    of one dict per node.  A window operator maps each of its times to
    the points of its window."""
    demand = [{} for _ in nodes]
    demand[-1][root_time] = None
    end = times[-1]
    truncated = False
    for node, asked in zip(reversed(nodes), reversed(demand)):
        kind = node[0]
        if kind in (stl._NOT, stl._AND, stl._OR):
            for c in node[1]:
                demand[c].update(asked)
        elif kind in (stl._EV, stl._ALW):
            _, lo, hi, body = node
            inner = demand[body]
            for u in asked:
                pts = asked[u] = stl._window_times(times, u + lo, u + hi)
                truncated = truncated or u + hi > end
                inner.update(dict.fromkeys(pts))
    return demand, truncated


def _atom_rows(nodes, demand, times):
    """For each atom, the sample row of each of its demanded times, or None
    when one of them precedes the first sample; None for other nodes."""
    out = []
    for node, asked in zip(nodes, demand):
        rows = None
        if node[0] == stl._ATOM:
            rows = [bisect.bisect_right(times, u) - 1 for u in asked]
            if min(rows) < 0:
                rows = None
        out.append(rows)
    return out


def _evaluate(nodes, demand, rows, trace):
    """Bottom-up pass: every node's robustness at each of its demanded
    times, as a dict from time to value."""
    inf = float("inf")
    values = []
    for node, asked, atom_rows in zip(nodes, demand, rows):
        kind = node[0]
        if kind == stl._ATOM:
            _, signal, comparator, threshold, _ = node
            samples = trace.signals.get(signal)
            if samples is None or atom_rows is None:
                raise StlError("atom on %r cannot be sampled" % signal)
            if comparator in (">", ">="):
                margins = [samples[i] - threshold for i in atom_rows]
            else:
                margins = [threshold - samples[i] for i in atom_rows]
            vals = dict(zip(asked, margins))
        elif kind == stl._NOT:
            body = values[node[1][0]]
            vals = {u: -body[u] for u in asked}
        elif kind in (stl._AND, stl._OR):
            parts = [values[c] for c in node[1]]
            if not parts:
                vals = dict.fromkeys(asked, inf if kind == stl._AND else -inf)
            else:
                agg = min if kind == stl._AND else max
                vals = {u: agg([p[u] for p in parts]) for u in asked}
        elif kind in (stl._EV, stl._ALW):
            body = values[node[3]]
            agg = max if kind == stl._EV else min
            vals = {u: agg([body[v] for v in pts]) for u, pts in asked.items()}
        else:  # stl._TRUE
            vals = dict.fromkeys(asked, inf)
        values.append(vals)
    return values
