"""Reference robustness evaluators for differential tests.

`robustness` is the direct recursive reading of the quantitative
semantics that `robovalid.stl.robustness` replaced: every subformula is
re-evaluated at every point of every enclosing window, so its cost grows
with the product of the window sizes along each nesting path.  Keep it
for short traces and shallow formulas only.

`keyed_robustness` is the same recursion with each (node, time) pair
evaluated once and kept in a dict.  It stays linear, so it checks
`robovalid.stl.robustness` on the nested specs `synthesize` builds.

`checkpoint_bound` is the bound `robovalid.stl.checkpoint_bound`
computed before it read flat literal tables: it walks each checkpoint's
chi literal by literal.
"""

import math

from robovalid.stl import (
    Always, Atom, Eventually, RobustnessResult, SAnd, SNot, SOr, STrue,
    StlFormula, Trace, TruncationError,
)


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
    return _rho(phi, trace, t, None)


def keyed_robustness(phi: StlFormula, trace: Trace, t: float = 0.0) -> RobustnessResult:
    if t > trace.end:
        raise TruncationError("evaluation time %g past trace end %g" % (t, trace.end))
    return _rho(phi, trace, t, {})


def _rho(phi: StlFormula, trace: Trace, t: float, memo) -> RobustnessResult:
    """The robustness of `phi` at `t`.  With a dict for `memo`, each
    (node, time) pair is evaluated once.  A node is keyed by its identity:
    the formula keeps every node alive, and no formula is hashed."""
    if memo is None:
        return _semantics(phi, trace, t, None)
    r = memo.get((id(phi), t))
    if r is None:
        r = memo[id(phi), t] = _semantics(phi, trace, t, memo)
    return r


def _semantics(phi: StlFormula, trace: Trace, t: float, memo) -> RobustnessResult:
    if isinstance(phi, STrue):
        return RobustnessResult(float("inf"), False)
    if isinstance(phi, Atom):
        return RobustnessResult(phi.margin(trace.value(phi.signal, t)), False)
    if isinstance(phi, SNot):
        r = _rho(phi.body, trace, t, memo)
        return RobustnessResult(-r.value, r.truncated)
    if isinstance(phi, (SAnd, SOr)):
        if not phi.parts:
            v = float("inf") if isinstance(phi, SAnd) else float("-inf")
            return RobustnessResult(v, False)
        rs = [_rho(p, trace, t, memo) for p in phi.parts]
        agg = min if isinstance(phi, SAnd) else max
        return RobustnessResult(agg(r.value for r in rs), any(r.truncated for r in rs))
    if isinstance(phi, (Eventually, Always)):
        lo, hi = t + phi.lo, t + phi.hi
        pts = trace.window_times(lo, hi)
        truncated = hi > trace.end
        rs = [_rho(phi.body, trace, u, memo) for u in pts]
        agg = max if isinstance(phi, Eventually) else min
        return RobustnessResult(agg(r.value for r in rs),
                                truncated or any(r.truncated for r in rs))
    raise TypeError("unknown formula node %r" % (phi,))
