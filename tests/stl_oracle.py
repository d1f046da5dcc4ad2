"""Reference robustness evaluator for differential tests.

This is the direct recursive reading of the quantitative semantics that
`robovalid.stl.robustness` replaced: every subformula is re-evaluated at
every point of every enclosing window, so its cost grows with the product
of the window sizes along each nesting path.  Keep it for short traces
and shallow formulas only.
"""

from robovalid.stl import (
    Always, Atom, Eventually, RobustnessResult, SAnd, SNot, SOr, STrue,
    StlFormula, Trace, TruncationError,
)


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
