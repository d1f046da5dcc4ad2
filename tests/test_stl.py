import collections
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import stl_oracle
from robovalid import ctgen, sim, stl
from robovalid.stl import (
    Always, Atom, Eventually, PredicateMap, RobustnessResult, SAnd, SNot, SOr,
    STrue, StlError, Trace, TruncationError, bool_sat, checkpoint_bound, chi,
    format_stl, load_pmap, robustness, synthesize,
)
from robovalid.tasks import format_task, parse_task
from robovalid.theory import WorldState, progress


def mono_trace(*vals, step=1.0):
    times = tuple(i * step for i in range(len(vals)))
    return Trace(times, {"x": tuple(float(v) for v in vals)})


def test_constant_atom():
    assert robustness(Atom("x", ">", 0.0), mono_trace(5)).value == 5.0
    assert robustness(Atom("x", "<=", 2.0), mono_trace(5)).value == -3.0


def test_eventually_window_example():
    tr = mono_trace(-1, -1, 3)
    assert robustness(Eventually(0.0, 2.0, Atom("x", ">", 0.0)), tr).value == 3.0
    assert robustness(Always(0.0, 2.0, Atom("x", ">", 0.0)), tr).value == -1.0


def test_window_endpoint_sampling():
    # piecewise-constant: value on [1, 2) is -1, window [0.5, 1.5] sees both
    tr = mono_trace(4, -1, 7)
    r = robustness(Always(0.5, 1.5, Atom("x", ">", 0.0)), tr)
    assert r.value == -1.0
    r2 = robustness(Always(0.25, 0.75, Atom("x", ">", 0.0)), tr)
    assert r2.value == 4.0  # window strictly inside the first segment


def test_truncation_flag_and_error():
    tr = mono_trace(1, 1)
    r = robustness(Eventually(0.0, 5.0, Atom("x", ">", 0.0)), tr)
    assert r.truncated
    with pytest.raises(TruncationError):
        robustness(Eventually(2.0, 5.0, Atom("x", ">", 0.0)), tr)
    with pytest.raises(StlError):
        robustness(Atom("y", ">", 0.0), tr)


def test_a_window_needs_a_body():
    for window in (Eventually, Always):
        with pytest.raises(TypeError):
            window(0.0, 1.0)


def test_trace_csv_roundtrip():
    tr = Trace((0.0, 0.25, 0.5), {"a": (1.0, 2.0, 3.0), "b": (-1.5, 0.0, 2.25)})
    again = Trace.from_csv(tr.to_csv())
    assert again == tr
    assert tr.to_csv() == again.to_csv()


signal_values = st.lists(st.floats(-5, 5, allow_nan=False, width=32),
                         min_size=2, max_size=6)


@st.composite
def traces_(draw):
    vals = draw(signal_values)
    return mono_trace(*vals, step=0.5)


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return Atom("x", draw(st.sampled_from((">", ">=", "<", "<="))),
                    draw(st.floats(-3, 3, allow_nan=False, width=32)))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return SNot(draw(formulas(depth=depth - 1)))
    if kind == 1:
        return SAnd((draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))))
    if kind == 2:
        return SOr((draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))))
    lo = draw(st.floats(0, 1, allow_nan=False, width=16))
    hi = lo + draw(st.floats(0, 1.5, allow_nan=False, width=16))
    if kind == 3:
        return Eventually(lo, hi, draw(formulas(depth=depth - 1)))
    return Always(lo, hi, draw(formulas(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(traces_(), formulas())
def test_boolean_iff_nonnegative(tr, phi):
    try:
        rho = robustness(phi, tr).value
        sat = bool_sat(phi, tr)
    except TruncationError:
        return
    if rho != 0:  # zero robustness is the boundary, either answer is fine
        assert (rho >= 0) == sat


@settings(max_examples=200, deadline=None)
@given(traces_(), formulas(depth=1))
def test_always_eventually_duality(tr, phi):
    try:
        lhs = robustness(Always(0.0, 1.0, phi), tr).value
        rhs = robustness(SNot(Eventually(0.0, 1.0, SNot(phi))), tr).value
    except TruncationError:
        return
    assert lhs == rhs


def test_atom_monotone_in_margin():
    base = mono_trace(1, -2, 0.5)
    shifted = mono_trace(2, -1, 1.5)
    phi = Eventually(0.0, 2.0, Atom("x", ">", 0.0))
    assert robustness(phi, shifted).value == robustness(phi, base).value + 1.0


@st.composite
def timed_traces(draw, times=None):
    """Two signals over 1-7 samples with uneven steps, or over the given
    sample times.  Both zeros are common values, so zero margins of
    either sign tie inside windows."""
    if times is None:
        steps = draw(st.lists(st.sampled_from((0.25, 0.5, 1.0)), min_size=0, max_size=6))
        times = [0.0]
        for step in steps:
            times.append(times[-1] + step)
    values = st.one_of(st.sampled_from((0.0, -0.0, 1.0)),
                       st.floats(-4, 4, allow_nan=False, width=16))
    return Trace(tuple(times), {
        name: tuple(draw(st.lists(values, min_size=len(times), max_size=len(times))))
        for name in ("x", "y")})


@st.composite
def rich_formulas(draw, trace, depth=3):
    """Every formula node kind, windows with non-zero starts, empty
    conjunctions and disjunctions, and thresholds equal to trace samples.
    Rarely, an atom names a signal the trace does not have."""
    leaf = st.integers(0, 9) if depth == 0 else st.integers(0, 14)
    kind = draw(leaf)
    if kind == 0:
        return STrue()
    if kind <= 9:
        signal = draw(st.sampled_from(("x", "y", "x", "y", "x", "y", "z")))
        samples = trace.signals.get(signal, (0.0,))
        threshold = draw(st.one_of(st.sampled_from(samples),
                                   st.sampled_from((0.0, -0.0)),
                                   st.floats(-3, 3, allow_nan=False, width=16)))
        return Atom(signal, draw(st.sampled_from((">", ">=", "<", "<="))), threshold)
    sub = rich_formulas(trace, depth - 1)
    if kind == 10:
        return SNot(draw(sub))
    if kind in (11, 12):
        parts = tuple(draw(st.lists(sub, min_size=0, max_size=3)))
        return SAnd(parts) if kind == 11 else SOr(parts)
    lo = draw(st.sampled_from((0.0, 0.0, 0.25, 0.5, 0.7, 1.0)))
    hi = lo + draw(st.sampled_from((0.0, 0.3, 0.5, 1.0, 1.5, 2.5)))
    if kind == 13:
        return Eventually(lo, hi, draw(sub))
    return Always(lo, hi, draw(sub))


def _outcome(evaluate, phi, trace, t):
    """`float.hex` of the value and the truncation flag, or the raised
    error's type and text.  Hex tells 0.0 from -0.0, which `==` does not."""
    try:
        r = evaluate(phi, trace, t)
    except StlError as e:
        return type(e), str(e)
    return r.value.hex(), r.truncated


@settings(max_examples=1500, deadline=None)
@given(st.data())
def test_robustness_matches_recursive_oracle(data):
    tr = data.draw(timed_traces())
    phi = data.draw(rich_formulas(tr))
    t = data.draw(st.one_of(st.sampled_from(tr.times),
                            st.floats(-0.5, tr.end + 0.5, allow_nan=False)))
    got = _outcome(robustness, phi, tr, t)
    assert got == _outcome(stl_oracle.robustness, phi, tr, t)
    if isinstance(got[0], str):
        value = robustness(phi, tr, t).value
        if value != 0:  # zero robustness is the boundary, either answer is fine
            assert (value > 0) == bool_sat(phi, tr, t)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_monitor_matches_formula_and_oracle(data):
    """One monitor, built once, evaluates every trace with its sample times
    bit for bit as the formula does and as the recursive oracle does, or
    raises the same error; a trace with other times, or another
    evaluation time, is refused."""
    first = data.draw(timed_traces())
    traces = [first] + [data.draw(timed_traces(first.times)) for _ in range(3)]
    phi = data.draw(rich_formulas(first))
    t = data.draw(st.one_of(st.sampled_from(first.times),
                            st.floats(-0.5, first.end + 0.5, allow_nan=False)))
    try:
        monitor = stl.Monitor(phi, first.times, t)
    except StlError as e:
        for tr in traces:
            assert _outcome(robustness, phi, tr, t) == (type(e), str(e))
        return

    def monitored(_, trace, t):
        return robustness(monitor, trace, t)

    for tr in traces:
        got = _outcome(monitored, phi, tr, t)
        assert got == _outcome(robustness, phi, tr, t)
        assert got == _outcome(stl_oracle.robustness, phi, tr, t)
    longer = Trace(first.times + (first.end + 0.25,),
                   {name: vals + vals[-1:] for name, vals in first.signals.items()})
    shifted = Trace(tuple(u + 0.125 for u in first.times), first.signals)
    for other in (longer, shifted):
        with pytest.raises(StlError, match="monitor"):
            robustness(monitor, other, t)
    with pytest.raises(StlError, match="monitor"):
        robustness(monitor, first, t + 0.25)


def _same_number(a: float, b: float) -> bool:
    """Equal bit for bit: equal or both NaN, with the same sign of zero."""
    return (a == b or a != a and b != b) and math.copysign(1.0, a) == math.copysign(1.0, b)


def _node_tables_agree(phi, trace, t):
    """Build a monitor for `phi` and evaluate `trace` with it, then check
    every node's positional list against the keyed oracle's dict: the
    same demanded times and, at each, the same value bit for bit.  An
    evaluation that raises must raise the same error in both.  Returns
    the monitor, or None when it raised."""
    want = _outcome(stl_oracle.keyed_robustness, phi, trace, t)
    try:
        monitor = stl.Monitor(phi, trace.times, t)
        got = _outcome(robustness, monitor, trace, t)
    except StlError as e:
        got = type(e), str(e)
    assert got == want
    if not isinstance(want[0], str):
        return None
    nodes = stl._compile(phi)
    demand, _ = stl_oracle._demand(nodes, trace.times, t)
    keyed = stl_oracle._evaluate(nodes, demand,
                                 stl_oracle._atom_rows(nodes, demand, trace.times), trace)
    values = stl._evaluate(monitor.nodes, monitor.demand, monitor.plans, trace)
    for own, asked, by_time, vals in zip(monitor.demand, demand, keyed, values):
        assert own == list(asked) and len(vals) == len(own)
        assert all(_same_number(v, by_time[u]) for u, v in zip(own, vals))
    return monitor


def _shared(phi, lo, hi):
    """`phi` under a disjunction and under a later window: the window asks
    for `phi` first, at its points, and the disjunction then at its own
    time, so the disjunction and the negation gather `phi`'s values from
    a position that is not a prefix whenever `lo > 0`."""
    return SAnd((SOr((SNot(phi), phi)), Eventually(lo, hi, phi)))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_monitor_matches_keyed_oracle(data):
    """The positional monitor fills, for every node, the values the keyed
    evaluator keeps by time, over every node kind, windows that start
    after their evaluation time, empty conjunctions and disjunctions,
    shared subformulas asked for at more times than one of their
    parents, and evaluation times between or before the samples."""
    tr = data.draw(timed_traces())
    phi = data.draw(rich_formulas(tr))
    if data.draw(st.booleans()):
        phi = _shared(phi, data.draw(st.sampled_from((0.0, 0.25, 0.5))),
                      data.draw(st.sampled_from((0.5, 1.0, 2.0))))
    t = data.draw(st.one_of(st.sampled_from(tr.times),
                            st.floats(-0.5, tr.end + 0.5, allow_nan=False)))
    _node_tables_agree(phi, tr, t)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_shared_atom_gathers_the_parents_times(t):
    """An atom under a disjunction and under a later window over it is
    needed at the window's points first, then at the disjunction's time:
    the disjunction and the negation read it through a gather that is
    not a prefix, and the values agree with the keyed oracle."""
    tr = Trace((0.0, 0.5, 1.0, 1.5, 2.0), {"x": (1.0, -0.0, 0.0, -2.0, 3.0)})
    a = Atom("x", ">", 0.0)
    phi = SAnd((SOr((a, SNot(a))), Eventually(0.25, 1.0, a), SAnd(()), SNot(SOr(()))))
    monitor = _node_tables_agree(phi, tr, t)
    atom = monitor.nodes.index((stl._ATOM, "x", ">", 0.0, 1.0))
    last = [len(monitor.demand[atom]) - 1]
    assert last != [0] and monitor.demand[atom][-1] == t
    assert monitor.plans[atom + 1] == (last,)  # the negation
    assert monitor.plans[atom + 2] == (last, None)  # the disjunction


@pytest.mark.parametrize("wrap", [lambda c: SNot(c), lambda c: SAnd((c, STrue()))],
                         ids=("not", "and"))
def test_operand_times_in_another_order_are_gathered(wrap):
    """A node asked for at times 1 then 0, over an operand a window asked
    for at 0 then 1: the two lists hold the same times in another order,
    so the node still gathers its operand's values."""
    tr = Trace((0.0, 1.0, 2.0), {"x": (1.0, 5.0, -0.0)})
    c = Atom("x", ">", 0.0)
    p = wrap(c)
    phi = SAnd((Eventually(0.0, 0.0, p), Eventually(1.0, 1.0, p), Eventually(0.0, 1.0, c)))
    monitor = _node_tables_agree(phi, tr, 0.0)
    atom = monitor.nodes.index((stl._ATOM, "x", ">", 0.0, 1.0))
    node = next(i for i, n in enumerate(monitor.nodes) if n[0] in (stl._NOT, stl._AND))
    assert monitor.demand[atom] == [0.0, 1.0] and monitor.demand[node] == [1.0, 0.0]
    assert monitor.plans[node][0] == [1, 0]


@st.composite
def piecewise_traces(draw, times, signals):
    """Every signal constant between up to three random breakpoints, at
    values on and around its threshold in the kitchen predicate map, so
    margins of both signs and both zeros meet in the min and max."""
    rng = draw(st.randoms(use_true_random=False))
    pools = {"DoorAngle": (0.0, 79.5, 80.0, 80.5, 120.0), "running": (0.0, 0.5, 1.0),
             "dist": (-0.0, 0.0, 0.005, 0.01, 0.02), "contain": (-0.01, -0.0, 0.0, 0.01)}
    out = {}
    for name in sorted(signals):
        pool = pools[name.split("_", 1)[0]]
        cuts = sorted(rng.sample(range(1, len(times)), rng.randint(0, 3)))
        vals = []
        for lo, hi in zip([0] + cuts, cuts + [len(times)]):
            v = rng.choice(pool) if rng.random() < 0.8 else rng.uniform(-0.1, 0.1)
            vals.extend([v] * (hi - lo))
        out[name] = tuple(vals)
    return Trace(times, out)


def _signals(phi, out):
    """The signals the atoms of `phi` name, added to `out`."""
    if isinstance(phi, Atom):
        out.add(phi.signal)
    elif isinstance(phi, (SAnd, SOr)):
        for p in phi.parts:
            _signals(p, out)
    elif isinstance(phi, (SNot, Eventually, Always)):
        _signals(phi.body, out)
    return out


@pytest.fixture(scope="module")
def frozen_specs(frozen_configs, kitchen, pmap):
    return [(cfg, synthesize(cfg, kitchen, pmap, {})) for cfg in frozen_configs]


def test_spec_carries_chi_of_the_initial_world(frozen_specs, kitchen, pmap):
    for cfg, spec in frozen_specs:
        assert spec.initial.formula == chi(kitchen, cfg.initial_world, pmap)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_monitor_matches_keyed_oracle_on_synthesized_specs(frozen_specs, kitchen, pmap,
                                                           scenario, data):
    """The nested Eventually specs of the frozen depth-8 configurations,
    over traces sampled as `falsify` samples them: random piecewise-
    constant ones, or the simulator's from a random sample point, whose
    checkpoints hold with small margins.  Every node's values equal the
    keyed oracle's bit for bit.  The recursive oracle is exponential in
    the nesting of these specs."""
    cfg, spec = data.draw(st.sampled_from(frozen_specs))
    ops = list(spec.branches[0].ops)
    horizon = max(len(ops), 1) * spec.delta_t
    times = tuple(i * 0.25 for i in range(int(horizon / 0.25) + 1))
    tr = None
    if data.draw(st.booleans()):
        point = data.draw(st.tuples(*[st.floats(0, 1)] * sim.box_dimension(scenario)))
        try:
            sample = sim.instantiate(sim.InstantiationPlan(cfg.initial_world, scenario),
                                     spec.initial, point)
        except sim.InstantiationError:
            pass
        else:
            tr, _ = sim.run_policy(scenario, sample, ops, 0.25, horizon)
    if tr is None:
        tr = data.draw(piecewise_traces(times, _signals(spec.formula, set())))
    assert tr.times == times
    assert _node_tables_agree(spec.formula, tr, 0.0) is not None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_csv_text_roundtrip(data):
    """Reading a written trace and writing it again gives the same text,
    for infinities, NaN, both zeros, subnormals and finite values up to
    1e300 in magnitude.  Within ten significant digits of the largest
    float, `%.10g` rounds past it and the text reads back as infinity."""
    n = data.draw(st.integers(1, 6))
    dt = data.draw(st.sampled_from((0.05, 0.1, 0.25, 0.3, 0.7, 2.5)))
    names = data.draw(st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}",
                                             fullmatch=True),
                               max_size=4, unique=True))
    values = (st.floats(-1e300, 1e300)
              | st.sampled_from((0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan)))
    trace = Trace(tuple(i * dt for i in range(n)),
                  {name: tuple(data.draw(st.lists(values, min_size=n, max_size=n)))
                   for name in names})
    text = trace.to_csv()
    assert Trace.from_csv(text).to_csv() == text


ZERO_TIE_TRACES = [
    Trace((0.0, 1.0, 2.0), {"x": (0.0, -0.0, 0.0), "y": (5.0, 5.0, 5.0)}),
    Trace((0.0, 1.0, 2.0), {"x": (-0.0, 0.0, -0.0), "y": (5.0, 5.0, 5.0)}),
]
ZERO_TIE_FORMULAS = [
    Eventually(0.0, 1.0, SNot(Atom("x", ">", 0.0))),
    Always(0.0, 1.0, Atom("x", "<", 0.0)),
    SAnd((Atom("x", ">", 0.0), SNot(Atom("x", ">", 0.0)))),
    SOr((SNot(Atom("x", ">=", 0.0)), Atom("x", "<=", -0.0))),
    # the two atoms differ only in the sign of their zero threshold
    SOr((SAnd((Atom("x", ">", -0.0), Atom("y", ">", 100.0))), Atom("x", ">", 0.0))),
]


@pytest.mark.parametrize("phi", ZERO_TIE_FORMULAS, ids=format_stl)
@pytest.mark.parametrize("tr", ZERO_TIE_TRACES, ids=("pos-first", "neg-first"))
def test_signed_zero_ties_match_oracle(phi, tr):
    # min and max keep the earlier of 0.0 and -0.0, which compare equal
    for t in (0.0, 1.0):
        assert _outcome(robustness, phi, tr, t) == \
            _outcome(stl_oracle.robustness, phi, tr, t)


# few distinct values, so margins tie, zeros of both signs meet and NaN
# stands among them
_RUN_VALUES = st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, math.nan))


@st.composite
def columns(draw, n):
    """A column of `n` samples, most often wholly constant in one of the
    ways the monitor must tell apart: one repeated object, one value in
    distinct float objects, zeros of one sign or both, or NaN."""
    kind = draw(st.sampled_from(("object", "objects", "zero", "negzero", "zeros",
                                 "nans", "varying", "varying")))
    if kind == "object":
        return (draw(_RUN_VALUES),) * n
    if kind == "objects":  # equal values, each sample its own float object
        v = draw(_RUN_VALUES)
        return tuple(float.fromhex(v.hex()) for _ in range(n))
    if kind == "zero":
        return tuple(float.fromhex("0x0p+0") for _ in range(n))
    if kind == "negzero":
        return (-0.0,) * n
    if kind == "zeros":
        return tuple(draw(st.lists(st.sampled_from((0.0, -0.0)), min_size=n, max_size=n)))
    if kind == "nans":  # NaN objects, none equal to another
        return tuple(float("nan") for _ in range(n))
    return tuple(draw(st.lists(_RUN_VALUES | st.floats(-4, 4, allow_nan=False, width=16),
                               min_size=n, max_size=n)))


@st.composite
def constant_traces(draw):
    """The sample times of `timed_traces`, with columns x, y, u, v and w
    from `columns`."""
    times = draw(timed_traces()).times
    return Trace(times, {name: draw(columns(len(times))) for name in "xyuvw"})


@st.composite
def mixed_formulas(draw, trace):
    """An and or or node over two to seven operands on the trace's columns:
    atoms, their negations and windows over them, so constant and
    varying operands meet in one node.  It may sit under a window, or
    be an operand of a formula from `rich_formulas`."""
    parts = []
    for _ in range(draw(st.integers(2, 7))):
        name = draw(st.sampled_from(sorted(trace.signals)))
        threshold = draw(st.sampled_from((0.0, -0.0, 0.5)))
        atom = Atom(name, draw(st.sampled_from((">", ">=", "<", "<="))), threshold)
        wrap = draw(st.sampled_from((None, None, SNot, Eventually, Always)))
        if wrap is SNot:
            atom = SNot(atom)
        elif wrap is not None:
            atom = wrap(draw(st.sampled_from((0.0, 0.25))), 1.0, atom)
        parts.append(atom)
    phi = (SAnd if draw(st.booleans()) else SOr)(tuple(parts))
    outer = draw(st.integers(0, 2))
    if outer == 1:
        phi = Eventually(0.0, 1.5, phi)
    elif outer == 2:
        phi = SOr((phi, draw(rich_formulas(trace, depth=2))))
    return phi


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_constant_runs_match_keyed_oracle(data):
    """Traces whose columns are mostly constant runs: every node's values
    equal the keyed oracle's bit for bit, whether the monitor takes a
    column as constant or not, and where and and or nodes fold constant
    operands among varying ones."""
    tr = data.draw(constant_traces())
    phi = data.draw(st.one_of(mixed_formulas(tr), rich_formulas(tr)))
    t = data.draw(st.one_of(st.sampled_from(tr.times),
                            st.floats(-0.5, tr.end + 0.5, allow_nan=False)))
    _node_tables_agree(phi, tr, t)


# Operands whose constant ones, folded before the varying one, would
# change the bits.  In the first conjunction a zero fold (-0.0, from 1.0
# and -0.0) would win the tie with the varying 0.0 that comes first; in
# the second, a NaN fold (from NaN and 0.5) would hide the 0.5 behind
# the varying 1.0.  The disjunctions mirror them.
FOLD_TRACE = Trace((0.0, 1.0), {"one": (1.0, 1.0), "negzero": (-0.0, -0.0),
                                "nan": (math.nan, math.nan), "half": (0.5, 0.5),
                                "x": (0.0, 2.0), "y": (1.0, 2.0)})
FOLD_FORMULAS = [
    SAnd((Atom("one", ">", 0.0), Atom("x", ">", 0.0), Atom("negzero", ">", 0.0))),
    SOr((SNot(Atom("one", ">", 0.0)), SNot(Atom("x", "<", 0.0)),
         Atom("negzero", "<", -0.0))),
    SAnd((Atom("y", ">", 0.0), Atom("nan", ">", 0.0), Atom("half", ">", 0.0))),
    SOr((SNot(Atom("y", ">", 0.0)), Atom("nan", ">", 0.0), SNot(Atom("half", ">", 0.0)))),
]


@pytest.mark.parametrize("phi", FOLD_FORMULAS, ids=format_stl)
def test_zero_and_nan_folds_are_not_made(phi):
    assert _node_tables_agree(Always(0.0, 1.0, phi), FOLD_TRACE, 0.0) is not None


class _CountedColumn(tuple):
    """A trace column that counts the samples read from it by index."""

    def __getitem__(self, i):
        self.reads = getattr(self, "reads", 0) + 1
        return tuple.__getitem__(self, i)


def test_constant_column_is_read_once():
    """An atom over a constant column reads its first sample only, at any
    number of demanded times; over a varying one it reads that sample and
    then one per demanded time."""
    times = tuple(i * 0.25 for i in range(41))
    flat = _CountedColumn((0.5,) * len(times))
    moving = _CountedColumn(float(i) for i in range(len(times)))
    trace = Trace(times, {"x": flat, "y": moving})
    phi = Always(0.0, 10.0, SAnd((Atom("x", ">", 0.0), Atom("y", ">", -1.0))))
    assert robustness(stl.Monitor(phi, times), trace).value == 0.5
    assert flat.reads == 1
    assert moving.reads == 1 + len(times)


def test_constant_operands_fold_into_one(monkeypatch):
    """An and node over five constant atoms and a varying one takes its
    minimum over two operands at each time, the folded constants and the
    varying atom, and still gives the oracle's value."""
    arities = []

    def counted_min(*args, **kwargs):
        arities.append(len(args))
        return min(*args, **kwargs)

    times = (0.0, 1.0, 2.0)
    signals = {"s%d" % j: (float(j),) * 3 for j in range(5)}
    signals["x"] = (3.0, 0.5, 2.0)
    trace = Trace(times, signals)
    phi = Always(0.0, 2.0, SAnd(tuple(Atom(name, ">", -1.0) for name in sorted(signals))))
    monitor = stl.Monitor(phi, times)
    monkeypatch.setattr(stl, "min", counted_min, raising=False)
    got = robustness(monitor, trace)
    assert got == stl_oracle.robustness(phi, trace) == RobustnessResult(1.0, False)
    assert max(arities) == 2


def test_nested_eventually_is_not_exponential():
    # Six nested checkpoints of 21 literals each, as `synthesize` builds them,
    # over a 121-sample ramp.  Re-walking every window would visit the
    # innermost checkpoint about 21**6 = 8.6e7 times.
    times = tuple(i * 0.25 for i in range(121))
    signals = {"x": times}
    signals.update({"s%d" % j: (float(j),) * len(times) for j in range(10)})
    trace = Trace(times, signals)
    slack = [1.0 + k / 4 for k in range(1, 7)]  # margin of checkpoint k at 5k
    phi = None
    for k in range(6, 0, -1):
        literals = [Atom("x", ">=", 5.0 * k - slack[k - 1])]
        for j in range(10):
            literals.append(Atom("s%d" % j, ">", j - 2.0))
            literals.append(SNot(Atom("s%d" % j, ">", j + 3.0)))
        chi_k = SAnd(tuple(literals))
        phi = Eventually(0.0, 5.0, chi_k if phi is None else SAnd((chi_k, phi)))
    # x only grows, so every window is best at its end: checkpoint k at 5k;
    # the constant literals keep margins 2 and 3
    r = robustness(phi, trace)
    assert r == RobustnessResult(min(min(slack), 2.0), False)
    assert bool_sat(phi, trace)


def test_chi_literal_count(kitchen, kitchen_worlds, pmap):
    # one literal per ground fluent instance: 4+4 unary, 16+16 binary
    for w in kitchen_worlds:
        f = chi(kitchen, w, pmap)
        assert len(f.parts) == 40


def test_chi_polarity(kitchen, kitchen_worlds, pmap):
    w = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) in w.true_atoms)
    text = format_stl(chi(kitchen, w, pmap))
    assert "(> DoorAngle_o_m 80)" in text
    assert "(not (> DoorAngle_o_m 80))" not in text


def test_chi_unmapped_family(kitchen, kitchen_worlds):
    empty = stl.PredicateMap({}, 1.0)
    with pytest.raises(stl.SynthesisError):
        chi(kitchen, kitchen_worlds[0], empty)


def test_synthesize_single_op(kitchen, kitchen_grammar, pmap):
    from robovalid import ctgen
    model = ctgen.build_model(kitchen, kitchen_grammar, 4, 1)
    rows = sorted(ctgen.enumerate_valid(model))
    cfg = ctgen.realize_configuration(model, rows[0])
    res = synthesize(cfg, kitchen, pmap, {})
    assert len(res.branches) == 1
    assert isinstance(res.formula, Eventually)
    assert res.formula.lo == 0.0 and res.formula.hi == pmap.delta_t


def test_synthesize_checkpoints_match_progress(kitchen, kitchen_grammar, pmap):
    from robovalid import ctgen
    model = ctgen.build_model(kitchen, kitchen_grammar, 6, 1)
    rows = sorted(ctgen.enumerate_valid(model))
    for row in rows[:10]:
        cfg = ctgen.realize_configuration(model, row)
        res = synthesize(cfg, kitchen, pmap, {})
        for br in res.branches:
            state = cfg.initial_world
            for ck, op in zip(br.checkpoints, br.ops):
                state = progress(kitchen, state, op)
                assert ck.formula == chi(kitchen, state, pmap)


BOUND_TASKS = ["open(o_m)", "put(o_p,o_t)", "[close(o_m) ; turn_on(o_m)]",
               "[put(o_b,o_p) ; put(o_p,o_t)]", "[open(o_m) | put(o_b,o_p)]"]


@pytest.mark.parametrize("delta_t", [5.0, 1.9, 0.1])
def test_checkpoint_bound_never_exceeds_the_monitor(kitchen, kitchen_worlds, scenario,
                                                    pmap, delta_t):
    """At seeded random points, with timingScale 0.5, 1.0 and 2.0, the
    bound from `sim.checkpoint_rows` never exceeds the robustness of the
    whole spec, over 1- and 2-operation tasks, a put that carries an
    object and a task with a choice, whose spec is an `SOr`.  At 1.9 s
    the monitor truncates and a 2 s close overruns its window, where
    there is no bound; at 0.1 s, as in `test_truncated_never_falsified`,
    no operation ends within the horizon."""
    rng = random.Random(delta_t)
    seen = collections.Counter()
    for text in BOUND_TASKS:
        task = parse_task(text, kitchen)
        for w in kitchen_worlds:
            try:
                spec = synthesize(ctgen.Configuration(w, task, ()), kitchen,
                                  PredicateMap(pmap.templates, delta_t), {})
            except StlError:
                continue
            ops = list(spec.branches[0].ops)
            horizon = max(len(ops), 1) * delta_t
            for ts in (0.5, 1.0, 2.0):
                scn = sim.Scenario(scenario.objects, scenario.workspace,
                                   dict(scenario.policy_ranges, timingScale=(ts, ts)))
                for _ in range(4):
                    point = tuple(rng.random() for _ in range(sim.box_dimension(scn)))
                    try:
                        sample = sim.instantiate(sim.InstantiationPlan(w, scn),
                                                 spec.initial, point)
                    except sim.InstantiationError:
                        continue
                    trace, _ = sim.run_policy(scn, sample, ops, 0.25, horizon)
                    r = robustness(spec.formula, trace)
                    rows = sim.checkpoint_rows(scn, sample, ops, 0.25, horizon)
                    bound = None if rows is None else checkpoint_bound(spec, trace.times, rows)
                    if bound is None:
                        seen["no rows" if rows is None else "no bound"] += 1
                        continue
                    assert bound <= r.value
                    seen["bound"] += 1
                    seen["or"] += isinstance(spec.formula, SOr)
                    seen["truncated"] += r.truncated
    want = {5.0: ("bound", "or"), 1.9: ("bound", "truncated", "no bound"),
            0.1: ("no rows",)}[delta_t]
    assert all(seen[k] for k in want), seen
    assert delta_t != 0.1 or set(seen) == {"no rows"}, seen


def test_checkpoint_bound_of_a_nan_margin_is_none(kitchen, kitchen_worlds, scenario, pmap):
    """`min` and `max` do not order NaN, so a NaN margin gives no bound."""
    w = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) not in w.true_atoms)
    spec = synthesize(ctgen.Configuration(w, parse_task("open(o_m)", kitchen), ()),
                      kitchen, pmap, {})
    sample = sim.instantiate(sim.InstantiationPlan(w, scenario), spec.initial,
                             (0.5,) * sim.box_dimension(scenario))
    ops = list(spec.branches[0].ops)
    trace, _ = sim.run_policy(scenario, sample, ops, 0.25, 5.0)
    rows = sim.checkpoint_rows(scenario, sample, ops, 0.25, 5.0)
    assert checkpoint_bound(spec, trace.times, rows) > 0
    (i, signals), = rows
    assert checkpoint_bound(spec, trace.times, [(i, dict(signals, running_o_b=math.nan))]) \
        is None


def test_pmap_parse_errors(tmp_path):
    p = tmp_path / "bad.pmap"
    p.write_text("pmap: F(a) := sig_{a} > 1\n")  # no deltat
    with pytest.raises(StlError):
        load_pmap(p)
    p.write_text("deltat: 1\npmap: F(a) := sig_{a} ~ 1\n")
    with pytest.raises(StlError):
        load_pmap(p)


def _hex_or_none(x):
    return None if x is None else x.hex()


@pytest.mark.parametrize("ranges", ["healthy", "knobs"])
def test_checkpoint_bound_matches_the_literal_walk_oracle(frozen_configs, kitchen, scenario,
                                                          pmap, ranges):
    """The bound read from the checkpoints' literal tables equals the one
    that walks each checkpoint's chi literal by literal, bit for bit, or
    both are None: for the 52 frozen configurations at seeded random
    points, healthy or with every knob over its legal range, at the
    checkpoint rows as `falsify` takes them; with some signals set to
    their literals' thresholds, so that margins of 0.0 and -0.0 tie and
    only the literals' order decides the sign of the bound; and with a
    NaN signal."""
    scn = scenario if ranges == "healthy" else sim.Scenario(
        scenario.objects, scenario.workspace, dict(sim.KNOB_LEGAL))
    rng = random.Random(17)
    tables: dict = {}
    seen = collections.Counter()
    for cfg in frozen_configs:
        spec = synthesize(cfg, kitchen, pmap, tables)
        ops = list(spec.branches[0].ops)
        horizon = max(len(ops), 1) * spec.delta_t
        plan = sim.InstantiationPlan(cfg.initial_world, scn)
        for _ in range(4):
            point = tuple(rng.random() for _ in range(plan.dimension))
            try:
                sample = sim.instantiate(plan, spec.initial, point)
            except sim.InstantiationError:
                continue
            rows = sim.checkpoint_rows(scn, sample, ops, 0.25, horizon)
            if rows is None:
                seen["no rows"] += 1
                continue
            times = sim.run_policy(scn, sample, ops, 0.25, horizon)[0].times
            tied = []
            for table, (i, signals) in zip(spec.branches[0].checkpoints, rows):
                signals = dict(signals)
                for signal, threshold, _, _ in rng.sample(table.rows, 3):
                    signals[signal] = threshold
                tied.append((i, signals))
            i, signals = rows[-1]
            nan = rows[:-1] + [(i, dict(signals, **{rng.choice(list(signals)): math.nan}))]
            for case in (rows, tied, nan):
                got = _hex_or_none(checkpoint_bound(spec, times, case))
                assert got == _hex_or_none(stl_oracle.checkpoint_bound(spec, times, case))
                seen[got if got in (None, "0x0.0p+0", "-0x0.0p+0") else "bound"] += 1
    assert set(seen) >= {"bound", None, "0x0.0p+0", "-0x0.0p+0"}, seen


def _plan_outcome(plan, phi, times, t):
    """The demanded times, plans and truncation flag of `plan`, or the
    error it raises."""
    try:
        return plan(stl._compile(phi), times, t)
    except StlError as e:
        return type(e), str(e)


def _monitor_plan(nodes, times, t):
    """The monitor's demanded times, plans and truncation flag; lists of
    equal times must be one object."""
    lists, plans, truncated = stl._plan(nodes, times, t)
    assert len({id(own) for own in lists}) == len({tuple(own) for own in lists})
    return lists, plans, truncated


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_monitor_plans_match_the_per_node_oracle(data):
    """Sharing one list and one position map among the nodes demanded at
    the same times changes no demanded time, no plan and no truncation
    flag, and raises the same error, over the random formulas and
    traces of `test_monitor_matches_keyed_oracle`."""
    tr = data.draw(timed_traces())
    phi = data.draw(rich_formulas(tr))
    if data.draw(st.booleans()):
        phi = _shared(phi, data.draw(st.sampled_from((0.0, 0.25, 0.5))),
                      data.draw(st.sampled_from((0.5, 1.0, 2.0))))
    t = data.draw(st.one_of(st.sampled_from(tr.times),
                            st.floats(-0.5, tr.end + 0.5, allow_nan=False)))
    assert _plan_outcome(_monitor_plan, phi, tr.times, t) == \
        _plan_outcome(stl_oracle.plan, phi, tr.times, t)


@pytest.mark.parametrize("delta_t", [5.0, 1.9, 0.1])
def test_monitor_plans_of_synthesized_specs_match_the_per_node_oracle(
        frozen_configs, kitchen, pmap, delta_t):
    """The same on the nested specs of the 52 frozen configurations, at the
    sample times `falsify` monitors them at, with windows that end past
    the trace at the shorter `deltat`s.  Nodes share far fewer lists
    than there are nodes."""
    wide = PredicateMap(pmap.templates, delta_t)
    tables: dict = {}
    for cfg in frozen_configs:
        spec = synthesize(cfg, kitchen, wide, tables)
        horizon = max(len(spec.branches[0].ops), 1) * delta_t
        times = tuple(i * 0.25 for i in range(int(math.floor(horizon / 0.25 + 1e-9)) + 1))
        monitor = stl.Monitor(spec.formula, times)
        want = stl_oracle.plan(monitor.nodes, times, 0.0)
        assert (monitor.demand, monitor.plans, monitor.truncated) == want
        assert len({id(own) for own in monitor.demand}) <= len(monitor.nodes) // 4


def test_synthesize_builds_chi_of_each_state_once_per_table_dict(frozen_configs, kitchen,
                                                                pmap, monkeypatch):
    """A dict of chi tables shared by the configurations of a campaign
    builds chi of each distinct state once, and its literal table with
    it: equal tables of the specs are one object."""
    built = collections.Counter()
    real = stl.chi

    def counting(theory, state, pmap):
        built[state.true_atoms] += 1
        return real(theory, state, pmap)

    monkeypatch.setattr(stl, "chi", counting)
    tables: dict = {}
    seen: dict = {}
    for cfg in frozen_configs:
        spec = synthesize(cfg, kitchen, pmap, tables)
        for table in (spec.initial,) + tuple(t for br in spec.branches for t in br.checkpoints):
            assert seen.setdefault(table, table) is table
    assert len(built) > 12 and set(built.values()) == {1}
    assert set(built) == set(tables)


def test_chi_built_for_another_pmap_is_never_served(frozen_configs, kitchen, pmap):
    """Two predicate maps, here two thresholds for Loc, each with its own
    dict of chi tables, share the theory's forward-execution caches: every
    spec, with its literal tables, equals one synthesized with fresh
    tables, and reads its own map's threshold."""
    loc = pmap.templates["Loc"]
    other = PredicateMap(dict(pmap.templates, Loc=stl.PredicateTemplate(
        loc.family, loc.params, loc.signal_template, loc.comparator, 0.02)), pmap.delta_t)
    own, others = {}, {}
    for cfg in frozen_configs[:13]:
        for m, tables in ((pmap, own), (other, others), (pmap, own)):
            spec = synthesize(cfg, kitchen, m, tables)
            fresh = synthesize(cfg, kitchen, m, {})
            assert spec == fresh
            assert spec.initial.rows == fresh.initial.rows
            assert [[t.rows for t in br.checkpoints] for br in spec.branches] == \
                [[t.rows for t in br.checkpoints] for br in fresh.branches]
            assert any(row[1] == loc.threshold * (2 if m is other else 1)
                       for row in spec.initial.rows)


_TABLE_SIGNALS = ("a", "b", "c")
_TABLE_THRESHOLDS = (0.0, -0.0, 0.5, -1.25)
_table_literals = st.tuples(
    st.sampled_from(_TABLE_SIGNALS), st.sampled_from((">", ">=", "<", "<=")),
    st.one_of(st.sampled_from(_TABLE_THRESHOLDS),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.booleans())
_table_values = st.one_of(st.sampled_from(_TABLE_THRESHOLDS + (math.nan,)),
                          st.floats(allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(st.lists(_table_literals, max_size=8),
       st.fixed_dictionaries({s: _table_values for s in _TABLE_SIGNALS}),
       st.sampled_from(_TABLE_SIGNALS))
@example([], {"a": 0.0, "b": 0.0, "c": 0.0}, "a")
@example([("a", ">=", 0.0, False), ("b", "<", -0.0, True)],
         {"a": 0.0, "b": -0.0, "c": 0.0}, "c")
@example([("a", "<", 0.5, False), ("b", ">", 0.0, True)],
         {"a": 0.0, "b": math.nan, "c": 0.0}, "b")
def test_literal_table_decides_in_literal_order(literals, values, dropped):
    """A literal table reads its literals in order: its least margin is
    `min` over each literal's `Atom.margin`, negated for an `SNot`, in
    the conjunction's order, bit for bit and zero's sign included, or
    None when some margin is NaN, and +inf for the empty table; it holds
    exactly when every literal's `Atom.holds` differs from its negation,
    and not when `values` lacks one of its signals.  Over every
    comparator and sign, thresholds and values of 0.0 and -0.0, values
    equal to the thresholds, and NaN."""
    atoms = [(Atom(signal, comparator, threshold), negated)
             for signal, comparator, threshold, negated in literals]
    table = stl.LiteralTable(SAnd(tuple(SNot(a) if n else a for a, n in atoms)))
    margins = [-a.margin(values[a.signal]) if n else a.margin(values[a.signal])
               for a, n in atoms]
    least = None if any(map(math.isnan, margins)) else min(margins, default=math.inf)
    assert _hex_or_none(table.least_margin(values)) == _hex_or_none(least)
    assert table.holds(values) == all(a.holds(values[a.signal]) != n for a, n in atoms)
    partial = {s: v for s, v in values.items() if s != dropped}
    lacks = any(a.signal == dropped for a, _ in atoms)
    assert table.holds(partial) == (not lacks and table.holds(values))
