"""Reference policy execution and round-trip check for differential tests.

`run_policy` is the sample-driven loop that `robovalid.sim.run_policy`
replaced: it walks the sample times, finalizes every operation whose
stroke has ended and interpolates the one in progress, capturing each
operation lazily the first time a sample reaches it.

`pair_signals` computes `dist_a_b` and `contain_a_b` with the nested
`max` calls that `robovalid.sim._pair_signals` replaced by conditional
expressions.

`check_roundtrip` is the check of a concrete state against chi(w0) that
`robovalid.sim.instantiate` made before it decided each literal
directly: it builds a one-sample trace of the state's signals and asks
`bool_sat` about every literal.

`instantiate` is the loop that `robovalid.sim.instantiate` replaced
when it took a plan of what the initial world and the scenario fix:
every call finds the parents, the support-first order, the door
intervals and the running flags again, computes every signal of q0 with
`signal_values`, and checks each literal of chi(w0) in turn
(`decide_literals`).
"""

import math
from dataclasses import dataclass
from typing import Optional

from robovalid.sim import (
    _DWELL, _GRASP_MIN_MARGIN, _JITTER_RADIUS, _OP_DURATION, _OPEN_TARGET_CAP,
    _CLOSE_TARGET, KNOB_NAMES, ConcreteState, InstantiationError, ScenarioSample,
    SimError, _descendants, box_dimension, signal_values,
)
from robovalid.stl import SNot, StlError, Trace, bool_sat, format_stl


def pair_signals(scn, state):
    out = {}
    for a, ga in scn.objects.items():
        ax, ay, az = state.positions[a]
        bottom = az - ga.height / 2.0
        for b, gb in scn.objects.items():
            bx, by, bz = state.positions[b]
            horiz = math.hypot(ax - bx, ay - by)
            out["dist_%s_%s" % (a, b)] = max(max(0.0, horiz - gb.support_radius),
                                             abs(bottom - (bz + gb.support_dz)))
            out["contain_%s_%s" % (a, b)] = max(horiz - gb.region_radius,
                                                (bz + gb.region_dzlo) - az,
                                                az - (bz + gb.region_dzhi))
    return out


def check_roundtrip(scn, chi_w0, state):
    trace = Trace((0.0,), {k: (v,) for k, v in signal_values(scn, state).items()})
    violated = [format_stl(lit) for lit in chi_w0.parts
                if not bool_sat(lit, trace, 0.0)]
    if violated:
        raise InstantiationError(
            "concrete state inconsistent with the abstract world: "
            + "; ".join(violated))


def _loc_parent(w0, obj):
    for (f, args) in w0.true_atoms:
        if f == "Loc" and args[0] == obj:
            return args[1]
    return None


def instantiate(w0, scn, chi_w0, sample):
    d = box_dimension(scn)
    if len(sample) != d:
        raise SimError("sample has dimension %d, expected %d" % (len(sample), d))
    if any(not (0.0 <= u <= 1.0) for u in sample):
        raise SimError("sample point outside the unit box")
    it = iter(sample)

    positions = {n: g.position for n, g in scn.objects.items() if g.fixed}
    parents = {m: _loc_parent(w0, m) for m in scn.movable()}

    def depth(m):
        k, cur = 0, parents[m]
        while cur in parents:
            if k == len(parents):
                raise InstantiationError("the Loc atoms of w0 form a cycle through %s" % m)
            k, cur = k + 1, parents[cur]
        return k

    placement = {m: (next(it), next(it)) for m in scn.movable()}
    for m in sorted(scn.movable(), key=lambda m: (depth(m), m)):
        u1, u2 = placement[m]
        p = parents[m]
        if p is None:
            raise InstantiationError("movable object %s has no location in w0" % m)
        gp = scn.objects[p]
        gm = scn.objects[m]
        if gp.fixed:
            zone = gp.zones.get(m)
            if zone is None:
                raise InstantiationError("surface %s has no placement zone for %s"
                                         % (p, m))
            r = gp.zone_radius * math.sqrt(u2)
            cx, cy = zone
            sz = gp.position[2] + gp.support_dz
        else:
            r = _JITTER_RADIUS * math.sqrt(u2)
            cx, cy, pz = positions[p]
            sz = pz + gp.support_dz
        ang = 2.0 * math.pi * u1
        positions[m] = (cx + r * math.cos(ang), cy + r * math.sin(ang),
                        sz + gm.height / 2.0)

    door_angles = {}
    for dname in scn.doors():
        u = next(it)
        g = scn.objects[dname]
        is_open = (dname, ) in {args for (f, args) in w0.true_atoms if f == "IsOpen"}
        lo, hi = g.door_open if is_open else g.door_closed
        door_angles[dname] = lo + u * (hi - lo)

    knobs = {}
    for knob in KNOB_NAMES:
        u = next(it)
        lo, hi = scn.policy_ranges[knob]
        knobs[knob] = lo + u * (hi - lo)

    running = {n: 0.0 for n in scn.objects}
    for (f, args) in w0.true_atoms:
        if f == "Running":
            running[args[0]] = 1.0

    q0 = ConcreteState(positions, door_angles, running, knobs)
    _check_workspace(scn, q0)
    return ScenarioSample(q0, tuple(sample), parents, decide_literals(scn, chi_w0, q0))


def _check_workspace(scn, state):
    for n, (x, y, z) in state.positions.items():
        for axis, v in (("x", x), ("y", y), ("z", z)):
            lo, hi = scn.workspace[axis]
            if not (lo <= v <= hi):
                raise InstantiationError("%s is outside the workspace on %s (%g)"
                                         % (n, axis, v))
    for n, ang in state.door_angles.items():
        if not (0.0 <= ang <= 180.0):
            raise InstantiationError("door angle of %s out of range: %g" % (n, ang))


def decide_literals(scn, chi_w0, state):
    values = signal_values(scn, state)
    violated = []
    for lit in chi_w0.parts:
        negated = isinstance(lit, SNot)
        atom = lit.body if negated else lit
        value = values.get(atom.signal)
        if value is None:
            raise StlError("unknown signal %r" % atom.signal)
        if atom.holds(value) == negated:
            violated.append(format_stl(lit))
    if violated:
        raise InstantiationError(
            "concrete state inconsistent with the abstract world: "
            + "; ".join(violated))
    return values


@dataclass
class _OpRun:
    op: object
    start: float
    end: float
    captured: Optional[dict] = None


def run_policy(scn, sample, ops, dt, horizon):
    if dt <= 0 or horizon < 0:
        raise SimError("dt must be positive and horizon nonnegative")
    knobs = sample.q0.knobs
    ts = knobs["timingScale"]
    schedule = []
    t = 0.0
    for op in ops:
        if op.name not in _OP_DURATION:
            raise SimError("no controller for operation %s" % op.name)
        dur = _OP_DURATION[op.name] * ts
        schedule.append(_OpRun(op, t, t + dur))
        t += dur + _DWELL * ts
    makespan = schedule[-1].end if schedule else 0.0
    truncated = horizon < makespan
    state = sample.q0.copy()
    parents = dict(sample.parents)

    def capture(run):
        if run.captured is not None:
            return
        op = run.op
        cap = {}
        if op.name == "put":
            obj, dest = op.args
            moved = [obj] + _descendants(parents, obj)
            cap["moved"] = {m: state.positions[m] for m in moved}
            gd, gm = scn.objects[dest], scn.objects[obj]
            if gd.fixed:
                zx, zy = gd.zones[obj]
                sz = gd.position[2] + gd.support_dz
            else:
                zx, zy, dz = state.positions[dest]
                sz = dz + gd.support_dz
            cap["target"] = (zx, zy, sz + gm.height / 2.0)
            cap["grasped"] = knobs["graspSuccessMargin"] >= _GRASP_MIN_MARGIN
        elif op.name in ("open", "close"):
            (obj,) = op.args
            if obj not in state.door_angles:
                raise SimError("%s has no door to %s" % (obj, op.name))
            cap["angle0"] = state.door_angles[obj]
            if op.name == "open":
                cap["target"] = min(_OPEN_TARGET_CAP, 180.0 * knobs["doorTorqueLimit"])
            else:
                cap["target"] = _CLOSE_TARGET
        run.captured = cap

    def apply(st, run, f, final):
        capture(run)
        op, cap = run.op, run.captured
        if op.name == "put":
            if not cap["grasped"]:
                return
            obj = op.args[0]
            x0, y0, z0 = cap["moved"][obj]
            tx, ty, tz = cap["target"]
            dx, dy, dz = f * (tx - x0), f * (ty - y0), f * (tz - z0)
            for m, (mx, my, mz) in cap["moved"].items():
                st.positions[m] = (mx + dx, my + dy, mz + dz)
            if final:
                parents[obj] = op.args[1]
        elif op.name in ("open", "close"):
            a0, target = cap["angle0"], cap["target"]
            st.door_angles[op.args[0]] = a0 + f * (target - a0)
        elif op.name == "turn_on" and f >= 1.0:
            st.running[op.args[0]] = 1.0

    times, rows = [], []
    idx = 0
    for i in range(int(math.floor(horizon / dt + 1e-9)) + 1):
        now = i * dt
        while idx < len(schedule) and now >= schedule[idx].end:
            apply(state, schedule[idx], 1.0, final=True)
            idx += 1
        snap = state
        if idx < len(schedule) and now >= schedule[idx].start:
            run = schedule[idx]
            snap = state.copy()
            apply(snap, run, min(1.0, max(0.0, (now - run.start) / (run.end - run.start))),
                  final=False)
        times.append(now)
        rows.append(signal_values(scn, snap))
    signals = {name: tuple(r[name] for r in rows) for name in rows[0]}
    return Trace(tuple(times), signals), truncated
