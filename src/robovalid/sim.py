"""Deterministic toy kitchen: concrete state, abstract-to-concrete
instantiation, scripted kinematic controllers with fault knobs, and
fixed-rate trace emission.

Everything is closed-form kinematics driven by a sample point in the unit
box, so identical inputs give byte-identical traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .record import Record
from .stl import LiteralTable, SNot, StlError, Trace, format_stl
from .theory import GroundOp, WorldState


class SimError(Exception):
    pass


class InstantiationError(SimError):
    """The sampled concrete state cannot satisfy the abstract world."""


KNOB_NAMES = ("doorTorqueLimit", "graspSuccessMargin", "timingScale")
KNOB_LEGAL = {"doorTorqueLimit": (0.0, 2.0),
              "graspSuccessMargin": (0.0, 0.05),
              "timingScale": (0.5, 2.0)}

# controller timing (seconds at timingScale 1)
_OP_DURATION = {"put": 3.0, "open": 2.0, "close": 2.0, "turn_on": 1.0}
_DWELL = 0.5
_OPEN_TARGET_CAP = 120.0
_CLOSE_TARGET = 0.3
_GRASP_MIN_MARGIN = 0.004
_JITTER_RADIUS = 0.008


# ---------------------------------------------------------------------------
# Scenario geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)  # a dataclass: its fields have defaults
class ObjectGeometry:
    name: str
    fixed: bool
    height: float
    support_radius: float
    support_dz: float
    region_radius: float
    region_dzlo: float
    region_dzhi: float
    position: Optional[tuple[float, float, float]] = None  # fixed objects only
    zones: dict[str, tuple[float, float]] = field(default_factory=dict)
    zone_radius: float = 0.0
    door_closed: Optional[tuple[float, float]] = None
    door_open: Optional[tuple[float, float]] = None

    @property
    def has_door(self) -> bool:
        return self.door_closed is not None


class Scenario(Record):
    objects: dict[str, ObjectGeometry]
    workspace: dict[str, tuple[float, float]]
    policy_ranges: dict[str, tuple[float, float]]

    def movable(self) -> list[str]:
        return sorted(n for n, g in self.objects.items() if not g.fixed)

    def doors(self) -> list[str]:
        return sorted(n for n, g in self.objects.items() if g.has_door)

    def __post_init__(self):
        # not a field, so equality, hash and repr ignore it; stored here,
        # with the fields, so reading a field stays a plain attribute load
        object.__setattr__(self, "pairs", _pair_table(self.objects))


def _pair_table(objects: dict[str, ObjectGeometry]) -> dict[str, tuple[float, dict[str, tuple]]]:
    """A scenario's `pairs`: for each object a, half its height, and for
    each object b the keys of `dist_a_b` and `contain_a_b` with b's
    support and region geometry."""
    return {a: (ga.height / 2.0,
                {b: ("dist_%s_%s" % (a, b), "contain_%s_%s" % (a, b),
                     gb.support_radius, gb.support_dz, gb.region_radius,
                     gb.region_dzlo, gb.region_dzhi)
                 for b, gb in objects.items()})
            for a, ga in objects.items()}


def load_scenario(path) -> Scenario:
    """The scenario of a JSON file; bad JSON, a missing or unknown key, a
    value of the wrong type, a door range outside [0, 180] degrees or a
    zone for an object that is not movable is a SimError naming the
    file."""
    try:
        with open(path) as f:
            return _scenario(json.load(f))
    except KeyError as exc:
        raise SimError("%s: missing key %s" % (path, exc)) from exc
    except (ValueError, TypeError, AttributeError, SimError) as exc:
        raise SimError("%s: %s" % (path, exc)) from exc


def _number(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):  # not bool
        raise SimError("expected a finite number, got %r" % (value,))
    return value


def _numbers(value, n: int) -> tuple[float, ...]:
    if not isinstance(value, list) or len(value) != n:
        raise SimError("expected a list of %d numbers, got %r" % (n, value))
    return tuple(_number(v) for v in value)


def _known(raw: dict, keys: tuple[str, ...], where: str) -> dict:
    """`raw`, whose keys must be among `keys`: a misspelt optional key
    would otherwise read as its default."""
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise SimError("unknown key %r in %s" % (unknown[0], where))
    return raw


_OBJECT_KEYS = ("fixed", "position", "height", "support", "region", "zones",
                "zone_radius", "door")


def _scenario(raw: dict) -> Scenario:
    _known(raw, ("workspace", "objects", "policy"), "the scenario")
    objects = {}
    for name, o in raw["objects"].items():
        where = "object %s" % name
        _known(o, _OBJECT_KEYS, where)
        support = _known(o["support"], ("radius", "dz"), "the support of " + where)
        region = _known(o["region"], ("radius", "dzlo", "dzhi"), "the region of " + where)
        door = o.get("door")
        if door is not None:
            _known(door, ("closed", "open"), "the door of " + where)
        if not isinstance(o["fixed"], bool):
            raise SimError("fixed of %s must be true or false" % name)
        objects[name] = ObjectGeometry(
            name=name,
            fixed=o["fixed"],
            height=_number(o["height"]),
            support_radius=_number(support["radius"]),
            support_dz=_number(support["dz"]),
            region_radius=_number(region["radius"]),
            region_dzlo=_number(region["dzlo"]),
            region_dzhi=_number(region["dzhi"]),
            position=_numbers(o["position"], 3) if "position" in o else None,
            zones={k: _numbers(v, 2) for k, v in o.get("zones", {}).items()},
            zone_radius=_number(o.get("zone_radius", 0.0)),
            door_closed=_door_range(door, "closed", where) if door is not None else None,
            door_open=_door_range(door, "open", where) if door is not None else None,
        )
        if objects[name].fixed and objects[name].position is None:
            raise SimError("fixed object %s needs a position" % name)
    for name, g in objects.items():
        for m in sorted(g.zones):
            if m not in objects or objects[m].fixed:
                raise SimError("zone of %s for %s, which is not a movable object"
                               % (name, m))
    ranges = {}
    policy = _known(raw["policy"], KNOB_NAMES, "the policy")
    for knob in KNOB_NAMES:
        lo, hi = _numbers(policy[knob], 2)
        check_knob_range(knob, lo, hi)
        ranges[knob] = (lo, hi)
    workspace = _known(raw["workspace"], ("x", "y", "z"), "the workspace")
    return Scenario(objects, {axis: _numbers(workspace[axis], 2) for axis in "xyz"},
                    ranges)


def _door_range(door: dict, key: str, where: str) -> tuple[float, float]:
    """A door's `closed` or `open` angles, an ordered range within [0, 180]
    degrees: `instantiate` finds every angle outside it infeasible."""
    lo, hi = _numbers(door[key], 2)
    if not 0.0 <= lo <= hi <= 180.0:
        raise SimError("door %s of %s [%g, %g] is not an ordered range within [0, 180]"
                       % (key, where, lo, hi))
    return lo, hi


def check_knob_range(knob: str, lo: float, hi: float) -> None:
    """A policy knob's range, from a scenario file or an override, must be
    ordered and lie within the knob's legal range."""
    legal = KNOB_LEGAL.get(knob)
    if legal is None:
        raise SimError("unknown policy knob %r" % knob)
    if not (legal[0] <= lo <= hi <= legal[1]):
        raise SimError("knob %s range [%g, %g] is not an ordered range within "
                       "the legal [%g, %g]" % (knob, lo, hi, *legal))


# ---------------------------------------------------------------------------
# Concrete state and signals
# ---------------------------------------------------------------------------

@dataclass  # mutable, so not a Record
class ConcreteState:
    positions: dict[str, tuple[float, float, float]]
    door_angles: dict[str, float]  # door-bearing objects only
    running: dict[str, float]
    knobs: dict[str, float]

    def copy(self) -> "ConcreteState":
        return ConcreteState(dict(self.positions), dict(self.door_angles),
                             dict(self.running), dict(self.knobs))


def signal_values(scn: Scenario, state: ConcreteState) -> dict[str, float]:
    """Every signal of `state`."""
    names = sorted(scn.objects)
    out: dict[str, float] = {}
    for n in names:
        out["DoorAngle_%s" % n] = state.door_angles.get(n, 180.0)
        out["running_%s" % n] = state.running.get(n, 0.0)
    _pair_signals(scn, state, names, names, out)
    return out


def _pair_signals(scn: Scenario, state: ConcreteState, lefts, rights,
                  out: dict[str, float]) -> None:
    """Write `dist_a_b` and `contain_a_b` into `out` for every a in
    `lefts` and b in `rights`, with the keys and geometry of `scn.pairs`."""
    pairs, positions, hypot = scn.pairs, state.positions, math.hypot
    for a in lefts:
        ax, ay, az = positions[a]
        half, row = pairs[a]
        bottom = az - half
        for b in rights:
            dist, contain, support_radius, support_dz, region_radius, dzlo, dzhi = row[b]
            bx, by, bz = positions[b]
            horiz = hypot(ax - bx, ay - by)
            # max(x, y) is `y if y > x else x`, bit for bit: the earlier of
            # equal operands wins and a NaN later operand never does
            gap = horiz - support_radius
            gap = gap if gap > 0.0 else 0.0
            lift = abs(bottom - (bz + support_dz))
            out[dist] = lift if lift > gap else gap
            worst = horiz - region_radius
            below = (bz + dzlo) - az
            worst = below if below > worst else worst
            above = az - (bz + dzhi)
            out[contain] = above if above > worst else worst


def _refresh(scn: Scenario, state: ConcreteState, row: dict[str, float],
             written: tuple) -> None:
    """Recompute in `row` the signals of what `_apply` wrote: every pair
    signal between an object it moved and any object, and the door and
    running signals of the objects whose door or switch it set.  Every
    other entry is already `signal_values(scn, state)`'s.  `row` holds
    every key, so the order the pairs are written in does not matter."""
    moved, unmoved, switched = written
    for n in switched:
        row["DoorAngle_%s" % n] = state.door_angles.get(n, 180.0)
        row["running_%s" % n] = state.running.get(n, 0.0)
    if moved:
        _pair_signals(scn, state, moved, scn.objects, row)
        _pair_signals(scn, state, unmoved, moved, row)


# ---------------------------------------------------------------------------
# Instantiation: unit box -> concrete initial state
# ---------------------------------------------------------------------------

class ScenarioSample(Record):
    q0: ConcreteState
    sample_point: tuple[float, ...]
    parents: dict[str, Optional[str]]  # initial support object per movable
    signals: dict[str, float]  # signal_values of q0; never written


def box_dimension(scn: Scenario) -> int:
    """Placement (2 per movable) + door angles + the three policy knobs."""
    return 2 * len(scn.movable()) + len(scn.doors()) + len(KNOB_NAMES)


def _loc_parent(w0: WorldState, obj: str) -> Optional[str]:
    for (f, args) in w0.true_atoms:
        if f == "Loc" and args[0] == obj:
            return args[1]
    return None


class InstantiationPlan:
    """What an initial world `w0` and a scenario fix of every instantiation
    (see `instantiate`), found once: the box dimension, each movable's
    parent, the support-first order with each movable's anchor, the door
    intervals, the running flags, the fixed positions, and a template of
    the signal row in `signal_values`' key order.  The template holds the
    signals no point moves: the pair signals of two fixed objects, and
    the door and running signals of the objects without a door.

    An error that `w0` alone decides (a cycle of Loc atoms, a movable
    without a location, a surface without a placement zone, a fixed
    object outside the workspace) is kept as `error`, and `instantiate`
    raises it on every point, where the point-by-point loop met it."""

    def __init__(self, w0: WorldState, scn: Scenario):
        self.scn = scn
        self.dimension = box_dimension(scn)
        self.bounds = tuple(scn.workspace[axis] for axis in "xyz")
        movable = scn.movable()
        self.parents = {m: _loc_parent(w0, m) for m in movable}
        self.fixed = {n: g.position for n, g in scn.objects.items() if g.fixed}
        self.error: Optional[str] = None
        self.placements: list[tuple] = []
        try:
            self.placements = self._placements(movable)
            for n, position in self.fixed.items():
                _check_inside(scn, n, position)
        except InstantiationError as exc:
            self.error = str(exc)
        opened = {args for (f, args) in w0.true_atoms if f == "IsOpen"}
        k = 2 * len(movable)
        self.doors = [(n, k + j, *(scn.objects[n].door_open if (n,) in opened
                                   else scn.objects[n].door_closed))
                      for j, n in enumerate(scn.doors())]
        k += len(self.doors)
        self.knobs = [(knob, k + j, *scn.policy_ranges[knob])
                      for j, knob in enumerate(KNOB_NAMES)]
        # abstract worlds cannot start with anything running; a running
        # object would contradict a Running atom absent from every initial
        # world
        self.running = {n: 0.0 for n in scn.objects}
        for (f, args) in w0.true_atoms:
            if f == "Running":
                self.running[args[0]] = 1.0
        unmoved = list(self.fixed)
        self.written = (movable, unmoved, [n for n, *_ in self.doors])
        names = sorted(scn.objects)
        template: dict[str, float] = {}
        for n in names:
            template["DoorAngle_%s" % n] = 180.0
            template["running_%s" % n] = self.running[n]
        for a in names:
            keys = scn.pairs[a][1]
            for b in names:  # every point writes these but the fixed pairs
                dist, contain = keys[b][:2]
                template[dist] = math.nan
                template[contain] = math.nan
        _pair_signals(scn, ConcreteState(self.fixed, {}, {}, {}), unmoved, unmoved,
                      template)
        self.template = template

    def _placements(self, movable: list[str]) -> list[tuple]:
        """(movable, index of its first coordinate in the point, carrier,
        radius, anchor, half height) per movable, carriers before the
        objects they carry.  The anchor is the zone's centre and the
        support height of a fixed surface, with no carrier; on a movable
        carrier it is the carrier's support offset.  A chain of carriers
        longer than the movables is a cycle."""
        scn, parents = self.scn, self.parents

        def depth(m: str) -> int:
            k, cur = 0, parents[m]
            while cur in parents:
                if k == len(parents):
                    raise InstantiationError(
                        "the Loc atoms of w0 form a cycle through %s" % m)
                k, cur = k + 1, parents[cur]
            return k

        index = {m: 2 * j for j, m in enumerate(movable)}
        out = []
        for m in sorted(movable, key=lambda m: (depth(m), m)):
            p = parents[m]
            if p is None:
                raise InstantiationError("movable object %s has no location in w0" % m)
            gp = scn.objects[p]
            half = scn.objects[m].height / 2.0
            if gp.fixed:
                zone = gp.zones.get(m)
                if zone is None:
                    raise InstantiationError("surface %s has no placement zone for %s"
                                             % (p, m))
                anchor = (*zone, gp.position[2] + gp.support_dz)
                out.append((m, index[m], None, gp.zone_radius, anchor, half))
            else:
                out.append((m, index[m], p, _JITTER_RADIUS, gp.support_dz, half))
        return out


def instantiate(plan: InstantiationPlan, chi_w0: LiteralTable,
                sample: tuple[float, ...]) -> ScenarioSample:
    """Map a unit-box point to a concrete initial state consistent with the
    plan's initial world w0.

    Movable objects are placed support-first: on a fixed surface inside
    the object's own zone, or on a movable carrier with a small jitter
    around its top anchor.  Door angles come from the closed or open
    interval chosen by IsOpen, knobs from the scenario ranges.  The
    signals of the state are the plan's template with the signals of the
    movables and the doors written in, by `_refresh`.  The state must
    satisfy every literal of `chi_w0`, the table of `stl.chi` of w0; the
    signals are kept on the sample.
    """
    if len(sample) != plan.dimension:
        raise SimError("sample has dimension %d, expected %d"
                       % (len(sample), plan.dimension))
    if not all(0.0 <= u <= 1.0 for u in sample):
        raise SimError("sample point outside the unit box")
    if plan.error is not None:
        raise InstantiationError(plan.error)
    scn = plan.scn
    (xlo, xhi), (ylo, yhi), (zlo, zhi) = plan.bounds
    positions = dict(plan.fixed)
    for m, k, carrier, radius, anchor, half in plan.placements:
        r = radius * math.sqrt(sample[k + 1])
        if carrier is None:
            cx, cy, sz = anchor
        else:
            cx, cy, pz = positions[carrier]
            sz = pz + anchor
        ang = 2.0 * math.pi * sample[k]
        x, y, z = positions[m] = (cx + r * math.cos(ang), cy + r * math.sin(ang), sz + half)
        if not (xlo <= x <= xhi and ylo <= y <= yhi and zlo <= z <= zhi):
            _check_inside(scn, m, positions[m])
    door_angles: dict[str, float] = {}
    for n, k, lo, hi in plan.doors:
        ang = door_angles[n] = lo + sample[k] * (hi - lo)
        if not (0.0 <= ang <= 180.0):
            raise InstantiationError("door angle of %s out of range: %g" % (n, ang))
    knobs = {knob: lo + sample[k] * (hi - lo) for knob, k, lo, hi in plan.knobs}
    q0 = ConcreteState(positions, door_angles, dict(plan.running), knobs)
    signals = dict(plan.template)
    _refresh(scn, q0, signals, plan.written)
    return ScenarioSample(q0, tuple(sample), dict(plan.parents),
                          _check_roundtrip(chi_w0, signals))


def _check_inside(scn: Scenario, name: str, position: tuple[float, float, float]) -> None:
    for axis, v in zip("xyz", position):
        lo, hi = scn.workspace[axis]
        if not (lo <= v <= hi):
            raise InstantiationError("%s is outside the workspace on %s (%g)"
                                     % (name, axis, v))


def _check_roundtrip(chi_w0: LiteralTable, values: dict[str, float]) -> dict[str, float]:
    """Every literal of chi(w0), an atom or a negated atom, must hold of
    the state's signal `values`, which are returned.  The table decides;
    when it finds a literal that fails or a signal the state lacks, the
    literals are walked in order to word the error: an atom on a signal
    the state lacks is an StlError, and otherwise every literal that
    fails is named in one InstantiationError."""
    if chi_w0.holds(values):
        return values
    violated = []
    for lit in chi_w0.formula.parts:
        negated = isinstance(lit, SNot)
        atom = lit.body if negated else lit
        value = values.get(atom.signal)
        if value is None:
            raise StlError("unknown signal %r" % atom.signal)
        if atom.holds(value) == negated:
            violated.append(format_stl(lit))
    raise InstantiationError(
        "concrete state inconsistent with the abstract world: " + "; ".join(violated))


# ---------------------------------------------------------------------------
# Scripted policy execution
# ---------------------------------------------------------------------------

def _descendants(parents: dict[str, Optional[str]], root: str) -> list[str]:
    out = []
    for m in parents:
        cur = parents.get(m)
        while cur is not None:
            if cur == root:
                out.append(m)
                break
            cur = parents.get(cur)
    return sorted(out)


def run_policy(scn: Scenario, sample: ScenarioSample, ops: list[GroundOp],
               dt: float, horizon: float) -> tuple[Trace, bool]:
    """Execute an op-only branch with scripted controllers.

    The operations run in order.  Each one is captured from the state the
    previous one left, interpolated at the sample times inside its stroke
    and finalized once a sample time reaches its end.  The signals start
    from `sample.signals`, which are read and never written.  The samples
    of a stretch of constant state share one dict.  The samples inside a
    stroke share one copy of the state, which each of them rewrites from
    the captured start, and recompute only the signals of what the
    operation wrote, with the pair signals' keys and geometry looked up
    in `scn.pairs`.  Returns the fixed-rate trace and a truncation flag
    set when the horizon ends before the last operation completes.
    """
    knobs = sample.q0.knobs
    schedule, n = _schedule(ops, knobs["timingScale"], dt, horizon)
    truncated = bool(schedule) and horizon < schedule[-1][2]

    state = sample.q0.copy()
    parents = dict(sample.parents)
    rows: list[dict[str, float]] = []  # len(rows) is the next sample's index
    held = sample.signals  # the signals of `state`
    for op, start, end in schedule:
        while len(rows) < n and len(rows) * dt < start:
            rows.append(held)
        if len(rows) == n:
            break
        cap = _capture(scn, state, parents, knobs, op)
        snap = state.copy()  # each sample of the stroke rewrites the same entries
        while len(rows) < n and (now := len(rows) * dt) < end:
            row = dict(held)
            _refresh(scn, snap, row, _apply(snap, op, cap, (now - start) / (end - start),
                                            parents, final=False))
            rows.append(row)
        if len(rows) == n:
            break
        held = dict(held)
        _refresh(scn, state, held, _apply(state, op, cap, 1.0, parents, final=True))
    rows.extend([held] * (n - len(rows)))
    columns = zip(*[row.values() for row in rows])
    return Trace(tuple(i * dt for i in range(n)), dict(zip(rows[0], columns))), truncated


def _schedule(ops: list[GroundOp], ts: float, dt: float,
              horizon: float) -> tuple[list[tuple[GroundOp, float, float]], int]:
    """Each operation with the start and end of its stroke, at timing
    scale `ts`, and the number of samples up to the horizon.  The strokes
    run in order, each followed by a dwell."""
    if dt <= 0 or horizon < 0:
        raise SimError("dt must be positive and horizon nonnegative")
    schedule: list[tuple[GroundOp, float, float]] = []
    start = 0.0
    for op in ops:
        if op.name not in _OP_DURATION:
            raise SimError("no controller for operation %s" % op.name)
        dur = _OP_DURATION[op.name] * ts
        schedule.append((op, start, start + dur))
        start += dur + _DWELL * ts
    return schedule, int(math.floor(horizon / dt + 1e-9)) + 1


def checkpoint_rows(scn: Scenario, sample: ScenarioSample, ops: list[GroundOp],
                    dt: float, horizon: float) -> Optional[list[tuple[int, dict[str, float]]]]:
    """For each operation, the index of the first sample at or after the
    end of its stroke and the signals `run_policy`'s trace holds there:
    each operation runs straight to completion from the state the
    previous one left, with the calls `run_policy` makes to finalize it.
    None when some such index is past the horizon or not before the next
    stroke starts, where the trace holds no finalized row for it.  Raises
    only errors `run_policy` raises on the same arguments."""
    knobs = sample.q0.knobs
    schedule, n = _schedule(ops, knobs["timingScale"], dt, horizon)
    state = sample.q0.copy()
    parents = dict(sample.parents)
    held = sample.signals
    out: list[tuple[int, dict[str, float]]] = []
    i = 0
    for k, (op, _, end) in enumerate(schedule):
        while i < n and i * dt < end:
            i += 1
        if i == n or (k + 1 < len(schedule) and not i * dt < schedule[k + 1][1]):
            return None
        cap = _capture(scn, state, parents, knobs, op)
        held = dict(held)
        _refresh(scn, state, held, _apply(state, op, cap, 1.0, parents, final=True))
        out.append((i, held))
    return out


def _capture(scn: Scenario, state: ConcreteState, parents: dict[str, Optional[str]],
             knobs: dict[str, float], op: GroundOp) -> dict:
    """What an operation reads at its start: the poses of everything a put
    moves, the objects it leaves in place, and its target; or a door's
    angle and target."""
    cap: dict = {}
    if op.name == "put":
        obj, dest = op.args
        moved = [obj] + _descendants(parents, obj)
        cap["moved"] = {m: state.positions[m] for m in moved}
        cap["unmoved"] = [n for n in scn.objects if n not in cap["moved"]]
        gd = scn.objects[dest]
        gm = scn.objects[obj]
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
    return cap


def _apply(st: ConcreteState, op: GroundOp, cap: dict, f: float,
           parents: dict[str, Optional[str]],
           final: bool) -> tuple:
    """Set `st` to fraction `f` of the operation's stroke; every value it
    writes follows from `cap` and `f` alone.  Returns the objects whose
    position it wrote, the objects whose position it left, and those
    whose door angle or running flag it wrote."""
    if op.name == "put":
        if not cap["grasped"]:
            return (), (), ()
        obj = op.args[0]
        x0, y0, z0 = cap["moved"][obj]
        tx, ty, tz = cap["target"]
        dx, dy, dz = f * (tx - x0), f * (ty - y0), f * (tz - z0)
        for m, (mx, my, mz) in cap["moved"].items():
            st.positions[m] = (mx + dx, my + dy, mz + dz)
        if final:
            parents[obj] = op.args[1]
        return cap["moved"], cap["unmoved"], ()
    if op.name in ("open", "close"):
        obj = op.args[0]
        a0, target = cap["angle0"], cap["target"]
        st.door_angles[obj] = a0 + f * (target - a0)
        return (), (), (obj,)
    if op.name == "turn_on" and f >= 1.0:
        st.running[op.args[0]] = 1.0
        return (), (), (op.args[0],)
    return (), (), ()
