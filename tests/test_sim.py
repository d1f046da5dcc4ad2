import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import sim_oracle
from conftest import place
from robovalid import sim
from robovalid.sim import (
    InstantiationError, Scenario, box_dimension, checkpoint_rows, run_policy,
    signal_values,
)
from robovalid.stl import Atom, LiteralTable, SAnd, SNot, StlError, Trace, bool_sat, chi
from robovalid.theory import GroundOp, WorldState


def midpoint(scn):
    return tuple([0.5] * box_dimension(scn))


def closed_world(worlds):
    return next(w for w in worlds if ("IsOpen", ("o_m",)) not in w.true_atoms)


def test_box_dimension(scenario):
    # 2 placement dofs x 2 movables + 1 door + 3 knobs
    assert box_dimension(scenario) == 8


def test_closed_door_angle_below_one_degree(kitchen, kitchen_worlds, scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    assert s.q0.door_angles["o_m"] < 1.0
    assert s.q0.door_angles["o_m"] > 0.0


def test_open_door_angle_above_threshold(kitchen, kitchen_worlds, scenario, pmap):
    w = next(w for w in kitchen_worlds if ("IsOpen", ("o_m",)) in w.true_atoms)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    assert s.q0.door_angles["o_m"] > 80.0


def test_roundtrip_consistency_100_samples(kitchen, kitchen_worlds, scenario, pmap):
    """Every produced q0 maps back to w0 under chi (the constructor checks,
    so survival alone is the property)."""
    rng = random.Random(5)
    for _ in range(100):
        w = rng.choice(kitchen_worlds)
        pt = tuple(rng.random() for _ in range(box_dimension(scenario)))
        s = place(w, scenario, chi(kitchen, w, pmap), pt)
        tr = Trace((0.0,), {k: (v,) for k, v in
                            signal_values(scenario, s.q0).items()})
        assert bool_sat(chi(kitchen, w, pmap), tr, 0.0)


def test_bad_sample_rejected(kitchen, kitchen_worlds, scenario, pmap):
    w = kitchen_worlds[0]
    with pytest.raises(sim.SimError):
        place(w, scenario, chi(kitchen, w, pmap), (0.5,))
    with pytest.raises(sim.SimError):
        place(w, scenario, chi(kitchen, w, pmap),
                    tuple([1.5] * box_dimension(scenario)))


def test_unlocated_world_is_instantiation_error(kitchen, scenario, pmap):
    ghost = WorldState(frozenset({("IsOpen", ("o_b",)), ("IsOpen", ("o_p",)),
                                  ("IsOpen", ("o_t",)), ("IsOpen", ("o_m",))}))
    with pytest.raises(InstantiationError):
        place(ghost, scenario, chi(kitchen, ghost, pmap), midpoint(scenario))


def test_zero_length_task(kitchen, kitchen_worlds, scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    tr, truncated = run_policy(scenario, s, [], 0.25, 0.0)
    assert not truncated
    assert len(tr.times) == 1


def test_healthy_open_crosses_threshold(kitchen, kitchen_worlds, scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    tr, truncated = run_policy(scenario, s, [GroundOp("open", ("o_m",))], 0.25, 5.0)
    assert not truncated
    angles = tr.signals["DoorAngle_o_m"]
    assert angles[0] < 1.0
    assert angles[-1] > 80.0
    # crossing happens within the controller stroke (2 s), well inside delta t
    crossing = next(t for t, a in zip(tr.times, angles) if a > 80.0)
    assert crossing <= 2.0


def test_door_fault_plateaus(kitchen, kitchen_worlds, fault_scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, fault_scenario, chi(kitchen, w, pmap), midpoint(fault_scenario))
    tr, _ = run_policy(fault_scenario, s, [GroundOp("open", ("o_m",))], 0.25, 5.0)
    assert max(tr.signals["DoorAngle_o_m"]) < 80.0


def test_grasp_fault_drops_put(kitchen, kitchen_worlds, scenario, pmap):
    bad = Scenario(scenario.objects, scenario.workspace,
                   dict(scenario.policy_ranges, graspSuccessMargin=(0.001, 0.001)))
    w = next(w for w in kitchen_worlds if ("Loc", ("o_b", "o_t")) in w.true_atoms
             and ("Loc", ("o_p", "o_t")) in w.true_atoms)
    s = place(w, bad, chi(kitchen, w, pmap), midpoint(bad))
    tr, _ = run_policy(bad, s, [GroundOp("put", ("o_b", "o_p"))], 0.25, 5.0)
    assert tr.signals["dist_o_b_o_p"][-1] > 0.05  # never arrived


def test_carried_object_tracks_carrier(kitchen, kitchen_worlds, scenario, pmap):
    # move the plate with bread on it; bread keeps its offset to the plate
    w = next(w for w in kitchen_worlds if ("Loc", ("o_b", "o_p")) in w.true_atoms
             and ("Loc", ("o_p", "o_t")) in w.true_atoms
             and ("IsOpen", ("o_m",)) in w.true_atoms)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    tr, _ = run_policy(scenario, s, [GroundOp("put", ("o_p", "o_m"))], 0.25, 5.0)
    assert tr.signals["dist_o_p_o_m"][-1] <= 0.01
    assert tr.signals["contain_o_b_o_m"][-1] <= 0.0  # bread rode along
    for i in range(len(tr.times)):
        dx = tr.signals["dist_o_b_o_p"][i]
        assert dx <= 0.01 + 1e-9  # containment preserved while attached


def test_truncation_flag(kitchen, kitchen_worlds, scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    tr, truncated = run_policy(scenario, s, [GroundOp("open", ("o_m",))], 0.25, 1.0)
    assert truncated  # horizon shorter than the 2 s stroke


def test_trace_determinism(kitchen, kitchen_worlds, scenario, pmap):
    w = closed_world(kitchen_worlds)
    s = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    ops = [GroundOp("open", ("o_m",)), GroundOp("turn_on", ("o_m",))]
    a, _ = run_policy(scenario, s, ops, 0.25, 10.0)
    s2 = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario))
    b, _ = run_policy(scenario, s2, ops, 0.25, 10.0)
    assert a.to_csv() == b.to_csv()


def test_loc_cycle_is_instantiation_error(kitchen, scenario, pmap):
    # the initial axioms rule this world out, so only a hand-made one has it
    cyclic = WorldState(frozenset({("Loc", ("o_b", "o_p")), ("Loc", ("o_p", "o_b")),
                                   ("IsOpen", ("o_b",)), ("IsOpen", ("o_p",)),
                                   ("IsOpen", ("o_t",))}))
    with pytest.raises(InstantiationError, match="cycle"):
        place(cyclic, scenario, chi(kitchen, cyclic, pmap), midpoint(scenario))


# the puts kitchen4.sc allows, and every door and switch operation
OPS = ([GroundOp("put", args) for args in (("o_b", "o_m"), ("o_b", "o_p"), ("o_p", "o_m"),
                                           ("o_b", "o_t"), ("o_p", "o_t"))]
       + [GroundOp(name, (o,)) for name in ("open", "close", "turn_on")
          for o in ("o_b", "o_p", "o_m", "o_t")])


def _outcome(run, *args):
    """`float.hex` of every time and signal value, with signal names and
    the truncation flag, or the raised SimError's type and text.  Hex
    tells 0.0 from -0.0, which `==` does not."""
    try:
        trace, truncated = run(*args)
    except sim.SimError as e:
        return type(e), str(e)
    return ([t.hex() for t in trace.times],
            {name: [v.hex() for v in vals] for name, vals in trace.signals.items()},
            truncated)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_policy_matches_sample_driven_oracle(kitchen, kitchen_worlds, scenario,
                                                 pmap, data):
    """Trace times, signal values and the truncation flag equal the old
    sample-driven loop's bit for bit, over every knob's legal range, dt values
    that do and do not divide the strokes, and horizons that cut an
    operation short.  Operations on objects without a door or zone raise
    the same SimError in both.  The oracle computes the first row from q0,
    which must still have the signals `instantiate` kept for it."""
    wide = Scenario(scenario.objects, scenario.workspace, dict(sim.KNOB_LEGAL))
    w = data.draw(st.sampled_from(kitchen_worlds))
    point = tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(box_dimension(wide)))
    try:
        s = place(w, wide, chi(kitchen, w, pmap), point)
    except InstantiationError:
        return
    ops = data.draw(st.lists(st.sampled_from(OPS), max_size=4))
    dt = data.draw(st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0, 2.5]))
    horizon = data.draw(st.floats(0.0, 20.0))
    assert _outcome(run_policy, wide, s, ops, dt, horizon) == \
        _outcome(sim_oracle.run_policy, wide, s, ops, dt, horizon)
    assert s.signals == signal_values(wide, s.q0)


def test_put_onto_a_surface_without_a_zone_is_a_sim_error(kitchen, kitchen_worlds, pmap,
                                                         zoneless_scenario_path):
    """A put onto a fixed surface that has no placement zone for the
    object raises a plain SimError, worded as instantiation words the same
    gap, in `run_policy`, in `checkpoint_rows` and in the oracle alike.
    It is no InstantiationError, which `falsify` counts as infeasible."""
    scn = sim.load_scenario(zoneless_scenario_path)
    w = next(w for w in kitchen_worlds
             if {("IsOpen", ("o_m",)), ("Loc", ("o_p", "o_t"))} <= w.true_atoms)
    s = place(w, scn, chi(kitchen, w, pmap), midpoint(scn))
    ops = [GroundOp("put", ("o_p", "o_m"))]
    for run in (run_policy, checkpoint_rows, sim_oracle.run_policy):
        with pytest.raises(sim.SimError) as e:
            run(scn, s, ops, 0.25, 5.0)
        assert type(e.value) is sim.SimError
        assert str(e.value) == "surface o_m has no placement zone for o_p"


def _finalized_rows(times, ops, ts):
    """Per operation, the index of the first sample at or after its
    stroke's end, with the schedule's float expressions; None when some
    operation has no such sample before the next stroke starts."""
    out, start = [], 0.0
    for k, op in enumerate(ops):
        dur = sim._OP_DURATION[op.name] * ts
        end = start + dur
        start += dur + sim._DWELL * ts
        i = next((i for i, t in enumerate(times) if t >= end), None)
        if i is None or (k + 1 < len(ops) and not times[i] < start):
            return None
        out.append(i)
    return out


CHECKPOINT_TASKS = [
    [GroundOp("open", ("o_m",))],
    [GroundOp("put", ("o_p", "o_t"))],  # carries the bread where it starts on the plate
    [GroundOp("turn_on", ("o_m",))],
    [GroundOp("open", ("o_m",)), GroundOp("put", ("o_p", "o_m"))],
    [GroundOp("put", ("o_b", "o_p")), GroundOp("put", ("o_p", "o_t"))],
    [GroundOp("put", ("o_b", "o_t")), GroundOp("open", ("o_t",))],  # o_t has no door
]


@pytest.mark.parametrize("ts", [0.5, 2.0])
def test_checkpoint_rows_are_the_trace_rows(kitchen, kitchen_worlds, scenario, pmap, ts):
    """At seeded random points, on 1- and 2-operation tasks, each returned
    (index, signals) is the trace row at that index bit for bit, and the
    result is None exactly when the trace holds no finalized row for some
    operation: past the horizon, which is the task's as `falsify` sets it
    or a random one, or, with a sample period longer than the dwell, at
    or after the next stroke's start.  An operation the controllers
    cannot run raises the SimError `run_policy` raises, or gives None
    where `run_policy` never reaches it."""
    scn = Scenario(scenario.objects, scenario.workspace,
                   dict(scenario.policy_ranges, timingScale=(ts, ts)))
    rng = random.Random(int(ts * 10))
    seen = {"rows": 0, "none": 0, "carried": 0, "error": 0}
    for ops in CHECKPOINT_TASKS:
        for _ in range(60):
            w = rng.choice(kitchen_worlds)
            point = tuple(rng.random() for _ in range(box_dimension(scn)))
            try:
                s = place(w, scn, chi(kitchen, w, pmap), point)
            except InstantiationError:
                continue
            horizon = rng.choice([len(ops) * 5.0, rng.uniform(0.0, 12.0)])
            dt = rng.choice([0.25, 0.25, 0.7, 1.0])
            try:
                rows = checkpoint_rows(scn, s, ops, dt, horizon)
            except sim.SimError as e:
                rows = str(e)
            try:
                trace, _ = run_policy(scn, s, ops, dt, horizon)
            except sim.SimError as e:
                assert rows in (None, str(e))
                seen["error"] += 1
                continue
            want = _finalized_rows(trace.times, ops, ts)
            if want is None:
                assert rows is None
                seen["none"] += 1
                continue
            assert [i for i, _ in rows] == want
            for i, signals in rows:
                assert {n: v.hex() for n, v in signals.items()} == \
                    {n: col[i].hex() for n, col in trace.signals.items()}
            seen["rows"] += 1
            seen["carried"] += any(op.name == "put" and s.parents.get("o_b") == op.args[0]
                                   for op in ops)
    assert min(seen.values()) > 0, seen


def _table_check(scn, chi_w0, state):
    """`sim._check_roundtrip` of the state's signals against the table of
    `chi_w0`."""
    return sim._check_roundtrip(LiteralTable(chi_w0), signal_values(scn, state))


def _roundtrip_outcome(check, scn, chi_w0, state):
    try:
        check(scn, chi_w0, state)
    except (InstantiationError, StlError) as e:
        return type(e), str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_roundtrip_check_matches_bool_sat(kitchen, kitchen_worlds, scenario, pmap, data):
    """Deciding the literals of chi(w0) by its literal table, and wording a
    failure literal by literal, gives the verdict and the message that
    `bool_sat` over a one-sample trace gives, for random
    concrete kitchen states checked against the chi of their own or of
    another initial world: states placed as `instantiate` places them,
    then some objects moved anywhere in the workspace, doors set to any
    angle and switches flipped."""
    chi_w0 = chi(kitchen, data.draw(st.sampled_from(kitchen_worlds)), pmap)
    w = data.draw(st.sampled_from(kitchen_worlds))
    point = tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(box_dimension(scenario)))
    state = place(w, scenario, SAnd(()), point).q0
    for m in data.draw(st.lists(st.sampled_from(scenario.movable()), unique=True)):
        state.positions[m] = tuple(data.draw(st.floats(lo, hi))
                                   for lo, hi in scenario.workspace.values())
    for d in data.draw(st.lists(st.sampled_from(scenario.doors()), unique=True)):
        state.door_angles[d] = data.draw(st.sampled_from((0.0, 80.0, 80.5, 180.0)))
    for n in data.draw(st.lists(st.sampled_from(sorted(scenario.objects)), unique=True)):
        state.running[n] = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
    got = _roundtrip_outcome(_table_check, scenario, chi_w0, state)
    assert got == _roundtrip_outcome(sim_oracle.check_roundtrip, scenario, chi_w0, state)


def test_roundtrip_check_on_an_unknown_signal_is_stl_error(kitchen, kitchen_worlds,
                                                           scenario, pmap):
    w = closed_world(kitchen_worlds)
    state = place(w, scenario, chi(kitchen, w, pmap), midpoint(scenario)).q0
    chi_w0 = SAnd((Atom("DoorAngle_o_m", "<", 80.0), SNot(Atom("Door_o_m", ">", 80.0))))
    want = _roundtrip_outcome(sim_oracle.check_roundtrip, scenario, chi_w0, state)
    assert want == (StlError, "unknown signal 'Door_o_m'")
    assert _roundtrip_outcome(_table_check, scenario, chi_w0, state) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pair_signals_match_nested_max(kitchen, kitchen_worlds, scenario, data):
    """Every `dist` and `contain` signal equals the nested-`max` formula's
    bit for bit: for positions on a coarse grid, where distances tie with
    the geometry's radii and offsets; for geometry values of either zero,
    where the operands tie at 0.0 and -0.0; and for positions that are
    infinite or NaN."""
    zeros = st.sampled_from((0.0, -0.0))
    coords = st.one_of(st.sampled_from((0.0, -0.0, 0.4, 0.375, 0.6, 0.75, 2.5, 2.6)),
                       st.floats(-2.0, 3.0),
                       st.sampled_from((math.inf, -math.inf, math.nan)))
    only_zeros = data.draw(st.booleans())
    if only_zeros:
        coords = zeros
    objects = {}
    for name, g in scenario.objects.items():
        sizes = {k: data.draw(zeros if only_zeros else
                              st.sampled_from((getattr(g, k), 0.0, -0.0)))
                 for k in ("height", "support_radius", "support_dz", "region_radius",
                           "region_dzlo", "region_dzhi")}
        objects[name] = dataclasses.replace(g, **sizes)
    scn = Scenario(objects, scenario.workspace, scenario.policy_ranges)
    state = place(kitchen_worlds[0], scenario, SAnd(()), midpoint(scenario)).q0
    for name in scn.objects:
        state.positions[name] = data.draw(st.tuples(coords, coords, coords))
    got = signal_values(scn, state)
    want = sim_oracle.pair_signals(scn, state)
    assert {k: got[k].hex() for k in want} == {k: v.hex() for k, v in want.items()}


def _hexed(values: dict) -> list:
    """The items of `values` in order, floats and coordinates in hex."""
    return [(k, tuple(x.hex() for x in v) if isinstance(v, tuple) else v.hex())
            for k, v in values.items()]


def _instantiation(run, *args):
    """Every field of the ScenarioSample, floats in hex and dicts in their
    key order, or the raised error's type and text."""
    try:
        s = run(*args)
    except (sim.SimError, StlError) as e:
        return type(e), str(e)
    q0 = s.q0
    return (_hexed(q0.positions), _hexed(q0.door_angles), _hexed(q0.running),
            _hexed(q0.knobs), s.sample_point, list(s.parents.items()), _hexed(s.signals))


def _planned(plan, table):
    def run(point):
        return sim.instantiate(plan, table, point)
    return run


@pytest.mark.parametrize("ranges", ["healthy", "knobs", "narrow"])
def test_planned_instantiation_matches_the_oracle(frozen_configs, kitchen, scenario, pmap,
                                                  ranges):
    """At seeded random points and at the box's corners, for the initial
    world of each of the 52 frozen configurations, `instantiate` with the
    world's plan gives what the loop that plans nothing gives: q0, the
    parents and every signal, bit for bit and in the same key order, or
    the same error.  The scenario is the healthy one, one whose knobs
    vary over their legal ranges, or one whose workspace cuts through the
    table's zones, so some points are infeasible."""
    scn = {"healthy": scenario,
           "knobs": Scenario(scenario.objects, scenario.workspace, dict(sim.KNOB_LEGAL)),
           "narrow": Scenario(scenario.objects, dict(scenario.workspace, y=(-0.2, 1.5)),
                              scenario.policy_ranges)}[ranges]
    rng = random.Random(11)
    d = box_dimension(scn)
    seen = {"feasible": 0, "infeasible": 0}
    for cfg in frozen_configs:
        w = cfg.initial_world
        chi_w0 = chi(kitchen, w, pmap)
        plan, table = sim.InstantiationPlan(w, scn), LiteralTable(chi_w0)
        points = [(0.0,) * d, (1.0,) * d] + [tuple(rng.random() for _ in range(d))
                                             for _ in range(6)]
        for point in points:
            got = _instantiation(_planned(plan, table), point)
            assert got == _instantiation(sim_oracle.instantiate, w, scn, chi_w0, point)
            seen["infeasible" if got[0] is InstantiationError else "feasible"] += 1
    assert seen["feasible"] and (ranges != "narrow" or seen["infeasible"]), seen


def _ghost_world(*atoms):
    return WorldState(frozenset(atoms) | {("IsOpen", ("o_b",)), ("IsOpen", ("o_p",)),
                                          ("IsOpen", ("o_t",))})


def _geometry(scn, name, **fields):
    objects = dict(scn.objects)
    objects[name] = dataclasses.replace(objects[name], **fields)
    return Scenario(objects, scn.workspace, scn.policy_ranges)


ON_TABLE = (("Loc", ("o_b", "o_t")), ("Loc", ("o_p", "o_t")))
INSTANTIATION_ERRORS = {
    "cycle": (lambda scn: scn, (("Loc", ("o_b", "o_p")), ("Loc", ("o_p", "o_b"))), None,
              InstantiationError, "the Loc atoms of w0 form a cycle through o_b"),
    "no location": (lambda scn: scn, (("Loc", ("o_p", "o_t")),), None,
                    InstantiationError, "movable object o_b has no location in w0"),
    "no zone": (lambda scn: _geometry(scn, "o_t", zones={"o_p": (-0.4, 0.0)}), ON_TABLE,
                None, InstantiationError, "surface o_t has no placement zone for o_b"),
    "fixed outside": (lambda scn: _geometry(scn, "o_m", position=(4.0, 0.0, 0.6)),
                      ON_TABLE, None, InstantiationError,
                      "o_m is outside the workspace on x (4)"),
    "movable outside": (lambda scn: Scenario(scn.objects, dict(scn.workspace, y=(-0.1, 0.1)),
                                             scn.policy_ranges),
                        ON_TABLE, None, InstantiationError,
                        "o_b is outside the workspace on y (0.25)"),
    "movable above": (lambda scn: Scenario(scn.objects, dict(scn.workspace, z=(0.0, 0.77)),
                                           scn.policy_ranges),
                      ON_TABLE, None, InstantiationError,
                      "o_b is outside the workspace on z (0.78)"),
    "door angle": (lambda scn: _geometry(scn, "o_m", door_closed=(179.0, 181.0)), ON_TABLE,
                   None, InstantiationError, "door angle of o_m out of range: 181"),
    "inconsistent": (lambda scn: scn, ON_TABLE,
                     SAnd((SNot(Atom("dist_o_b_o_t", "<=", 0.01)),
                           Atom("DoorAngle_o_m", ">", 80.0))),
                     InstantiationError,
                     "concrete state inconsistent with the abstract world: "
                     "(not (<= dist_o_b_o_t 0.01)); (> DoorAngle_o_m 80)"),
    "unknown signal": (lambda scn: scn, ON_TABLE,
                       SAnd((SNot(Atom("dist_o_b_o_t", "<=", 0.01)),
                             Atom("Door_o_m", ">", 80.0))),
                       StlError, "unknown signal 'Door_o_m'"),
}


@pytest.mark.parametrize("case", sorted(INSTANTIATION_ERRORS))
def test_each_instantiation_error_is_raised_on_every_point(kitchen, scenario, pmap, case):
    """A hand-built world and scenario for each error `instantiate` raises
    past the point's own checks.  Errors that the world alone decides
    are raised on every point, and each error has the oracle's type and
    text.  The points put o_b at the edge of its zone, 90 degrees round,
    with the door at the top of its interval."""
    edit, atoms, chi_w0, kind, text = INSTANTIATION_ERRORS[case]
    scn = edit(scenario)
    w = _ghost_world(*atoms)
    if chi_w0 is None:
        chi_w0 = SAnd(())
    plan, table = sim.InstantiationPlan(w, scn), LiteralTable(chi_w0)
    for point in [(0.25, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 0.5),
                  (0.25, 1.0, 0.5, 0.0, 1.0, 0.1, 0.9, 0.3)]:
        got = _instantiation(_planned(plan, table), point)
        assert got == (kind, text)
        assert got == _instantiation(sim_oracle.instantiate, w, scn, chi_w0, point)
