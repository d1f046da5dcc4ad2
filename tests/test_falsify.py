import collections
import dataclasses
import math

import pytest

import falsify_oracle
from conftest import MODELS, ROOT
from robovalid import ctgen, falsify as falsify_module, sim, theory as theory_module
from robovalid.cli import _load_configs
from robovalid.falsify import (
    FalsificationError, FalsificationResult, campaign, falsify, summarize,
)
from robovalid.stl import (
    PredicateMap, PredicateTemplate, STrue, StlError, robustness, synthesize,
)
from robovalid.tasks import Op, format_task, normalize, parse_task
from robovalid.tasks import Test as TaskTest
from robovalid.theory import load_model


@pytest.fixture(scope="module")
def kitchen_configs(kitchen, kitchen_grammar):
    model = ctgen.build_model(kitchen, kitchen_grammar, 4, "full")
    rows = ctgen.generate_covering_array(model, "full")
    return [ctgen.realize_configuration(model, r) for r in rows]


def single_problem(configs, kitchen, scn, pmap, *, pick, budget=30, seed=0):
    """The arguments of `falsify` for the first configuration whose task
    text `pick` accepts."""
    cfg = next(c for c in configs if pick(format_task(c.task)))
    spec = synthesize(cfg, kitchen, pmap, {})
    return cfg, spec, scn, budget, seed


def test_budget_one_runs_one_evaluation(kitchen_configs, kitchen, scenario, pmap):
    prob = single_problem(kitchen_configs, kitchen, scenario, pmap,
                          pick=lambda t: "turn_on" in t, budget=1)
    res = falsify(*prob)
    assert res.evaluations == 1
    assert res.status == "passed-budget-exhausted"


def test_falsify_builds_one_pair_table(kitchen_configs, kitchen, scenario, pmap,
                                       monkeypatch):
    """A scenario builds its pair-signal table once, when it is made, and
    every `instantiate` and `run_policy` call of two `falsify` runs on it
    reads that same table."""
    built = []
    real = sim._pair_table
    monkeypatch.setattr(sim, "_pair_table", lambda objects: built.append(objects) or real(objects))
    scn = sim.Scenario(scenario.objects, scenario.workspace, scenario.policy_ranges)
    table = scn.pairs
    assert built == [scenario.objects] and table == scenario.pairs
    prob = single_problem(kitchen_configs, kitchen, scn, pmap,
                          pick=lambda t: "put" in t, budget=6)
    assert falsify(*prob).evaluations == 6
    assert falsify(*prob).evaluations == 6
    assert scn.pairs is table and len(built) == 1


def test_true_spec_passes_with_its_evaluations(kitchen, kitchen_worlds, scenario, pmap):
    """A task without operations gets the spec `true`, robustness +inf at
    every point.  The first feasible point is still the incumbent, so the
    search spends its budget and the configuration passes."""
    cfg = ctgen.Configuration(kitchen_worlds[0], parse_task("nil", kitchen), ())
    assert isinstance(synthesize(cfg, kitchen, pmap, {}).formula, STrue)
    (entry, res), = campaign([cfg], kitchen, scenario, pmap, 10, 0)
    assert (entry.status, entry.robustness, entry.evaluations) == (
        "passed-budget-exhausted", math.inf, 10)
    assert res.best_sample is not None and res.infeasible < 10


def test_status_consistency_enforced():
    with pytest.raises(FalsificationError):
        FalsificationResult("falsified", 0.5, None, None, 1, 0)
    with pytest.raises(FalsificationError):
        FalsificationResult("passed-budget-exhausted", -0.5, None, None, 1, 0)


def test_bad_budget_rejected(kitchen_configs, kitchen, scenario, pmap, monkeypatch):
    """A budget below one is rejected before any work."""
    prob = single_problem(kitchen_configs, kitchen, scenario, pmap,
                          pick=lambda t: "turn_on" in t, budget=0)
    monkeypatch.setattr(falsify_module, "instantiate", lambda *a: pytest.fail("work done"))
    with pytest.raises(FalsificationError, match="^budget must be at least 1$"):
        falsify(*prob)


def test_healthy_open_passes(kitchen_configs, kitchen, scenario, pmap):
    prob = single_problem(kitchen_configs, kitchen, scenario, pmap,
                          pick=lambda t: t.startswith("open"), budget=20)
    res = falsify(*prob)
    assert res.status == "passed-budget-exhausted"
    assert res.best_robustness > 0


def test_door_fault_falsifies_open(kitchen_configs, kitchen, fault_scenario, pmap):
    prob = single_problem(kitchen_configs, kitchen, fault_scenario, pmap,
                          pick=lambda t: t.startswith("open"), budget=25)
    res = falsify(*prob)
    assert res.status == "falsified"
    assert res.best_robustness < 0
    assert res.evaluations <= 25
    assert res.best_trace is not None
    # the counterexample trace really does stall under the threshold
    assert max(res.best_trace.signals["DoorAngle_o_m"]) < 80.0


def test_seed_determinism(kitchen_configs, kitchen, scenario, pmap):
    a = falsify(*single_problem(kitchen_configs, kitchen, scenario, pmap,
                               pick=lambda t: "put" in t, budget=15, seed=7))
    b = falsify(*single_problem(kitchen_configs, kitchen, scenario, pmap,
                               pick=lambda t: "put" in t, budget=15, seed=7))
    assert a.best_robustness == b.best_robustness
    assert a.best_sample.sample_point == b.best_sample.sample_point
    c = falsify(*single_problem(kitchen_configs, kitchen, scenario, pmap,
                               pick=lambda t: "put" in t, budget=15, seed=8))
    assert c.best_sample.sample_point != a.best_sample.sample_point


def test_truncated_never_falsified(kitchen_configs, kitchen, fault_scenario, pmap):
    # a spec window far past any reachable horizon forces truncation, and a
    # truncated verdict must not be reported as a violation
    wide = PredicateMap(pmap.templates, 0.1)
    cfg = next(c for c in kitchen_configs
               if format_task(c.task).startswith("open"))
    spec = synthesize(cfg, kitchen, wide, {})
    res = falsify(cfg, spec, fault_scenario, 10, 0)
    assert robustness(spec.formula, res.best_trace).truncated
    assert res.status == "passed-budget-exhausted"


def test_missed_deadline_is_falsified(kitchen, kitchen_worlds, scenario, pmap):
    """At timingScale 2.0 a put takes 6 s against a 5 s window.  The
    horizon cuts the run short, yet the monitor sees every sample its
    window needs, so the result is not truncated: the deadline is
    missed, and the robustness is reported as it is, not clamped at 0."""
    slow = sim.Scenario(scenario.objects, scenario.workspace,
                        dict(scenario.policy_ranges, timingScale=(2.0, 2.0)))
    task = parse_task("put(o_p,o_t)", kitchen)
    cfg = next(c for c in (ctgen.Configuration(w, task, ()) for w in kitchen_worlds)
               if {("Loc", ("o_p", "o_m")), ("Loc", ("o_b", "o_t")), ("IsOpen", ("o_m",))}
               <= c.initial_world.true_atoms)
    spec = synthesize(cfg, kitchen, pmap, {})
    assert spec.delta_t == 5.0
    res = falsify(cfg, spec, slow, 25, 0)
    _, cut = sim.run_policy(slow, res.best_sample, list(spec.branches[0].ops), 0.25, 5.0)
    r = robustness(spec.formula, res.best_trace)
    assert cut and not r.truncated
    assert res.status == "falsified"
    assert res.best_robustness == r.value == pytest.approx(-0.015)


def _fields(run, cfg, spec, scn, budget, seed):
    """Every field of the `FalsificationResult`, with floats in hex, which
    tells 0.0 from -0.0; or the domain error's type and text."""
    try:
        res = run(cfg, spec, scn, budget, seed)
    except (FalsificationError, sim.SimError, StlError) as e:
        return type(e), str(e)
    trace = res.best_trace
    return (res.status, res.best_robustness.hex(), res.best_sample.sample_point,
            res.evaluations, res.infeasible,
            [t.hex() for t in trace.times],
            {name: [v.hex() for v in col] for name, col in trace.signals.items()})


def _ranges(scn, **ranges):
    return sim.Scenario(scn.objects, scn.workspace, dict(scn.policy_ranges, **ranges))


@pytest.mark.parametrize("configs, scn, seed", [
    ("frozen", "healthy", 0), ("frozen", "healthy", 7),
    ("frozen", "torque", 0), ("frozen", "torque", 7),
    ("frozen", "timing", 0), ("frozen", "threshold", 0), ("frozen", "threshold", 7),
    ("depth4", "fault", 0), ("depth4", "fault", 7),
])
def test_falsify_matches_the_full_evaluation_oracle(frozen_configs, kitchen_configs,
                                                    kitchen, scenario, fault_scenario,
                                                    pmap, configs, scn, seed):
    """Skipping the trace and the monitor for samples whose lower bound
    cannot beat the incumbent changes no field of any result against
    the loop that evaluates every sample in full: on the 52 frozen
    depth-8 configurations, healthy, over a door-torque range (which
    finds improvements mid-search), over the whole timingScale range
    (where horizons cut runs short) and over a door-torque range whose
    doors all open to within 0.01 degrees above the 80-degree threshold
    (so the robustness varies with the sample and the incumbent improves
    while staying at least 0), and on kitchen4's depth-4 configurations
    under the door fault.  Seeds per configuration follow `campaign`."""
    scn = {"healthy": scenario, "fault": fault_scenario,
           "torque": _ranges(scenario, doorTorqueLimit=(0.4, 2.0)),
           "timing": _ranges(scenario, timingScale=(0.5, 2.0)),
           "threshold": _ranges(scenario, doorTorqueLimit=(0.44445, 0.4445))}[scn]
    tables: dict = {}
    for i, cfg in enumerate(frozen_configs if configs == "frozen" else kitchen_configs):
        spec = synthesize(cfg, kitchen, pmap, tables)
        assert _fields(falsify, cfg, spec, scn, 25, seed + i) == \
            _fields(falsify_oracle.falsify, cfg, spec, scn, 25, seed + i)


def test_samples_that_cannot_beat_the_incumbent_are_not_simulated(
        frozen_configs, kitchen, scenario, pmap, monkeypatch):
    """On every fourth frozen configuration, healthy at seed 0, the policy
    runs and the monitor evaluates only for the samples that improve the
    incumbent: 13 of the 325 evaluations."""
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(falsify_module, "run_policy",
                        counted("run_policy", falsify_module.run_policy))
    monkeypatch.setattr(falsify_module, "robustness",
                        counted("robustness", falsify_module.robustness))
    entries = [e for e, _ in campaign(frozen_configs[::4], kitchen, scenario, pmap, 25, 0)]
    assert sum(e.evaluations for e in entries) == 325
    assert calls == {"run_policy": 13, "robustness": 13}


def test_campaign_survives_and_summarizes(kitchen_configs, kitchen,
                                          fault_scenario, pmap):
    subset = kitchen_configs[:6]
    entries = [e for e, _ in campaign(subset, kitchen, fault_scenario, pmap,
                                      budget=20, seed=3)]
    assert [e.index for e in entries] == list(range(6))
    s = summarize(entries)
    assert s["configurations"] == 6
    assert s["falsified"] + s["passed"] + s["errors"] == 6
    assert s["errors"] == 0


def _open_config(configs):
    return next(c for c in configs if format_task(c.task).startswith("open"))


def test_campaign_records_domain_errors_by_type(kitchen_configs, kitchen, scenario):
    unmapped = PredicateMap({}, 1.0)
    [(entry, res)] = campaign([_open_config(kitchen_configs)], kitchen, scenario,
                              unmapped, budget=1, seed=0)
    assert entry.status == "error" and res is None
    assert entry.error.startswith("SynthesisError: no concrete-signal mapping")


def test_campaign_propagates_programming_errors(kitchen_configs, kitchen, scenario,
                                                pmap, monkeypatch):
    def broken(phi, trace, t=0.0):
        raise KeyError(t)

    monkeypatch.setattr(falsify_module, "robustness", broken)
    with pytest.raises(KeyError):
        campaign([_open_config(kitchen_configs)], kitchen, scenario, pmap,
                 budget=1, seed=0)


def test_unknown_signal_in_the_pmap_is_an_error_row(kitchen_configs, kitchen, scenario,
                                                    pmap):
    """A pmap naming a signal the simulator does not produce fails the
    round-trip check of the first instantiation with an StlError, which
    the campaign records."""
    door = pmap.templates["IsOpen"]
    renamed = PredicateMap(dict(pmap.templates, IsOpen=PredicateTemplate(
        door.family, door.params, "Door_{a}", door.comparator, door.threshold)),
        pmap.delta_t)
    [(entry, res)] = campaign([_open_config(kitchen_configs)], kitchen, scenario,
                              renamed, budget=3, seed=0)
    assert (entry.status, entry.evaluations, res) == ("error", 0, None)
    assert entry.error == "StlError: unknown signal 'Door_o_b'"


def _count_calls(monkeypatch, module, name: str, key) -> collections.Counter:
    """The calls of `module.name`, counted by key(*args)."""
    calls = collections.Counter()
    real = getattr(module, name)

    def counting(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_campaign_grounds_each_operation_once(frozen_configs, scenario, pmap,
                                              monkeypatch):
    """The configurations of a campaign share the theory's forward-execution
    caches: each operation any of their branches runs is grounded once,
    on a freshly loaded theory."""
    kitchen = load_model(MODELS / "kitchen4.sc")
    grounded = _count_calls(monkeypatch, theory_module, "ground_op", lambda theory, op: op)
    campaign(frozen_configs, kitchen, scenario, pmap, budget=1, seed=0)
    ops = {a.op for cfg in frozen_configs
           for branch in normalize(cfg.task) for a in branch if isinstance(a, Op)}
    assert set(grounded) <= ops
    assert len(grounded) > 1 and set(grounded.values()) == {1}


def test_loading_and_falsifying_configs_grounds_each_atom_once(scenario, pmap,
                                                               monkeypatch):
    """Reading a configs file and falsifying its configurations grounds
    each distinct test formula and each operation of their branches
    exactly once: the parser and the runs share the theory's caches.
    Preconditions, effect conditions and initial axioms pass through
    `ground_state_formula` too, so only the test formulas are counted."""
    kitchen = load_model(MODELS / "kitchen4.sc")
    grounded = _count_calls(monkeypatch, theory_module, "ground_state_formula",
                            lambda theory, phi, *_: phi)
    ops = _count_calls(monkeypatch, theory_module, "ground_op", lambda theory, op: op)
    configs = _load_configs(ROOT / "perfbench" / "inputs" / "kitchen4_d8_t2.configs.jsonl",
                            kitchen)
    campaign(configs, kitchen, scenario, pmap, budget=1, seed=0)
    atoms = {a for cfg in configs for branch in normalize(cfg.task) for a in branch}
    tests = {a.formula for a in atoms if isinstance(a, TaskTest)}
    assert set(ops) == {a.op for a in atoms if isinstance(a, Op)}
    assert len(tests) > 1 and all(grounded[phi] == 1 for phi in tests)
    assert len(ops) > 1 and set(ops.values()) == {1}


def test_synthesize_with_shared_caches_equals_a_fresh_run(frozen_configs, kitchen, pmap):
    """A spec synthesized with the theory's caches and one dict of chi
    tables shared by every configuration equals one synthesized on a
    theory object of its own, with tables of its own."""
    tables: dict = {}
    for cfg in frozen_configs + frozen_configs[::-1]:
        fresh = synthesize(cfg, dataclasses.replace(kitchen), pmap, {})
        assert synthesize(cfg, kitchen, pmap, tables) == fresh
    assert tables
