"""Robustness minimization over the concretization box, per configuration.

The optimizer is a self-contained derivative-free search: a Latin
hypercube batch seeds the incumbent, then (1+1)-style local perturbation
with an adaptive step (halved on failure, doubled on success) and
restarts on stagnation.  Everything is driven by one seeded RNG, so runs
are reproducible.

A sample that cannot beat the incumbent costs no trace and no
robustness pass: a lower bound on its robustness, from the state after
each operation, already shows it (see `falsify`).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .ctgen import Configuration, CtError
from .logic import LogicError
from .record import Record
from .sim import (
    InstantiationError, InstantiationPlan, Scenario, ScenarioSample, SimError,
    checkpoint_rows, instantiate, run_policy,
)
from .stl import (
    PredicateMap, SpecSynthesisResult, StlError, Trace, checkpoint_bound, robustness,
    synthesize,
)
from .tasks import format_task
from .theory import ActionTheory, TheoryError


class FalsificationError(Exception):
    pass


_INIT_BATCH = 8
_STAGNATION = 12  # non-improving evaluations before a restart
_INIT_STEP = 0.25
_MIN_STEP = 1e-3
_SAMPLE_DT = 0.25  # simulation sample period, seconds


class FalsificationResult(Record):
    status: str  # "falsified" | "passed-budget-exhausted"
    best_robustness: float
    best_sample: Optional[ScenarioSample]
    best_trace: Optional[Trace]
    evaluations: int
    infeasible: int

    def __post_init__(self):
        if (self.status == "falsified") != (self.best_robustness < 0):
            raise FalsificationError("status/robustness inconsistency")


def _latin_hypercube(rng: random.Random, n: int, d: int) -> list[tuple[float, ...]]:
    cols = []
    for _ in range(d):
        cells = list(range(n))
        rng.shuffle(cells)
        cols.append([(c + rng.random()) / n for c in cells])
    return [tuple(cols[j][i] for j in range(d)) for i in range(n)]


def falsify(config: Configuration, spec: SpecSynthesisResult, scn: Scenario,
            budget: int, seed: int) -> FalsificationResult:
    """Minimize robustness of `spec`, synthesized from `config`, over the
    unit box, with at most `budget` evaluations and an RNG seeded by `seed`.

    Stops early at the first strictly negative, non-truncated robustness.
    A result `stl.robustness` reports truncated, because some window
    ends past the horizon, is clamped at zero, so it never counts as
    falsified; a run the horizon cuts short while every window lies
    within the trace is a missed deadline, and counts.

    The instantiation plan of the configuration's initial world
    (`sim.InstantiationPlan`) is built once per call.  Every
    instantiation is checked against `spec.initial`, chi of the initial
    world as a literal table.

    Once there is an incumbent, a sample is first bounded from below:
    `sim.checkpoint_rows` runs each operation of the first branch to
    completion and `stl.checkpoint_bound` takes the least chi margin at
    those rows.  A sample whose bound is at least the incumbent's
    robustness returns the bound, counted as an evaluation, and its
    trace is neither simulated nor evaluated.  Its exact robustness, or
    the clamped value, is at least the bound, or NaN.  The incumbent's
    robustness is at least 0 while the search runs, so either value
    fails every comparison the search makes with it (`< best_rho`,
    `< before`, `< 0`), as the bound does: the points, the RNG draws,
    the counts and the result are those of evaluating every sample in
    full.  So are the errors: those of `stl.robustness` depend only on
    the spec and the sample times, which every trace shares, and surface
    at the first feasible evaluation, which always runs in full, and
    `checkpoint_rows` raises only what `run_policy` would raise on the
    same sample.  The bound reads the sample times of the incumbent's
    trace.
    """
    if budget < 1:
        raise FalsificationError("budget must be at least 1")
    # with several surviving branches the policy follows the first one;
    # the spec is their disjunction, so a violation is still a violation
    ops = list(spec.branches[0].ops)
    horizon = max(len(ops), 1) * spec.delta_t
    plan = InstantiationPlan(config.initial_world, scn)
    d = plan.dimension
    rng = random.Random(seed)

    evaluations = 0
    infeasible = 0
    best_rho = math.inf
    best_sample: Optional[ScenarioSample] = None
    best_trace: Optional[Trace] = None

    def evaluate(point: tuple[float, ...]) -> float:
        """The point's robustness, a lower bound on it that cannot beat the
        incumbent, or infinity if the point cannot be instantiated."""
        nonlocal evaluations, infeasible, best_rho, best_sample, best_trace
        evaluations += 1
        try:
            sample = instantiate(plan, spec.initial, point)
        except InstantiationError:
            infeasible += 1
            return math.inf
        if best_sample is not None:
            rows = checkpoint_rows(scn, sample, ops, _SAMPLE_DT, horizon)
            bound = None if rows is None else checkpoint_bound(spec, best_trace.times, rows)
            if bound is not None and bound >= best_rho:
                return bound
        trace, _ = run_policy(scn, sample, ops, _SAMPLE_DT, horizon)
        r = robustness(spec.formula, trace)
        effective = max(r.value, 0.0) if r.truncated else r.value
        # the first feasible point is the incumbent even at +inf, the
        # robustness of a `true` spec
        if effective < best_rho or best_sample is None:
            best_rho = effective
            best_sample, best_trace = sample, trace
        return effective

    for p in _latin_hypercube(rng, min(_INIT_BATCH, budget), d):
        if evaluate(p) < 0:
            break

    step = _INIT_STEP
    since_improvement = 0
    while evaluations < budget and best_rho >= 0:
        if best_sample is None or since_improvement >= _STAGNATION:
            candidate = tuple(rng.random() for _ in range(d))
            step = _INIT_STEP
            since_improvement = 0
        else:
            candidate = tuple(min(1.0, max(0.0, x + rng.gauss(0.0, step)))
                              for x in best_sample.sample_point)
        before = best_rho
        if evaluate(candidate) < before:
            step = min(2.0 * step, 1.0)
            since_improvement = 0
        else:
            step = max(0.5 * step, _MIN_STEP)
            since_improvement += 1

    if best_sample is None:
        raise FalsificationError(
            "every instantiation was infeasible for %s" % format_task(config.task))
    status = "falsified" if best_rho < 0 else "passed-budget-exhausted"
    return FalsificationResult(status, best_rho, best_sample, best_trace,
                               evaluations, infeasible)


# Failures a campaign records per configuration instead of stopping.
_DOMAIN_ERRORS = (StlError, SimError, FalsificationError, TheoryError, CtError,
                  LogicError)


class CampaignEntry(Record):
    index: int
    task_text: str
    status: str  # falsify status or "error"
    robustness: Optional[float]
    evaluations: int
    error: Optional[str]


def campaign(configs: list[Configuration], theory: ActionTheory, scn: Scenario,
             pmap: PredicateMap, budget: int,
             seed: int) -> list[tuple[CampaignEntry, Optional[FalsificationResult]]]:
    """Falsify each configuration; a configuration that fails with a domain
    error is recorded as an "error" entry, with the error's type name, and
    the campaign continues.  Any other exception is a programming error and
    propagates.  Per-config seeds are derived from the base seed.  The
    configurations share the theory's forward-execution caches, so each
    operation is grounded once per theory, and one dict of chi tables
    (`synthesize`), so chi of each state is built once per campaign."""
    out = []
    tables: dict = {}
    for i, config in enumerate(configs):
        task_text = format_task(config.task)
        try:
            spec = synthesize(config, theory, pmap, tables)
            res = falsify(config, spec, scn, budget, seed + i)
            out.append((CampaignEntry(i, task_text, res.status,
                                      res.best_robustness, res.evaluations, None), res))
        except _DOMAIN_ERRORS as e:
            out.append((CampaignEntry(i, task_text, "error", None, 0,
                                      "%s: %s" % (type(e).__name__, e)), None))
    return out


def summarize(entries: list[CampaignEntry]) -> dict:
    n = len(entries)
    falsified = sum(1 for e in entries if e.status == "falsified")
    passed = sum(1 for e in entries if e.status == "passed-budget-exhausted")
    errors = sum(1 for e in entries if e.status == "error")
    return {"configurations": n, "falsified": falsified, "passed": passed,
            "errors": errors}
