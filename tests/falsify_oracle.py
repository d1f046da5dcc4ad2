"""Reference falsification loop for differential tests.

`falsify` is the loop that `robovalid.falsify.falsify` replaced: it
evaluates every sample in full, running the policy and the monitor even
when the sample cannot beat the incumbent.  It instantiates each point
with `sim_oracle.instantiate`, which plans nothing ahead.  It clamps a result at zero
only when the monitor reports it truncated, as `robovalid.falsify.falsify`
does.
"""

import math
import random
from typing import Optional

from robovalid.falsify import (
    _INIT_BATCH, _INIT_STEP, _MIN_STEP, _SAMPLE_DT, _STAGNATION,
    FalsificationError, FalsificationResult, _latin_hypercube,
)
from robovalid.sim import InstantiationError, box_dimension, run_policy
from robovalid.stl import Monitor, robustness
from robovalid.tasks import format_task
from sim_oracle import instantiate


def falsify(config, spec, scn, budget, seed):
    if budget < 1:
        raise FalsificationError("budget must be at least 1")
    ops = list(spec.branches[0].ops)
    horizon = max(len(ops), 1) * spec.delta_t
    d = box_dimension(scn)
    rng = random.Random(seed)
    monitor: Optional[Monitor] = None

    evaluations = 0
    infeasible = 0
    best_rho = math.inf
    best_sample = None
    best_trace = None

    def evaluate(point):
        nonlocal evaluations, infeasible, best_rho, best_sample, best_trace, monitor
        evaluations += 1
        try:
            sample = instantiate(config.initial_world, scn, spec.initial.formula, point)
        except InstantiationError:
            infeasible += 1
            return math.inf
        trace, _ = run_policy(scn, sample, ops, _SAMPLE_DT, horizon)
        if monitor is None:
            monitor = Monitor(spec.formula, trace.times)
        r = robustness(monitor, trace)
        effective = max(r.value, 0.0) if r.truncated else r.value
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
