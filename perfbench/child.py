"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/child.py JOB.json

The job names the mode ("setup", "run" or "traced"), the CLI arguments,
the input files to load and where to write the result.  Set-up time runs
from the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes) until
``robovalid.cli`` is imported and the inputs are loaded.  Wall time is
the ``cli.main(argv)`` call, which returns after its artifacts are
written.  In "traced" mode the span recorder wraps the program's modules
first and the spans are written once, after ``main`` returns.
"""

import time

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys


def load_inputs(loads: dict) -> None:
    """Load the workload's inputs through the program's public loaders.

    The configs file is parsed here rather than by cli's private helper,
    so that refactoring cli internals does not break the benchmark.
    """
    from robovalid import sim, stl
    from robovalid.tasks import parse_task
    from robovalid.theory import WorldState, load_model

    theory = load_model(loads["model"])
    if "pmap" in loads:
        stl.load_pmap(loads["pmap"])
    if "scenario" in loads:
        sim.load_scenario(loads["scenario"])
    if "configs" in loads:
        with open(loads["configs"]) as f:
            for line in f:
                if not line.strip():
                    continue
                rec = json.loads(line)
                atoms = []
                for text in rec["fluents"]:
                    name, rest = text.split("(", 1)
                    atoms.append((name, tuple(a for a in rest.rstrip(")").split(",") if a)))
                WorldState(frozenset(atoms))
                parse_task(rec["task"], theory)


def count_valid_rows(ctgen, counter: list) -> None:
    """Count the rows ``ctgen.enumerate_valid`` yields (one integer per row)."""
    enumerate_valid = ctgen.enumerate_valid

    def counted(*args, **kwargs):
        for row in enumerate_valid(*args, **kwargs):
            counter[0] += 1
            yield row

    ctgen.enumerate_valid = counted


def stl_nodes(phi) -> int:
    """Number of formula nodes, counting every dataclass of the STL module."""
    if not (dataclasses.is_dataclass(phi) and type(phi).__module__ == "robovalid.stl"):
        return 0
    n = 1
    for f in dataclasses.fields(phi):
        v = getattr(phi, f.name)
        for child in (v if isinstance(v, tuple) else (v,)):
            n += stl_nodes(child)
    return n


def observations(results: dict) -> dict:
    """Problem-size counts from the return values the recorder kept."""
    falsified = results.get("falsify.falsify", [])
    return {
        "stl.spec_nodes": sum(stl_nodes(r.formula)
                              for r in results.get("stl.synthesize", [])),
        "sim.trace_samples": sum(len(trace.times)
                                 for trace, _ in results.get("sim.run_policy", [])),
        "falsify.evaluations": sum(r.evaluations for r in falsified),
        "falsify.falsified": sum(r.status == "falsified" for r in falsified),
        "ctgen.constraints": sum(len(m.constraints)
                                 for m in results.get("ctgen.build_model", [])),
        "ctgen.rows": sum(len(rows) for rows in
                          results.get("ctgen.generate_covering_array", [])),
    }


def main() -> None:
    with open(sys.argv[1]) as f:
        job = json.load(f)
    import robovalid.cli as cli
    load_inputs(job["loads"])
    out = {"setup_s": time.monotonic() - job["spawn_mono"],
           "module_file": os.path.abspath(cli.__file__)}
    if job["mode"] != "setup":
        recorder = None
        valid_rows = [0]
        if job["mode"] == "traced":
            sys.dont_write_bytecode = True  # keep perfbench/ free of caches
            from tracing import Recorder  # imported here: not part of set-up
            recorder = Recorder()
            recorder.install(sys.modules)
        else:
            count_valid_rows(sys.modules["robovalid.ctgen"], valid_rows)
        text = io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(text):
                rc = cli.main(job["argv"])
        except Exception as e:  # a failing program is a result, not a crash
            error = "%s: %s" % (type(e).__name__, e)
        t1 = time.perf_counter_ns()
        out.update(wall_s=(t1 - t0) / 1e9, root_ns=[t0, t1],
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   stdout=text.getvalue(), rc=rc, error=error)
        if recorder is None:
            out["valid_rows"] = valid_rows[0]
        else:
            recorder.write(job["spans"])
            out["observed"] = observations(recorder.results)
            out["skipped"] = recorder.skipped
    with open(job["result"], "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    main()
