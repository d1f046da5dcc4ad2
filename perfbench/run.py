"""End-to-end and per-layer benchmark of the robovalid CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each sample runs ``robovalid.cli.main(argv)`` once in a fresh interpreter
(``perfbench/child.py``) with ``PYTHONPATH=src`` and the default
``--jobs 1``.  A run first starts one discarded warm-up interpreter and
``SETUP_SAMPLES`` set-up-only interpreters, then repeats the workload
until the next sample would end past ``--seconds`` (always at least one),
then starts ``SETUP_SAMPLES`` set-up-only interpreters again.
With ``--trace 1`` it then makes one more, traced, sample and reports the
per-layer metrics instead of the end-to-end ones.

Every sample's artifacts are checked against the outputs recorded at
seed 0 (``perfbench/reference/``); other seeds are checked against
seed-independent invariants.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Samples write their artifacts under ``.benchwork/<workload>/``, which
each run empties first.  The run record (Python version, CPU count,
revision, load average before and after, every sample, the per-layer
table) is kept in ``.benchwork/records/``.  The benchmark writes nowhere
else.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of caches

from tracing import layer_table, percentile, read_spans, self_times  # noqa: E402

WORK = os.path.join(ROOT, ".benchwork")
REFERENCE = os.path.join(HERE, "reference")
# `generate --depth 8 --strength 2` output at the time the benchmark was
# made, and every fourth line of it: the falsify workload's input.
FROZEN_CONFIGS = "perfbench/inputs/kitchen4_d8_t2.configs.jsonl"
FALSIFY_CONFIGS = "perfbench/inputs/kitchen4_d8_t2_every4th.configs.jsonl"
MODEL = "models/kitchen4.sc"
PMAP = "models/kitchen4.pmap"
SCENARIO = "models/kitchen4_scenario.json"
REFERENCE_SEED = 0
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 170
# Accounting self-test: layer self times plus cli.self_s must equal the
# traced wall time within this share of it (plus 0.1 ms).
ACCOUNTING_TOLERANCE = 1e-3


def _campaign_flags(seed: int) -> list[str]:
    return ["--pmap", PMAP, "--scenario", SCENARIO, "--budget", "25",
            "--seed", str(seed)]


# name -> CLI arguments (without --out), inputs loaded during set-up, and
# the problem sizes the traced run must reproduce.
WORKLOADS = {
    "gen-d6-t3": {
        "argv": lambda seed: ["generate", "--model", MODEL, "--depth", "6",
                              "--strength", "3"],
        "loads": {"model": MODEL},
        "sizes": {"theory.worlds": 12, "tasks.derivations": 268,
                  "ctgen.valid_rows": 111, "ctgen.rows": 71},
    },
    "falsify-d8-13": {
        "argv": lambda seed: ["falsify", "--model", MODEL,
                              "--configs", FALSIFY_CONFIGS] + _campaign_flags(seed),
        "loads": {"model": MODEL, "pmap": PMAP, "scenario": SCENARIO,
                  "configs": FALSIFY_CONFIGS},
        "sizes": {},
    },
    "validate-d4-fault": {
        "argv": lambda seed: ["validate", "--model", MODEL, "--depth", "4",
                              "--strength", "2", "--knob", "doorTorqueLimit=0.3"]
                             + _campaign_flags(seed),
        "loads": {"model": MODEL, "pmap": PMAP, "scenario": SCENARIO},
        "sizes": {"theory.worlds": 12, "tasks.derivations": 28,
                  "ctgen.valid_rows": 33, "ctgen.rows": 17},
    },
}

class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def run_child(mode: str, workload: dict, seed: int, sample_dir: str) -> dict:
    os.makedirs(sample_dir)
    out_dir = os.path.join(sample_dir, "out")
    job = {"mode": mode, "argv": workload["argv"](seed) + ["--out", out_dir],
           "loads": workload["loads"],
           "result": os.path.join(sample_dir, "result.json"),
           "spans": os.path.join(sample_dir, "spans.csv")}
    job_path = os.path.join(sample_dir, "job.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    job["spawn_mono"] = time.monotonic()
    with open(job_path, "w") as f:
        json.dump(job, f)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("%s sample timed out after %d s" % (mode, CHILD_TIMEOUT_S))
    if rc != 0:
        raise BenchError("%s sample exited with code %d" % (mode, rc))
    with open(job["result"]) as f:
        result = json.load(f)
    expected = os.path.join(ROOT, "src", "robovalid", "cli.py")
    if result["module_file"] != expected:
        raise BenchError("imported %s, not the checkout's %s"
                         % (result["module_file"], expected))
    result.update(out_dir=out_dir, spans_path=job["spans"])
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _read_lines(path: str) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return f.read().splitlines()


def _read_bytes(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def check_generate(sample: dict, seed: int) -> tuple[int, list[str]]:
    """Units: the four depth counts and every configs.jsonl line.

    ``generate`` takes no seed, so every seed is checked against the
    reference outputs.
    """
    ref_dir = os.path.join(REFERENCE, "gen-d6-t3")
    with open(os.path.join(ref_dir, "counts.json")) as f:
        ref_counts = json.load(f)
    lines = sample["stdout"].splitlines()
    try:
        _, sv, acc, rows, _ = lines[1].split()
        counts = {"syntax_valid": int(sv), "accomplishable": int(acc),
                  "rows": int(rows)}
    except (IndexError, ValueError):
        counts = {}
    counts["valid_rows"] = sample.get("valid_rows")
    failures = ["count %s: %r != %r" % (k, counts.get(k), v)
                for k, v in sorted(ref_counts.items()) if counts.get(k) != v]
    ref_lines = _read_lines(os.path.join(ref_dir, "configs.jsonl"))
    got = _read_lines(os.path.join(sample["out_dir"], "configs.jsonl"))
    n = max(len(ref_lines), len(got))
    failures += ["configs.jsonl line %d differs" % (i + 1) for i in range(n)
                 if i >= len(ref_lines) or i >= len(got) or ref_lines[i] != got[i]]
    return len(ref_counts) + n, failures


def _check_campaign(sample: dict, seed: int, name: str, invariant,
                    traces: bool) -> tuple[int, list[str]]:
    """Units: one per configuration of the reference report.

    At the reference seed each configuration's (task, status, robustness,
    evaluations) and, with ``traces``, its trace CSV bytes must equal the
    reference.  At other seeds the task must match and ``invariant`` must
    hold.  Whole-file bytes are not compared, so report fields added later
    do not count as failures.
    """
    ref_dir = os.path.join(REFERENCE, name)
    with open(os.path.join(ref_dir, "report_fields.json")) as f:
        ref = json.load(f)
    try:
        with open(os.path.join(sample["out_dir"], "report.json")) as f:
            got = json.load(f)["configurations"]
    except (OSError, ValueError, KeyError):
        got = []
    failures = []
    n = max(len(ref), len(got))
    for i in range(n):
        if i >= len(ref) or i >= len(got):
            failures.append("configuration %d missing or extra" % i)
            continue
        r, g = ref[i], got[i]
        trace = _read_bytes(os.path.join(sample["out_dir"], "trace_%03d.csv" % i))
        if seed == REFERENCE_SEED:
            fields = ("index", "task", "status", "robustness", "evaluations")
            ok = all(g.get(k) == r[k] for k in fields) and g.get("error") is None
            if traces:
                ok = ok and trace == _read_bytes(os.path.join(ref_dir, "trace_%03d.csv" % i))
        else:
            ok = (g.get("index") == i and g.get("task") == r["task"]
                  and g.get("error") is None and invariant(g))
            if traces:
                ok = ok and (trace is not None) == (g.get("status") == "falsified")
        if not ok:
            failures.append("configuration %d differs: %r" % (i, g))
    return n, failures


def check_falsify(sample: dict, seed: int) -> tuple[int, list[str]]:
    # healthy scenario: nothing can be falsified, so every search runs out
    return _check_campaign(
        sample, seed, "falsify-d8-13",
        lambda g: g["status"] == "passed-budget-exhausted" and g["evaluations"] == 25,
        traces=False)


def check_validate(sample: dict, seed: int) -> tuple[int, list[str]]:
    # with the door torque fault, exactly the tasks that open a door fail
    return _check_campaign(
        sample, seed, "validate-d4-fault",
        lambda g: (g["status"] == "falsified") == ("open" in g["task"]),
        traces=True)


CHECKS = {"gen-d6-t3": check_generate, "falsify-d8-13": check_falsify,
          "validate-d4-fault": check_validate}


def check_sample(name: str, sample: dict, seed: int) -> tuple[int, list[str]]:
    attempted, failures = CHECKS[name](sample, seed)
    if sample["error"] is not None or sample["rc"] not in (0, None):
        return attempted, ["main() failed: rc=%r error=%r"
                           % (sample["rc"], sample["error"])] * attempted
    return attempted, failures


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

TIMED = ("stl.robustness", "stl.synthesize", "sim.run_policy", "sim.instantiate",
         "falsify.falsify", "wp.wp", "wp.holds_at", "ctgen.build_model",
         "ctgen.enumerate_valid", "ctgen.generate_covering_array",
         "ctgen.realize_configuration", "theory.enumerate_initial_worlds",
         "tasks.enumerate_derivations")
CALLED = ("stl.robustness", "stl.synthesize", "sim.run_policy", "sim.instantiate",
          "wp.wp", "wp.holds_at", "ctgen.realize_configuration",
          "theory.enumerate_initial_worlds")
_NO_ROW = {"calls": 0, "spans": 0, "raised": 0, "self_s": 0.0, "incl_s": 0.0,
           "durations": [], "ok_by_call": {}}


def layer_metrics(table: dict, observed: dict, traced_wall: float,
                  untraced_median: float) -> dict:
    rows = table["layers"]

    def row(name):
        return rows.get(name, _NO_ROW)

    m = {}
    for name in TIMED:
        m[name + ".self_s"] = row(name)["self_s"]
    for name in CALLED:
        m[name + ".calls"] = row(name)["calls"]
    rob_ms = [d * 1e3 for d in row("stl.robustness")["durations"]]
    m["stl.robustness.ms_p50"] = percentile(rob_ms, 50)
    m["stl.robustness.ms_p99"] = percentile(rob_ms, 99)
    verdicts = row("falsify.falsify")["durations"]
    m["falsify.falsify.s_p50"] = percentile(verdicts, 50)
    m["falsify.falsify.s_p90"] = percentile(verdicts, 90)
    inst = row("sim.instantiate")
    m["sim.feasible_share"] = ((inst["spans"] - inst["raised"]) / inst["spans"]
                               if inst["spans"] else 0.0)
    # problem sizes: items of the largest enumeration
    m["theory.worlds"] = max(row("theory.enumerate_initial_worlds")["ok_by_call"].values(),
                             default=0)
    m["tasks.derivations"] = max(row("tasks.enumerate_derivations")["ok_by_call"].values(),
                                 default=0)
    m["ctgen.valid_rows"] = sum(row("ctgen.enumerate_valid")["ok_by_call"].values())
    m.update(observed)
    m["cli.self_s"] = table["cli_self_s"]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_median
    return m


def accounting_failures(name: str, table: dict, metrics: dict, traced_wall: float,
                        report_evaluations) -> list[str]:
    """Self times must add up to the traced wall time, and the problem-size
    counts must match the workload.  Call counts are reported, never
    asserted: faster implementations are meant to lower them."""
    failures = []
    total = sum(r["self_s"] for r in table["layers"].values()) + table["cli_self_s"]
    if abs(total - traced_wall) > ACCOUNTING_TOLERANCE * traced_wall + 1e-4:
        failures.append("self times add up to %.6f s, traced wall is %.6f s"
                        % (total, traced_wall))
    for key, want in WORKLOADS[name]["sizes"].items():
        if metrics[key] != want:
            failures.append("%s: %r != %r" % (key, metrics[key], want))
    if report_evaluations is not None and metrics["falsify.evaluations"] != report_evaluations:
        failures.append("falsify.evaluations %d != report.json total %d"
                        % (metrics["falsify.evaluations"], report_evaluations))
    return failures


def _report_evaluations(out_dir: str):
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return sum(c["evaluations"] for c in json.load(f)["configurations"])


def format_table(table: dict, wall: float) -> list[str]:
    lines = ["%-34s %8s %10s %10s %7s" % ("layer", "calls", "self_s", "incl_s", "self%")]
    layers = sorted(table["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, r in layers + [("cli (outside every span)",
                              {"calls": 1, "self_s": table["cli_self_s"],
                               "incl_s": wall})]:
        lines.append("%-34s %8d %10.4f %10.4f %6.1f%%"
                     % (name, r["calls"], r["self_s"], r["incl_s"],
                        100 * r["self_s"] / wall))
    return lines


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_revision():
    """Revision from .git without running git (the checkout may have none)."""
    git = os.path.join(ROOT, ".git")
    head = _read_bytes(os.path.join(git, "HEAD"))
    if head is None:
        return None
    head = head.decode().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read_bytes(os.path.join(git, ref))
    if loose is not None:
        return loose.decode().strip()
    for line in _read_lines(os.path.join(git, "packed-refs")):
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                h.update(_read_bytes(path))
    return h.hexdigest()


def tail_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100 * (n - 10) / n, 1),
            "value": sorted(samples)[n - 11]}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def require_checkout() -> None:
    missing = [p for p in ("src/robovalid/cli.py", MODEL, PMAP, SCENARIO, FROZEN_CONFIGS,
                           FALSIFY_CONFIGS)
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a robovalid checkout, missing: %s" % ", ".join(missing))


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)),
              "git_revision": git_revision(), "source_sha256": source_digest(),
              "loadavg_before": os.getloadavg()}
    counter = itertools.count()

    def sample(mode):
        return run_child(mode, workload, seed,
                         os.path.join(work, "%s-%03d" % (mode, next(counter))))

    sample("setup")  # warm-up: byte-compiles a fresh checkout, not timed
    setups = [sample("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

    attempted, failures, samples = 0, [], []
    deadline = time.monotonic() + seconds
    while True:
        t = time.monotonic()
        s = sample("run")
        a, f = check_sample(name, s, seed)
        attempted += a
        failures += f
        samples.append({k: s[k] for k in ("wall_s", "setup_s", "peak_rss_mb")})
        if time.monotonic() + (time.monotonic() - t) > deadline:
            break
    # as many set-up samples again after the workload, so that a slow
    # phase of a shared machine does not skew set-up alone
    setups += [sample("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    setups += [s["setup_s"] for s in samples]
    walls = [s["wall_s"] for s in samples]
    record.update(samples=samples, setup_samples=setups,
                  wall_s={"median": statistics.median(walls), "n": len(walls),
                          "tail": tail_percentile(walls)})

    if trace:
        s = sample("traced")
        spans = read_spans(s["spans_path"])
        table = layer_table(spans, tuple(s["root_ns"]))
        s["valid_rows"] = sum(table["layers"].get("ctgen.enumerate_valid",
                                                  _NO_ROW)["ok_by_call"].values())
        a, f = check_sample(name, s, seed)
        attempted += a
        failures += f
        values = layer_metrics(table, s["observed"], s["wall_s"], statistics.median(walls))
        accounting = accounting_failures(name, table, values, s["wall_s"],
                                         _report_evaluations(s["out_dir"]))
        record.update(traced_wall_s=s["wall_s"], skipped_wraps=s["skipped"],
                      accounting_failures=accounting, spans=len(spans),
                      layers={k: {c: v for c, v in r.items() if c != "durations"}
                              for k, r in table["layers"].items()},
                      cli_self_s=table["cli_self_s"])
        print("\n".join(format_table(table, s["wall_s"])))
        print("tracing overhead: %.3f s (traced %.3f s, untraced median %.3f s of %d)"
              % (values["trace.overhead_s"], s["wall_s"], statistics.median(walls), len(walls)))
        for f in accounting:
            print("ACCOUNTING FAILED:", f)
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
                  "ok_share": 1 - len(failures) / attempted}
        accounting = []

    record.update(loadavg_after=os.getloadavg(), attempted=attempted,
                  failures=failures)
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    path = os.path.join(records, "%s-seed%d-trace%d-%s.json"
                        % (name, seed, int(trace), time.strftime("%Y%m%dT%H%M%S")))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    tail = record["wall_s"]["tail"]
    print("wall_s median %.4f s over %d samples (%s); setup_s median %.4f s over %d; "
          "loadavg %.2f -> %.2f; record %s"
          % (record["wall_s"]["median"], len(walls),
             "p%g %.4f s" % (tail["percentile"], tail["value"]) if tail
             else "no percentile has ten samples beyond it",
             statistics.median(setups), len(setups),
             record["loadavg_before"][0], record["loadavg_after"][0],
             os.path.relpath(path, ROOT)))
    for f in failures[:20]:
        print("FAILED:", f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    return {"correct": not failures and not accounting, "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def self_test() -> list[str]:
    """Checks kept out of the timed runs: the frozen depth-8 configurations
    still match what ``generate`` makes, the falsify input is every fourth
    of them, and the self-time arithmetic holds."""
    problems = []
    work = os.path.join(WORK, "self-test")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    regen = {"argv": lambda seed: ["generate", "--model", MODEL, "--depth", "8",
                                   "--strength", "2"],
             "loads": {"model": MODEL}}
    s = run_child("run", regen, REFERENCE_SEED, os.path.join(work, "regenerate"))
    if _read_bytes(os.path.join(s["out_dir"], "configs.jsonl")) != \
            _read_bytes(os.path.join(ROOT, FROZEN_CONFIGS)):
        problems.append("%s differs from a fresh `generate --depth 8 --strength 2`"
                        % FROZEN_CONFIGS)
    frozen = _read_lines(os.path.join(ROOT, FROZEN_CONFIGS))
    if _read_lines(os.path.join(ROOT, FALSIFY_CONFIGS)) != frozen[::4]:
        problems.append("%s is not every fourth line of %s" % (FALSIFY_CONFIGS, FROZEN_CONFIGS))
    # root [0, 100]; a [10, 50] with child b [20, 30]; c [60, 70]
    spans = [(0, -1, "a", 10, 50, -1, 0, "ok"), (1, 0, "b", 20, 30, -1, 0, "ok"),
             (2, -1, "c", 60, 70, -1, 0, "ok")]
    self_ns, root_self = self_times(spans, (0, 100))
    if (self_ns, root_self) != ({0: 30, 1: 10, 2: 10}, 50):
        problems.append("self_times: %r, %r" % (self_ns, root_self))
    # overlapping siblings must not add up to the root's duration
    overlap = spans[:2] + [(2, 0, "c", 25, 45, -1, 0, "ok")]
    self_ns, root_self = self_times(overlap, (0, 100))
    if sum(self_ns.values()) + root_self == 100:
        problems.append("overlapping spans went unnoticed")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        require_checkout()
        if args.self_test:
            problems = self_test()
            for line in problems:
                print("SELF-TEST FAILED:", line)
            print("self-test %s" % ("failed" if problems else "passed"))
            return 1 if problems else 0
        if args.workload is None:
            p.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
