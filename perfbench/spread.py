"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it.

Usage, from the repository root:

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Runs ``perfbench/run.py`` once per seed with ``run_seconds`` from
BENCHMARK.json and prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, next to the metric's bound.  Each run's result
line is appended to ``.benchwork/spread-<workload>.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    first, last = (int(x) for x in args.seeds.split("-"))
    log = os.path.join(ROOT, ".benchwork", "spread-%s.jsonl" % args.workload)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(first, last + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        with open(log, "a") as f:
            f.write(json.dumps(dict(result, seed=seed)) + "\n")
        if not result["correct"]:
            print("seed %d: incorrect output (%d of %d units failed)"
                  % (seed, result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, "  ".join("%s=%.4g" % (k, v[-1]) for k, v in values.items())),
              flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        print("%-12s median %.6g  q1 %.6g  q3 %.6g  spread %.4f  bound %.3f%s"
              % (m["name"], med, q1, q3, share, m["bound"],
                 "  (above a third of the bound)" if share > m["bound"] / 3 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
