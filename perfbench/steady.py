"""Steadiness of the benchmark: run each workload many times and summarise.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]

Each run is ``run.py --workload NAME --seed S --seconds T --trace 0``
with a new seed, T being ``run_seconds`` from BENCHMARK.json.  For
every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(q3 - q1) / median, flagged when the spread reaches a third of the
metric's bound.  It also prints the share of failed operations per run,
which must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=HERE.parent)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    for workload in args.workload:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(workload, seed, SPEC["run_seconds"])
            results.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                  flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share per run {shares}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            if flag and name != "setup_s":
                steady = False
            print(f"  {name:14s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound}{flag}", flush=True)
        steady = steady and len(shares) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
