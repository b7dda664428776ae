"""jacspec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload table_wide --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): table_wide, slices_many,
certify, or ``all`` for the three in turn.  One worker process per
workload issues the requests through ``jacspec.cli.main`` one after
another (a closed loop with one client) for ``--seconds``, in whole
rounds.  Every output is checked against scipy/mpmath references or
properties of the method (checks.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with spans around every public jacspec
function, and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS, make_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# trace spans and self-test working files; ignored by git
OUT_DIR = ROOT / ".perfbench"

MODULES = ("cli", "specfun", "model", "eigensolve", "asymptotics", "diagonalize")
SETUP_CODE = ("import sys; import " + ", ".join(f"jacspec.{m}" for m in MODULES)
              + "; sys.stdout.write('ready\\n'); sys.stdout.flush()")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s",
              "request_p50_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def child_env():
    """Environment of every process that imports jacspec.

    BLAS threads are capped at nproc through JS_THREADS.  The CLI copies
    JS_THREADS into the BLAS variables only inside main(), after numpy
    has loaded, so they are set here as well, before the process starts.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    env["JS_THREADS"] = nproc
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def setup_once(env, deadline):
    """Seconds from spawning a fresh interpreter until it has imported jacspec."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError(f"importing jacspec failed: {err.decode()[-400:]}")
    return elapsed


def measure_setup(env, deadline):
    setup_once(env, deadline)  # warm-up: fills the bytecode cache
    return statistics.median(setup_once(env, deadline) for _ in range(SETUP_SAMPLES))


def run_worker(requests, seconds, trace, env, deadline, spans_path=None):
    """Run the worker process; return (per-request records, final record)."""
    job = {"src": str(SRC), "seconds": seconds, "trace": trace,
           "spans_path": str(spans_path) if spans_path else None,
           "requests": [{"argv": r["argv"]} for r in requests]}
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines or not lines[-1].get("done"):
        raise BenchError(f"workload process failed: {err[-2000:]}")
    return lines[:-1], lines[-1]


def count_rows(req, stdout):
    """Result rows in one output: eigenvalues, check lines or oracle routes."""
    if req["kind"] == "spectrum":
        return max(len(stdout.splitlines()) - 1, 0)
    if req["kind"] == "asymptotics":
        return len(json.loads(stdout)["rows"])
    return len(stdout.splitlines())


def judge(requests, records, refs):
    """Check every record; return (attempted, failed, correct, rows, problems)."""
    failed = 0
    correct = True
    rows = 0
    problems = []
    for rec in records:
        req = requests[rec["i"]]
        if rec["error"] is not None:
            failed += 1
            problems.append(f"{' '.join(req['argv'])}: crashed: {rec['error']}")
            continue
        if rec["i"] not in refs:
            refs[rec["i"]] = checks.reference(req)
        found = checks.check(req, rec["code"], rec["stdout"], refs[rec["i"]])
        if found:
            failed += 1
            correct = False
            problems.extend(f"{' '.join(req['argv'])}: {p}" for p in found)
        else:
            rows += count_rows(req, rec["stdout"])
    return len(records), failed, correct, rows, problems


def round_walls(records):
    walls = {}
    for rec in records:
        walls[rec["round"]] = walls.get(rec["round"], 0.0) + rec["latency_s"]
    return [walls[r] for r in sorted(walls)]


def run_workload(name, seed, seconds, trace):
    """Measure one workload; return the result object to print."""
    deadline = time.monotonic() + DEADLINE_S
    requests = make_requests(name, seed)
    env = child_env()
    refs = {}
    if not trace:
        setup_s = measure_setup(env, deadline)
        records, final = run_worker(requests, seconds, False, env, deadline)
        attempted, failed, correct, rows, problems = judge(requests, records, refs)
        walls = round_walls(records)
        wall = statistics.median(walls)
        ok_latency = [r["latency_s"] for r in records
                      if r["error"] is None and r["code"] == 0]
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "rows_per_s": rows / len(walls) / wall,
            "request_p50_s": statistics.median(ok_latency) if ok_latency else wall,
            "peak_rss_mb": final["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans_{name}_seed{seed}.json"
        base_records, _ = run_worker(requests, seconds, False, env, deadline)
        records, final = run_worker(requests, seconds, True, env, deadline, spans_path)
        attempted, failed, correct, rows, problems = judge(
            requests, base_records + records, refs)
        untraced = statistics.median(round_walls(base_records))
        traced = statistics.median(round_walls(records))
        layers = final["layers"]
        metrics = {k: {"value": statistics.median(row[k] for row in layers), "unit": u}
                   for k, u in LAYER_METRICS.items()}
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    for line in problems[:20]:
        sys.stderr.write(f"[{name}] {line}\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jacspec" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no jacspec sources under {SRC}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    for name, res in results.items():
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={str(res['correct']).lower()}")
        for key, m in res["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
