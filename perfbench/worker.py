"""Workload process: one client issuing CLI requests back to back.

Reads one JSON job from stdin ({"src", "requests", "seconds", "trace",
"spans_path"}), imports jacspec from ``src``, and calls
``jacspec.cli.main(argv)`` for each request in order, round after
round, as long as another round of the mean length so far still ends
within ``seconds`` (at least one whole round).  Every request's exit
code, exception, latency and captured stdout go to stdout as one JSON
line (the CLI's stderr is dropped); the last line holds the peak RSS
and, when tracing, the per-layer metrics of each round.
"""

import contextlib
import io
import json
import os
import sys
import time


def _peak_rss_mb():
    """High-water resident set of this process since it started, in MB.

    Read from /proc, because ``ru_maxrss`` also counts the resident set
    the parent had when it forked this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _emit(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def _load_jacspec(src):
    sys.path.insert(0, src)
    import jacspec
    from jacspec import asymptotics, cli, diagonalize, eigensolve, model, specfun

    here = os.path.realpath(os.path.dirname(jacspec.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"jacspec imported from {here}, not from {src}")
    return {"cli": cli, "eigensolve": eigensolve, "model": model,
            "specfun": specfun, "asymptotics": asymptotics,
            "diagonalize": diagonalize}


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash of the program is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    return code, error, latency, out.getvalue()


def main():
    job = json.load(sys.stdin)
    proto = sys.stdout
    modules = _load_jacspec(job["src"])
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(modules)
    requests = job["requests"]
    output_bytes = []
    rounds = 0
    start = time.perf_counter()
    # whole rounds only, so the failed share is the same in every run;
    # stopping before the time is up keeps the run's length bounded
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= job["seconds"]:
        if tracer:
            tracer.round = rounds
        output_bytes.append(0)
        for i, req in enumerate(requests):
            # modules["cli"].main is looked up per call: tracing rebinds it
            code, error, latency, out = _call(modules["cli"], req["argv"])
            output_bytes[-1] += len(out.encode())
            _emit(proto, {"round": rounds, "i": i, "code": code, "error": error,
                          "latency_s": latency, "stdout": out})
        rounds += 1
    final = {"done": True, "rounds": rounds,
             "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        final["layers"] = tracer.per_round(rounds, output_bytes)
        if job.get("spans_path"):
            with open(job["spans_path"], "w") as fh:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    _emit(proto, final)


if __name__ == "__main__":
    main()
