#!/usr/bin/env python3
"""Print one sha256 digest per fixed eigenvalue set and per fixed CLI call.

The first lines each hold the digest over a converged_spectrum slice's
values, converged flags, est_error, truncation_N and history, followed
by the set.  The last lines each hold the digest of the stdout bytes and
the exit code of one jacspec invocation, followed by its argv.

    PYTHONPATH=src python3 scripts/spectrum_digest.py
    PYTHONPATH=src python3 scripts/spectrum_digest.py --against CHECKOUT

With --against, the script also runs itself on CHECKOUT's package (its
src/ directory) in a second process, prints every line that differs,
and exits 1 unless all lines match.  Identical lines mean that a change
leaves every eigenvalue, its certificate and the printed bytes alone,
bit for bit.
"""

import argparse
import contextlib
import hashlib
import io
import os
import pathlib
import subprocess
import sys

from jacspec import cli
from jacspec.eigensolve import SpectralRequest, converged_spectrum
from jacspec.model import ModelParams

# (g, c1, c2, n_lo, n_hi, tol): eleven sets across couplings, shifts and
# tolerances, then four at large n, where tol / 8 falls below ulp(n) and
# grid points round onto bracket ends
SETS = [
    (0.5, 1.0, 0.0, 16, 4095, 1e-8),
    (2.0, 0.3, -0.4, 0, 3000, 1e-8),
    (0.1, 1.0, 0.0, 0, 40, 1e-8),
    (1.2, 0.7, 0.7, 900, 931, 1e-8),
    (0.0, 1.0, 0.0, 0, 30, 1e-8),
    (5.0, 1.0, 0.0, 0, 2000, 1e-8),
    (12.0, 1.0, 0.0, 0, 500, 1e-6),
    (-0.7, 0.2, 1.5, 100, 1500, 1e-10),
    (18.0, 0.0, 0.5, 0, 3000, 1e-8),
    (0.5, 1.0, 0.0, 4090, 4095, 1e-11),
    (6.0, 0.0, 0.5, 0, 300, 1e-9),
    (0.5, 1.0, 0.0, 99000, 100000, 1e-10),
    (0.5, 1.0, 0.0, 99900, 100000, 1e-10),
    (2.0, 0.7, 0.7, 98000, 100000, 1e-10),
    (0.5, 1.0, 0.0, 0, 100000, 1e-2),
]

# the asymptotics table of the benchmark's table_wide request in JSON and
# in CSV, asymptotics at its defaults, a 2001-row spectrum in JSON, and
# the pinned defaults
CALLS = [
    ["asymptotics", "--g", "0.5", "--c1", "1.0", "--c2", "0.0", "--n", "16:4095",
     "--tol", "1e-08", "--format", "json"],
    ["asymptotics", "--g", "0.5", "--c1", "1.0", "--c2", "0.0", "--n", "16:4095",
     "--tol", "1e-08"],
    ["asymptotics"],
    ["spectrum", "--g", "0.5", "--n", "0:2000", "--format", "json"],
    ["--defaults"],
]


def digest(g, c1, c2, n_lo, n_hi, tol):
    sl = converged_spectrum(ModelParams(g=g, c1=c1, c2=c2), SpectralRequest(n_lo, n_hi, tol))
    h = hashlib.sha256()
    for arr in (sl.values, sl.converged, sl.est_error):
        h.update(arr.tobytes())
    h.update(repr((sl.truncation_N, sl.history)).encode())
    return h.hexdigest()


def call_digest(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def lines():
    for g, c1, c2, n_lo, n_hi, tol in SETS:
        yield (f"{digest(g, c1, c2, n_lo, n_hi, tol)} "
               f"g={g!r} c1={c1!r} c2={c2!r} n={n_lo}:{n_hi} tol={tol!r}")
    for argv in CALLS:
        sha, code = call_digest(argv)
        yield f"{sha} exit={code} jacspec {' '.join(argv)}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--against", metavar="CHECKOUT",
                    help="also run on CHECKOUT/src and exit 1 unless every line matches")
    args = ap.parse_args(argv)
    other = None
    if args.against:
        src = pathlib.Path(args.against, "src").resolve()
        other = subprocess.Popen([sys.executable, str(pathlib.Path(__file__).resolve())],
                                 env=dict(os.environ, PYTHONPATH=str(src)),
                                 stdout=subprocess.PIPE, text=True)
    ours = []
    for line in lines():
        print(line, flush=True)
        ours.append(line)
    if other is None:
        return 0
    theirs = other.communicate()[0].splitlines()
    if other.returncode:
        print(f"the run on {src} exited {other.returncode}")
        return 1
    differ = [(a, b) for a, b in zip(ours, theirs) if a != b]
    for a, b in differ:
        print(f"differs: {a}\n   from: {b}")
    same = len(ours) - len(differ)
    print(f"{same} of {len(ours)} lines match {src}")
    return 0 if same == len(ours) == len(theirs) else 1


if __name__ == "__main__":
    sys.exit(main())
