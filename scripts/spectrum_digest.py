#!/usr/bin/env python3
"""Print one sha256 digest of converged_spectrum per fixed parameter set.

Each line holds the digest over the slice's values, converged flags,
est_error, truncation_N and history, followed by the set.  Run it in
two checkouts (PYTHONPATH=src python3 scripts/spectrum_digest.py) and
compare the outputs: identical lines mean the change leaves every
eigenvalue and its certificate alone, bit for bit.  Takes no options.
"""

import hashlib

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


def digest(g, c1, c2, n_lo, n_hi, tol):
    sl = converged_spectrum(ModelParams(g=g, c1=c1, c2=c2), SpectralRequest(n_lo, n_hi, tol))
    h = hashlib.sha256()
    for arr in (sl.values, sl.converged, sl.est_error):
        h.update(arr.tobytes())
    h.update(repr((sl.truncation_N, sl.history)).encode())
    return h.hexdigest()


def main():
    for g, c1, c2, n_lo, n_hi, tol in SETS:
        line = f"g={g!r} c1={c1!r} c2={c2!r} n={n_lo}:{n_hi} tol={tol!r}"
        print(digest(g, c1, c2, n_lo, n_hi, tol), line, flush=True)


if __name__ == "__main__":
    main()
