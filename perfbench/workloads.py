"""Seeded request generation for the three benchmark workloads.

Every request is a plain argv list for ``jacspec.cli.main`` plus the
numbers the checks need.  The same seed gives the same requests.
Random draws are stratified (one draw from the middle half of each
equal-probability stratum, in shuffled order) so that the total work
of a batch, which is set by its largest indices, barely depends on the
seed.
"""

import math

import numpy as np

WORKLOADS = ("table_wide", "slices_many", "certify")

TOL = 1e-8

# The one request kept although it fails every time, whatever the seed:
# at g = 0 with c1 - c2 odd the operator is diagonal with repeated
# values, and SpectrumSlice.__post_init__ raises AssertionError on the
# ties instead of returning the sorted diagonal 1, 1, 3, 3.
KNOWN_FAILING = {"kind": "spectrum", "g": 0.0, "c1": 1.0, "c2": 0.0,
                 "n_lo": 0, "n_hi": 3, "tol": TOL, "format": "csv",
                 "known_failing": True}

SLICE_COUNT = 24
SLICE_TOP = 1000          # largest base index
SLICE_MAX_WIDTH = 32
SLICE_G = (0.1, 2.0)
# within 5% of 0.3, 0.5, 1.2 and 2.0; verify's cost grows with g
CERTIFY_G_STRATA = ((0.285, 0.315), (0.475, 0.525), (1.14, 1.26), (1.9, 2.1))


def argv_for(req):
    """The CLI argv of one request."""
    kind = req["kind"]
    argv = [kind, "--g", repr(req["g"])]
    if kind in ("spectrum", "asymptotics"):
        argv += ["--c1", repr(req["c1"]), "--c2", repr(req["c2"]),
                 "--n", f"{req['n_lo']}:{req['n_hi']}", "--tol", repr(req["tol"])]
        if req["format"] != "csv":
            argv += ["--format", req["format"]]
    return argv


def _stratified(rng, lo, hi, k):
    """k draws on [lo, hi), one per stratum, in shuffled order."""
    u = (np.arange(k) + 0.25 + 0.5 * rng.random(k)) / k
    return rng.permutation(lo + (hi - lo) * u)


def _table_wide(rng):
    req = {"kind": "asymptotics", "g": 0.5, "c1": 1.0, "c2": 0.0,
           "n_lo": 16, "n_hi": 4095, "tol": TOL, "format": "json"}
    # indices sampled for the mpmath cross-checks of diag_corr and s_n
    req["dc_sample"] = sorted(int(n) for n in np.exp(
        _stratified(rng, math.log(16), math.log(4096), 8)).astype(int))
    req["sn_sample"] = sorted(int(n) for n in _stratified(rng, 16, 201, 4).astype(int))
    return [req]


def _slices_many(rng):
    bases = np.floor(np.exp(_stratified(rng, 0.0, math.log(SLICE_TOP + 1),
                                        SLICE_COUNT))).astype(int) - 1
    widths = rng.permutation(
        np.linspace(1, SLICE_MAX_WIDTH, SLICE_COUNT).round().astype(int))
    gs = np.exp(_stratified(rng, math.log(SLICE_G[0]), math.log(SLICE_G[1]),
                            SLICE_COUNT))
    exact = rng.permutation(np.arange(SLICE_COUNT) % 2 == 0)
    reqs = []
    for base, width, g, is_exact in zip(bases, widths, gs, exact):
        c1 = float(rng.uniform(-1.0, 1.0))
        if is_exact:
            c2 = c1
        else:
            # c1 - c2 = +-(k + f) with f in [0.1, 0.9]: never an integer
            gap = int(rng.integers(0, 2)) + float(rng.uniform(0.1, 0.9))
            c2 = c1 - gap if rng.random() < 0.5 else c1 + gap
        reqs.append({"kind": "spectrum", "g": float(g), "c1": c1, "c2": float(c2),
                     "n_lo": int(base), "n_hi": int(base + width - 1),
                     "tol": TOL, "format": "csv"})
    reqs.append(dict(KNOWN_FAILING))
    return reqs


def _certify(rng):
    gs = [float(rng.uniform(lo, hi)) for lo, hi in CERTIFY_G_STRATA]
    reqs = []
    for g in gs:
        reqs.append({"kind": "verify", "g": g})
        reqs.append({"kind": "oracle", "g": g})
    return reqs


def make_requests(workload, seed):
    """The requests of one round of ``workload``, each with its argv."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    reqs = {"table_wide": _table_wide, "slices_many": _slices_many,
            "certify": _certify}[workload](rng)
    for req in reqs:
        req["argv"] = argv_for(req)
    return reqs
