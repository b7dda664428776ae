"""Correctness checks computed apart from jacspec.

``check`` takes a request (from ``workloads``), the exit code and
captured stdout of one CLI call, and the request's ``reference``
values, and returns a list of problems; an empty list means the output
is right.  References come from scipy and mpmath, or from properties
the method must have, never from jacspec.
"""

import csv
import io
import json
import math
import re

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import jv

# rows of the reference truncation beyond the highest requested index
REF_EXTRA_ROWS = 400
# pinned CLI defaults the certify requests run at
VERIFY_SMAX = 20
VERIFY_XGRID = (0.1, 100.0, 200)
ORACLE_TOL = 1e-9
EPS_TAIL = 1e-8
MP_DPS = 30

SPECTRUM_HEADER = ["n", "lambda", "truncation_n", "est_error", "converged"]
ASYMPTOTICS_KEYS = {"n", "lambda", "first_order", "diag_corr", "r1", "r2",
                    "s_n", "s_n_tail_bound"}
VERIFY_LINE = re.compile(r"^\s*(PASS|FAIL|SKIPPED\(g=0\)) (\S+) metric=(\S+)$")
ORACLE_LINE = re.compile(r"^(\S+) max_deviation=(\S+)$")
ORACLE_NAMES = ("u_contour_vs_closed", "rtilde_sum_vs_closed",
                "rtilde_finite_sum_vs_closed")


def reference_eigenvalues(g, c1, c2, n_lo, n_hi):
    """Eigenvalues n_lo..n_hi of an (n_hi + 401)-row truncation.

    The truncation is built here from the operator's definition:
    diagonal k + c1 (even k) / k + c2 (odd k), off-diagonal g sqrt(k+1).
    LAPACK returns the whole spectrum in ascending order, which is then
    addressed by index (asking LAPACK for an index range switches it to
    bisection, 30 times slower on the 4 495-row table).
    """
    size = n_hi + 1 + REF_EXTRA_ROWS
    k = np.arange(size, dtype=float)
    diag = k + np.where(np.arange(size) % 2 == 0, c1, c2)
    off = g * np.sqrt(k[1:])
    return eigh_tridiagonal(diag, off, eigvals_only=True)[n_lo:n_hi + 1]


def _check_eigenvalues(req, ns, lam, ref, problems):
    """Append eigenvalue problems; False when the rows are not n_lo..n_hi."""
    g, c1, c2, tol = req["g"], req["c1"], req["c2"], req["tol"]
    want = np.arange(req["n_lo"], req["n_hi"] + 1)
    if ns.shape != want.shape or np.any(ns != want):
        problems.append(f"indices {ns.tolist()[:4]}... do not match the request")
        return False
    err = np.abs(lam - ref)
    if not err.max() <= tol:
        i = int(np.argmax(err))
        problems.append(f"lambda_{ns[i]} = {lam[i]!r} is {err[i]:.2e} from the "
                        f"scipy reference {ref[i]!r} (tol {tol:g})")
    # Weyl: the diagonal shift moves each n - g^2 by between min and max c
    base = ns - g * g
    outside = (lam < base + min(c1, c2) - tol) | (lam > base + max(c1, c2) + tol)
    if outside.any():
        problems.append(f"lambda_{ns[outside][0]} outside the Weyl bracket")
    if c1 == c2:
        off = np.abs(lam - (base + c1))
        if not off.max() <= tol:
            problems.append(f"exactly solvable case off n - g^2 + c by {off.max():.2e}")
    # ties are right only where the reference itself has them (g = 0)
    steps = np.diff(lam)
    strict = bool(np.all(np.diff(ref) > tol))
    if (strict and not np.all(steps > 0.0)) or not np.all(steps >= 0.0):
        problems.append("eigenvalues out of order")
    return True


def check_spectrum(req, stdout, ref):
    problems = []
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SPECTRUM_HEADER:
        return [f"unexpected CSV header {rows[:1]}"]
    body = rows[1:]
    try:
        ns = np.array([int(r[0]) for r in body])
        lam = np.array([float(r[1]) for r in body])
        flags = [r[4] for r in body]
    except (ValueError, IndexError) as exc:
        return [f"malformed CSV row: {exc}"]
    if any(f != "true" for f in flags):
        problems.append(f"{sum(f != 'true' for f in flags)} rows not converged")
    _check_eigenvalues(req, ns, lam, ref["eigs"], problems)
    return problems


def _mp_laguerre_function(j, p, x):
    """Orthonormal Laguerre function of degree j, order p >= 0, in mpmath."""
    return (mp.sqrt(mp.factorial(j) / mp.factorial(j + p)) * mp.exp(-x / 2)
            * x ** (mp.mpf(p) / 2) * mp.laguerre(j, p, x))


def mp_diag_corr(n, g, c1, c2):
    """(c1 - c2)/2 (-1)^n e^{-2 g^2} L_n(4 g^2) in 30-digit arithmetic."""
    with mp.workdps(MP_DPS):
        x = 4 * mp.mpf(g) ** 2
        return float((mp.mpf(c1) - c2) / 2 * (-1) ** n * mp.exp(-x / 2)
                     * mp.laguerre(n, 0, x))


def mp_s_n(n, g):
    """s_n by brute force: sum over k != n of Rt[k, n]^2 / (n - k)^2.

    Rt[k, n] is, up to sign, the orthonormal Laguerre function of
    degree min(k, n) and order |n - k| at 4 g^2.  The sum above the
    diagonal runs until a term drops below 1e-40 of the total.
    """
    with mp.workdps(MP_DPS):
        x = 4 * mp.mpf(g) ** 2
        total = mp.fsum(_mp_laguerre_function(k, n - k, x) ** 2 / (n - k) ** 2
                        for k in range(n))
        p = 1
        while True:
            term = _mp_laguerre_function(n, p, x) ** 2 / p**2
            total += term
            if p > 8 and term < mp.mpf(10) ** -40 * total:
                return float(mp.sqrt(total))
            p += 1


def _alpha(pairs):
    """Least-squares slope of ln v against ln n, negated."""
    ln_n = np.log([n for n, v in pairs if v > 0.0])
    ln_v = np.log([v for n, v in pairs if v > 0.0])
    dn = ln_n - ln_n.mean()
    return -float(np.dot(dn, ln_v - ln_v.mean()) / np.dot(dn, dn))


def check_asymptotics(req, stdout, ref):
    problems = []
    try:
        doc = json.loads(stdout)
        rows = doc["rows"]
        fits = doc["fits"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed JSON document: {exc}"]
    if not rows or set(rows[0]) != ASYMPTOTICS_KEYS:
        return ["unexpected row keys"]
    g, c1, c2, tol = req["g"], req["c1"], req["c2"], req["tol"]
    col = {key: np.array([r[key] for r in rows], dtype=float) for key in ASYMPTOTICS_KEYS}
    ns = col["n"].astype(int)
    lam = col["lambda"]
    if not _check_eigenvalues(req, ns, lam, ref["eigs"], problems):
        return problems
    scale = 1e-12 * np.maximum(1.0, np.abs(lam))
    if np.any(np.abs(col["first_order"] - (ns - g * g + 0.5 * (c1 + c2))) > scale):
        problems.append("first_order is not n - g^2 + (c1 + c2)/2")
    if np.any(np.abs(col["r1"] - (lam - col["first_order"])) > scale):
        problems.append("r1 is not lambda - first_order")
    if np.any(np.abs(col["r2"] - (col["r1"] - col["diag_corr"])) > scale):
        problems.append("r2 is not r1 - diag_corr")
    if not np.all((col["s_n_tail_bound"] > 0.0) & (col["s_n_tail_bound"] <= EPS_TAIL**2)):
        problems.append("s_n_tail_bound is not in (0, eps_tail^2]")
    for n, want in ref["diag_corr"].items():
        got = col["diag_corr"][n - req["n_lo"]]
        if abs(got - want) > 1e-11:
            problems.append(f"diag_corr at n={n}: {got!r} vs mpmath {want!r}")
    for n, want in ref["s_n"].items():
        got = col["s_n"][n - req["n_lo"]]
        if abs(got - want) > 1e-9 * want:
            problems.append(f"s_n at n={n}: {got!r} vs mpmath {want!r}")
    # decay fits (acceptance criteria 2-4), recomputed from the rows
    floor = 10.0 * tol
    pairs = {
        "r1": [(n, abs(v)) for n, v in zip(ns, col["r1"]) if n >= 1 and abs(v) >= floor],
        "r2": [(n, abs(v)) for n, v in zip(ns, col["r2"]) if n >= 1 and abs(v) >= floor],
        "s_n": [(n, v) for n, v in zip(ns, col["s_n"]) if n >= 1],
    }
    alpha = {}
    for key, data in pairs.items():
        fit = fits.get(key) or {}
        alpha[key] = fit.get("alpha")
        if alpha[key] is None:
            problems.append(f"no decay fit for {key}")
        elif abs(alpha[key] - _alpha(data)) > 1e-9:
            problems.append(f"alpha({key}) = {alpha[key]!r} does not match the rows")
    if None not in alpha.values():
        if alpha["r1"] < 1.0 / 16.0:
            problems.append(f"alpha(r1) = {alpha['r1']:.4f} < 1/16")
        if alpha["s_n"] < 1.0 / 16.0:
            problems.append(f"alpha(s_n) = {alpha['s_n']:.4f} < 1/16")
        if alpha["r2"] < alpha["r1"]:
            problems.append("alpha(r2) < alpha(r1)")
    return problems


def reference_bessel_ratio():
    """Max over the verify grid of |J_s(x)| / (2 sqrt(2/(pi x)) (1 + s/x)^s)."""
    lo, hi, count = VERIFY_XGRID
    x = np.logspace(math.log10(lo), math.log10(hi), count)[None, :]
    s = np.arange(VERIFY_SMAX + 1, dtype=float)[:, None]
    log_bound = math.log(2.0) + 0.5 * (math.log(2.0 / math.pi) - np.log(x)) + s * np.log1p(s / x)
    with np.errstate(divide="ignore"):
        return float(np.exp(np.max(np.log(np.abs(jv(s, x))) - log_bound)))


def check_verify(req, stdout, ref):
    g = req["g"]
    entries = {}
    for line in stdout.splitlines():
        m = VERIFY_LINE.match(line)
        if not m:
            return [f"unexpected verify line {line!r}"]
        entries[m.group(2)] = (m.group(1), float(m.group(3)))
    xs = sorted({1.0, 4.0 * g * g}) if g != 0.0 else [1.0]
    names = {"bessel_bound", "offset_decay", "similarity_defect", "k_antisymmetry",
             "commutator_identity", "orthonormality", "rtilde_symmetry"}
    names |= {f"laguerre_bound(x={x:g})" for x in xs}
    if set(entries) != names:
        return [f"checks {sorted(set(entries) ^ names)} missing or unexpected"]
    problems = [f"{name}: {status}" for name, (status, _) in sorted(entries.items())
                if status != "PASS"]
    want = ref["bessel_bound"]
    got = entries["bessel_bound"][1]
    if abs(got - want) > 1e-8 * want:
        problems.append(f"bessel_bound metric {got!r} vs scipy.special.jv {want!r}")
    return problems


def check_oracle(req, stdout, ref):
    devs = {}
    for line in stdout.splitlines():
        m = ORACLE_LINE.match(line)
        if not m:
            return [f"unexpected oracle line {line!r}"]
        devs[m.group(1)] = float(m.group(2))
    if set(devs) != set(ORACLE_NAMES):
        return [f"oracle routes {sorted(devs)} are not {list(ORACLE_NAMES)}"]
    return [f"{name} deviation {dev!r} >= {ORACLE_TOL}"
            for name, dev in devs.items() if not dev < ORACLE_TOL]


CHECKERS = {"spectrum": check_spectrum, "asymptotics": check_asymptotics,
            "verify": check_verify, "oracle": check_oracle}


def reference(req):
    """The reference values a request's output is checked against.

    Computed once per request and run, since every round repeats them.
    """
    ref = {}
    if req["kind"] in ("spectrum", "asymptotics"):
        ref["eigs"] = reference_eigenvalues(req["g"], req["c1"], req["c2"],
                                            req["n_lo"], req["n_hi"])
    if req["kind"] == "asymptotics":
        ref["diag_corr"] = {n: mp_diag_corr(n, req["g"], req["c1"], req["c2"])
                            for n in req["dc_sample"]}
        ref["s_n"] = {n: mp_s_n(n, req["g"]) for n in req["sn_sample"]}
    if req["kind"] == "verify":
        ref["bessel_bound"] = reference_bessel_ratio()
    return ref


def check(req, code, stdout, ref):
    """Problems with one completed CLI call (exit code and stdout)."""
    problems = [] if code == 0 else [f"exit code {code}"]
    return problems + CHECKERS[req["kind"]](req, stdout, ref)
