"""Large-index eigenvalue asymptotics: formulas, residuals, decay fits.

The first-order asymptote is n - g^2 + (c1 + c2)/2; the next correction
is the diagonal of the conjugated parity matrix scaled by (c1 - c2)/2.
The error term is controlled by the remainder column norm s_n, computed
here with a certified tail bound.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import specfun
from .eigensolve import SpectralRequest, converged_spectrum

__all__ = [
    "AsymptoticTable",
    "DecayFit",
    "diagonal_correction",
    "dyadic_block_maxima",
    "first_order",
    "fit_decay",
    "remainder_s_sweep",
    "residual_table",
]


@dataclass(frozen=True)
class AsymptoticTable:
    """Computed eigenvalues against their asymptote, one array per column.

    Entry i of every column belongs to index n[i].  r1 = lam -
    first_order and r2 = r1 - diag_corr.
    """

    n: np.ndarray
    lam: np.ndarray
    first_order: np.ndarray
    diag_corr: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    s_n: np.ndarray
    s_n_tail_bound: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    """Power-law model value ~ C * n^(-alpha) from a log-log fit."""

    C: float
    alpha: float
    residual_rms: float
    n_range: tuple
    dropped: int


def first_order(n, p):
    """Leading asymptote n - g^2 + (c1 + c2)/2, for an index or an index array."""
    return n - p.g * p.g + 0.5 * (p.c1 + p.c2)


def diagonal_correction(n, p):
    """Second term: (c1 - c2)/2 times the conjugated-parity diagonal.

    For an index or an index array.  The diagonal (-1)^n W[n, 0] at
    x = 4 g^2 is read off one Laguerre table up to the largest index.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("indices must be nonnegative")
    parity = np.where(n % 2 == 1, -1.0, 1.0)
    if p.g != 0.0:
        parity = parity * specfun.laguerre_function_table(
            int(n.max()), 0, 4.0 * p.g * p.g
        )[n, 0]
    return 0.5 * (p.c1 - p.c2) * parity


# rows per block of the s_n sweep: each block's coefficients and row
# sums are one numpy call each, and its (rows, orders) buffers stay in
# cache (128 rows ran slower than 32-64)
_SWEEP_ROWS = 32


def _order_cap(x, hard_cap):
    # first order whose recurrence seed underflows double precision;
    # columns past it are identically zero in float64
    p = np.arange(1, hard_cap + 2, dtype=float)
    seed_log = -0.5 * x + 0.5 * p * np.log(x) - 0.5 * specfun._log_gamma_arr(p + 1.0)
    dead = np.nonzero(seed_log < math.log(5e-324))[0]
    return int(p[dead[0]]) if dead.size else hard_cap


def remainder_s_sweep(ns, g, eps_tail=1e-8):
    """Remainder column norms s_n over an index array, with tail bounds.

    s_n^2 sums the squared conjugated-parity entries over the window
    0 < |k - n| <= K weighted by 1/(n-k)^2, where K grows until the crude
    orthonormality tail bound 1/K^2 drops below eps_tail^2.  Those
    entries are, up to sign, W[j, p] of the Laguerre function table at
    x = 4 g^2: (n, p) above the diagonal and (n - p, p) below it.  One
    pass of the degree recurrence, in blocks of ``_SWEEP_ROWS`` rows
    (``specfun._laguerre_row_blocks``), adds each row k's terms to
    above[k], with one row sum per row taken for the whole block, and
    to below[k + p], with one slice add per row in ascending k, in
    O(max n + K) memory.  Orders whose Laguerre seed underflows double
    precision are exact zeros and are skipped.  Returns (s_n array,
    1/K^2 array).
    """
    ns = np.asarray(ns, dtype=int)
    if ns.size and ns.min() < 0:
        raise ValueError("indices must be nonnegative")
    if eps_tail <= 0.0:
        raise ValueError("eps_tail must be positive")
    K = int(math.ceil(1.0 / eps_tail)) + 1
    tails = np.full(ns.shape, 1.0 / (K * K))
    if g == 0.0 or ns.size == 0:
        return np.zeros(ns.shape), tails
    x = 4.0 * g * g
    n_top = int(ns.max())
    P = min(_order_cap(x, n_top + 4096), K)
    offsets = np.arange(1, P + 1, dtype=float)
    above = np.empty(n_top + 1)
    below = np.zeros(n_top + 1)
    terms = np.empty((_SWEEP_ROWS, P))
    for j0, rows in specfun._laguerre_row_blocks(n_top, P, x, _SWEEP_ROWS):
        t = terms[: len(rows)]
        np.divide(rows[:, 1:], offsets, out=t)
        np.multiply(t, t, out=t)
        np.sum(t, axis=1, out=above[j0 : j0 + len(rows)])
        for k, row in enumerate(t, j0):
            span = min(P, n_top - k)
            fold = below[k + 1 : k + 1 + span]
            np.add(fold, row[:span], out=fold)
    return np.sqrt(below[ns] + above[ns]), tails


def residual_table(p, n_lo, n_hi, tol=1e-8, eps_tail=1e-8):
    """Computed eigenvalues n_lo..n_hi against their asymptotes, as an AsymptoticTable."""
    if p.g == 0.0:
        warnings.warn("g = 0: residuals compare a purely diagonal operator")
    spectrum = converged_spectrum(p, SpectralRequest(n_lo=n_lo, n_hi=n_hi, tol=tol))
    ns = np.arange(n_lo, n_hi + 1)
    fo = first_order(ns, p)
    dc = diagonal_correction(ns, p)
    s_vals, s_tails = remainder_s_sweep(ns, p.g, eps_tail)
    r1 = spectrum.values - fo
    return AsymptoticTable(
        n=ns,
        lam=spectrum.values,
        first_order=fo,
        diag_corr=dc,
        r1=r1,
        r2=r1 - dc,
        s_n=s_vals,
        s_n_tail_bound=s_tails,
        converged=spectrum.converged,
    )


def fit_decay(pairs):
    """Least-squares power-law fit on (ln n, ln value).

    ``pairs`` holds (n, value) pairs, as a sequence or an (m, 2) array.
    Zero or negative values are dropped and counted; at least 8 usable
    points are required.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    usable = pairs[pairs[:, 1] > 0.0]
    dropped = len(pairs) - len(usable)
    if len(usable) < 8:
        raise ValueError(f"need >= 8 positive points, have {len(usable)}")
    # contiguous copies, so the fit does not depend on the layout of
    # pairs: a ufunc may take another (SIMD) loop on strided input
    ns = np.ascontiguousarray(usable[:, 0])
    vs = np.ascontiguousarray(usable[:, 1])
    ln_n, ln_v = np.log(ns), np.log(vs)
    slope, intercept = np.polyfit(ln_n, ln_v, 1)
    resid = ln_v - (slope * ln_n + intercept)
    return DecayFit(
        C=float(np.exp(intercept)),
        alpha=float(-slope),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_range=(int(ns.min()), int(ns.max())),
        dropped=dropped,
    )


def dyadic_block_maxima(ns, values):
    """Max |value| per dyadic block [2^j, 2^(j+1)), keyed by j."""
    ns = np.asarray(ns)
    values = np.abs(np.asarray(values, dtype=float))
    keep = ns >= 1
    # floor(log2 n), exactly: n = m 2^e with 1/2 <= m < 1
    j = np.frexp(ns[keep].astype(float))[1] - 1
    order = np.argsort(j, kind="stable")
    j, values = j[order], values[keep][order]
    if j.size == 0:
        return {}
    starts = np.flatnonzero(np.diff(j, prepend=j[0] - 1))
    maxima = np.maximum.reduceat(values, starts)
    return {int(b): float(v) for b, v in zip(j[starts], maxima)}
