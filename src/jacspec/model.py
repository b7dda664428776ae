"""Matrix constructions for the alternating-shift oscillator family.

The operator of interest is an infinite symmetric Jacobi matrix with
diagonal k + c1 (even k) / k + c2 (odd k) and off-diagonal g*sqrt(k+1).
This module builds its finite truncations, the orthogonal shift
transform U that diagonalizes its exactly solvable g-only part
(c1 = c2 = 0), and the parity matrix Rt = U^T P U conjugated into the
shifted eigenbasis, together with independent evaluation routes for
both.  The closed forms of U and Rt are read off one Laguerre table, by
``u_columns`` alone; the contour, conjugation-sum and finite-sum routes
cross-check them.

Dense matrices are plain float64 numpy arrays (row-major).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun

__all__ = [
    "ModelParams",
    "Tridiagonal",
    "build_A",
    "build_dense_rtilde",
    "parity_diag",
    "r_tilde_oracle_finite_sum",
    "r_tilde_oracle_sum_block",
    "u_column_mass",
    "u_columns",
    "u_element_contour_block",
]


@dataclass(frozen=True)
class ModelParams:
    """Coupling g and alternating diagonal shifts (c1, c2)."""

    g: float
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        for name in ("g", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: main diagonal plus one off-diagonal."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape != (max(self.diag.shape[0] - 1, 0),):
            raise ValueError("off-diagonal must have length len(diag) - 1")


def build_A(p, N):
    """N x N truncation of the full operator for parameters p."""
    if N < 2:
        raise ValueError(f"truncation size must be >= 2, got {N}")
    k = np.arange(N, dtype=float)
    diag = k + np.where(np.arange(N) % 2 == 0, p.c1, p.c2)
    off = p.g * np.sqrt(k[1:])
    return Tridiagonal(diag=diag, off=off)


def parity_diag(N):
    """Diagonal of the parity matrix: entry k is (-1)^k."""
    if N < 1:
        raise ValueError(f"length must be >= 1, got {N}")
    d = np.ones(N)
    d[1::2] = -1.0
    return d


def u_element_contour_block(ns, ms, g, M=256):
    """Shift-transform entries U[n, m] for n in ns, m in ms, by contour.

    Each entry is a trapezoid rule with M points on a circle around the
    origin (spectrally accurate for this analytic periodic integrand).
    Any circle carries the same residue; for m > n the radius shrinks to
    the saddle value g^2/(m - n), which keeps the factorial prefactor
    from amplifying round-off of the nearly cancelling sum.  Cross-checks
    :func:`u_columns`.  Returns a (len(ns), len(ms)) array.

    Raises
    ------
    ValueError
        If M < 64 or an index exceeds 30 (factorial prefactor range).
    ArithmeticError
        If an imaginary residue exceeds 1e-8, which would indicate a
        broken integrand.
    """
    ns = np.asarray(ns, dtype=int)
    ms = np.asarray(ms, dtype=int)
    if M < 64:
        raise ValueError(f"need at least 64 trapezoid points, got {M}")
    if ns.size and ms.size and not (
        0 <= min(ns.min(), ms.min()) and max(ns.max(), ms.max()) <= 30
    ):
        raise ValueError("contour route is limited to indices <= 30")
    if g == 0.0:
        return (ns[:, None] == ms[None, :]).astype(float)
    g2 = g * g
    circle = np.exp(2j * math.pi * np.arange(M) / M)
    lg = specfun.log_gamma
    log_g = math.log(abs(g))
    out = np.empty((ns.size, ms.size))
    # one row of entries at a time keeps the work arrays at len(ms) x M
    for i, n in enumerate(ns.tolist()):
        r = [min(1.0, g2 / (m - n)) if m > n else 1.0 for m in ms.tolist()]
        z = np.array(r)[:, None] * circle
        mean = np.mean(z ** ms[:, None] * (1.0 / z - 1.0) ** n * np.exp(g2 / z), axis=1)
        pre = [
            math.exp(-0.5 * g2 + (0.5 * (lg(m + 1.0) - lg(n + 1.0)) + (n - m) * log_g))
            * (-1.0 if (g < 0.0 and (n - m) % 2) else 1.0)
            for m in ms.tolist()
        ]
        val = np.array(pre) * mean
        bad = np.flatnonzero(np.abs(val.imag) > 1e-8)
        if bad.size:
            raise ArithmeticError(
                f"contour integral returned imaginary residue {val.imag[bad[0]]:.3e}"
            )
        out[i] = val.real
    return out


def r_tilde_oracle_sum_block(ks, ms, g, K):
    """Conjugation route: sum_n (-1)^n U[n, k] U[n, m] truncated at K.

    Returns the (len(ks), len(ms)) block for k in ks, m in ms; each U
    column is built once.  The neglected tail of a column is bounded
    through orthonormality as 1 - (partial mass).  The measured defect
    carries ~3e-14 of recurrence round-off even when the true tail is
    negligible, so the call refuses a truncation where any entry's two
    column defects add up to 1e-13 or more; accepted truncations keep
    the comparison certified far below 1e-9.
    """
    ks = np.asarray(ks, dtype=int)
    ms = np.asarray(ms, dtype=int)
    if g == 0.0:
        eq = ks[:, None] == ms[None, :]
        return np.where(eq, np.where(ks % 2 == 1, -1.0, 1.0)[:, None], 0.0)
    idx, inv = np.unique(np.concatenate([ks, ms]), return_inverse=True)
    cols = np.ascontiguousarray(u_columns(idx, g, K).T)
    defect = np.array([max(0.0, 1.0 - math.fsum(c * c)) for c in cols])
    ik, im = inv[: ks.size], inv[ks.size :]
    if ks.size and ms.size:
        worst = defect[ik].max() + defect[im].max()
        if worst >= 1e-13:
            raise ValueError(
                f"truncation K={K} leaves estimated tail {worst:.2e} >= 1e-13"
            )
    signed = parity_diag(K + 1) * cols[ik]
    return np.sum(signed[:, None, :] * cols[im][None, :, :], axis=-1)


def r_tilde_oracle_finite_sum(k, m, g):
    """Residue route: the explicit k-term alternating sum.

    Terms with a negative factorial argument are zero by convention.
    The alternating body cancels up to ~8 digits at moderate coupling,
    so it is summed exactly: 4 g^2 = a/d with d a power of two, and
    every term is an integer over the common denominator m! d^k.  One
    correctly rounded division gives the body; the outer prefactor
    stays in the log domain.  Limited to k, m <= 40.
    """
    if not (0 <= k <= 40 and 0 <= m <= 40):
        raise ValueError("finite-sum route is limited to indices <= 40")
    if g == 0.0:
        return (-1.0 if k % 2 else 1.0) if k == m else 0.0
    x = 4.0 * g * g
    a, d = x.as_integer_ratio()
    m_fact = math.factorial(m)
    # term i: C(k, i) x^i / (i + m - k)!
    #       = C(k, i) a^i d^(k - i) (m! / (i + m - k)!) / (m! d^k)
    num = 0
    for i in range(max(0, k - m), k + 1):
        term = math.comb(k, i) * a**i * d ** (k - i) * (m_fact // math.factorial(i + m - k))
        num += -term if i % 2 else term
    body = num / (m_fact * d**k)
    lg = specfun.log_gamma
    lpre = -0.5 * x + 0.5 * (lg(m + 1.0) - lg(k + 1.0)) + (m - k) * math.log(
        abs(2.0 * g)
    )
    sign = -1.0 if k % 2 else 1.0
    if 2.0 * g < 0.0 and (m - k) % 2:
        sign = -sign
    return sign * math.exp(lpre) * body


def u_columns(ns, g, k_max):
    """Columns ns of the shift transform, entries 0..k_max.

    Returns a (k_max + 1, len(ns)) array read off one Laguerre table at
    x = g^2: U[k, n] is W[min(k, n), |k - n|] times a sign (-1)^(k - n)
    that applies below the diagonal (k > n) for g > 0, where it is the
    negative-order reduction, and above it (k < n) for g < 0, because
    U(-g) = P U(g) P with P the parity matrix.
    """
    ns = np.asarray(ns, dtype=int)
    if (ns.size and ns.min() < 0) or k_max < 0:
        raise ValueError("indices must be nonnegative")
    ks = np.arange(k_max + 1)[:, None]
    if g == 0.0:
        return (ks == ns[None, :]).astype(float)
    if ns.size == 0:
        return np.empty((k_max + 1, 0))
    n_lo, n_hi = int(ns.min()), int(ns.max())
    w = specfun.laguerre_function_table(min(n_hi, k_max), max(n_hi, k_max - n_lo), g * g)
    cols = w[np.minimum(ks, ns), np.abs(ks - ns)]
    cols[((ks > ns) != (g < 0.0)) & ((ks - ns) % 2 == 1)] *= -1.0
    return cols


def u_column_mass(n, g, tol=1e-10):
    """Certified partial mass of column n: (sum of squares, cutoff used).

    Partial sums are monotone and bounded by 1, so 1 - mass bounds the
    discarded tail exactly.  The cutoff grows until the defect drops
    below tol or the hard cap is reached.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    k_max = 2 * n + 64
    while True:
        col = u_columns([n], g, k_max)[:, 0]
        mass = float(col @ col)
        if 1.0 - mass < tol or k_max > 2 * n + 2**16:
            return mass, k_max
        k_max *= 2


def build_dense_rtilde(N, g):
    """Dense N x N truncation of the conjugated parity matrix.

    Closed form: Rt[k, m] = (-1)^k U[k, m] with U taken at coupling 2 g,
    that is, (-1)^k times the orthonormal Laguerre function of degree k
    and order m - k at 4 g^2.  Symmetric bit for bit, since both
    triangles read the same table entries.
    """
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    return parity_diag(N)[:, None] * u_columns(np.arange(N), 2.0 * g, N - 1)
