"""Independent references that the tests compare jacspec against.

Each one computes a quantity by a route that the package itself does
not take: the Laguerre polynomial by its own three-term recurrence, the
dense shift transform entry by entry from one table, and s_n as a column
norm of the diagonalization matrix K.
"""

import math

import numpy as np

from jacspec import specfun


def laguerre_polynomial(n, s, x):
    """Generalized Laguerre polynomial L_n^(s)(x).

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    s : int
        Superscript order; may be negative.  For s < 0 the value is
        obtained from the positive-order polynomial of degree n + s,
        and is 0 by convention when n + s < 0.
    x : float
        Evaluation point (any real; the polynomial continues off the
        orthogonality interval).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if s < 0:
        st = -s
        if n - st < 0:
            return 0.0
        ratio = math.exp(specfun.log_gamma(n - st + 1.0) - specfun.log_gamma(n + 1.0))
        return (-x) ** st * ratio * laguerre_polynomial(n - st, st, x)
    if n == 0:
        return 1.0
    lk_prev = 1.0
    lk = s + 1.0 - x
    for k in range(1, n):
        lk, lk_prev = ((2 * k + s + 1 - x) * lk - (k + s) * lk_prev) / (k + 1), lk
    return lk


def build_dense_u(N, g):
    """Dense N x N truncation of the shift transform."""
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    if g == 0.0:
        return np.eye(N)
    w = specfun.laguerre_function_table(N - 1, N - 1, g * g)
    nn, mm = np.indices((N, N))
    lo = np.minimum(nn, mm)
    u = w[lo, np.abs(nn - mm)]
    u[(nn > mm) & ((nn - mm) % 2 == 1)] *= -1.0
    return u


def s_n_as_k_column(bundle, n):
    """Euclidean norm of column n of K over the truncation."""
    if not 0 <= n < bundle.N // 2:
        raise IndexError(f"column {n} outside the interior of N={bundle.N}")
    return float(np.linalg.norm(bundle.K[:, n]))
