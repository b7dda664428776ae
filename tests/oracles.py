"""Independent references that the tests compare jacspec against.

Each one computes a quantity by a route that the package itself does
not take: the Laguerre polynomial by its own three-term recurrence, one
orthonormal Laguerre function by a scalar recurrence with its own seed,
the dense shift transform as a whole matrix from one table, and s_n as a
column norm of the diagonalization matrix K.
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


def laguerre_function(n, s, x):
    """Orthonormal Laguerre function of degree n and integer order s.

    This is sqrt(n!/(n+s)!) * exp(-x/2) * x^(s/2) * L_n^(s)(x), computed
    one value at a time by the normalized degree recurrence.  Negative
    orders reduce to (-1)^|s| times the positive-order function of
    degree n + s (0 when n + s < 0).
    """
    if x <= 0.0:
        raise ValueError(f"laguerre_function requires x > 0, got {x}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if s < 0:
        st = -s
        if n - st < 0:
            return 0.0
        sign = -1.0 if st % 2 else 1.0
        return sign * laguerre_function(n - st, st, x)
    s = float(s)
    w_prev = math.exp(-0.5 * x + 0.5 * s * math.log(x) - 0.5 * specfun.log_gamma(s + 1.0))
    if n == 0:
        return w_prev
    w = (s + 1.0 - x) / math.sqrt(s + 1.0) * w_prev
    for k in range(1, n):
        w, w_prev = (
            ((2 * k + s + 1 - x) * w - math.sqrt(k * (k + s)) * w_prev)
            / math.sqrt((k + 1) * (k + s + 1)),
            w,
        )
    return w


def build_dense_u(N, g):
    """Dense N x N truncation of the shift transform.

    Built for |g| and conjugated by the parity matrix P when g < 0,
    since U(-g) = P U(g) P.
    """
    if N < 1:
        raise ValueError(f"truncation size must be >= 1, got {N}")
    if g == 0.0:
        return np.eye(N)
    w = specfun.laguerre_function_table(N - 1, N - 1, g * g)
    nn, mm = np.indices((N, N))
    lo = np.minimum(nn, mm)
    u = w[lo, np.abs(nn - mm)]
    u[(nn > mm) & ((nn - mm) % 2 == 1)] *= -1.0
    if g < 0.0:
        u[(nn + mm) % 2 == 1] *= -1.0
    return u


def s_n_as_k_column(bundle, n):
    """Euclidean norm of column n of K over the truncation."""
    if not 0 <= n < bundle.N // 2:
        raise IndexError(f"column {n} outside the interior of N={bundle.N}")
    return float(np.linalg.norm(bundle.K[:, n]))
