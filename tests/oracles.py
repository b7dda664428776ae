"""Independent references that the tests compare jacspec against.

Each one computes a quantity by a route that the package itself does
not take: the Laguerre polynomial by its own three-term recurrence, one
orthonormal Laguerre function by a scalar recurrence with its own seed,
the dense shift transform as a whole matrix from one table, s_n as a
column norm of the diagonalization matrix K, the eigenvalue
certificate as one Sturm sweep over the whole truncation, and the
multisection with every grid point of every level counted.
"""

import math

import numpy as np

from jacspec import eigensolve, model, specfun


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


def global_certify(p, ns, vals, tol, M):
    """Certificate of eigenvalues ns of the operator, over all M rows.

    Each count below x is bounded by one Sturm sweep over the whole
    M-row truncation (a lower bound: truncation raises every
    eigenvalue) and by that sweep with its last pivot lowered by the
    largest Schur complement of the rows from M on, g^2 M / (tail_lo - x)
    with tail_lo their Gershgorin floor (an upper bound, for x below
    tail_lo).  vals[i] is certified when [vals[i] -+ tol/2], moved out to
    at least one ulp, holds eigenvalue ns[i] by these bounds.  Returns
    the flags and the half-widths with the Sturm rounding term, as
    ``eigensolve._certify`` does.
    """
    x_lo = np.minimum(vals - 0.5 * tol, np.nextafter(vals, -np.inf))
    x_hi = np.maximum(vals + 0.5 * tol, np.nextafter(vals, np.inf))
    xs = np.concatenate([x_lo, x_hi])
    T = model.build_A(p, M)
    off2 = T.off * T.off
    pivmin = np.finfo(float).tiny * max(1.0, float(off2.max(initial=0.0)))
    q = T.diag[0] - xs
    count = np.zeros(xs.shape, dtype=np.int64)
    for i in range(1, M):
        np.putmask(q, np.abs(q) < pivmin, -pivmin)
        count += q < 0.0
        q = (T.diag[i] - xs) - off2[i - 1] / q
    t = max(float(M), p.g * p.g - 1.0)
    tail_lo = t + min(p.c1, p.c2) - 2.0 * abs(p.g) * math.sqrt(t + 1.0)
    below_tail = xs < tail_lo
    delta = p.g * p.g * M / np.where(below_tail, tail_lo - xs, 1.0)
    fewest = count + (q < pivmin)
    most = np.where(below_tail, count + (q - delta < pivmin), np.iinfo(np.int64).max)
    ok = (most[: ns.size] <= ns) & (fewest[ns.size:] > ns)
    half = np.maximum(vals - x_lo, x_hi - vals) + eigensolve._rounding_term(p, M, tol)
    return ok, half


def plain_multisection(p, ns, W, tol):
    """Eigenvalue n of the window rows [n - W, n + W] per n in ns, by sweeping every level.

    The multisection of ``eigensolve._window_bisect`` with every grid
    point of every level counted by ``eigensolve._window_counts``: the
    same grid, the same ``lo``/``width`` arithmetic and no brackets, so
    its values are the reference that the bracketed replay must match
    bit for bit.
    """
    s = max(1, int(math.log2(eigensolve._SWEEP_WIDTH / ns.size + 1.0)))
    parts = 2**s
    start = np.maximum(ns - W, 0)
    local = (ns - start)[:, None]
    a = np.repeat(start, parts - 1).astype(float)
    L = 2 * W + 1
    g2 = p.g * p.g
    pivmin = np.finfo(float).tiny * max(1.0, g2 * (float(a.max()) + L))
    lo = ns - g2 + min(p.c1, p.c2) - 1.0
    width = abs(p.c1 - p.c2) + 2.0
    grid = np.arange(1, parts)
    for _ in range(math.ceil(math.log2(width / tol) / s)):
        width /= parts
        xs = lo[:, None] + width * grid
        counts = eigensolve._window_counts(p, a, L, xs.ravel(), pivmin).reshape(xs.shape)
        lo = lo + width * np.sum(counts <= local, axis=1)
    return lo + 0.5 * width
