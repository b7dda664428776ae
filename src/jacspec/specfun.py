"""Special functions underlying the oscillator spectral machinery.

Everything is evaluated from scratch in double precision: orthonormal
Laguerre functions (as tables over degrees and orders, from one
recurrence kernel), integer-order Bessel J (every order up to s from one
downward recurrence) and log-gamma.

Accuracy, as measured against extended-precision oracles in the test
suite:

* ``laguerre_function_table``: relative 1e-9 for degrees n <= 200,
  orders s <= 10 and 0 < x <= 50.  Values below the double-precision
  underflow of the recurrence seed flush to zero.  At x = 4 g^2 the
  seed e^(-x/2) stays a normal double only for |g| <= ``MAX_COUPLING``;
  beyond it precision is lost.  x itself is a normal double only for
  g = 0 or |g| >= ``MIN_COUPLING``.
* ``bessel_j``: 1e-10 (relative away from zeros) for x <= 1000, s <= 50;
  relative 2e-13 for 0.01 <= x <= 12.  Arguments below a floor
  near 1e-55, where the recurrence would overflow, are refused.
* ``log_gamma``: 1e-12 relative-or-absolute for z > 0.
"""

import math
import sys

import numpy as np

__all__ = [
    "bessel_j",
    "laguerre_function_table",
    "log_gamma",
]

# Lanczos approximation, g = 671/128 (Press et al. coefficient set,
# full double accuracy for real z > 0).
_LANCZOS_COF = (
    57.1562356658629235, -59.5979603554754912, 14.1360979747417471,
    -0.491913816097620199, 0.339946499848118887e-4, 0.465236289270485756e-4,
    -0.983744753048795646e-4, 0.158088703224912494e-3,
    -0.210264441724104883e-3, 0.217439618115212643e-3,
    -0.164318106536763890e-3, 0.844182239838527433e-4,
    -0.261908384015814087e-4, 0.368991826595316234e-5,
)
_SQRT_2PI = 2.5066282746310005

# largest |g| at which the Laguerre recurrence seed e^(-x/2), x = 4 g^2,
# is a normal double (e^(-2 g^2) >= DBL_MIN): about 18.82.  Past it the
# seed goes subnormal and the values lose digits (e^(-x/2) L_800(x) is
# 21% off at g = 19.29) until the seed underflows to 0.
MAX_COUPLING = math.sqrt(-0.5 * math.log(sys.float_info.min))
# Smallest nonzero |g| at which the table argument x = 4 g^2 is a normal
# double (4 g^2 >= DBL_MIN): about 7.46e-155.  Below it x loses digits,
# and from about 1.1e-162 it underflows to 0, which the table refuses.
MIN_COUPLING = 0.5 * math.sqrt(sys.float_info.min)

# Laguerre tables with at least this many rows run in degree blocks ...
_BLOCK_MIN_ROWS = 1024
# ... of at most this many lanes (blocks x orders) per recurrence step
_BLOCK_LANES = 1024


def log_gamma(z):
    """Natural log of the gamma function for real z > 0.

    Raises
    ------
    ValueError
        If z <= 0.
    """
    if z <= 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    y = z
    tmp = z + 5.2421875
    tmp = (z + 0.5) * math.log(tmp) - tmp
    ser = 0.999999999999997092
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return tmp + math.log(_SQRT_2PI * ser / z)


def _log_gamma_arr(z):
    """Vectorized variant of :func:`log_gamma` for arrays of z > 0."""
    z = np.asarray(z, dtype=float)
    y = z.copy()
    tmp = z + 5.2421875
    tmp = (z + 0.5) * np.log(tmp) - tmp
    ser = np.full_like(z, 0.999999999999997092)
    for c in _LANCZOS_COF:
        y += 1.0
        ser += c / y
    return tmp + np.log(_SQRT_2PI * ser / z)


def laguerre_function_table(n_max, s_max, x):
    """Table W[j, p] of orthonormal Laguerre functions, vectorized in p.

    Returns an array of shape (n_max + 1, s_max + 1) whose entry W[j, p],
    for 0 <= j <= n_max and 0 <= p <= s_max, is the L2(0, inf)-orthonormal
    function sqrt(j!/(j+p)!) * exp(-x/2) * x^(p/2) * L_j^(p)(x).  The
    recurrence runs on the normalized values directly, so no factorial
    ever materializes and magnitudes stay O(1) for any degree.  Order
    -p reduces to (-1)^p times W[j - p, p], which the caller reads off
    the same table.  Entries whose recurrence seed underflows double
    precision come out exactly zero; every consumer in this package
    aggregates squares, where that is harmless.

    Tables of fewer than 1024 rows run the degree recurrence row by
    row, bit for bit as ``_laguerre_function_rows``.  Taller ones split
    the degree axis into B ~ sqrt(rows) blocks, with B (s_max + 1) at
    most 1024 lanes, that all advance at once.  A first pass carries the
    basis states (w_{t-1}, w_t) = (1, 1) and (0, 1) through every block.
    Chaining the block transfer maps gives each block's true starting
    state, and a second pass reruns every block from it straight into
    the output.  Forward recurrence is stable for this family, so the
    blocks keep the accuracy of the row recurrence.
    """
    if x <= 0.0:
        raise ValueError(f"laguerre_function_table requires x > 0, got {x}")
    if n_max < 0 or s_max < 0:
        raise ValueError("table extents must be nonnegative")
    p = np.arange(s_max + 1, dtype=float)
    blocks = 1
    if n_max + 1 >= _BLOCK_MIN_ROWS:
        blocks = max(1, min(math.isqrt(n_max + 1), _BLOCK_LANES // p.size))
    w = _blocked_table(n_max, p, x, blocks)
    if w is None:
        # a basis state overflowed deep in the growth region of a huge x
        w = _blocked_table(n_max, p, x, 1)
    return w


def _blocked_table(n_max, p, x, blocks):
    # Steps k = 1 .. n_max - 1 give rows 2 .. n_max.  Block b takes the
    # L steps from degree 1 + b L; rows past n_max are scratch.  Returns
    # None if a basis state of the first pass overflows.
    L = -(-max(n_max - 1, 0) // blocks)
    out = np.empty((2 + blocks * L, p.size))
    out[0], out[1] = _laguerre_head(p, x)
    k = 1.0 + L * np.arange(blocks, dtype=float)[:, None]
    prev, cur = out[0], out[1]
    if blocks > 1:
        # slot 0 carries (1, 1) and slot 1 carries (0, 1), except in
        # block 0, whose slot 0 carries its true state
        bp = np.zeros((2, blocks, p.size))
        bc = np.ones((2, blocks, p.size))
        bp[0] = 1.0
        bp[0, 0], bc[0, 0] = prev, cur
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b, c in _laguerre_steps(k, p, x, L):
                bp, bc = bc, (a * bc - b * bp) / c
        if not (np.isfinite(bp).all() and np.isfinite(bc).all()):
            return None
        prev = np.empty((blocks, p.size))
        cur = np.empty((blocks, p.size))
        prev[0], cur[0] = out[0], out[1]
        u, v = bp[0, 0], bc[0, 0]
        for i in range(1, blocks):
            # (u, v) = u (1, 1) + (v - u) (0, 1)
            prev[i], cur[i] = u, v
            d = v - u
            u, v = u * bp[0, i] + d * bp[1, i], u * bc[0, i] + d * bc[1, i]
    body = out[2:].reshape(blocks, L, p.size)
    for j, (a, b, c) in enumerate(_laguerre_steps(k, p, x, L)):
        prev, cur = cur, (a * cur - b * prev) / c
        body[:, j] = cur
    return out[: n_max + 1]


def _laguerre_head(p, x):
    """Rows 0 and 1 of the table: the seed and the special k = 0 step."""
    w0 = np.exp(-0.5 * x + 0.5 * p * np.log(x) - 0.5 * _log_gamma_arr(p + 1.0))
    return w0, (p + 1.0 - x) / np.sqrt(p + 1.0) * w0


def _laguerre_steps(k, p, x, steps):
    """Coefficients (a, b, c) of the degree steps k, k + 1, ..., k + steps - 1.

    Step k of the normalized recurrence is w_{k+1} = (a w_k - b w_{k-1}) / c
    with a = 2k + p + 1 - x, b = sqrt(k (k + p)), c = sqrt((k + 1) (k + p + 1)).
    k >= 1 is an integer or a column of integer-valued floats, one per
    block.  Every sum and product before the final subtraction and
    square roots is an exact integer, so the coefficients round the same
    way whichever form k takes, and c of one step is b of the next.
    """
    a = 2 * k + p + 1
    kp = k + p
    b = np.sqrt(k * kp)
    for _ in range(steps):
        k = k + 1
        kp = kp + 1
        c = np.sqrt(k * kp)
        yield a - x, b, c
        a = a + 2
        b = c


def _laguerre_function_rows(n_max, s_max, x):
    """Rows W[0], ..., W[n_max] of ``laguerre_function_table``, one at a time.

    The degree recurrence needs only the two previous rows, so a caller
    that folds each row away uses O(s_max) memory.  Arguments are not
    checked here.
    """
    p = np.arange(s_max + 1, dtype=float)
    prev, cur = _laguerre_head(p, x)
    yield prev
    if n_max == 0:
        return
    yield cur
    for a, b, c in _laguerre_steps(1, p, x, n_max - 1):
        prev, cur = cur, (a * cur - b * prev) / c
        yield cur


def bessel_j(s, x):
    """Bessel functions of the first kind J_0(x), ..., J_s(x), s >= 0, x >= 0.

    Returns an array of length s + 1 from one normalized downward
    (Miller) recurrence, started above max(s, x) and closed with the
    even-order sum rule J_0 + 2 (J_2 + J_4 + ...) = 1.

    Raises
    ------
    ValueError
        If s < 0, x < 0, or x > 0 is so small that the recurrence would
        overflow (below about 2e-55 at s = 20; the floor grows with s).
    """
    if s < 0:
        raise ValueError(f"order must be nonnegative, got {s}")
    if x < 0.0:
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    if x == 0.0:
        out = np.zeros(s + 1)
        out[0] = 1.0
        return out
    # m is even
    base = max(s, int(math.ceil(x)))
    m = base + int(2.0 * math.sqrt(40.0 * (base + 2))) + 20
    if m % 2:
        m += 1
    # a step multiplies by at most 2m/x, and values stay below 1e250
    if 2.0 * m > 1e57 * x:
        raise ValueError(
            f"bessel_j up to order {s} needs x >= {2e-57 * m:.3g}, got {x!r}")
    jp = 0.0                      # J_{k+1}, unnormalized
    jc = 1.0e-30                  # J_k at k = m
    even_sum = jc
    saved = [0.0] * (s + 1)
    for k in range(m, 0, -1):
        jm = (2.0 * k) / x * jc - jp
        jp = jc
        jc = jm
        kk = k - 1
        if abs(jc) > 1e250:
            jc *= 1e-250
            jp *= 1e-250
            even_sum *= 1e-250
            saved = [v * 1e-250 for v in saved]
        if kk <= s:
            saved[kk] = jc
        if kk != 0 and kk % 2 == 0:
            even_sum += jc
    return np.array(saved) / (jc + 2.0 * even_sum)
