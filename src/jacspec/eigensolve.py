"""Index-addressed eigenvalues of the infinite operator.

Sturm-sequence counts only, no eigenvectors.  ``converged_spectrum``
finds each requested eigenvalue by multisection on a window of rows
around its index, then certifies every result with one Sturm sweep over
the same window, plus bounds on what the rows before it and the
infinite tail after it can change.  Certifying an index therefore costs
O(W) for a window of 2W + 1 rows, whatever the truncation.  Only the
indices that fail the certificate are solved again, on wider windows.
The multisection has one level loop, a replay of per-index brackets:
every count narrows its index's bracket of counted points, and every
grid point outside that bracket takes the count a sweep would return.
From open brackets each level counts all its grid points.  On wide
requests Newton probes on each window's determinant first narrow the
brackets to a few rounding terms, so only a few grid points are counted;
the values are those of sweeping every level, bit for bit.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .model import build_A

__all__ = [
    "SpectralRequest",
    "SpectrumSlice",
    "converged_spectrum",
]

# smallest absolute tolerance a request may ask for: the double-precision
# floor, which the CLI's --tol check reads too
TOL_FLOOR = 1e-12

_SAFMIN = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_N_MAX = 2**21
# rows added to each side of a window beyond 3 |g| sqrt(n_hi + 1)
_W_PAD = 64
# multisection points per sweep, summed over indices, that cost about as
# much as one point: numpy call overhead dominates below this length
_SWEEP_WIDTH = 1024
# bits of the Weyl bracket that plain multisection levels resolve before
# Newton probes start; more levels follow while some bracket still holds
# more than one eigenvalue of its window
_PLAIN_BITS = 4
# probe sweeps a request is expected to need, and the most it may take
_PROBE_SWEEPS = 4
_MAX_PROBES = 8
# the closing counts sit this many rounding terms either side of the
# last Newton iterate
_CLOSE_TERMS = 4


@dataclass(frozen=True)
class SpectralRequest:
    """Ascending 0-based eigenvalue index range with absolute tolerance."""

    n_lo: int
    n_hi: int
    tol: float

    def __post_init__(self):
        if self.n_lo < 0 or self.n_hi < self.n_lo:
            raise ValueError(f"bad index range [{self.n_lo}, {self.n_hi}]")
        if self.n_hi - self.n_lo > 10**5:
            raise ValueError("index range wider than 1e5")
        if self.tol < TOL_FLOOR:
            raise ValueError(f"tol below the double-precision floor: {self.tol}")


@dataclass
class SpectrumSlice:
    """Eigenvalues by index with their certificates.

    A converged value is certified: the infinite operator has its
    eigenvalue of that index within ``est_error`` of it.  ``est_error``
    is inf where no certificate was found.  ``truncation_N`` is the
    number of rows the last round's windows may reach, n_hi + W + 1;
    ``history`` holds one (that size, indices still uncertified) pair
    per widening.
    """

    indices: range
    values: np.ndarray
    truncation_N: int
    converged: np.ndarray
    est_error: np.ndarray
    history: list = field(default_factory=list)

    def __post_init__(self):
        ok = self.converged
        # ties are exact at g = 0, where the operator is diagonal
        if np.any(np.diff(self.values[ok]) < 0.0):
            raise ValueError("converged eigenvalues are not in ascending order")


def _sturm_pivots(diag, off2, a, L, xs, lead, pivmin):
    """LDL^T pivots of the rows [a[i], a[i] + L) of T - xs[i], for every lane i.

    The first pivot of lane i is raised by lead[i].  Returns the number
    of negative pivots among all rows but the last, and the last pivot.
    A pivot smaller than pivmin in magnitude is replaced by -pivmin
    before it is counted, as LAPACK's dlaebz does, so an exactly zero
    pivot counts as negative.  The last pivot is negative after that
    replacement exactly when it is below pivmin.
    """
    q = (diag[a] - xs) + lead
    count = np.zeros(xs.shape, dtype=np.int64)
    for j in range(1, L):
        np.putmask(q, np.abs(q) < pivmin, -pivmin)
        count += q < 0.0
        k = a + j
        q = (diag[k] - xs) - off2[k - 1] / q
    return count, q


def _pivmin(off2):
    return _SAFMIN * max(1.0, float(off2.max(initial=0.0)))


def _window_counts(p, a, L, xs, pivmin, slope=False):
    """Eigenvalues below xs[i] of the operator's rows [a[i], a[i] + L).

    The window rows are generated as the sweep goes: diagonal
    k + c(parity of k) and squared coupling g^2 k to the row above, at
    k = a + j.  No (indices x L) array is formed.  With ``slope``, also
    returns sum_j q_j'/q_j over the pivots q_j, the derivative of
    log |det(T_window - x)| at x, from the same sweep; the counts do not
    change.
    """
    g2 = p.g * p.g
    even = a % 2 == 0
    # diagonal minus x at window row j is shift[j % 2] + j
    shift = (a - xs + np.where(even, p.c1, p.c2), a - xs + np.where(even, p.c2, p.c1))
    g2a = g2 * a
    q = shift[0].copy()
    count = np.zeros(xs.shape, dtype=np.int64)
    if slope:
        dq = np.full(xs.shape, -1.0)
        total = np.zeros(xs.shape)
    for j in range(1, L):
        np.putmask(q, np.abs(q) < pivmin, -pivmin)
        count += q < 0.0
        r = (g2a + g2 * j) / q
        if slope:
            t = dq / q
            total += t
            dq = r * t - 1.0
        q = (shift[j & 1] + j) - r
    np.putmask(q, np.abs(q) < pivmin, -pivmin)
    count += q < 0.0
    if slope:
        return count, total + dq / q
    return count


def _newton_probes(count, xl, xr, delta):
    """Narrow each lane's bracket (xl, xr) to about 2 delta around its eigenvalue.

    Safeguarded Newton on det(T_window - x), started at the midpoint of
    every finite bracket.  Each probe is a counted point, so it narrows
    the bracket whatever its slope; an iterate outside the bracket is
    moved onto its nearer end, or to the midpoint when that end is the
    point just probed.  A lane stops when the iterate lands on an end
    or moves by h with h^2 <= delta / 64: the next error is about h^2
    times the sum of 1/gap over the window's other eigenvalues, which
    stays below 32 at unit spacing.  Then one sweep counts at the last
    iterate -+ delta.  A non-finite or wrong slope costs probes, never
    a wrong bracket.  count(lanes, xs, slope) counts at xs[i] on the
    window of lane lanes[i], narrows that lane's bracket, and returns
    the slope when asked.
    """
    act = np.flatnonzero(np.isfinite(xl) & np.isfinite(xr))
    x = 0.5 * (xl[act] + xr[act])
    centre = np.full(xl.shape, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_PROBES):
            if act.size == 0:
                break
            step = 1.0 / count(act, x, slope=True)
            left, right = xl[act], xr[act]
            nxt = x - step
            done = (nxt == left) | (nxt == right) | (
                (left < nxt) & (nxt < right) & (step * step <= delta / 64.0))
            mid = 0.5 * (left + right)
            nxt = np.where(np.isfinite(nxt), np.clip(nxt, left, right), mid)
            nxt = np.where(done | (nxt != x), nxt, mid)
            centre[act] = nxt
            act, x = act[~done], nxt[~done]
    lanes = np.flatnonzero(np.isfinite(centre))
    count(np.concatenate([lanes, lanes]),
          np.concatenate([centre[lanes] - delta, centre[lanes] + delta]))


def _replay(count, lo, widths, grid, xl, xr):
    """Run the multisection from lo over the levels in widths, per lane.

    A grid point at or left of xl has at most as many eigenvalues below
    it as xl, and one at or right of xr at least as many as xr, because
    the computed count is monotone in x (Demmel, Dhillon and Ren, ETNA
    3, 1995), so only points strictly inside (xl, xr) are counted.
    Lanes advance level by level until their next points need a count;
    those points, whatever their levels, are then counted in one sweep
    (``count`` as in ``_newton_probes``, which narrows the brackets),
    and the replay goes on.  From open brackets (-inf, inf) every point
    of a level is counted.  The result is the plain multisection's, bit
    for bit.
    """
    widths = np.asarray(widths)
    last = widths.size - 1
    level = np.zeros(lo.shape, dtype=np.int64)
    while True:
        idx = np.flatnonzero(level <= last)
        at, lev = lo[idx], level[idx]
        left, right = xl[idx, None], xr[idx, None]
        while True:
            live = lev <= last
            w = widths[np.minimum(lev, last)]
            xs = at[:, None] + w[:, None] * grid
            yes = xs <= left
            inside = ~yes & (xs < right) & live[:, None]
            moving = live & ~np.any(inside, axis=1)
            if not moving.any():
                break
            at = np.where(moving, at + w * np.sum(yes, axis=1), at)
            lev += moving
        lo[idx], level[idx] = at, lev
        if not live.any():
            return lo
        rows, cols = np.nonzero(inside)
        count(idx[rows], xs[rows, cols])


def _window_bisect(p, ns, W, tol):
    """Eigenvalue n of the rows [n - W, n + W] (clipped at 0), per n in ns.

    Multisection from the Weyl bracket n - g^2 + [min c, max c], widened
    by 1 on each side, down to width below tol.  Each level counts at
    2^s - 1 points per index, with s as large as keeps the sweep's
    vectors within _SWEEP_WIDTH, so narrow slices take fewer sweeps.  The
    result is only a candidate: the window may be too narrow, and the
    bracket holds the operator's eigenvalue, not the window's.

    Every level runs through ``_replay``, and every count goes through
    one function that narrows a bracket (xl, xr) per index: xl has at
    most local = n - max(n - W, 0) eigenvalues of the window below it,
    xr more, and cl, cr are the counts at them.  The brackets start
    open, so the first levels count every grid point.  Where that takes
    fewer sweeps, and g != 0, those levels stop once _PLAIN_BITS bits
    are resolved and every bracket holds one eigenvalue, or once further
    levels would save nothing; then ``_newton_probes`` closes the
    brackets to a few rounding terms, and the remaining levels count
    only the grid points inside a bracket.  The values are those of the
    plain multisection, bit for bit.
    """
    s = max(1, int(math.log2(_SWEEP_WIDTH / ns.size + 1.0)))
    parts = 2**s
    start = np.maximum(ns - W, 0)
    local = ns - start
    L = 2 * W + 1
    g2 = p.g * p.g
    pivmin = _SAFMIN * max(1.0, g2 * (float(start.max()) + L))
    lo = ns - g2 + min(p.c1, p.c2) - 1.0
    width = abs(p.c1 - p.c2) + 2.0
    grid = np.arange(1, parts)
    widths = []
    for _ in range(math.ceil(math.log2(width / tol) / s)):
        width /= parts
        widths.append(width)
    xl = np.full(ns.shape, -np.inf)
    xr = np.full(ns.shape, np.inf)
    # counts at xl and xr: running extremes, as the count is monotone in x
    cl = np.full(ns.shape, -1)
    cr = np.full(ns.shape, np.iinfo(np.int64).max)

    def count(lanes, xs, slope=False):
        counts = _window_counts(p, start[lanes], L, xs, pivmin, slope)
        if slope:
            counts, slope = counts
        below = counts <= local[lanes]
        left, right = lanes[below], lanes[~below]
        np.maximum.at(xl, left, xs[below])
        np.maximum.at(cl, left, counts[below])
        np.minimum.at(xr, right, xs[~below])
        np.minimum.at(cr, right, counts[~below])
        return slope

    # plain levels that leave the probes a gain: the expected probe sweeps
    # and the three after them (closing counts at two points, one replay)
    # must fit in the levels that remain
    spare = len(widths) - _PROBE_SWEEPS - 3
    first = math.ceil(_PLAIN_BITS / s)
    probe = p.g != 0.0 and first < spare
    k = first if probe else len(widths)
    lo = _replay(count, lo, widths[:k], grid, xl, xr)
    while k < spare and not np.all((cl == local) & (cr == local + 1)):
        lo = _replay(count, lo, widths[k:k + 1], grid, xl, xr)
        k += 1
    if probe:
        delta = _CLOSE_TERMS * _rounding_term(p, float(start.max()) + L, tol)
        _newton_probes(count, xl, xr, delta)
        lo = _replay(count, lo, widths[k:], grid, xl, xr)
    return lo + 0.5 * width


def _operator_counts(p, M, W, ns, x_lo, x_hi):
    """Bounds on the operator's eigenvalue counts, on the window of each ns[i].

    Returns an upper bound on the number of eigenvalues below x_lo[i]
    and a lower bound on the number below x_hi[i].  Both come from one
    Sturm sweep over the rows [a, a + L) of ``build_A(p, M)``, with
    a = max(n - W, 0) and L = min(2W + 1, M): the rows that the
    multisection for index n = ns[i] saw.  The rows outside the window
    are eliminated through two Schur complements, bounded by Gershgorin:

    - lead, rows [0, a): their block's eigenvalues lie below lead_hi, so
      for x above it the lead holds exactly a eigenvalues below x and
      raises the window's first pivot by some delta in
      [0, g^2 a / (x - lead_hi)];
    - tail, rows from b = a + L on: their block's eigenvalues lie above
      tail_lo, so for x below it the tail holds none below x and lowers
      the window's last pivot by some delta in [0, g^2 b / (tail_lo - x)].

    Raising the first pivot can only remove negative pivots and lowering
    the last can only add one, so a plus the window's count with lead
    delta 0 and the largest tail delta is an upper bound, and a plus the
    count with the largest lead delta and tail delta 0 is a lower bound
    (which needs no tail bracket: a leading block never counts more than
    the whole).  Where a bracket cannot close the bound is the trivial
    one: int64 max above, 0 below.
    """
    T = build_A(p, M)
    off2 = T.off * T.off
    pivmin = _pivmin(off2)
    g2 = p.g * p.g
    L = min(2 * W + 1, M)
    a = np.maximum(ns - W, 0)
    b = a + L
    # row k < a has k + max c + |g| (sqrt(k) + sqrt(k+1)) <= lead_hi
    lead_hi = a - 1.0 + max(p.c1, p.c2) + 2.0 * abs(p.g) * np.sqrt(a)
    # row k >= b has k + min c - |g| (sqrt(k) + sqrt(k+1)) >= f(k) + min c
    # with f(t) = t - 2|g| sqrt(t + 1), smallest over t >= b at
    # t = max(b, g^2 - 1)
    t = np.maximum(b, g2 - 1.0)
    tail_lo = t + min(p.c1, p.c2) - 2.0 * abs(p.g) * np.sqrt(t + 1.0)
    lo_closes = ((a == 0) | (x_lo > lead_hi)) & (x_lo < tail_lo)
    hi_closes = (a == 0) | (x_hi > lead_hi)
    lead = g2 * a / np.where(hi_closes & (a > 0), x_hi - lead_hi, 1.0)
    tail = g2 * b / np.where(lo_closes, tail_lo - x_lo, 1.0)
    # one sweep: the x_lo lanes, then the x_hi lanes
    aa = np.concatenate([a, a])
    count, q = _sturm_pivots(T.diag, off2, aa, L, np.concatenate([x_lo, x_hi]),
                             np.concatenate([np.zeros(a.shape), lead]), pivmin)
    count += aa
    k = ns.size
    most = np.where(lo_closes, count[:k] + (q[:k] - tail < pivmin),
                    np.iinfo(np.int64).max)
    fewest = np.where(hi_closes, count[k:] + (q[k:] < pivmin), 0)
    return most, fewest


def _rounding_term(p, M, tol):
    """Eigenvalue shift that rounding in a Sturm sweep over build_A(p, M) can hide.

    A computed count is the exact count of a matrix whose diagonal
    entries a_k - x move by about 2 eps |a_k - x| and whose couplings
    move by about 2.5 eps relative.  Every x swept lies within tol/2 of
    a Weyl bracket n - g^2 + [min c, max c] widened by 1, n < M, so
    |a_k - x| is at most M + |c1 - c2| + g^2 + tol/2 (max |c| is added
    as margin); each coupling is at most |g| sqrt(M) and enters the
    norm twice.
    """
    g = abs(p.g)
    cmax = max(abs(p.c1), abs(p.c2))
    return (2.0 * _EPS * (M + abs(p.c1 - p.c2) + cmax + g * g + 0.5 * tol)
            + 5.0 * _EPS * g * math.sqrt(M))


def _certify(p, ns, vals, tol, W, M):
    """Which vals[i] lie within tol/2 of eigenvalue ns[i] of the operator.

    The interval around vals[i] is moved out to at least one ulp on each
    side.  It holds eigenvalue n when at most n eigenvalues lie below its
    left end and more than n below its right end, as bounded by
    ``_operator_counts`` on the window that vals[i] came from.  Returns
    the flags and the half-widths, which include the rounding term of
    the counts.
    """
    x_lo = np.minimum(vals - 0.5 * tol, np.nextafter(vals, -np.inf))
    x_hi = np.maximum(vals + 0.5 * tol, np.nextafter(vals, np.inf))
    most, fewest = _operator_counts(p, M, W, ns, x_lo, x_hi)
    ok = (most <= ns) & (fewest > ns)
    return ok, np.maximum(vals - x_lo, x_hi - vals) + _rounding_term(p, M, tol)


def converged_spectrum(p, req):
    """Certified eigenvalues of the infinite operator for indices in req.

    Each index n is found on the rows [n - W, n + W] (clipped at 0) with
    W = ceil(3 |g| sqrt(n_hi + 1)) + 64, then certified by ``_certify``
    on the same rows, read from the truncation of M = n_hi + W + 1 rows
    that every window lies in; the rows before and after the window
    enter through Gershgorin-bounded Schur complements.  Indices that
    fail are solved again with W doubled, as long as M stays within the
    size cap; those that still fail are reported through the
    ``converged`` flags, never silently.
    Raises ValueError when |c1 - c2| overflows, when even the first
    truncation exceeds the cap, and when tol is below twice the rounding
    term of its Sturm count, which ``est_error`` includes.
    """
    if not math.isfinite(p.c1 - p.c2):
        raise ValueError(
            f"|c1 - c2| must be at most {sys.float_info.max!r}, the largest double"
        )
    w0 = 3.0 * abs(p.g) * math.sqrt(req.n_hi + 1) + _W_PAD
    if req.n_hi + w0 + 1 > _N_MAX:
        raise ValueError(
            f"index {req.n_hi} at g={p.g!r} needs a truncation beyond {_N_MAX} rows"
        )
    W0 = W = math.ceil(w0)
    floor = 2.0 * _rounding_term(p, req.n_hi + W0 + 1, req.tol)
    if req.tol < floor:
        raise ValueError(
            f"tol {req.tol!r} is below {floor:.3g}, twice the rounding term of the "
            f"Sturm count on {req.n_hi + W0 + 1} rows"
        )
    ns = np.arange(req.n_lo, req.n_hi + 1)
    vals = np.empty(ns.shape)
    half = np.full(ns.shape, np.inf)
    todo = np.arange(ns.size)
    history = []
    while True:
        M = req.n_hi + W + 1
        vals[todo] = _window_bisect(p, ns[todo], W, req.tol / 8.0)
        ok, width = _certify(p, ns[todo], vals[todo], req.tol, W, M)
        half[todo[ok]] = width[ok]
        todo = todo[~ok]
        if W > W0:
            history.append((M, int(todo.size)))
        if todo.size == 0 or req.n_hi + 2 * W + 1 > _N_MAX:
            break
        W *= 2
    done = np.flatnonzero(np.isfinite(half))
    if np.any(np.diff(vals[done]) < 0.0):
        # near-ties can come out of bisection reversed; sorting moves no
        # value further from its target than the widest certificate
        vals[done] = np.sort(vals[done])
        half[done] = half[done].max()
    return SpectrumSlice(
        indices=range(req.n_lo, req.n_hi + 1),
        values=vals,
        truncation_N=M,
        converged=np.isfinite(half),
        est_error=half,
        history=history,
    )
