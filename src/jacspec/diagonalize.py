"""Successive-diagonalization machinery and the checks behind it.

Builds the similarity data (D1, R1, K, B) that strips the off-diagonal
part of the conjugated parity perturbation to leading order, and runs
the numerical checks that ``jacspec verify`` prints: the two inequality
bounds and the offset-diagonal decay that the asymptotics rest on, the
similarity identity and the exact structure of its operators, and the
orthonormality of U.  Every ``check_*`` function returns one
``BoundCheckReport`` and holds its own threshold.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .model import build_dense_rtilde, u_column_mass
from .asymptotics import dyadic_block_maxima

__all__ = [
    "BoundCheckReport",
    "DiagonalizationBundle",
    "build_bundle",
    "check_bessel_bound",
    "check_commutator_identity",
    "check_k_antisymmetry",
    "check_laguerre_bound",
    "check_offset_decay",
    "check_orthonormality",
    "check_rtilde_symmetry",
    "check_similarity",
    "verify_similarity",
]

# largest similarity defect that is still round-off
SIMILARITY_TOL = 1e-10
# largest |1 - column mass| of U that counts as orthonormal
ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class DiagonalizationBundle:
    """Finite sections of the diagonalization operators.

    K is antisymmetric with zero diagonal, and R1 is stored as the
    elementwise product K[i, j] * (i - j) so the commutator identity
    holds bit-exactly; it reproduces the off-diagonal part of Rt to
    one ulp.  B = K Rt - diag(Rt) K.
    """

    N: int
    D: np.ndarray
    Rt: np.ndarray
    D1: np.ndarray
    R1: np.ndarray
    K: np.ndarray
    B: np.ndarray


@dataclass
class BoundCheckReport:
    """Outcome of one check, under the name it prints.

    ``max_ratio`` is the printed metric; any entry in ``violations``
    fails the check.  A check that does not apply says why in
    ``skipped`` (``"g=0"``) and passes.
    """

    name: str
    grid_size: int
    max_ratio: float
    violations: list = field(default_factory=list)
    note: str = ""
    skipped: str = ""

    @property
    def passed(self):
        return not self.violations

    @property
    def status(self):
        if self.skipped:
            return f"SKIPPED({self.skipped})"
        return "PASS" if self.passed else "FAIL"


def _metric_report(name, metric, ok, grid_size):
    # a scalar metric against its threshold: one violation when it fails
    metric = float(metric)
    return BoundCheckReport(name=name, grid_size=grid_size, max_ratio=metric,
                            violations=[] if ok else [{"metric": metric}])


def build_bundle(g, N):
    """Assemble the diagonalization operators at truncation N."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    rt = build_dense_rtilde(N, g)
    idx = np.arange(N, dtype=float)
    d = np.diag(idx)
    rtnn = np.diag(rt).copy()
    d1 = d + np.diag(rtnn)
    delta = idx[:, None] - idx[None, :]
    np.fill_diagonal(delta, 1.0)  # dummy pivot, wiped right after
    k = rt / delta
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(delta, 0.0)
    r1 = k * delta
    b = k @ rt - rtnn[:, None] * k
    return DiagonalizationBundle(N=N, D=d, Rt=rt, D1=d1, R1=r1, K=k, B=b)


def verify_similarity(bundle):
    """Max interior defect of the similarity identity.

    Forms (I + K) T - D1 (I + K) against R1 - [D, K] + B and
    returns the largest entrywise difference over the leading N/2 block;
    both sides are exact matrix algebra, so anything above round-off
    means a construction bug.
    """
    if bundle.N < 64:
        raise ValueError("similarity check wants N >= 64")
    n = bundle.N
    eye = np.eye(n)
    t = bundle.D + bundle.Rt
    left = (eye + bundle.K) @ t - bundle.D1 @ (eye + bundle.K)
    right = bundle.R1 - (bundle.D @ bundle.K - bundle.K @ bundle.D) + bundle.B
    h = n // 2
    return float(np.max(np.abs((left - right)[:h, :h])))


def check_similarity(bundle):
    """The interior similarity defect stays below ``SIMILARITY_TOL``."""
    defect = verify_similarity(bundle)
    return _metric_report("similarity_defect", defect, defect < SIMILARITY_TOL,
                          (bundle.N // 2) ** 2)


def check_k_antisymmetry(bundle):
    """K + K^T vanishes exactly."""
    anti = np.max(np.abs(bundle.K + bundle.K.T))
    return _metric_report("k_antisymmetry", anti, anti == 0.0, bundle.K.size)


def check_commutator_identity(bundle):
    """[D, K] = R1 exactly, entry by entry K[i, j] (i - j) = R1[i, j]."""
    i = np.arange(bundle.N)
    comm = np.max(np.abs(bundle.K * (i[:, None] - i[None, :]) - bundle.R1))
    return _metric_report("commutator_identity", comm, comm == 0.0, bundle.K.size)


def check_rtilde_symmetry(bundle):
    """Rt equals its transpose exactly."""
    asym = np.max(np.abs(bundle.Rt - bundle.Rt.T))
    return _metric_report("rtilde_symmetry", asym, asym == 0.0, bundle.Rt.size)


def check_orthonormality(g, n_max):
    """Columns n = 0, 10, ..., n_max of U have unit mass.

    The metric is the largest |1 - mass|, each mass summed to a certified
    defect below 1e-10; it must stay below ``ORTHONORMALITY_TOL``.
    """
    ns = range(0, n_max + 1, 10)
    worst = max((abs(1.0 - u_column_mass(n, g, tol=1e-10)[0]) for n in ns),
                default=0.0)
    return _metric_report("orthonormality", worst, worst < ORTHONORMALITY_TOL, len(ns))


def check_bessel_bound(s_max, x_grid):
    """Check |J_s(x)| <= 2 sqrt(2/(pi x)) (1 + s/x)^s on a grid.

    The right side is evaluated in the log domain so large s/x cannot
    overflow.  Violations are data, not errors.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0.0):
        raise ValueError("grid points must be positive")
    # one Miller pass per grid point yields every order
    table = np.array(
        [specfun.bessel_j(s_max, float(x)) for x in x_grid]
    ).reshape(x_grid.size, s_max + 1)
    worst = -math.inf
    violations = []
    for s in range(s_max + 1):
        for x, j in zip(x_grid, table[:, s].tolist()):
            log_bound = (
                math.log(2.0)
                + 0.5 * (math.log(2.0 / math.pi) - math.log(x))
                + s * math.log1p(s / x)
            )
            log_ratio = (math.log(abs(j)) if j != 0.0 else -math.inf) - log_bound
            worst = max(worst, log_ratio)
            if log_ratio > 0.0:
                violations.append({"s": s, "x": float(x), "ratio": math.exp(log_ratio)})
    return BoundCheckReport(
        name="bessel_bound",
        grid_size=(s_max + 1) * x_grid.size,
        max_ratio=math.exp(worst),
        violations=violations,
    )


def check_laguerre_bound(x, s_list, n_max):
    """Boundedness check of (n+1)^(1/4) |w_n^(s)(x)| over admissible n.

    Admissible degrees satisfy n >= s^16.  Boundedness shows up as a
    stabilized running max: max_ratio is the factor by which the
    running max still grows after n_max/10 (1.0 exactly when the sup
    is attained early), and every later point above the early sup is a
    violation.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    for s in s_list:
        if s < 0:
            raise ValueError(f"order must be nonnegative, got {s}")
        if s**16 > n_max:
            raise ValueError(f"no admissible degree for s={s} below n_max={n_max}")
    early_cut = n_max // 10
    worst_ratio = 1.0
    total = 0
    violations = []
    notes = []
    w = specfun.laguerre_function_table(n_max, max(s_list, default=0), x)
    scale = (np.arange(n_max + 1) + 1.0) ** 0.25
    for s in s_list:
        n0 = s**16
        q = np.abs(w[n0:, s])
        q *= scale[n0:]
        ns = np.arange(n0, n_max + 1)
        total += q.size
        early = q[ns <= early_cut]
        if early.size == 0:
            notes.append(f"s={s}: admissible range starts past n_max/10")
            continue
        early_sup = float(early.max())
        late_mask = ns > early_cut
        late = q[late_mask]
        for n, val in zip(ns[late_mask][late > early_sup], late[late > early_sup]):
            violations.append({"s": int(s), "n": int(n), "ratio": float(val / early_sup)})
        growth = float(max(late.max(initial=0.0), early_sup) / early_sup)
        worst_ratio = max(worst_ratio, growth)
        notes.append(
            f"s={s}: sup={early_sup:.6f} running_max_growth={growth:.6f} "
            f"last_decade_level={float(late.max(initial=0.0)) / early_sup:.6f}"
        )
    return BoundCheckReport(
        name=f"laguerre_bound(x={x:g})",
        grid_size=total,
        max_ratio=worst_ratio,
        violations=violations,
        note="; ".join(notes),
    )


def check_offset_decay(g, p_max, n_blocks=5, n_top=2048):
    """Dyadic-block decay of the fixed-offset diagonals of Rt.

    For every offset |p| <= p_max the block maxima of |Rt[n, n+p]| over
    the last n_blocks dyadic blocks below n_top must decrease; a block
    ratio of 1 or more is a violation.  Not applicable at g = 0, where
    the matrix is the constant-diagonal parity.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    if g == 0.0:
        return BoundCheckReport(
            name="offset_decay",
            grid_size=0,
            max_ratio=0.0,
            note="skipped: g = 0 leaves the parity diagonal constant",
            skipped="g=0",
        )
    x = 4.0 * g * g
    j_hi = int(math.log2(n_top)) - 1
    j_lo = j_hi - n_blocks + 1
    if j_lo < 1:
        raise ValueError("n_top too small for the requested block count")
    w = specfun.laguerre_function_table(n_top, p_max, x)
    ns = np.arange(2**j_lo, 2 ** (j_hi + 1))
    worst = 0.0
    violations = []
    count = 0
    for p in range(-p_max, p_max + 1):
        deg = np.minimum(ns, ns + p)
        vals = np.abs(w[deg, abs(p)])
        count += vals.size
        maxima = dyadic_block_maxima(ns, vals)
        for j in range(j_lo, j_hi):
            ratio = maxima[j + 1] / maxima[j]
            worst = max(worst, ratio)
            if ratio >= 1.0:
                violations.append({"p": p, "block": j + 1, "ratio": float(ratio)})
    return BoundCheckReport(
        name="offset_decay",
        grid_size=count,
        max_ratio=float(worst),
        violations=violations,
    )
