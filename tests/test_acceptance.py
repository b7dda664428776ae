"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary
line per criterion next to its pass/fail status.
"""

import math
import time

import numpy as np
import pytest

from jacspec import asymptotics, diagonalize, eigensolve, model
from oracles import laguerre_function


def report(k, detail):
    print(f"\n[criterion {k:2d}] PASS: {detail}")


@pytest.fixture(scope="module")
def main_instance_table():
    p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
    start = time.monotonic()
    table = asymptotics.residual_table(p, 8, 512, tol=1e-8)
    return table, time.monotonic() - start


def test_criterion_01_exactly_solvable_oracle():
    start = time.monotonic()
    worst = 0.0
    for g in (0.3, 0.6, 1.2):
        for c in (0.0, 0.3):
            p = model.ModelParams(g=g, c1=c, c2=c)
            sl = eigensolve.converged_spectrum(
                p, eigensolve.SpectralRequest(0, 50, 1e-8)
            )
            assert sl.converged.all()
            err = float(np.abs(sl.values - (np.arange(51) - g * g + c)).max())
            worst = max(worst, err)
            assert err < 1e-7
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"max |lambda_n - (n - g^2 + c)| = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_02_main_asymptotic_trend(main_instance_table):
    table, elapsed = main_instance_table
    assert table.converged.all()
    assert elapsed < 60.0
    bm = asymptotics.dyadic_block_maxima(table.n, table.r1)
    maxima = [bm[j] for j in range(5, 10)]  # [32,64) onward, 512 included
    assert all(b <= a for a, b in zip(maxima, maxima[1:]))
    r1 = np.abs(table.r1)
    fit = asymptotics.fit_decay(np.column_stack((table.n, r1))[r1 >= 1e-7])
    assert fit.alpha >= 1.0 / 16.0
    report(
        2,
        f"block maxima {['%.3e' % m for m in maxima]} non-increasing, "
        f"alpha(|r1|) = {fit.alpha:.3f} >= 1/16, table in {elapsed:.1f}s",
    )


def test_criterion_03_second_order_term(main_instance_table):
    table, _ = main_instance_table
    r1, r2 = np.abs(table.r1), np.abs(table.r2)
    fit1 = asymptotics.fit_decay(np.column_stack((table.n, r1))[r1 >= 1e-7])
    fit2 = asymptotics.fit_decay(np.column_stack((table.n, r2))[r2 >= 1e-7])
    assert fit2.alpha >= fit1.alpha
    late = (64 <= table.n) & (table.n <= 512) & (table.r1 != 0.0)
    ratios = r2[late] / r1[late]
    median = float(np.median(ratios))
    # the median clause is reported, not load-bearing
    report(
        3,
        f"alpha(|r2|) = {fit2.alpha:.3f} >= alpha(|r1|) = {fit1.alpha:.3f}; "
        f"median |r2|/|r1| on [64,512] = {median:.3f} (<= 0.5: {median <= 0.5})",
    )


def test_criterion_04_remainder_rate():
    ns = np.arange(16, 4097)
    s_vals, tails = asymptotics.remainder_s_sweep(ns, 0.5, eps_tail=1e-8)
    assert np.all(tails < 1e-16)
    bm = asymptotics.dyadic_block_maxima(ns, s_vals)
    maxima = [bm[j] for j in sorted(bm)]
    assert all(b <= a for a, b in zip(maxima, maxima[1:]))
    fit = asymptotics.fit_decay(list(zip(ns.tolist(), s_vals.tolist())))
    assert fit.alpha >= 1.0 / 16.0
    x = 1.0
    worst = 0.0
    for n in range(16, 201):
        brute = math.fsum(
            laguerre_function(k, n - k, x) ** 2 / (n - k) ** 2
            for k in range(0, 4 * n + 1)
            if k != n
        )
        idx = n - 16
        worst = max(worst, abs(float(s_vals[idx]) - math.sqrt(brute)))
    assert worst < 1e-8
    report(
        4,
        f"alpha(s_n) = {fit.alpha:.3f} >= 1/16, dyadic maxima monotone, "
        f"brute-force gap on [16,200] = {worst:.1e}",
    )


def test_criterion_05_oracle_triangle():
    start = time.monotonic()
    worst = 0.0
    idx = np.arange(21)
    for g in (0.5, 0.7, 1.2):
        closed_u = model.u_columns(idx, g, 20)
        closed_rt = model.build_dense_rtilde(21, g)
        contour = model.u_element_contour_block(idx, idx, g, 256)
        conj_sum = model.r_tilde_oracle_sum_block(idx, idx, g, 110)
        for a in range(21):
            for b in range(21):
                u1 = float(closed_u[a, b])
                u2 = float(contour[a, b])
                r1 = float(closed_rt[a, b])
                r2 = float(conj_sum[a, b])
                r3 = model.r_tilde_oracle_finite_sum(a, b, g)
                worst = max(
                    worst, abs(u1 - u2), abs(r1 - r2), abs(r1 - r3), abs(r2 - r3)
                )
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(5, f"max pairwise route deviation = {worst:.2e} in {elapsed:.2f}s")


def test_criterion_06_similarity_identity():
    worst_defect = 0.0
    for g in (0.5, 1.0):
        bundle = diagonalize.build_bundle(g, 256)
        defect = diagonalize.verify_similarity(bundle)
        assert defect < 1e-10
        worst_defect = max(worst_defect, defect)
        assert float(np.max(np.abs(bundle.K + bundle.K.T))) == 0.0
        idx = np.arange(256.0)
        assert np.array_equal(bundle.K * (idx[:, None] - idx[None, :]), bundle.R1)
    report(
        6,
        f"interior defect <= {worst_defect:.2e} < 1e-10; antisymmetry and "
        f"commutator identities exact",
    )


def test_criterion_07_bessel_bound():
    grid = np.logspace(math.log10(0.1), math.log10(100.0), 200)
    rep = diagonalize.check_bessel_bound(20, grid)
    assert rep.violations == []
    assert rep.grid_size == 21 * 200
    report(7, f"0 violations on {rep.grid_size} points, max ratio {rep.max_ratio:.3f}")


def test_criterion_08_laguerre_bound():
    growths = []
    for s in (0, 1):
        rep = diagonalize.check_laguerre_bound(1.0, [s], 10**5)
        assert rep.violations == []  # sup attained before n_max/10
        assert rep.max_ratio <= 1.01  # running max moves < 1% afterwards
        growths.append(rep.max_ratio)
    report(
        8,
        f"running max attained before 1e4; late growth factors {growths} <= 1.01",
    )


def test_criterion_09_orthonormality():
    worst = 0.0
    for g in (0.3, 0.7, 1.2):
        for n in range(0, 101):
            mass, k_used = model.u_column_mass(n, g, tol=1e-10)
            worst = max(worst, abs(mass - 1.0))
            assert abs(mass - 1.0) < 1e-9
    report(9, f"max |column mass - 1| = {worst:.2e} with adaptive cutoffs")


def test_criterion_10_offset_decay():
    rep = diagonalize.check_offset_decay(0.5, 5, n_blocks=5, n_top=2048)
    assert rep.violations == []
    assert rep.max_ratio < 1.0
    report(
        10,
        f"block maxima strictly decrease for |p| <= 5, worst ratio "
        f"{rep.max_ratio:.3f} < 1",
    )
