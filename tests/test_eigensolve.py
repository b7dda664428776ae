import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from jacspec import eigensolve, model
from oracles import global_certify, plain_multisection


def random_tridiagonal(rng, n):
    return model.Tridiagonal(
        diag=rng.uniform(-5.0, 5.0, n), off=rng.uniform(-3.0, 3.0, n - 1)
    )


def sturm_count(T, x):
    """Eigenvalues of T below x, counted as the certificate counts them."""
    off2 = T.off * T.off
    pivmin = eigensolve._pivmin(off2)
    count, q = eigensolve._sturm_pivots(T.diag, off2, np.zeros(1, dtype=int),
                                        T.diag.size, np.array([float(x)]), 0.0, pivmin)
    return int(count[0] + (q[0] < pivmin))


def stebz(p, N, ns):
    """Eigenvalues ns of the N-row truncation by LAPACK bisection."""
    T = model.build_A(p, N)
    return eigh_tridiagonal(T.diag, T.off, eigvals_only=True, select="i",
                            select_range=(int(ns.min()), int(ns.max())),
                            lapack_driver="stebz")[ns - ns.min()]


class TestSturmCount:
    def test_diagonal(self):
        tri = model.Tridiagonal(diag=np.array([0.0, 1.0, 2.0]), off=np.zeros(2))
        assert sturm_count(tri, 1.5) == 2

    def test_gershgorin_ends(self):
        rng = np.random.default_rng(7)
        tri = random_tridiagonal(rng, 40)
        lo = float(np.min(tri.diag) - 2 * np.abs(tri.off).max() - 1)
        hi = float(np.max(tri.diag) + 2 * np.abs(tri.off).max() + 1)
        assert sturm_count(tri, lo) == 0
        assert sturm_count(tri, hi) == 40

    def test_zero_pivot_counts_as_negative(self):
        # the second pivot at x = 0.5 is exactly 0; lambda_0 = 0.380 < 0.5
        tri = model.build_A(model.ModelParams(0.5, 1.0, 0.0), 129)
        assert sturm_count(tri, 0.5) == 1

    def test_two_by_two_between_roots(self):
        g = 0.8
        tri = model.Tridiagonal(diag=np.array([0.0, 1.0]), off=np.array([g]))
        r_lo = (1 - math.sqrt(1 + 4 * g * g)) / 2
        r_hi = (1 + math.sqrt(1 + 4 * g * g)) / 2
        assert sturm_count(tri, 0.5 * (r_lo + r_hi)) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_monotone_and_bracket_counts(self, seed):
        rng = np.random.default_rng(seed)
        tri = random_tridiagonal(rng, 25)
        xs = np.sort(rng.uniform(-12.0, 12.0, 6))
        counts = [sturm_count(tri, float(x)) for x in xs]
        assert counts == sorted(counts)
        ref = eigvalsh_tridiagonal(tri.diag, tri.off)
        for lo, hi, c_lo, c_hi in zip(xs, xs[1:], counts, counts[1:]):
            inside = int(np.sum((ref >= lo) & (ref < hi)))
            assert c_hi - c_lo == inside


class TestSpectralRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            eigensolve.SpectralRequest(n_lo=5, n_hi=3, tol=1e-8)
        with pytest.raises(ValueError):
            eigensolve.SpectralRequest(n_lo=0, n_hi=4, tol=1e-14)
        with pytest.raises(ValueError):
            eigensolve.SpectralRequest(n_lo=-1, n_hi=4, tol=1e-8)


class TestConvergedSpectrum:
    def test_zero_coupling_sorts_the_diagonal(self):
        # diagonal entries are {k+2 : k even} and {k : k odd}
        p = model.ModelParams(g=0.0, c1=2.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 3, 1e-9))
        np.testing.assert_allclose(sl.values, [1.0, 2.0, 3.0, 4.0], atol=1e-8)

    def test_shifted_oscillator_value(self):
        p = model.ModelParams(g=0.6, c1=0.3, c2=0.3)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(10, 10, 1e-8))
        assert sl.values[0] == pytest.approx(10 - 0.36 + 0.3, abs=1e-7)

    def test_lowest_eigenvalue_bracket(self):
        p = model.ModelParams(g=0.9, c1=0.4, c2=0.1)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 0, 1e-8))
        lam0 = float(sl.values[0])
        tri = model.build_A(p, sl.truncation_N)
        lo = float(np.min(tri.diag) - 2 * np.abs(tri.off).max())
        assert lo <= lam0 <= p.c1  # Rayleigh quotient of the first basis vector

    def test_exactly_solvable_family(self):
        for g in (0.5, 1.5):
            for c in (0.0, 0.3):
                p = model.ModelParams(g=g, c1=c, c2=c)
                sl = eigensolve.converged_spectrum(
                    p, eigensolve.SpectralRequest(0, 50, 1e-8)
                )
                expect = np.arange(51) - g * g + c
                assert np.abs(sl.values - expect).max() < 1e-7
                assert sl.converged.all()

    def test_flags_and_metadata(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(3, 9, 1e-9))
        assert sl.indices == range(3, 10)
        assert sl.converged.all()
        assert np.all(sl.est_error < 1e-9)
        assert np.all(np.diff(sl.values) > 0)

    def test_zero_coupling_ties(self):
        # g = 0 and c1 - c2 = 1: diagonal 1, 1, 3, 3, ... has exact ties
        p = model.ModelParams(g=0.0, c1=1.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 3, 1e-8))
        assert sl.converged.all()
        np.testing.assert_allclose(sl.values, [1.0, 1.0, 3.0, 3.0], atol=1e-8)
        assert np.all(np.diff(sl.values) >= 0.0)

    def test_slice_rejects_descending_values(self):
        with pytest.raises(ValueError):
            eigensolve.SpectrumSlice(
                indices=range(2), values=np.array([2.0, 1.0]), truncation_N=4,
                converged=np.array([True, True]), est_error=np.zeros(2),
            )

    @pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("c2", [0.0, 0.63])  # c1 - c2 = 1 and 0.37
    def test_windowed_matches_dense(self, g, c2):
        p = model.ModelParams(g=g, c1=1.0, c2=c2)
        tol = 1e-8
        ranges = [(0, 12), (995, 1000)]
        ns = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges])
        dense = stebz(p, 1000 + 400, ns)
        got = []
        for lo, hi in ranges:
            sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(lo, hi, tol))
            assert sl.converged.all()
            assert np.all(sl.est_error < tol)
            got.append(sl.values)
        assert np.abs(np.concatenate(got) - dense).max() < tol

    @pytest.mark.parametrize("g, c1, c2", [(0.5, 1.0, 0.0), (2.0, 0.3, -0.4),
                                           (6.0, 0.0, 0.5)])
    def test_tail_corrected_count_is_exact(self, g, c1, c2):
        # where the window bracket closes, the count is that of the
        # operator, so a 4x larger truncation (LAPACK) must give the same
        # count; windows sized as the solver sizes them, and 33-row ones
        # whose lead bracket (rows before the window) often cannot close
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        n_top = 300
        xs = np.linspace(-g * g - 1.0, n_top + 10.0, 97)
        ns = np.clip(np.rint(xs + g * g).astype(int), 0, n_top)
        for W in (math.ceil(3.0 * abs(g) * math.sqrt(n_top + 1)) + eigensolve._W_PAD, 16):
            M = n_top + W + 1
            most, fewest = eigensolve._operator_counts(p, M, W, ns, xs, xs)
            exact = fewest == most
            if W > 16:
                assert exact.sum() > 20
                if g < 6.0:
                    assert (exact & (ns > W)).sum() > 20
            big = model.build_A(p, 4 * M)
            lam = eigvalsh_tridiagonal(big.diag, big.off)
            counts = np.searchsorted(lam, xs, side="left")
            np.testing.assert_array_equal(fewest[exact], counts[exact])
            assert np.all(fewest <= counts) and np.all(counts <= most)

    @pytest.mark.parametrize("g, c1, c2", [(0.5, 1.0, 0.0), (2.0, 0.3, -0.4),
                                           (6.0, 0.0, 0.5)])
    @pytest.mark.parametrize("W", [4, 16, 64])
    def test_window_bracket_holds_around_each_window(self, g, c1, c2, W):
        # every tenth window up to n = 300, at 41 points across +-2W of its
        # Weyl centre and at 1e-6 and 1e-2 on each side of its eigenvalue
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        big = model.build_A(p, 3000)
        lam = eigvalsh_tridiagonal(big.diag, big.off)
        centres = np.arange(0, 301, 10)
        spread = np.linspace(-2.0 * W, 2.0 * W, 41)
        near = np.array([-1e-2, -1e-6, 1e-6, 1e-2])
        ns = np.repeat(centres, spread.size + near.size)
        xs = np.concatenate([np.concatenate([n - g * g + spread, lam[n] + near])
                             for n in centres])
        counts = np.searchsorted(lam, xs, side="left")
        most, fewest = eigensolve._operator_counts(p, 300 + W + 1, W, ns, xs, xs)
        assert np.all(fewest <= counts) and np.all(counts <= most)
        exact = fewest == most
        # nine-row windows are far narrower than 3 g sqrt(n) at g = 6 and
        # close nowhere there
        if (g, W) != (6.0, 4):
            assert exact.sum() > 10
        np.testing.assert_array_equal(fewest[exact], counts[exact])

    def test_narrow_window_is_widened(self, monkeypatch):
        # W = 1 at first: three-row windows give wrong candidates
        monkeypatch.setattr(eigensolve, "_W_PAD", 0.5 - 3.0 * 0.5 * math.sqrt(41))
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(30, 40, 1e-9))
        assert len(sl.history) >= 2
        assert sl.history[-1][1] == 0
        assert sl.converged.all()
        dense = stebz(p, 440, np.arange(30, 41))
        assert np.abs(sl.values - dense).max() < 1e-9

    def test_narrow_window_at_size_cap_is_flagged(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "_W_PAD", 0.5 - 3.0 * 0.5 * math.sqrt(41))
        monkeypatch.setattr(eigensolve, "_N_MAX", 48)
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(30, 40, 1e-9))
        dense = stebz(p, 440, np.arange(30, 41))
        wrong = np.abs(sl.values - dense) >= 1e-9
        assert wrong.any()
        assert not sl.converged[wrong].any()
        assert np.all(np.isinf(sl.est_error[~sl.converged]))

    def test_est_error_covers_count_rounding(self):
        # tol/2 alone (5e-12) is near one ulp of 4096; the reported
        # half-width adds the rounding term of the Sturm count
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        tol = 1e-11
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(4090, 4095, tol))
        assert sl.converged.all()
        rho = eigensolve._rounding_term(p, sl.truncation_N, 1e-11)
        assert rho > 1e-12
        assert np.all(sl.est_error >= 0.5 * tol + rho)
        assert np.all(sl.est_error <= tol)
        # LAPACK bisection; the default MRRR driver is itself off by up to
        # 7e-12 here
        big = model.build_A(p, 4095 + 401)
        ref = eigvalsh_tridiagonal(big.diag, big.off, select="i",
                                   select_range=(4090, 4095), lapack_driver="stebz")
        assert np.all(np.abs(sl.values - ref) <= sl.est_error)

    def test_tol_below_count_rounding_is_refused(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        with pytest.raises(ValueError, match="rounding term"):
            eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(4090, 4095, 1e-12))
        # low indices keep the full tol range
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 5, 1e-12))
        assert sl.converged.all() and np.all(sl.est_error <= 1e-12)

    def test_overflowing_shift_difference_is_refused(self):
        p = model.ModelParams(g=0.5, c1=1e308, c2=-1e308)
        with pytest.raises(ValueError, match="c1 - c2"):
            eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 2, 1e-8))

    def test_beyond_size_cap_is_refused(self):
        p = model.ModelParams(g=1e200)
        with pytest.raises(ValueError, match="truncation"):
            eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(0, 3, 1e-8))


class TestWindowCertificate:
    """The certificate on each index's window against the one over all rows."""

    # (g, c1, c2, n_lo, n_hi, tol); at g = 12 the first round certifies
    # only some of the indices
    SETS = [(0.5, 1.0, 0.0, 16, 4095, 1e-8), (0.1, 1.0, 0.0, 0, 40, 1e-8),
            (1.2, 0.7, 0.7, 900, 931, 1e-8), (0.0, 1.0, 0.0, 0, 30, 1e-8),
            (12.0, 1.0, 0.0, 0, 500, 1e-6), (-0.7, 0.2, 1.5, 100, 1500, 1e-10),
            (0.5, 1.0, 0.0, 4090, 4095, 1e-11)]

    @staticmethod
    def first_round(g, c1, c2, n_lo, n_hi, tol):
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        W = math.ceil(3.0 * abs(g) * math.sqrt(n_hi + 1) + eigensolve._W_PAD)
        ns = np.arange(n_lo, n_hi + 1)
        vals = eigensolve._window_bisect(p, ns, W, tol / 8.0)
        return p, ns, vals, W, n_hi + W + 1

    @pytest.mark.parametrize("case", SETS, ids=lambda c: f"g{c[0]}-n{c[3]}:{c[4]}")
    def test_matches_global_certificate(self, case):
        p, ns, vals, W, M = self.first_round(*case)
        tol = case[-1]
        ok, half = eigensolve._certify(p, ns, vals, tol, W, M)
        ref_ok, ref_half = global_certify(p, ns, vals, tol, M)
        np.testing.assert_array_equal(ok, ref_ok)
        np.testing.assert_array_equal(half, ref_half)
        if case[0] == 12.0:
            assert 0 < ok.sum() < ok.size
        else:
            assert ok.all()

    @pytest.mark.parametrize("case", SETS, ids=lambda c: f"g{c[0]}-n{c[3]}:{c[4]}")
    def test_moved_candidate_is_never_certified(self, case):
        p, ns, vals, W, M = self.first_round(*case)
        tol = case[-1]
        for shift in (-0.6 * tol, 0.6 * tol):
            ok, _ = eigensolve._certify(p, ns, vals + shift, tol, W, M)
            assert not ok.any()
            ref_ok, _ = global_certify(p, ns, vals + shift, tol, M)
            assert not ref_ok.any()

    def test_open_lead_bracket_is_not_certified(self):
        # W = 1: the rows before each window reach up to about n + sqrt(n)
        # (Gershgorin), above the eigenvalue, so even exact values fail
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        ns = np.arange(30, 41)
        ok, _ = eigensolve._certify(p, ns, stebz(p, 440, ns), 1e-9, 1, 42)
        assert not ok.any()

    def test_open_lead_bracket_is_widened_and_flagged(self, monkeypatch):
        # starts at W = 1; the size cap stops the widening at W = 4, where
        # no lead bracket closes yet, so nothing may be reported converged
        monkeypatch.setattr(eigensolve, "_W_PAD", 0.5 - 3.0 * 0.5 * math.sqrt(41))
        monkeypatch.setattr(eigensolve, "_N_MAX", 48)
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        sl = eigensolve.converged_spectrum(p, eigensolve.SpectralRequest(30, 40, 1e-9))
        assert [M for M, _ in sl.history] == [43, 45]
        assert not sl.converged.any()
        assert np.all(np.isinf(sl.est_error))


def window_width(g, n_hi):
    return math.ceil(3.0 * abs(g) * math.sqrt(n_hi + 1) + eigensolve._W_PAD)


def sweeps_of(monkeypatch, p, ns, W, tol):
    """Values of _window_bisect and the (points, slope) of every sweep it made."""
    sweeps = []
    kernel = eigensolve._window_counts

    def counted(p_, a, L, xs, pivmin, slope=False):
        sweeps.append((xs.size, slope))
        return kernel(p_, a, L, xs, pivmin, slope)

    monkeypatch.setattr(eigensolve, "_window_counts", counted)
    return eigensolve._window_bisect(p, ns, W, tol), sweeps


def same_bits(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestWindowCounts:
    @pytest.mark.parametrize("g, c1, c2", [(0.3, 1.0, 0.0), (2.0, 0.3, -0.4),
                                           (12.0, 1.0, 0.0), (2.0, 0.7, 0.7)])
    def test_monotone_around_eigenvalues(self, g, c1, c2):
        # the replay decides grid points from counted neighbours, which is
        # exact only if the computed count never falls as x rises: dense
        # grids and nextafter neighbours around eigenvalues of windows in
        # the middle of the spectrum and at its start
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        W = 40
        L = 2 * W + 1
        for start in (0, 300):
            T = model.build_A(p, start + L)
            lam = eigvalsh_tridiagonal(T.diag[start:], T.off[start:])
            pivmin = np.finfo(float).tiny * max(1.0, g * g * (start + L))
            for centre in lam[W - 3: W + 4]:
                steps = np.arange(-40, 41)
                xs = np.concatenate([centre + 1e-9 * steps, centre + 1e-13 * steps,
                                     centre + np.spacing(centre) * steps])
                xs = np.unique(xs)
                a = np.full(xs.shape, float(start))
                counts = eigensolve._window_counts(p, a, L, xs, pivmin)
                assert np.all(np.diff(counts) >= 0)
                assert counts[0] < counts[-1]

    def test_slope_is_the_log_determinant_derivative(self):
        # sum q'/q = d/dx log |det(T - x)| = sum 1/(x - lambda_i)
        p = model.ModelParams(g=0.8, c1=1.0, c2=0.2)
        start, W = 50, 20
        L = 2 * W + 1
        T = model.build_A(p, start + L)
        lam = eigvalsh_tridiagonal(T.diag[start:], T.off[start:])
        xs = 0.5 * (lam[:-1] + lam[1:])
        a = np.full(xs.shape, float(start))
        pivmin = np.finfo(float).tiny * max(1.0, 0.64 * (start + L))
        counts, slope = eigensolve._window_counts(p, a, L, xs, pivmin, slope=True)
        np.testing.assert_array_equal(counts, eigensolve._window_counts(p, a, L, xs, pivmin))
        np.testing.assert_array_equal(counts, np.arange(1, L))
        want = np.sum(1.0 / (xs[:, None] - lam[None, :]), axis=1)
        np.testing.assert_allclose(slope, want, rtol=1e-9, atol=1e-9)


class TestBracketedMultisection:
    """_window_bisect against every level swept (tests/oracles.plain_multisection)."""

    @given(g=st.one_of(st.sampled_from([0.0, -0.5, 0.5, 2.0, -3.0, 1e-3]),
                       st.floats(-6.0, 6.0)),
           c1=st.sampled_from([0.0, 0.3, 1.0, -2.0]),
           shift=st.one_of(st.sampled_from([0.0, 1.0, 2.0, -1.0, 3.0]),
                           st.floats(-3.0, 3.0)),
           n_lo=st.integers(0, 600),
           count=st.sampled_from([20, 33, 34, 68, 69, 150, 400]),
           tol=st.sampled_from([1e-2, 1e-4, 1e-8, 1e-10]))
    def test_bit_identical_to_plain_multisection(self, g, c1, shift, n_lo, count, tol):
        # counts 33 | 34 and 68 | 69 sit on both sides of s = 5 | 4 | 3; at
        # tol 1e-8 the probes engage from s = 3 on
        p = model.ModelParams(g=g, c1=c1, c2=c1 - shift)
        ns = np.arange(n_lo, n_lo + count)
        W = window_width(g, int(ns[-1]))
        same_bits(eigensolve._window_bisect(p, ns, W, tol / 8.0),
                  plain_multisection(p, ns, W, tol / 8.0))

    @pytest.mark.parametrize("case", TestWindowCertificate.SETS,
                             ids=lambda c: f"g{c[0]}-n{c[3]}:{c[4]}")
    def test_bit_identical_on_the_certificate_sets(self, case):
        g, c1, c2, n_lo, n_hi, tol = case
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        ns = np.arange(n_lo, n_hi + 1)
        W = window_width(g, n_hi)
        same_bits(eigensolve._window_bisect(p, ns, W, tol / 8.0),
                  plain_multisection(p, ns, W, tol / 8.0))

    @pytest.mark.parametrize("n_lo", [99990, 99900, 99000])
    @pytest.mark.parametrize("c1, c2", [(0.7, 0.7), (1.0, 0.0)])
    @pytest.mark.parametrize("g", [0.5, 2.0])
    def test_bit_identical_where_rounding_decides(self, g, c1, c2, n_lo, monkeypatch):
        # tol 1e-10 is the floor converged_spectrum accepts at n_hi = 1e5;
        # its last level widths, tol / 8, are below ulp(1e5), so grid
        # points round onto bracket ends and the replay decides them
        # without a count.  11 indices take the plain path, 101 and 1001
        # engage the probes
        p = model.ModelParams(g=g, c1=c1, c2=c2)
        ns = np.arange(n_lo, 100001)
        W = window_width(g, 100000)
        tol = 1e-10
        floor = 2.0 * eigensolve._rounding_term(p, 100000 + W + 1, tol)
        assert floor <= tol < 1.2 * floor
        assert tol / 8.0 < np.spacing(float(n_lo))
        want = plain_multisection(p, ns, W, tol / 8.0)
        vals, sweeps = sweeps_of(monkeypatch, p, ns, W, tol / 8.0)
        same_bits(vals, want)
        if ns.size == 11:
            s = int(math.log2(eigensolve._SWEEP_WIDTH / 11 + 1.0))
            levels = math.ceil(math.log2((abs(c1 - c2) + 2.0) * 8.0 / tol) / s)
            assert all(not slope for _, slope in sweeps)
            assert len(sweeps) == levels
            assert sum(n for n, _ in sweeps) < levels * 11 * (2**s - 1)

    @pytest.mark.parametrize("garbage", ["nan", "inf", "zero", "random", "negated"])
    def test_wrong_slope_changes_no_value(self, garbage, monkeypatch):
        # the slope only steers the probes; every probe is a counted point
        rng = np.random.default_rng(3)
        kernel = eigensolve._window_counts

        def bad_slope(p_, a, L, xs, pivmin, slope=False):
            if not slope:
                return kernel(p_, a, L, xs, pivmin)
            counts, total = kernel(p_, a, L, xs, pivmin, slope=True)
            wrong = {"nan": np.full(xs.shape, np.nan), "inf": np.full(xs.shape, np.inf),
                     "zero": np.zeros(xs.shape),
                     "random": rng.normal(0.0, 1e3, xs.shape), "negated": -total}
            return counts, wrong[garbage]

        for g, c1, c2 in [(0.5, 1.0, 0.0), (0.6, 0.3, 0.3), (-2.0, 0.2, 1.5)]:
            p = model.ModelParams(g=g, c1=c1, c2=c2)
            ns = np.arange(100, 700)
            W = window_width(g, 699)
            want = plain_multisection(p, ns, W, 1e-9)
            monkeypatch.setattr(eigensolve, "_window_counts", bad_slope)
            got = eigensolve._window_bisect(p, ns, W, 1e-9)
            monkeypatch.setattr(eigensolve, "_window_counts", kernel)
            same_bits(got, want)

    def test_wide_request_skips_most_levels(self, monkeypatch):
        # 4080 indices at tol 1e-8 / 8: 32 levels of one point each
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        ns = np.arange(16, 4096)
        W = window_width(0.5, 4095)
        vals, sweeps = sweeps_of(monkeypatch, p, ns, W, 1.25e-9)
        full = [n for n, slope in sweeps if n == ns.size and not slope]
        probes = [n for n, slope in sweeps if slope]
        assert len(full) <= 8
        assert 1 <= len(probes) <= eigensolve._MAX_PROBES
        assert len(sweeps) < 16
        same_bits(vals, plain_multisection(p, ns, W, 1.25e-9))

    @pytest.mark.parametrize("g, count, tol", [(0.5, 32, 1.25e-9), (0.5, 1, 1.25e-9),
                                               (0.0, 4080, 1.25e-9),
                                               (0.5, 4080, 1e-2)])
    def test_plain_path_where_probes_save_nothing(self, g, count, tol, monkeypatch):
        # slices of up to 32 indices, g = 0 and coarse tolerances sweep
        # every level, one sweep each, and never probe
        p = model.ModelParams(g=g, c1=1.0, c2=0.0)
        ns = np.arange(100, 100 + count)
        W = window_width(g, int(ns[-1]))
        s = max(1, int(math.log2(eigensolve._SWEEP_WIDTH / count + 1.0)))
        levels = math.ceil(math.log2(3.0 / tol) / s)
        _, sweeps = sweeps_of(monkeypatch, p, ns, W, tol)
        assert sweeps == [(count * (2**s - 1), False)] * levels
