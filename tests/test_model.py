import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacspec import model, specfun
from oracles import build_dense_u, laguerre_function, laguerre_polynomial


def contour(n, m, g, M=256):
    return float(model.u_element_contour_block([n], [m], g, M)[0, 0])


def conjugation_sum(k, m, g, K):
    return float(model.r_tilde_oracle_sum_block([k], [m], g, K)[0, 0])


def scalar_u(n, m, g):
    """U[n, m] from the scalar reference, with U(-g) = P U(g) P."""
    if g == 0.0:
        return 1.0 if n == m else 0.0
    sign = -1.0 if (g < 0.0 and (n - m) % 2) else 1.0
    return sign * laguerre_function(n, m - n, g * g)


def scalar_rtilde(k, m, g):
    """Rt[k, m] from the scalar reference: (-1)^k U[k, m] at coupling 2 g."""
    return (-1.0 if k % 2 else 1.0) * scalar_u(k, m, 2.0 * g)


def dense(tri):
    return np.diag(tri.diag) + np.diag(tri.off, 1) + np.diag(tri.off, -1)


class TestBuildA:
    def test_small_instance(self):
        tri = model.build_A(model.ModelParams(g=0.4, c1=0.1, c2=0.2), 3)
        np.testing.assert_allclose(tri.diag, [0.1, 1.2, 2.1])
        np.testing.assert_allclose(tri.off, [0.4, 0.4 * math.sqrt(2)])

    def test_zero_coupling_is_diagonal(self):
        tri = model.build_A(model.ModelParams(g=0.0, c1=0.3, c2=0.7), 6)
        assert np.all(tri.off == 0.0)

    def test_equal_shifts(self):
        tri = model.build_A(model.ModelParams(g=0.5, c1=0.3, c2=0.3), 8)
        np.testing.assert_allclose(tri.diag, np.arange(8) + 0.3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            model.build_A(model.ModelParams(g=0.5), 1)

    def test_params_must_be_finite(self):
        with pytest.raises(ValueError):
            model.ModelParams(g=math.inf)
        with pytest.raises(ValueError):
            model.ModelParams(g=0.5, c1=math.nan)

    def test_base_case_matches_general(self):
        # default shifts are the exactly solvable part: k and g sqrt(k)
        tri = model.build_A(model.ModelParams(g=0.8), 12)
        np.testing.assert_array_equal(tri.diag, np.arange(12.0))
        np.testing.assert_array_equal(tri.off, 0.8 * np.sqrt(np.arange(1.0, 12.0)))

    def test_base_two_by_two(self):
        tri = model.build_A(model.ModelParams(g=0.9), 2)
        np.testing.assert_allclose(tri.diag, [0.0, 1.0])
        np.testing.assert_allclose(tri.off, [0.9])


class TestParityDiag:
    def test_values(self):
        np.testing.assert_array_equal(model.parity_diag(4), [1.0, -1.0, 1.0, -1.0])

    def test_squares_to_identity(self):
        assert np.all(model.parity_diag(9) ** 2 == 1.0)

    def test_even_length_sums_to_zero(self):
        assert model.parity_diag(10).sum() == 0.0


class TestUElement:
    def test_corner(self):
        for g in (0.3, 1.1):
            assert model.u_columns([0], g, 0)[0, 0] == pytest.approx(
                math.exp(-g * g / 2), rel=1e-14
            )

    def test_identity_at_zero_coupling(self):
        for n, m in [(0, 0), (3, 3), (2, 5)]:
            assert model.u_columns([m], 0.0, n)[n, 0] == (1.0 if n == m else 0.0)

    @pytest.mark.parametrize("g", [0.3, 0.7, 1.2])
    def test_column_mass_reaches_one(self, g):
        for n in (0, 7, 41, 100):
            mass, k_used = model.u_column_mass(n, g, tol=1e-10)
            assert 1.0 - 1e-10 <= mass <= 1.0 + 1e-12
            assert k_used >= n

    @pytest.mark.parametrize("g", [0.0, 0.3, -1.1])
    def test_columns_match_single_columns(self, g):
        ns = [0, 5, 40, 120]
        cols = model.u_columns(ns, g, 100)
        assert cols.shape == (101, 4)
        for i, n in enumerate(ns):
            assert np.array_equal(cols[:, i], model.u_columns([n], g, 100)[:, 0])
            for k in (0, 3, 40, 77, 100):
                assert cols[k, i] == pytest.approx(scalar_u(k, n, g), abs=1e-14)

    def test_partial_masses_monotone_and_bounded(self):
        g, n = 0.7, 25
        masses = []
        for k_max in (n, n + 10, n + 40, n + 120):
            col = model.u_columns([n], g, k_max)[:, 0]
            masses.append(float(col @ col))
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert all(m <= 1.0 + 1e-12 for m in masses)


class TestUElementContour:
    def test_corner(self):
        g = 0.8
        assert contour(0, 0, g, 256) == pytest.approx(
            math.exp(-g * g / 2), rel=1e-12
        )

    def test_matches_closed_form_grid(self):
        g = 0.7
        closed = model.u_columns(np.arange(21), g, 20)
        for n in range(0, 21, 4):
            for m in range(0, 21, 4):
                assert abs(contour(n, m, g, 256) - closed[n, m]) < 1e-10

    def test_spot_against_function(self):
        got = contour(2, 5, 0.5, 256)
        assert got == pytest.approx(laguerre_function(2, 3, 0.25), rel=1e-11)

    def test_caps(self):
        with pytest.raises(ValueError):
            contour(31, 2, 0.5)
        with pytest.raises(ValueError):
            contour(2, 2, 0.5, M=32)


class TestRTilde:
    def test_corner(self):
        for g in (0.4, 0.9):
            assert model.build_dense_rtilde(1, g)[0, 0] == pytest.approx(
                math.exp(-2 * g * g), rel=1e-14
            )

    def test_parity_at_zero_coupling(self):
        r = model.build_dense_rtilde(5, 0.0)
        assert r[2, 2] == 1.0
        assert r[3, 3] == -1.0
        assert r[2, 4] == 0.0

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.sampled_from([0.3, 0.5, 0.7, 1.2]),
    )
    def test_symmetry_is_bit_exact(self, k, m, g):
        r = model.build_dense_rtilde(max(k, m) + 1, g)
        assert r[k, m] == r[m, k]

    def test_offset_diagonals_decay(self):
        # fixed-offset entries shrink as the block doubles
        g = 0.5
        x = 4 * g * g
        for p in range(-5, 6):
            prev = None
            for n0 in (64, 128, 256, 512, 1024):
                w = specfun.laguerre_function_table(2 * n0 + abs(p), abs(p), x)
                ns = np.arange(n0, 2 * n0)
                cur = float(np.abs(w[np.minimum(ns, ns + p), abs(p)]).max())
                if prev is not None:
                    assert cur < prev
                prev = cur


def conjugation_sum_reference(k, m, g, K):
    """One entry of the conjugation route from two separately built columns."""
    if g == 0.0:
        return (-1.0 if k % 2 else 1.0) if k == m else 0.0
    uk, um = model.u_columns([k], g, K)[:, 0], model.u_columns([m], g, K)[:, 0]
    return float(np.sum(model.parity_diag(K + 1) * uk * um))


def contour_reference(n, m, g, M=256):
    """One shift-transform entry by contour, with its own trapezoid sum."""
    if g == 0.0:
        return 1.0 if n == m else 0.0
    r = min(1.0, g * g / (m - n)) if m > n else 1.0
    z = r * np.exp(2j * math.pi * np.arange(M) / M)
    mean = np.mean(z**m * (1.0 / z - 1.0) ** n * np.exp(g * g / z))
    lg = specfun.log_gamma
    lpre = 0.5 * (lg(m + 1.0) - lg(n + 1.0)) + (n - m) * math.log(abs(g))
    sign = -1.0 if (g < 0.0 and (n - m) % 2) else 1.0
    return float((math.exp(-0.5 * g * g + lpre) * sign * mean).real)


def finite_sum_reference(k, m, g):
    """The residue route with its alternating body in Fraction arithmetic."""
    if g == 0.0:
        return (-1.0 if k % 2 else 1.0) if k == m else 0.0
    x = 4.0 * g * g
    body = Fraction(0)
    for i in range(k + 1):
        if i + m - k >= 0:
            term = Fraction(math.comb(k, i), math.factorial(i + m - k)) * Fraction(x) ** i
            body += -term if i % 2 else term
    lg = specfun.log_gamma
    lpre = -0.5 * x + 0.5 * (lg(m + 1.0) - lg(k + 1.0)) + (m - k) * math.log(abs(2.0 * g))
    sign = -1.0 if k % 2 else 1.0
    if g < 0.0 and (m - k) % 2:
        sign = -sign
    return sign * math.exp(lpre) * float(body)


class TestRTildeOracles:
    def test_sum_corner(self):
        g = 0.6
        assert conjugation_sum(0, 0, g, 120) == pytest.approx(
            math.exp(-2 * g * g), abs=1e-9
        )

    def test_sum_against_closed_form(self):
        assert conjugation_sum(3, 7, 0.6, 120) == pytest.approx(
            model.build_dense_rtilde(8, 0.6)[3, 7], abs=1e-9
        )

    def test_sum_zero_coupling(self):
        assert conjugation_sum(4, 4, 0.0, 50) == 1.0
        assert conjugation_sum(5, 5, 0.0, 50) == -1.0
        assert conjugation_sum(2, 3, 0.0, 50) == 0.0

    def test_sum_rejects_short_truncation(self):
        with pytest.raises(ValueError):
            conjugation_sum(30, 30, 1.2, 31)

    def test_finite_sum_single_term_row(self):
        # k = 0 collapses to one term
        g, m = 0.45, 6
        expect = math.exp(-2 * g * g) * (2 * g) ** m / math.sqrt(math.factorial(m))
        assert model.r_tilde_oracle_finite_sum(0, m, g) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(laguerre_function(0, m, 4 * g * g), rel=1e-12)

    def test_finite_sum_diagonal(self):
        g, k = 0.55, 7
        expect = (-1.0) ** k * math.exp(-2 * g * g) * laguerre_polynomial(
            k, 0, 4 * g * g
        )
        got = model.r_tilde_oracle_finite_sum(k, k, g)
        assert got == pytest.approx(expect, rel=1e-11)
        assert got == pytest.approx(model.build_dense_rtilde(k + 1, g)[k, k], abs=1e-12)

    def test_finite_sum_zero_coupling(self):
        assert model.r_tilde_oracle_finite_sum(3, 3, 0.0) == -1.0

    def test_finite_sum_caps(self):
        with pytest.raises(ValueError):
            model.r_tilde_oracle_finite_sum(41, 2, 0.5)

    @pytest.mark.parametrize("g", [0.0, -0.7, 0.3, 2.0])
    def test_blocks_equal_per_entry_calls(self, g):
        idx = np.arange(21)
        contour = model.u_element_contour_block(idx, idx, g, 256)
        conj = model.r_tilde_oracle_sum_block(idx, idx, g, 100)
        for k in range(21):
            for m in range(21):
                # integer powers of a whole column of radii may round
                # differently from a scalar power
                assert abs(contour[k, m] - contour_reference(k, m, g, 256)) <= 1e-15
                assert conj[k, m] == conjugation_sum_reference(k, m, g, 100)
        # rectangular blocks pick the same entries
        ks, ms = np.array([3, 0, 17]), np.array([20, 5])
        assert np.array_equal(model.u_element_contour_block(ks, ms, g, 256),
                              contour[np.ix_(ks, ms)])
        assert np.array_equal(model.r_tilde_oracle_sum_block(ks, ms, g, 100),
                              conj[np.ix_(ks, ms)])

    def test_block_refuses_if_any_entry_would(self):
        # column 30 at g = 1.2 leaves too much mass beyond K = 31
        with pytest.raises(ValueError, match="1e-13"):
            model.r_tilde_oracle_sum_block([0, 1], [2, 30], 1.2, 31)
        model.r_tilde_oracle_sum_block([0, 1], [2, 3], 1.2, 31)

    def test_contour_block_caps(self):
        with pytest.raises(ValueError, match="30"):
            model.u_element_contour_block([0, 31], [2], 0.5)
        with pytest.raises(ValueError, match="64"):
            model.u_element_contour_block([0], [2], 0.5, M=63)

    @pytest.mark.parametrize("g", [0.3, -0.7, 1e-3, 2.0, 5.5])
    def test_finite_sum_matches_rational_reference(self, g):
        for k in range(0, 41, 3):
            for m in range(0, 41, 4):
                assert model.r_tilde_oracle_finite_sum(k, m, g) == \
                    finite_sum_reference(k, m, g)

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=30),
        st.sampled_from([0.3, 0.6, 1.0]),
    )
    def test_three_route_agreement(self, k, m, g):
        closed = model.build_dense_rtilde(max(k, m) + 1, g)[k, m]
        assert abs(conjugation_sum(k, m, g, max(k, m) + 90) - closed) < 1e-9
        assert abs(model.r_tilde_oracle_finite_sum(k, m, g) - closed) < 1e-9


class TestDenseBuilders:
    def test_single_entry(self):
        g = 0.7
        assert build_dense_u(1, g)[0, 0] == scalar_u(0, 0, g)
        assert model.build_dense_rtilde(1, g)[0, 0] == scalar_rtilde(0, 0, g)

    def test_dense_u_matches_elements(self):
        N = 12
        for g in (0.6, -0.6):
            u = build_dense_u(N, g)
            assert np.array_equal(u, model.u_columns(np.arange(N), g, N - 1))
            for n in range(N):
                for m in range(N):
                    assert u[n, m] == pytest.approx(scalar_u(n, m, g), abs=1e-15)

    def test_dense_rtilde_matches_elements_and_symmetry(self):
        g, N = 0.8, 12
        r = model.build_dense_rtilde(N, g)
        for k in range(N):
            for m in range(N):
                assert r[k, m] == pytest.approx(scalar_rtilde(k, m, g), abs=1e-15)
        assert np.array_equal(r, r.T)

    def test_interior_orthogonality(self):
        g, N = 0.7, 200
        u = build_dense_u(N, g)
        gram = u.T @ u
        err = np.abs(gram - np.eye(N))[:100, :100].max()
        assert err < 1e-10

    def test_conjugation_reproduces_closed_form(self):
        g, N = 0.7, 200
        u = build_dense_u(N, g)
        rt = u.T @ np.diag(model.parity_diag(N)) @ u
        err = np.abs(rt - model.build_dense_rtilde(N, g))[:100, :100].max()
        assert err < 1e-10

    @pytest.mark.parametrize("g", [0.7, -0.7])
    def test_basis_change_diagonalizes_base_operator(self, g):
        N = 400
        u = build_dense_u(N, g)
        a0 = dense(model.build_A(model.ModelParams(g=g), N))
        m = u.T @ a0 @ u
        target = np.diag(np.arange(N) - g * g)
        assert np.abs(m - target)[:201, :201].max() < 1e-8
