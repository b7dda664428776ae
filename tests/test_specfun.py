import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacspec import model, specfun
from oracles import laguerre_function, laguerre_polynomial, laguerre_rows


def explicit_sum_laguerre(n, s, x):
    """Exact rational evaluation of the defining finite sum (s >= 0)."""
    xq = Fraction(x)
    total = Fraction(0)
    for i in range(n + 1):
        term = (
            Fraction(math.comb(n, i)) * xq**i
            * Fraction(math.factorial(n + s), math.factorial(i + s))
        )
        total += -term if i % 2 else term
    return total / math.factorial(n)


def series_bessel_mp(s, x, dps=60):
    """Ascending-series oracle in extended precision."""
    with mp.workdps(dps):
        acc = mp.mpf(0)
        term = (mp.mpf(x) / 2) ** s / mp.factorial(s)
        k = 0
        q = -(mp.mpf(x) ** 2) / 4
        while True:
            acc += term
            k += 1
            term *= q / (k * (s + k))
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(acc) + 1):
                break
        return float(acc)


class TestLogGamma:
    def test_at_one(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_factorial(self):
        assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_half(self):
        assert specfun.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.log_gamma(0.0)
        with pytest.raises(ValueError):
            specfun.log_gamma(-3.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_against_stdlib(self, z):
        ref = math.lgamma(z)
        assert abs(specfun.log_gamma(z) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_vectorized_matches_scalar(self):
        zs = np.array([0.25, 1.0, 3.5, 40.0, 1212.0])
        vec = specfun._log_gamma_arr(zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(specfun.log_gamma(float(z)), rel=1e-14)


class TestLaguerrePolynomial:
    def test_degree_zero_is_one(self):
        assert laguerre_polynomial(0, 3, 7.2) == 1.0

    def test_value_at_origin(self):
        # only the constant term of the finite sum survives at x = 0
        for n, s in [(3, 0), (5, 2), (2, 7), (10, 1)]:
            expect = math.factorial(n + s) / (math.factorial(n) * math.factorial(s))
            assert laguerre_polynomial(n, s, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_explicit_sum_value(self):
        # frozen from the exact rational sum: L_2(1) = 1 - 2 + 1/2
        assert explicit_sum_laguerre(2, 0, 1.0) == Fraction(-1, 2)
        assert laguerre_polynomial(2, 0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    @given(
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_recurrence_matches_explicit_sum(self, n, s, x):
        exact = float(explicit_sum_laguerre(n, s, x))
        got = laguerre_polynomial(n, s, x)
        assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))

    def test_negative_order_identity(self):
        # L_n^(-t)(x) = (-x)^t (n-t)!/n! L_{n-t}^(t)(x)
        for n, t, x in [(5, 2, 1.7), (8, 3, -2.5), (4, 4, 0.9)]:
            lhs = laguerre_polynomial(n, -t, x)
            rhs = (
                (-x) ** t
                * math.factorial(n - t) / math.factorial(n)
                * laguerre_polynomial(n - t, t, x)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_degenerate_returns_zero(self):
        assert laguerre_polynomial(2, -5, 1.3) == 0.0


class TestLaguerreFunction:
    def test_ground_state(self):
        for x in (0.3, 1.0, 7.5):
            assert specfun.laguerre_function_table(0, 0, x)[0, 0] == pytest.approx(
                math.exp(-x / 2), rel=1e-14
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.laguerre_function_table(2, 1, 0.0)
        with pytest.raises(ValueError):
            specfun.laguerre_function_table(2, 1, -4.0)

    def test_zero_when_degree_plus_order_negative(self):
        # convention of the scalar reference the table tests compare against
        assert laguerre_function(1, -4, 2.2) == 0.0

    def test_deep_underflow_flushes_to_zero(self):
        # documented: seeds below double range make the whole column 0
        w = specfun.laguerre_function_table(3, 400, 1.0)
        assert w[0, 400] == 0.0
        assert w[3, 400] == 0.0

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=1e-3, max_value=50.0),
    )
    def test_negative_order_symmetry_is_bit_exact(self, n, s, x):
        # U[n + s, n] has order -s; it is read off the same table entry as
        # U[n, n + s], so the two agree exactly up to the sign (-1)^s
        cols = model.u_columns([n, n + s], math.sqrt(x), n + s)
        assert cols[n + s, 0] == (-1.0) ** s * cols[n, 1]

    @settings(max_examples=25)
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=1e-2, max_value=50.0),
    )
    def test_against_extended_precision(self, n, s, x):
        with mp.workdps(40):
            ref = float(
                mp.sqrt(mp.factorial(n) / mp.factorial(n + s))
                * mp.e ** (-mp.mpf(x) / 2)
                * mp.mpf(x) ** (mp.mpf(s) / 2)
                * mp.laguerre(n, s, x)
            )
        got = specfun.laguerre_function_table(n, s, x)[n, s]
        assert abs(got - ref) <= 1e-9 * max(abs(ref), 1e-6)

    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=10),
        st.floats(min_value=1e-2, max_value=50.0),
    )
    def test_matches_normalized_polynomial_route(self, n, s, x):
        via_poly = (
            math.exp(
                0.5 * (specfun.log_gamma(n + 1.0) - specfun.log_gamma(n + s + 1.0))
                - 0.5 * x
            )
            * x ** (s / 2.0)
            * laguerre_polynomial(n, s, x)
        )
        got = specfun.laguerre_function_table(n, s, x)[n, s]
        assert got == pytest.approx(via_poly, rel=1e-9, abs=1e-280)

    def test_large_degree_anchor(self):
        # the bound checkers lean on the recurrence out to 1e5
        w = specfun.laguerre_function_table(10**5, 1, 1.0)
        for n, s in [(10**4, 0), (10**4, 1), (10**5, 0)]:
            with mp.workdps(40):
                ref = float(
                    mp.sqrt(mp.factorial(n) / mp.factorial(n + s))
                    * mp.e ** mp.mpf(-0.5)
                    * mp.laguerre(n, s, 1.0)
                )
            assert w[n, s] == pytest.approx(ref, rel=1e-10)

    def test_table_matches_scalar(self):
        x = 1.9
        w = specfun.laguerre_function_table(40, 12, x)
        for n in (0, 1, 7, 40):
            for s in (0, 3, 12):
                assert w[n, s] == pytest.approx(
                    laguerre_function(n, s, x), rel=1e-13, abs=1e-300
                )

    def test_table_domain(self):
        with pytest.raises(ValueError):
            specfun.laguerre_function_table(4, 4, 0.0)


def laguerre_function_mp(n, s, x):
    """Orthonormal Laguerre function in extended precision."""
    with mp.workdps(30):
        return float(
            mp.sqrt(mp.factorial(n) / mp.factorial(n + s))
            * mp.exp(-mp.mpf(x) / 2)
            * mp.mpf(x) ** (mp.mpf(s) / 2)
            * mp.laguerre(n, s, x, maxprec=30000)
        )


def row_table(n_max, s_max, x):
    return np.array(list(laguerre_rows(n_max, s_max, x)))


class TestRowBlocks:
    @pytest.mark.parametrize("block", [2, 3, 32])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 31, 32, 33, 63, 64, 65, 200])
    def test_blocks_are_the_row_recurrence(self, n_max, block):
        # concatenated, the blocks give the one-row-at-a-time table bit
        # for bit, whatever the block size and wherever n_max falls
        starts, rows = [], []
        for j0, part in specfun._laguerre_row_blocks(n_max, 7, 1.7, block):
            starts.append(j0)
            rows.append(part.copy())
            assert len(part) == block or j0 + len(part) == n_max + 1
        assert starts == list(range(0, n_max + 1, block))
        assert np.array_equal(np.concatenate(rows), row_table(n_max, 7, 1.7))

    @pytest.mark.parametrize("x", [1e-6, 1.0, 40.0, 1296.0])
    def test_blocks_match_at_many_orders(self, x):
        blocks = [part.copy() for _, part in specfun._laguerre_row_blocks(150, 400, x, 32)]
        assert np.array_equal(np.concatenate(blocks), row_table(150, 400, x))


class TestBlockedTable:
    @pytest.mark.parametrize(
        "n_max, s_max, x",
        [(10**5, 1, 0.36), (10**5, 1, 1.0), (10**5, 1, 17.64), (2048, 5, 1.44),
         (4095, 0, 1.0)],
    )
    def test_blocked_error_within_twice_row_recurrence(self, n_max, s_max, x):
        # tall tables run in degree blocks; against mpmath on 129 rows from
        # 0 to n_max, their worst error may be at most twice that of the
        # row-by-row recurrence on the same rows
        ns = np.unique(np.linspace(0, n_max, 129).astype(int))
        ref = np.array([[laguerre_function_mp(int(n), s, x) for s in range(s_max + 1)]
                        for n in ns])
        blocked = specfun.laguerre_function_table(n_max, s_max, x)
        rows = row_table(n_max, s_max, x)
        err_blocked = np.abs(blocked[ns] - ref).max()
        err_rows = np.abs(rows[ns] - ref).max()
        assert err_blocked <= 2.0 * err_rows

    @pytest.mark.parametrize(
        "n_max, s_max, x",
        [(0, 3, 1.0), (1, 3, 1.0), (2, 0, 0.5), (1022, 3, 1.0), (1022, 0, 17.64),
         (300, 300, 2.0), (1500, 1500, 3.0), (50, 7, 40.0)],
    )
    def test_single_block_is_the_row_recurrence(self, n_max, s_max, x):
        # below 1024 rows, or with too many orders to split, B = 1
        assert np.array_equal(
            specfun.laguerre_function_table(n_max, s_max, x), row_table(n_max, s_max, x)
        )

    def test_block_boundaries_are_continuous(self):
        # rows next to each block start follow the recurrence to rounding
        w = specfun.laguerre_function_table(5000, 2, 1.0)
        assert w.shape == (5001, 3)
        rows = row_table(5000, 2, 1.0)
        assert np.abs(w - rows).max() < 1e-13

    def test_huge_argument_falls_back_to_one_block(self):
        # deep in the growth region the basis states of a block overflow;
        # the table must then still equal the row recurrence
        n_max, s_max, x = 10000, 3, 1e5
        p = np.arange(s_max + 1, dtype=float)
        assert specfun._blocked_table(n_max, p, x, 100) is None
        w = specfun.laguerre_function_table(n_max, s_max, x)
        assert np.isfinite(w).all()
        assert np.array_equal(w, row_table(n_max, s_max, x))


class TestBesselJ:
    def test_at_origin(self):
        assert specfun.bessel_j(0, 0.0)[0] == 1.0
        for s in (1, 2, 17):
            assert specfun.bessel_j(s, 0.0)[s] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(-1, 1.0)

    def test_frozen_series_value(self):
        # series_bessel_mp(3, 8.5) computed once at 60 digits
        assert specfun.bessel_j(3, 8.5)[3] == pytest.approx(
            -0.2626162038576848, rel=1e-10
        )
        assert series_bessel_mp(3, 8.5) == pytest.approx(-0.2626162038576848, rel=1e-13)

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=1e-4, max_value=25.0),
    )
    def test_small_argument_against_series_oracle(self, s, x):
        ref = series_bessel_mp(s, x, dps=60)
        assert abs(specfun.bessel_j(s, x)[s] - ref) <= 1e-10 * max(abs(ref), 1e-3)

    @settings(max_examples=30)
    @given(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=1e-4, max_value=1000.0),
    )
    def test_against_mpmath(self, s, x):
        with mp.workdps(30):
            ref = float(mp.besselj(s, x))
        got = specfun.bessel_j(s, x)[s]
        assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-4)

    def test_frozen_miller_values(self):
        # single-order Miller values, bit for bit, from before the all-orders form
        for s, x, want in [(0, 50.0, 0.05581232766925183),
                           (20, 13.5, 0.0016000195007283967),
                           (7, 100.0, 0.07017269098721278),
                           (1, 12.5, -0.16548380461475967),
                           (50, 999.0, -0.022858940107097686)]:
            assert specfun.bessel_j(s, x)[s] == want

    @pytest.mark.parametrize("s_max", [0, 5, 20, 50])
    def test_orders_match_single_order_calls(self, s_max):
        # bit for bit where both calls start the recurrence at the same
        # degree; to rounding where the call for order s starts lower
        for x in list(np.logspace(-1, 3, 97)) + [0.0, 12.0, 13.5, 20.0]:
            x = float(x)
            got = specfun.bessel_j(s_max, x)
            assert got.shape == (s_max + 1,)
            for s in range(s_max + 1):
                want = specfun.bessel_j(s, x)[s]
                if math.ceil(x) >= s_max or s == s_max:
                    assert got[s] == want, (s, x)
                else:
                    assert abs(got[s] - want) <= 1e-14, (s, x)

    def test_orders_domain(self):
        with pytest.raises(ValueError):
            specfun.bessel_j(-1, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_j(3, -1.0)
        # below the floor the downward recurrence would overflow to nan
        for s in (0, 20, 500):
            with pytest.raises(ValueError, match="needs x >="):
                specfun.bessel_j(s, 1e-60)
        tiny = specfun.bessel_j(20, 1e-54)
        assert tiny[0] == 1.0 and tiny[1] == pytest.approx(5e-55, rel=1e-14)

    def test_small_arguments_against_mpmath(self):
        # every order from one pass, down to tiny x where the ascending
        # series used to serve
        with mp.workdps(40):
            for x in (1e-50, 1e-20, 1e-8, 1e-3, 0.01, 0.5, 3.0, 11.9):
                got = specfun.bessel_j(30, x)
                for s in range(31):
                    ref = float(mp.besselj(s, x))
                    assert abs(got[s] - ref) <= 2e-13 * abs(ref), (s, x)

    def test_bounded_by_one(self):
        xs = np.linspace(0.0, 1000.0, 211)
        for s in (0, 1, 5, 17, 33, 50):
            for x in xs:
                assert abs(specfun.bessel_j(s, float(x))[s]) <= 1.0 + 1e-12


class TestGaussLaguerre:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 5])
    def test_orthonormality_of_functions(self, s):
        # the weight-stripped product of two order-s functions is a
        # polynomial, so mpmath's 40-point generalized Gauss-Laguerre rule
        # integrates it exactly; check the full Gram matrix for degrees
        # up to 20
        with mp.workdps(30):
            nodes, weights = mp.gauss_quadrature(40, "glaguerre", alpha=s)
            nodes = [float(x) for x in nodes]
            strip = np.array([float(w * mp.exp(x) * x ** (-s))
                              for x, w in zip(nodes, weights)])
        f = np.array([specfun.laguerre_function_table(20, s, x)[:, s]
                      for x in nodes]).T
        gram = (f * strip) @ f.T
        assert np.abs(gram - np.eye(21)).max() < 1e-9
