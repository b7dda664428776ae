import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacspec import asymptotics, model, specfun
from oracles import laguerre_function, remainder_s_sweep_rows


def brute_remainder(n, g):
    """Direct sum over k <= 4n with no tail machinery."""
    x = 4 * g * g
    total = 0.0
    for k in range(0, 4 * n + 1):
        if k == n:
            continue
        w = laguerre_function(k, n - k, x)
        total += w * w / (n - k) ** 2
    return math.sqrt(total)


class TestFirstOrder:
    def test_ground_state_shiftless(self):
        assert asymptotics.first_order(0, model.ModelParams(g=0.5)) == -0.25

    def test_free_case(self):
        p = model.ModelParams(g=0.0)
        assert asymptotics.first_order(7, p) == 7.0

    def test_with_shifts(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        assert asymptotics.first_order(10, p) == 10.25


class TestDiagonalCorrection:
    def test_vanishes_for_equal_shifts(self):
        p = model.ModelParams(g=0.8, c1=0.4, c2=0.4)
        for n in (0, 1, 5, 100):
            assert asymptotics.diagonal_correction(n, p) == 0.0

    def test_ground_state(self):
        p = model.ModelParams(g=0.6, c1=1.0, c2=0.2)
        expect = 0.4 * math.exp(-2 * 0.36)
        assert asymptotics.diagonal_correction(0, p) == pytest.approx(expect, rel=1e-13)

    def test_quarter_power_envelope(self):
        # the scaled correction stays bounded all the way out
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        w = specfun.laguerre_function_table(10**4, 0, 1.0)[:, 0]
        ns = np.arange(10, 10**4 + 1)
        scaled = 0.5 * np.abs(w[ns]) * ns**0.25
        assert scaled.max() < 0.6

    def test_sign_alternates(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        c4 = asymptotics.diagonal_correction(4, p)
        c5 = asymptotics.diagonal_correction(5, p)
        w4 = laguerre_function(4, 0, 1.0)
        w5 = laguerre_function(5, 0, 1.0)
        assert c4 == pytest.approx(0.5 * w4, rel=1e-13)
        assert c5 == pytest.approx(-0.5 * w5, rel=1e-13)


class TestRemainderS:
    def test_zero_coupling(self):
        (s,), (tail,) = asymptotics.remainder_s_sweep([12], 0.0)
        assert s == 0.0
        assert 0.0 < tail < 1e-16

    def test_small_coupling_is_small(self):
        (s,), _ = asymptotics.remainder_s_sweep([12], 1e-6)
        assert s < 1e-4

    def test_ground_state_series_oracle(self):
        # s_0^2 = exp(-x) * sum_{k>=1} x^k / (k! k^2) at x = 4 g^2
        g = 0.5
        x = 4 * g * g
        acc, term = 0.0, 1.0
        for k in range(1, 60):
            term *= x / k
            acc += term / (k * k)
        expect = math.sqrt(math.exp(-x) * acc)
        (s0,), _ = asymptotics.remainder_s_sweep([0], g)
        assert s0 == pytest.approx(expect, rel=1e-12)
        assert s0 == pytest.approx(0.6494408657494646, rel=1e-12)  # frozen

    @pytest.mark.parametrize("n", [5, 20, 77, 200])
    def test_brute_force_agreement(self, n):
        # the k <= 4n window of the oracle only saturates from n ~ 5 up
        (s,), _ = asymptotics.remainder_s_sweep([n], 0.5)
        assert abs(s - brute_remainder(n, 0.5)) < 1e-8

    def test_tail_bound_tracks_eps(self):
        _, (tail,) = asymptotics.remainder_s_sweep([3], 0.5, eps_tail=1e-4)
        assert tail < 1e-8
        assert tail > 1e-10

    def test_vanishes_at_infinity(self):
        # pointwise values oscillate; the dyadic-block envelope shrinks
        ns = np.arange(16, 4097)
        s, _ = asymptotics.remainder_s_sweep(ns, 0.5)
        bm = asymptotics.dyadic_block_maxima(ns, s)
        maxima = [bm[j] for j in sorted(bm)]
        assert all(b < a for a, b in zip(maxima, maxima[1:]))

    def test_sweep_matches_scalar(self):
        ns = np.array([0, 3, 17, 140])
        sweep, tails = asymptotics.remainder_s_sweep(ns, 0.7)
        for n, s_val, t_val in zip(ns, sweep, tails):
            (s_ref,), (t_ref,) = asymptotics.remainder_s_sweep([n], 0.7)
            assert s_val == pytest.approx(s_ref, rel=1e-13)
            assert t_val == t_ref

    @pytest.mark.parametrize("g", [0.5, 1.3])
    def test_streamed_sweep_matches_full_table(self, g):
        # the per-index window sum over a materialized table, as the
        # streamed sweep replaced it; only summation order differs
        ns = np.arange(0, 301)
        x = 4 * g * g
        P = asymptotics._order_cap(x, 300 + 4096)
        w = specfun.laguerre_function_table(300, P, x)
        offsets = np.arange(1, P + 1)
        ref = []
        for n in ns:
            u = offsets[offsets <= n]
            below = np.sum((w[n - u, u] / u) ** 2)
            ref.append(math.sqrt(below + np.sum((w[n, 1:] / offsets) ** 2)))
        s, _ = asymptotics.remainder_s_sweep(ns, g)
        np.testing.assert_allclose(s, ref, rtol=1e-14, atol=0.0)


SWEEP_ROWS = asymptotics._SWEEP_ROWS


class TestBlockedSweep:
    @pytest.mark.parametrize("g", [0.3, 0.5, -0.7, 2.0, 10.0, 18.0])
    @pytest.mark.parametrize("eps_tail", [1e-8, 1e-2])
    @pytest.mark.parametrize(
        "n_top", [0, 1, 2, 129, 199, 4095, SWEEP_ROWS - 1, SWEEP_ROWS, SWEEP_ROWS + 1])
    def test_bit_identical_to_row_sweep(self, g, eps_tail, n_top):
        # the blocked sweep keeps the row-by-row sweep's coefficients and
        # summation order, so every s_n and tail bound is the same double
        ns = np.arange(n_top + 1)
        s, tails = asymptotics.remainder_s_sweep(ns, g, eps_tail)
        s_ref, tails_ref = remainder_s_sweep_rows(ns, g, eps_tail)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(tails, tails_ref)

    def test_unsorted_sparse_indices(self):
        ns = np.array([300, 0, 77, SWEEP_ROWS, 299])
        s, tails = asymptotics.remainder_s_sweep(ns, 0.5)
        s_ref, tails_ref = remainder_s_sweep_rows(ns, 0.5)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(tails, tails_ref)


class TestResidualTable:
    def test_exactly_solvable_collapse(self):
        p = model.ModelParams(g=0.6, c1=0.3, c2=0.3)
        table = asymptotics.residual_table(p, 0, 50, tol=1e-8)
        assert table.converged.all()
        assert np.all(table.r1 == table.r2)
        assert np.all(np.abs(table.r1) < 1e-7)

    def test_residual_shrinks(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        table = asymptotics.residual_table(p, 8, 128, tol=1e-8)
        r1, r2 = np.abs(table.r1), np.abs(table.r2)
        early = r1[table.n < 16].max()
        late = r1[table.n >= 64].max()
        assert late < early
        # removing the parity correction helps on most of the range
        tail = table.n >= 32
        better = np.sum(r2[tail] <= r1[tail])
        total = np.sum(tail)
        assert better / total > 0.9

    def test_zero_coupling_warns(self):
        p = model.ModelParams(g=0.0, c1=0.5, c2=0.1)
        with pytest.warns(UserWarning):
            table = asymptotics.residual_table(p, 0, 8, tol=1e-9)
        assert np.all(np.abs(table.r2) < 1e-8)  # diagonal case is exact to solver precision

    def test_columns_are_one_operation_each(self):
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        table = asymptotics.residual_table(p, 8, 40, tol=1e-8)
        assert np.array_equal(table.n, np.arange(8, 41))
        assert np.array_equal(table.first_order, asymptotics.first_order(table.n, p))
        assert np.array_equal(table.diag_corr, asymptotics.diagonal_correction(table.n, p))
        assert np.array_equal(table.r1, table.lam - table.first_order)
        assert np.array_equal(table.r2, table.r1 - table.diag_corr)
        s, tails = asymptotics.remainder_s_sweep(table.n, 0.5)
        assert np.array_equal(table.s_n, s)
        assert np.array_equal(table.s_n_tail_bound, tails)
        assert table.converged.dtype == bool and table.converged.shape == table.n.shape


class TestFitDecay:
    def test_exact_power_law(self):
        pairs = [(n, 3.0 * n**-0.25) for n in range(10, 200, 7)]
        fit = asymptotics.fit_decay(pairs)
        assert fit.alpha == pytest.approx(0.25, abs=1e-10)
        assert fit.C == pytest.approx(3.0, rel=1e-10)
        assert fit.residual_rms < 1e-12
        assert fit.dropped == 0

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_recovers_random_power_laws(self, c, alpha):
        pairs = [(n, c * n**-alpha) for n in (3, 5, 8, 13, 21, 34, 55, 89, 144)]
        fit = asymptotics.fit_decay(pairs)
        assert fit.alpha == pytest.approx(alpha, abs=1e-8)
        assert fit.C == pytest.approx(c, rel=1e-8)

    def test_drops_nonpositive(self):
        pairs = [(n, 2.0 * n**-0.5) for n in range(2, 12)] + [(20, 0.0), (21, -1.0)]
        fit = asymptotics.fit_decay(pairs)
        assert fit.dropped == 2
        assert fit.alpha == pytest.approx(0.5, abs=1e-9)

    def test_array_fits_as_its_pairs(self):
        ns = np.arange(2, 60)
        vals = 2.0 * ns**-0.4 * (1.0 + 0.1 * np.sin(ns))
        vals[[3, 9]] = [0.0, -1.0]
        pairs = list(zip(ns.tolist(), vals.tolist()))
        assert asymptotics.fit_decay(np.column_stack((ns, vals))) == asymptotics.fit_decay(pairs)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            asymptotics.fit_decay([(n, 1.0) for n in range(1, 8)])

    def test_remainder_rate_is_quarter(self):
        ns = np.unique(np.geomspace(16, 4096, 60).astype(int))
        s, _ = asymptotics.remainder_s_sweep(ns, 0.5)
        fit = asymptotics.fit_decay(list(zip(ns.tolist(), s.tolist())))
        assert fit.alpha >= 1.0 / 16.0
        assert fit.alpha == pytest.approx(0.25, abs=0.05)


def dyadic_block_maxima_loop(ns, values):
    """The per-element loop that the vectorized maxima must reproduce."""
    out = {}
    for n, v in zip(np.asarray(ns), np.abs(np.asarray(values, dtype=float))):
        if n < 1:
            continue
        j = int(math.floor(math.log2(n)))
        out[j] = max(out.get(j, 0.0), v)
    return out


class TestDyadicBlocks:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=-3, max_value=2**40),
                      st.floats(min_value=-1e6, max_value=1e6)),
            max_size=60,
        )
    )
    def test_vectorized_matches_loop(self, pairs):
        ns = np.array([n for n, _ in pairs], dtype=np.int64)
        vals = np.array([v for _, v in pairs])
        assert asymptotics.dyadic_block_maxima(ns, vals) == dyadic_block_maxima_loop(ns, vals)

    def test_unsorted_indices(self):
        ns = np.array([9, 1, 12, 3, 2, 8, 0])
        vals = np.array([0.5, 1.0, -4.0, 2.0, 3.0, 0.25, 9.0])
        assert asymptotics.dyadic_block_maxima(ns, vals) == {0: 1.0, 1: 3.0, 3: 4.0}
        assert asymptotics.dyadic_block_maxima([0, -1], [1.0, 2.0]) == {}

    def test_maxima_by_block(self):
        ns = np.array([1, 2, 3, 4, 5, 8, 15, 16])
        vals = np.array([1.0, -2.0, 1.5, 0.5, -0.25, 0.1, 0.2, 3.0])
        out = asymptotics.dyadic_block_maxima(ns, vals)
        assert out == {0: 1.0, 1: 2.0, 2: 0.5, 3: 0.2, 4: 3.0}

    def test_first_order_blocks_eventually_shrink(self):
        # blocks [16,32) .. [2048,4096) of the leading residual
        p = model.ModelParams(g=0.5, c1=1.0, c2=0.0)
        table = asymptotics.residual_table(p, 16, 4095, tol=1e-8)
        assert table.converged.all()
        bm = asymptotics.dyadic_block_maxima(table.n, table.r1)
        maxima = [bm[j] for j in range(4, 12)]
        drops = [b <= a for a, b in zip(maxima, maxima[1:])]
        first_good = next(i for i, flag in enumerate(drops) if all(drops[i:]))
        assert first_good <= 1  # settles by the second block at the latest
