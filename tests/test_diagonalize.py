import math

import numpy as np
import pytest

from jacspec import asymptotics, diagonalize, model, specfun
from oracles import laguerre_function, s_n_as_k_column


class TestBuildBundle:
    def test_zero_coupling_collapses(self):
        b = diagonalize.build_bundle(0.0, 16)
        assert np.array_equal(b.Rt, np.diag(model.parity_diag(16)))
        assert np.all(b.R1 == 0.0)
        assert np.all(b.K == 0.0)
        assert np.all(b.B == 0.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            diagonalize.build_bundle(0.5, 3)

    def test_antisymmetry_is_exact(self):
        b = diagonalize.build_bundle(0.7, 100)
        assert float(np.max(np.abs(b.K + b.K.T))) == 0.0
        assert np.all(np.diag(b.K) == 0.0)

    def test_commutator_identity_is_exact(self):
        b = diagonalize.build_bundle(0.7, 100)
        i = np.arange(100.0)
        assert np.array_equal(b.K * (i[:, None] - i[None, :]), b.R1)

    def test_r1_reproduces_off_diagonal(self):
        b = diagonalize.build_bundle(0.9, 64)
        off = b.Rt - np.diag(np.diag(b.Rt))
        scale = np.abs(off).max()
        assert np.abs(b.R1 - off).max() <= 4 * np.finfo(float).eps * scale
        assert np.all(np.diag(b.R1) == 0.0)

    def test_leading_block_by_hand(self):
        # closed-form scalars pin the top-left 2x2 of every operator
        g = 0.6
        x = 4 * g * g
        b = diagonalize.build_bundle(g, 8)
        w00 = laguerre_function(0, 0, x)
        w01 = laguerre_function(0, 1, x)
        w10 = laguerre_function(1, 0, x)
        assert b.Rt[0, 0] == pytest.approx(w00, rel=1e-14)
        assert b.Rt[1, 1] == pytest.approx(-w10, rel=1e-14)
        assert b.Rt[0, 1] == pytest.approx(w01, rel=1e-14)
        assert b.Rt[1, 0] == b.Rt[0, 1]
        assert b.D1[0, 0] == pytest.approx(w00, rel=1e-14)
        assert b.D1[1, 1] == pytest.approx(1.0 - w10, rel=1e-14)
        assert b.K[0, 1] == pytest.approx(-w01, rel=1e-14)
        assert b.K[1, 0] == pytest.approx(w01, rel=1e-14)
        # B = K Rt - diag(Rt_nn) K; entry (0, 0) assembled from scalars
        b00 = -sum(laguerre_function(0, j, x) ** 2 / j for j in range(1, 8))
        assert b.B[0, 0] == pytest.approx(b00, rel=1e-12)


class TestTruncatedNorm:
    def test_conjugated_parity_norm_stays_near_one(self):
        # the infinite matrix is an orthogonal conjugate of a +/-1
        # diagonal; finite sections can only be checked numerically
        for g in (0.5, 1.0):
            rt = model.build_dense_rtilde(256, g)
            eigs = np.linalg.eigvalsh(rt)
            assert eigs.min() >= -1.0 - 1e-8
            assert eigs.max() <= 1.0 + 1e-8


class TestVerifySimilarity:
    def test_zero_coupling(self):
        assert diagonalize.verify_similarity(diagonalize.build_bundle(0.0, 64)) == 0.0

    @pytest.mark.parametrize("g,n", [(0.7, 256), (1.5, 256), (0.5, 512)])
    def test_round_off_defect(self, g, n):
        b = diagonalize.build_bundle(g, n)
        assert diagonalize.verify_similarity(b) < 1e-10

    def test_requires_interior(self):
        with pytest.raises(ValueError):
            diagonalize.verify_similarity(diagonalize.build_bundle(0.5, 32))


class TestBundleChecks:
    @pytest.mark.parametrize("g", [0.0, 0.5, -1.2])
    def test_structure_checks_pass(self, g):
        b = diagonalize.build_bundle(g, 128)
        for check in (diagonalize.check_similarity, diagonalize.check_k_antisymmetry,
                      diagonalize.check_commutator_identity,
                      diagonalize.check_rtilde_symmetry):
            rep = check(b)
            assert rep.passed and rep.status == "PASS", rep
        assert diagonalize.check_k_antisymmetry(b).max_ratio == 0.0

    def test_similarity_threshold(self, monkeypatch):
        b = diagonalize.build_bundle(0.5, 64)
        monkeypatch.setattr(diagonalize, "verify_similarity",
                            lambda bundle: diagonalize.SIMILARITY_TOL)
        rep = diagonalize.check_similarity(b)
        assert rep.status == "FAIL"
        assert rep.max_ratio == diagonalize.SIMILARITY_TOL

    def test_broken_symmetry_fails(self):
        b = diagonalize.build_bundle(0.5, 64)
        b.Rt[3, 5] += 1e-15
        rep = diagonalize.check_rtilde_symmetry(b)
        assert not rep.passed
        assert rep.max_ratio > 0.0

    def test_orthonormality(self):
        rep = diagonalize.check_orthonormality(0.7, 100)
        assert rep.passed
        assert rep.grid_size == 11
        assert 0.0 <= rep.max_ratio < diagonalize.ORTHONORMALITY_TOL

    def test_every_check_returns_one_report(self):
        # a tracer reads grid_size off the result of every check_*
        b = diagonalize.build_bundle(0.5, 64)
        args = {"check_bessel_bound": (3, np.array([0.5, 2.0])),
                "check_laguerre_bound": (1.0, [0, 1], 100),
                "check_offset_decay": (0.5, 1),
                "check_orthonormality": (0.5, 20)}
        names = [n for n in diagonalize.__all__ if n.startswith("check_")]
        assert len(names) == 8
        for name in names:
            rep = getattr(diagonalize, name)(*args.get(name, (b,)))
            assert isinstance(rep, diagonalize.BoundCheckReport), name
            assert isinstance(rep.grid_size, int) and rep.grid_size > 0, name
            assert type(rep.max_ratio) is float, name


class TestKColumnNorm:
    def test_zero_coupling(self):
        b = diagonalize.build_bundle(0.0, 64)
        assert s_n_as_k_column(b, 5) == 0.0

    def test_matches_remainder_sum(self):
        b = diagonalize.build_bundle(0.5, 512)
        got = s_n_as_k_column(b, 20)
        (ref,), _ = asymptotics.remainder_s_sweep([20], 0.5)
        assert abs(got - ref) < 1e-6

    def test_interior_only(self):
        b = diagonalize.build_bundle(0.5, 64)
        with pytest.raises(IndexError):
            s_n_as_k_column(b, 32)

    def test_block_envelope_decreases(self):
        b = diagonalize.build_bundle(0.5, 2048)
        ns = np.arange(8, 512)
        vals = [s_n_as_k_column(b, int(n)) for n in ns]
        bm = asymptotics.dyadic_block_maxima(ns, vals)
        maxima = [bm[j] for j in sorted(bm)]
        assert all(b2 < a for a, b2 in zip(maxima, maxima[1:]))


class TestBesselBound:
    def test_unit_point(self):
        # at x = 8/pi the s = 0 bound equals 1, which J never exceeds
        x = 8.0 / math.pi
        bound = 2.0 * math.sqrt(2.0 / (math.pi * x))
        assert bound == pytest.approx(1.0, rel=1e-14)
        assert abs(specfun.bessel_j(0, x)[0]) <= 1.0

    def test_standard_grid_clean(self):
        rep = diagonalize.check_bessel_bound(
            20, np.logspace(math.log10(0.1), math.log10(100.0), 200)
        )
        assert rep.violations == []
        assert rep.max_ratio < 1.0
        assert rep.grid_size == 21 * 200

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            diagonalize.check_bessel_bound(2, np.array([0.0, 1.0]))


class TestLaguerreBound:
    def test_running_max_stabilizes(self):
        rep = diagonalize.check_laguerre_bound(1.0, [0], 10**5)
        assert rep.violations == []
        assert rep.max_ratio == 1.0
        assert rep.name == "laguerre_bound(x=1)"

    def test_order_two_needs_huge_degrees(self):
        with pytest.raises(ValueError):
            diagonalize.check_laguerre_bound(1.0, [2], 50000)
        rep = diagonalize.check_laguerre_bound(1.0, [2], 70000)
        assert rep.grid_size == 70000 - 2**16 + 1

    def test_ground_state_below_sup(self):
        x = 1.0
        rep = diagonalize.check_laguerre_bound(x, [0], 10**4)
        q0 = math.exp(-x / 2)
        # the reported note carries the early sup; q(0) can never exceed it
        sup = float(rep.note.split("sup=")[1].split(" ")[0])
        assert q0 <= sup + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            diagonalize.check_laguerre_bound(0.0, [0], 100)


class TestOffsetDecay:
    def test_zero_coupling_skipped(self):
        rep = diagonalize.check_offset_decay(0.0, 5)
        assert rep.skipped == "g=0"
        assert rep.status == "SKIPPED(g=0)"
        assert rep.passed
        assert rep.note.startswith("skipped")
        assert rep.grid_size == 0

    def test_standard_instance(self):
        rep = diagonalize.check_offset_decay(0.5, 5)
        assert rep.violations == []
        assert rep.max_ratio < 1.0

    def test_diagonal_blocks_follow_quarter_power(self):
        # block-to-block ratio of the p = 0 maxima tracks 2^(-1/4)
        rep = diagonalize.check_offset_decay(0.5, 1)
        assert 0.7 < rep.max_ratio < 0.95

    def test_flat_block_is_a_violation(self, monkeypatch):
        # the blocks must decrease: a ratio of exactly 1 fails the check
        monkeypatch.setattr(diagonalize, "dyadic_block_maxima",
                            lambda ns, vals: dict.fromkeys(range(12), 0.5))
        rep = diagonalize.check_offset_decay(0.5, 1)
        assert rep.max_ratio == 1.0
        assert not rep.passed
        assert len(rep.violations) == 3 * 4

    def test_requires_positive_offset_cap(self):
        with pytest.raises(ValueError):
            diagonalize.check_offset_decay(0.5, 0)
