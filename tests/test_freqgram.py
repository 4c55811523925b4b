"""Band-limited Gramians, norm, cost forms, gradient, and peak-gain ratio."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from bandmor import (
    FrequencyBand,
    StateSpaceModel,
    StructureMask,
    error_cost,
    error_cost_and_gradient,
    error_gradient,
    error_system,
    h2w_norm_sq,
    hinf_w_relative,
    limited_gramians,
)
from bandmor import freqgram
from bandmor.exceptions import (
    EmptyBand,
    NotHurwitz,
    UnboundedBandWithFeedthrough,
)

from _oracles import (
    fd_cost_gradient,
    gramian_quadrature,
    h2w_quadrature,
    peak_gain_dense,
    rand_model,
    solve_response,
)

FULL = FrequencyBand([(0.0, np.inf)])


class TestLimitedGramians:
    def test_scalar_arctan(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        P, Q = limited_gramians(m, [(0.0, 1.0)])
        assert P[0, 0] == pytest.approx(0.25, abs=1e-13)
        assert Q[0, 0] == pytest.approx(0.25, abs=1e-13)

    def test_full_band_reduces_to_standard(self):
        rng = np.random.default_rng(20)
        g = rand_model(rng, 5, 2, 2)
        P, Q = limited_gramians(g, FULL)
        P_ref = solve_continuous_lyapunov(g.A, -g.B @ g.B.T)
        Q_ref = solve_continuous_lyapunov(g.A.T, -g.C.T @ g.C)
        np.testing.assert_allclose(P, P_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(Q, Q_ref, rtol=1e-10, atol=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        g = rand_model(rng, 6, 2, 1)
        band = FrequencyBand([(0.5, 2.0)])
        P, _ = limited_gramians(g, band)
        P_ref = gramian_quadrature(g, band)
        assert np.abs(P - P_ref).max() <= 1e-6 * max(1.0, np.abs(P_ref).max())

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        g = rand_model(rng, 6, 2, 2)
        P, Q = limited_gramians(g, [(0.3, 1.1), (2.0, 4.0)])
        assert np.array_equal(P, P.T)
        assert np.array_equal(Q, Q.T)

    def test_rejects_unstable(self):
        m = StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(NotHurwitz):
            limited_gramians(m, [(0.0, 1.0)])


class TestH2wNorm:
    def test_scalar(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert h2w_norm_sq(m, [(0.0, 1.0)]) == pytest.approx(0.25, abs=1e-13)

    def test_pure_gain(self):
        m = StateSpaceModel.pure_gain([[1.0]])
        assert h2w_norm_sq(m, [(0.0, np.pi)]) == pytest.approx(1.0, abs=1e-13)

    def test_full_band_equals_standard_h2(self):
        rng = np.random.default_rng(23)
        g = rand_model(rng, 5, 2, 2)
        Q = solve_continuous_lyapunov(g.A.T, -g.C.T @ g.C)
        ref = float(np.trace(g.B.T @ Q @ g.B))
        assert h2w_norm_sq(g, FULL) == pytest.approx(ref, rel=1e-10)

    def test_matches_quadrature_with_feedthrough(self):
        rng = np.random.default_rng(24)
        g = rand_model(rng, 4, 2, 2, with_d=True)
        band = FrequencyBand([(0.2, 1.0), (2.5, 3.0)])
        val = h2w_norm_sq(g, band)
        ref = h2w_quadrature(g, band)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_band_additivity(self):
        rng = np.random.default_rng(25)
        g = rand_model(rng, 5, 1, 2, with_d=True)
        w1, w2 = 0.8, 2.3
        whole = h2w_norm_sq(g, [(0.0, w2)])
        parts = h2w_norm_sq(g, [(0.0, w1)]) + h2w_norm_sq(g, [(w1, w2)])
        assert whole == pytest.approx(parts, abs=1e-9 * (1 + abs(whole)))

    def test_monotone_in_band(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            g = rand_model(rng, 4, 1, 1, with_d=True)
            inner = h2w_norm_sq(g, [(0.5, 1.5)])
            outer = h2w_norm_sq(g, [(0.2, 2.5)])
            assert inner <= outer + 1e-12

    def test_unbounded_band_needs_zero_feedthrough(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnboundedBandWithFeedthrough):
            h2w_norm_sq(m, FULL)

    def test_nonnegative(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            g = rand_model(rng, 3, 1, 1, with_d=True)
            lo = rng.uniform(0.0, 2.0)
            assert h2w_norm_sq(g, [(lo, lo + rng.uniform(0.1, 3.0))]) >= -1e-12


class TestErrorCost:
    def test_copy_gives_zero(self):
        rng = np.random.default_rng(28)
        g = rand_model(rng, 4, 2, 2, with_d=True)
        assert abs(error_cost(g, g, [(0.0, 1.7)])) < 1e-10

    def test_zero_gain_gives_model_norm(self):
        rng = np.random.default_rng(29)
        g = rand_model(rng, 4, 2, 2)
        zero = StateSpaceModel.pure_gain(np.zeros((2, 2)))
        band = FrequencyBand([(0.1, 2.0)])
        assert error_cost(g, zero, band) == pytest.approx(
            h2w_norm_sq(g, band), rel=1e-10
        )

    def test_equals_error_system_norm(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            g = rand_model(rng, 5, 2, 2, with_d=True)
            gh = rand_model(rng, 2, 2, 2, with_d=True)
            band = FrequencyBand([(0.0, 1.3)])
            direct = error_cost(g, gh, band)
            via_e = h2w_norm_sq(error_system(g, gh), band)
            assert direct == pytest.approx(via_e, abs=1e-9 * (1 + abs(via_e)))

    def test_forms_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = rand_model(rng, 5, 2, 2, with_d=True)
            gh = rand_model(rng, 3, 2, 2, with_d=True)
            band = FrequencyBand([(0.2, 1.1), (2.0, 3.5)])
            fb = error_cost(g, gh, band, form="B")
            fc = error_cost(g, gh, band, form="C")
            assert fb == pytest.approx(fc, abs=1e-9 * (1 + abs(fb)))

    def test_drop_constant_shifts_by_reference_energy(self):
        rng = np.random.default_rng(32)
        g = rand_model(rng, 4, 1, 1)
        gh = rand_model(rng, 2, 1, 1)
        band = FrequencyBand([(0.0, 2.0)])
        full = error_cost(g, gh, band)
        bare = error_cost(g, gh, band, drop_constant=True)
        zero = StateSpaceModel.pure_gain(np.zeros((1, 1)))
        constant = error_cost(g, zero, band)
        assert full == pytest.approx(bare + constant, rel=1e-9)

    def test_unbounded_band_mismatched_feedthrough(self):
        rng = np.random.default_rng(33)
        g = rand_model(rng, 3, 1, 1)
        gh = rand_model(rng, 2, 1, 1, with_d=True)
        with pytest.raises(UnboundedBandWithFeedthrough):
            error_cost(g, gh, FULL)

    def test_unbounded_band_equals_standard_h2_error(self):
        rng = np.random.default_rng(62)
        g = rand_model(rng, 5, 2, 2)
        gh = rand_model(rng, 2, 2, 2)
        e = error_system(g, gh)
        Q = solve_continuous_lyapunov(e.A.T, -e.C.T @ e.C)
        ref = float(np.trace(e.B.T @ Q @ e.B))
        got = error_cost(g, gh, FULL)
        assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref))


class TestErrorGradient:
    def test_zero_at_global_minimum(self):
        rng = np.random.default_rng(34)
        g = rand_model(rng, 4, 2, 2, with_d=True)
        grads = error_gradient(g, g, [(0.0, 1.7)],
                               StructureMask.full(4, 2, 2))
        for m in grads:
            assert np.abs(m).max() < 1e-8

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(35)
        g = rand_model(rng, 4, 1, 1)
        gh = rand_model(rng, 2, 1, 1)
        maskA = np.ones((2, 2))
        maskA[0, 1] = 0.0
        mask = StructureMask(maskA, np.ones((2, 1)), np.ones((1, 2)),
                             np.ones((1, 1)))
        dA, _, _, _ = error_gradient(g, gh, [(0.0, 1.5)], mask)
        assert dA[0, 1] == 0.0

    @pytest.mark.parametrize("intervals", [
        [(0.0, 1.7)],
        [(0.6, 2.2)],
        [(0.3, 0.9), (1.5, 2.8)],
    ])
    def test_matches_finite_differences(self, intervals):
        rng = np.random.default_rng(36)
        g = rand_model(rng, 5, 2, 2, with_d=True)
        gh = rand_model(rng, 2, 2, 2, with_d=True)
        band = FrequencyBand(intervals)
        fd = fd_cost_gradient(g, gh, band)
        an = error_gradient(g, gh, band, StructureMask.full(2, 2, 2))
        for got, ref in zip(an, fd):
            err = np.abs(got - ref)
            tol = np.maximum(1e-5 * np.abs(ref), 1e-8)
            assert np.all(err <= tol)

    def test_gradient_consistent_with_cost_call(self):
        rng = np.random.default_rng(37)
        g = rand_model(rng, 4, 1, 2)
        gh = rand_model(rng, 2, 1, 2)
        band = FrequencyBand([(0.0, 1.2)])
        mask = StructureMask.full(2, 1, 2)
        cost, grads = error_cost_and_gradient(g, gh, band, mask,
                                              drop_constant=False)
        assert cost == pytest.approx(error_cost(g, gh, band), rel=1e-12)
        ref = error_gradient(g, gh, band, mask)
        for a, b in zip(grads, ref):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_unbounded_band_blocks_free_feedthrough(self):
        rng = np.random.default_rng(38)
        g = rand_model(rng, 3, 1, 1)
        gh = rand_model(rng, 2, 1, 1)
        with pytest.raises(UnboundedBandWithFeedthrough):
            error_gradient(g, gh, FULL, StructureMask.full(2, 1, 1))


class TestHinfRelative:
    def test_identical_models(self):
        rng = np.random.default_rng(39)
        g = rand_model(rng, 4, 2, 2)
        assert hinf_w_relative(g, g, [(0.0, 2.0)]) == pytest.approx(0.0, abs=1e-14)

    def test_zero_model_gives_one(self):
        rng = np.random.default_rng(40)
        g = rand_model(rng, 4, 2, 2)
        zero = StateSpaceModel.pure_gain(np.zeros((2, 2)))
        assert hinf_w_relative(g, zero, [(0.1, 3.0)]) == pytest.approx(1.0)

    def test_empty_band_rejected(self):
        rng = np.random.default_rng(41)
        g = rand_model(rng, 3, 1, 1)
        with pytest.raises(EmptyBand):
            hinf_w_relative(g, g, FrequencyBand([]))

    def test_known_scalar_peak(self):
        # |1/(i w + 1)| peaks at the band's left edge
        g = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        gh = StateSpaceModel([[-2.0]], [[1.0]], [[1.0]], [[0.0]])
        band = FrequencyBand([(0.5, 2.0)])
        grid = np.linspace(0.5, 2.0, 20001)
        err = np.abs([
            g.freq_response(w)[0, 0] - gh.freq_response(w)[0, 0] for w in grid
        ])
        ref = np.abs([g.freq_response(w)[0, 0] for w in grid])
        want = err.max() / ref.max()
        got = hinf_w_relative(g, gh, band, grid_density=500)
        assert got == pytest.approx(want, rel=1e-6)

    def test_one_grid_response_of_g_per_interval(self, monkeypatch):
        # G's grid response serves both the error and the denominator; the
        # golden-section points stay scalar calls
        rng = np.random.default_rng(42)
        g = rand_model(rng, 8, 2, 2)
        gh = rand_model(rng, 3, 2, 2)
        calls = []
        respond = StateSpaceModel.freq_response

        def counted(model, omega):
            calls.append((model, np.ndim(omega)))
            return respond(model, omega)

        monkeypatch.setattr(StateSpaceModel, "freq_response", counted)
        for band, intervals in ((FrequencyBand([(0.0, 1.7)]), 1),
                                (FrequencyBand([(0.0, 1.7), (3.0, 4.0)]), 2)):
            calls.clear()
            hinf_w_relative(g, gh, band)
            for model in (g, gh):
                assert calls.count((model, 1)) == intervals
            # golden section: 82 points per interval for the error, which
            # takes both models, and 82 for G alone
            assert calls.count((g, 0)) == 2 * 82 * intervals
            assert calls.count((gh, 0)) == 82 * intervals
            assert len(calls) == 248 * intervals

    def test_band_grid_scans_spectra_only_for_unbounded(self, monkeypatch):
        B, C, D = [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]]
        slow = StateSpaceModel(np.diag([-0.2, -0.5]), B, C, D)
        fast = StateSpaceModel([[-2.0, 30.0], [-30.0, -2.0]], B, C, D)
        scans = []
        eigvals = np.linalg.eigvals

        def counted(A):
            scans.append(A)
            return eigvals(A)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        bounded = FrequencyBand([(0.0, 1.7), (3.0, 4.0)])
        grids = freqgram._band_grid(bounded, 50, (slow, fast))
        assert scans == []
        assert [(w[0], w[-1]) for w in grids] == [(0.0, 1.7), (3.0, 4.0)]
        # capped at 1e4 max(1, rho): the radius of +-30i - 2, or 1
        unbounded = FrequencyBand([(0.0, 1.0), (2.0, np.inf)])
        for models, cap in (((slow, fast), 1e4 * np.hypot(2.0, 30.0)),
                            ((slow,), 1e4)):
            grids = freqgram._band_grid(unbounded, 50, models)
            assert grids[0][-1] == 1.0
            assert grids[1][0] == 2.0
            assert grids[1][-1] == pytest.approx(cap, rel=1e-12)
        assert len(scans) == 3

    def test_two_interval_peak_with_feedthrough(self):
        # against a dense search on LU responses of both models.  G has a
        # sharp resonance in each interval and Ghat keeps the first, so the
        # error peaks inside the second interval and G's own peak inside
        # the first, both between grid points
        rng = np.random.default_rng(44)
        blocks = [np.array([[0.0, w], [-w, -0.02 * w]]) for w in (1.0, 3.2)]
        lam = np.zeros((5, 5))
        lam[:2, :2], lam[2:4, 2:4], lam[4, 4] = blocks[0], blocks[1], -0.7
        T = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
        Bm = rng.standard_normal((5, 2))
        Bm[:2] *= 3.0
        Cm, D = rng.standard_normal((2, 5)), rng.standard_normal((2, 2))
        g = StateSpaceModel(T @ lam @ np.linalg.inv(T), T @ Bm,
                            Cm @ np.linalg.inv(T), D)
        gh = StateSpaceModel(blocks[0], Bm[:2], Cm[:, :2], D)
        band = FrequencyBand([(0.2, 1.5), (2.5, 4.0)])

        def num(w):
            H = solve_response(g, w) - solve_response(gh, w)
            return np.linalg.svd(H, compute_uv=False)[:, 0]

        def den(w):
            return np.linalg.svd(solve_response(g, w), compute_uv=False)[:, 0]

        (n1, n2), (d1, d2) = [[peak_gain_dense(f, lo, hi) for lo, hi in band]
                              for f in (num, den)]
        assert n2 > 2 * n1 and d1 > d2
        want = max(n1, n2) / max(d1, d2)
        assert hinf_w_relative(g, gh, band) == pytest.approx(want, rel=1e-6)
