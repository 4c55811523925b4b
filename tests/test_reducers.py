"""Reduction methods: truncations, the optimizer, and report assembly."""

import gc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from bandmor import (
    FrequencyBand,
    OptimizerOptions,
    StateSpaceModel,
    StructureMask,
    balanced_truncation,
    choose_init,
    error_cost,
    error_gradient,
    evaluate,
    gawronski_reduce,
    h2w_optimize,
    modified_gawronski_reduce,
)
from bandmor import freqgram, matfun, reducers, ssmodel
from bandmor.exceptions import (NotHurwitz, UnboundedBandWithFeedthrough,
                                UnstableInit)
from bandmor.matfun import hurwitz_status

from _oracles import rand_model, rand_resonant_model, two_mode_model

BAND17 = FrequencyBand([(0.0, 1.7)])
FULL = FrequencyBand([(0.0, np.inf)])


def unstable_gawronski_case():
    """Frozen random instance whose plain band-limited truncation is
    unstable (found by random search)."""
    rng = np.random.default_rng(0)
    g = rand_resonant_model(rng, 6, 1, 1)
    return g, 2, FrequencyBand([(0.5, 1.5)])


def response_gap(g1, g2, freqs):
    return max(
        np.abs(g1.freq_response(w) - g2.freq_response(w)).max() for w in freqs
    )


class TestBalancedTruncation:
    def test_rejects_full_order(self):
        g = two_mode_model()
        with pytest.raises(ValueError):
            balanced_truncation(g, 4)
        with pytest.raises(ValueError):
            balanced_truncation(g, 0)

    def test_rejects_unstable(self):
        m = StateSpaceModel([[1.0, 0.0], [0.0, -1.0]], np.ones((2, 1)),
                            np.ones((1, 2)), [[0.0]])
        with pytest.raises(NotHurwitz):
            balanced_truncation(m, 1)

    def test_decoupled_picks_dominant_subsystem(self):
        # channel-decoupled: scalar Hankel singular values b*c/(2|a|)
        # are 1.0 and 0.05, so r=1 keeps the first channel exactly
        g = StateSpaceModel(np.diag([-1.0, -2.0]), np.diag([2.0, 0.2]),
                            np.eye(2), np.zeros((2, 2)))
        gh = balanced_truncation(g, 1)
        for w in (0.0, 0.5, 1.0, 4.0):
            resp = gh.freq_response(w)
            assert resp[0, 0] == pytest.approx(2.0 / (1j * w + 1.0), abs=1e-12)
            assert abs(resp[0, 1]) < 1e-12
            assert abs(resp[1, 0]) < 1e-12
            assert abs(resp[1, 1]) < 1e-12

    def test_keeps_feedthrough_and_stability(self):
        rng = np.random.default_rng(50)
        g = rand_model(rng, 6, 2, 2, with_d=True)
        gh = balanced_truncation(g, 3)
        np.testing.assert_array_equal(gh.D, g.D)
        assert hurwitz_status(gh.A)[0]

    def test_two_mode_metrics(self):
        g = two_mode_model()
        rep = evaluate(g, balanced_truncation(g, 2), BAND17, method="hankel")
        assert rep.h2w_error == pytest.approx(1.77, rel=0.02)
        assert rep.h2w_relative == pytest.approx(1.01, rel=0.02)
        assert rep.hinfw_relative == pytest.approx(1.00, rel=0.02)
        assert rep.max_real_eig == pytest.approx(-1.59e-3, rel=0.10)


class TestGawronski:
    def test_full_band_matches_balanced_truncation(self):
        rng = np.random.default_rng(51)
        g = rand_model(rng, 6, 2, 2)
        g1 = gawronski_reduce(g, 3, FULL)
        g2 = balanced_truncation(g, 3)
        freqs = np.linspace(0.0, 20.0, 100)
        assert response_gap(g1, g2, freqs) < 1e-8

    def test_two_mode_metrics(self):
        g = two_mode_model()
        rep = evaluate(g, gawronski_reduce(g, 2, BAND17), BAND17,
                       method="gawronski")
        assert rep.stable
        assert rep.h2w_error == pytest.approx(9.14e-2, rel=0.05)
        assert rep.h2w_relative == pytest.approx(5.21e-2, rel=0.05)
        assert rep.hinfw_relative == pytest.approx(3.35e-2, rel=0.05)
        assert rep.max_real_eig == pytest.approx(-9.88e-2, rel=0.10)

    def test_unstable_output_is_representable(self):
        g, r, band = unstable_gawronski_case()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gh = gawronski_reduce(g, r, band)
        rep = evaluate(g, gh, band, method="gawronski")
        assert not rep.stable
        assert rep.max_real_eig > 0
        assert rep.h2w_error is None
        assert rep.h2w_relative is None
        assert rep.hinfw_relative is None


class TestModifiedGawronski:
    def test_matches_gawronski_when_rhs_psd(self):
        # a lowpass band wide enough to keep S B B' + B B' S' PSD
        rng = np.random.default_rng(52)
        g = rand_model(rng, 4, 1, 1)
        band = FrequencyBand([(0.0, np.inf)])
        g1 = gawronski_reduce(g, 2, band)
        g2 = modified_gawronski_reduce(g, 2, band)
        freqs = np.linspace(0.0, 10.0, 50)
        assert response_gap(g1, g2, freqs) < 1e-8

    def test_two_mode_metrics(self):
        g = two_mode_model()
        rep = evaluate(g, modified_gawronski_reduce(g, 2, BAND17), BAND17,
                       method="modgawronski")
        assert rep.stable
        assert rep.h2w_relative == pytest.approx(1.01, rel=0.02)

    def test_always_stable(self):
        rng = np.random.default_rng(53)
        count = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while count < 100:
                n = int(rng.integers(3, 9))
                g = rand_resonant_model(rng, n, int(rng.integers(1, 3)),
                                        int(rng.integers(1, 3)))
                if not hurwitz_status(g.A)[0]:
                    continue
                r = int(rng.integers(1, n))
                lo = rng.uniform(0.0, 2.0)
                band = FrequencyBand([(lo, lo + rng.uniform(0.3, 3.0))])
                gh = modified_gawronski_reduce(g, r, band)
                assert hurwitz_status(gh.A)[0]
                count += 1


class TestChooseInit:
    def test_prefers_gawronski_when_stable(self):
        g = two_mode_model()
        init = choose_init(g, 2, BAND17)
        ref = gawronski_reduce(g, 2, BAND17)
        np.testing.assert_array_equal(init.A, ref.A)

    def test_falls_back_to_hankel(self):
        g, r, band = unstable_gawronski_case()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            init = choose_init(g, r, band)
            ref = balanced_truncation(g, r)
        assert hurwitz_status(init.A)[0]
        np.testing.assert_array_equal(init.A, ref.A)

    def test_full_band_variants_coincide(self):
        rng = np.random.default_rng(54)
        g = rand_model(rng, 5, 1, 1)
        init = choose_init(g, 2, FULL)
        ref = balanced_truncation(g, 2)
        freqs = np.linspace(0.0, 10.0, 50)
        assert response_gap(init, ref, freqs) < 1e-8


class TestOptimize:
    def test_optimal_init_returns_immediately(self):
        rng = np.random.default_rng(55)
        g = rand_model(rng, 3, 1, 1)
        gh, rep = h2w_optimize(g, 3, BAND17, init=g,
                               mask=StructureMask.full(3, 1, 1))
        assert rep.iterations <= 1
        assert rep.h2w_error == pytest.approx(0.0, abs=1e-6)

    def test_two_mode_beats_gawronski(self):
        g = two_mode_model()
        init = gawronski_reduce(g, 2, BAND17)
        init_err = evaluate(g, init, BAND17).h2w_error
        gh, rep = h2w_optimize(g, 2, BAND17, init=init)
        assert rep.stable
        assert rep.h2w_error <= init_err
        assert 8.0e-2 <= rep.h2w_error <= 9.2e-2
        assert rep.h2w_relative == pytest.approx(4.85e-2, rel=0.10)
        assert rep.hinfw_relative == pytest.approx(3.26e-2, rel=0.05)
        assert rep.max_real_eig == pytest.approx(-9.94e-2, rel=0.10)

    def test_descent_and_stationarity(self):
        rng = np.random.default_rng(56)
        g = rand_model(rng, 5, 2, 1)
        costs = []
        gnorms = []
        gh, rep = h2w_optimize(
            g, 2, FrequencyBand([(0.0, 2.0)]),
            callback=lambda i, f, gn: (costs.append(f), gnorms.append(gn)),
        )
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        if rep.status == "gradient_tolerance":
            assert gnorms[-1] <= 1e-6

    def test_every_output_stable_under_iteration_cap(self):
        rng = np.random.default_rng(57)
        opts = OptimizerOptions(max_iterations=8)
        for _ in range(5):
            g = rand_resonant_model(rng, 6, 1, 1)
            if not hurwitz_status(g.A)[0]:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gh, rep = h2w_optimize(g, 2, FrequencyBand([(0.4, 2.0)]),
                                       opts=opts)
            assert rep.stable

    def test_structure_mask_pins_entries(self):
        g = two_mode_model()
        init = gawronski_reduce(g, 2, BAND17)
        maskA = np.triu(np.ones((2, 2)))
        mask = StructureMask(maskA, np.ones((2, 1)), np.ones((1, 2)),
                             np.zeros((1, 1)))
        gh, rep = h2w_optimize(g, 2, BAND17, mask=mask, init=init)
        assert gh.A[1, 0] == init.A[1, 0]
        assert gh.D[0, 0] == init.D[0, 0]
        assert rep.h2w_error <= evaluate(g, init, BAND17).h2w_error

    def test_coordinate_free_minimum(self):
        g = two_mode_model()
        init = gawronski_reduce(g, 2, BAND17)
        rng = np.random.default_rng(58)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        rotated = StateSpaceModel(Q.T @ init.A @ Q, Q.T @ init.B,
                                  init.C @ Q, init.D)
        _, rep1 = h2w_optimize(g, 2, BAND17, init=init)
        _, rep2 = h2w_optimize(g, 2, BAND17, init=rotated)
        assert rep1.h2w_error == pytest.approx(rep2.h2w_error, rel=1e-6)

    def test_unstable_init_rejected(self):
        g = two_mode_model()
        bad = StateSpaceModel([[0.1, 0.0], [0.0, -1.0]], [[1.0], [1.0]],
                              [[1.0, 1.0]], [[0.0]])
        with pytest.raises(UnstableInit):
            h2w_optimize(g, 2, BAND17, init=bad)

    def test_init_dimensions_must_match_model(self):
        g = rand_model(np.random.default_rng(62), 4, 2, 1)
        init = balanced_truncation(rand_model(np.random.default_rng(63), 4,
                                              1, 1), 2)
        with pytest.raises(ValueError, match="input/output dimensions"):
            h2w_optimize(g, 2, BAND17, init=init)

    def test_unbounded_band_pins_feedthrough(self):
        rng = np.random.default_rng(59)
        g = rand_model(rng, 4, 1, 1)
        gh, rep = h2w_optimize(g, 2, FULL)
        np.testing.assert_array_equal(gh.D, g.D)
        assert rep.stable

    def test_unbounded_band_rejects_feedthrough_error(self):
        # the band sides and the gradient enforce Dhat = D on an unbounded
        # band, for a free Dhat and for an init that carries another one
        rng = np.random.default_rng(61)
        g = rand_model(rng, 4, 1, 1)
        init = balanced_truncation(g, 2)
        with pytest.raises(UnboundedBandWithFeedthrough):
            h2w_optimize(g, 2, FULL, init=init,
                         mask=StructureMask.full(2, 1, 1, free_d=True))
        shifted = StateSpaceModel(init.A, init.B, init.C, init.D + 1.0)
        with pytest.raises(UnboundedBandWithFeedthrough):
            h2w_optimize(g, 2, FULL, init=shifted)

    @pytest.mark.parametrize("band, free_d", [(BAND17, True), (FULL, False)])
    def test_last_callback_matches_fresh_evaluation(self, band, free_d):
        # the optimizer reuses each accepted trial's workspace for the
        # gradient; what it reports must equal a from-scratch evaluation
        rng = np.random.default_rng(61)
        g = rand_model(rng, 6, 2, 1, with_d=free_d)
        mask = StructureMask.full(3, 2, 1, free_d=free_d)
        history = []
        gh, rep = h2w_optimize(
            g, 3, band, mask=mask, opts=OptimizerOptions(max_iterations=15),
            callback=lambda i, f, gn: history.append((f, gn)),
        )
        assert rep.iterations == len(history) > 0
        cost, gnorm = history[-1]
        grads = error_gradient(g, gh, band, mask=mask)
        fresh_gnorm = max(np.abs(d).max() for d in grads)
        assert cost == pytest.approx(
            error_cost(g, gh, band, drop_constant=True), rel=1e-12, abs=0.0)
        assert gnorm == pytest.approx(fresh_gnorm, rel=1e-12, abs=0.0)


class TestOptimizerOptions:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerOptions(gradient_tolerance=-1.0)


class TestEvaluate:
    def test_self_comparison(self):
        # the squared cost cancels to solver noise (~1e-13 here, driven by
        # the lightly damped mode); the square root sits at its square root
        g = two_mode_model()
        rep = evaluate(g, g, BAND17, method="self")
        assert rep.stable
        assert rep.h2w_error == pytest.approx(0.0, abs=1e-5)
        assert rep.hinfw_relative == pytest.approx(0.0, abs=1e-5)

    def test_relative_definition(self):
        g = two_mode_model()
        rng = np.random.default_rng(60)
        gh = rand_model(rng, 2, 1, 1)
        rep = evaluate(g, gh, BAND17)
        want = rep.h2w_error / np.sqrt(
            max(error_cost(g, StateSpaceModel.pure_gain([[0.0]]), BAND17), 0.0)
        )
        assert rep.h2w_relative == pytest.approx(want, rel=1e-9)


class TestOneBandSidePerModel:
    """The full model's band-limiting matrix and Gramians are computed once
    per model and band, however many reducers and evaluations use them."""

    N = 40

    @pytest.fixture
    def full_s_bands(self, monkeypatch):
        # bands of the n-sized band-limiting matrices computed
        bands = []
        compute = freqgram._s_band_schur

        def recorded(f, band):
            if f.T.shape[0] == self.N:
                bands.append(band)
            return compute(f, band)

        monkeypatch.setattr(freqgram, "_s_band_schur", recorded)
        return bands

    def test_proposed_run(self, full_s_bands):
        g = rand_model(np.random.default_rng(40), self.N, 1, 1)
        init = choose_init(g, 4, BAND17)
        ghat, report = h2w_optimize(g, 4, BAND17, init=init,
                                    opts=OptimizerOptions(max_iterations=3))
        assert report.iterations == 3
        evaluate(g, ghat, BAND17)
        assert full_s_bands == [BAND17]

    def test_truncations(self, full_s_bands):
        g = rand_model(np.random.default_rng(41), self.N, 2, 2)
        for ghat in (balanced_truncation(g, 6), gawronski_reduce(g, 6, BAND17),
                     modified_gawronski_reduce(g, 6, BAND17)):
            evaluate(g, ghat, BAND17)
        assert Counter(full_s_bands) == {BAND17: 1, FULL: 1}

    def test_cached_gramians_are_read_only(self):
        # a caller writing into a returned Gramian would corrupt every later
        # use of the model on that band
        g = rand_model(np.random.default_rng(43), 6, 1, 1)
        P, Q = freqgram.limited_gramians(g, BAND17)
        with pytest.raises(ValueError):
            P[0, 0] = 0.0
        assert freqgram.limited_gramians(g, BAND17)[1] is Q

    def test_cache_keeps_recent_bands_only(self):
        # 50 bands on one model keep the most recently used few; an evicted
        # band is solved again on demand and comes out bitwise equal
        g = rand_model(np.random.default_rng(44), 8, 1, 1)
        bands = [FrequencyBand([(0.0, 0.1 * (k + 1))]) for k in range(50)]
        first = freqgram.limited_gramians(g, bands[0])
        s_first = freqgram._BandSide(g, bands[0]).s
        hot = FrequencyBand([(0.0, 100.0)])
        p_hot = freqgram.limited_gramians(g, hot)[0]
        for band in bands[1:]:
            freqgram.limited_gramians(g, band)
            assert len(g._band_cache) <= freqgram._CACHED_BANDS
            assert freqgram.limited_gramians(g, hot)[0] is p_hot
        assert bands[0] not in g._band_cache
        again = freqgram.limited_gramians(g, bands[0])
        assert again[0] is not first[0]
        for old, new in zip(first, again):
            np.testing.assert_array_equal(old, new)
        np.testing.assert_array_equal(freqgram._BandSide(g, bands[0]).s,
                                      s_first)
        assert list(g._band_cache)[-1] == bands[0]

    def test_cache_keeps_model_collectable(self):
        # the cache holds arrays only: dropping the model frees it without
        # a garbage-collection pass
        g = rand_model(np.random.default_rng(42), 20, 1, 1)
        ghat = modified_gawronski_reduce(g, 4, BAND17)
        ref = weakref.ref(g)
        gc.disable()
        try:
            evaluate(g, ghat, BAND17)
            del g
            assert ref() is None
        finally:
            gc.enable()


def test_one_hurwitz_test_per_model(monkeypatch):
    # the optimizer's trial check, the band sides and evaluate read one
    # cached test per model, on the triangular T of its Schur factor, so
    # no model is tested twice
    tested = []
    status = matfun.hurwitz_status

    def counted(T):
        tested.append(T)  # keeps T alive, so ids stay distinct
        return status(T)

    for module in (matfun, ssmodel, freqgram, reducers):
        monkeypatch.setattr(module, "hurwitz_status", counted)
    g = rand_model(np.random.default_rng(45), 12, 1, 1)
    ghat, report = h2w_optimize(g, 3, BAND17,
                                opts=OptimizerOptions(max_iterations=3))
    assert report.iterations == 3
    evaluate(g, ghat, BAND17)
    ids = [id(A) for A in tested]
    assert len(ids) == len(set(ids))
    # G, the init and at least one trial per iteration
    assert len(ids) >= 2 + 3
    assert id(g.schur_factor.T) in ids and id(ghat.schur_factor.T) in ids
