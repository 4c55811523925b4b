"""Model type, composition, response, band type, and file I/O."""

import numpy as np
import pytest

from bandmor import (
    FrequencyBand,
    StateSpaceModel,
    error_system,
    read_model,
    series,
    write_model,
)
from bandmor.exceptions import (
    DimensionMismatch,
    NonFinite,
    OverlapError,
    ParseError,
    SingularAtFrequency,
)
from bandmor.matfun import hurwitz_status

from conftest import REPO_ROOT
from _oracles import (rand_model, rand_resonant_model, solve_response,
                      two_mode_model)


class TestValidation:
    def test_consistent_model_ok(self):
        m = StateSpaceModel([[-1.0]], [[1.0, 2.0]], [[1.0]], [[0.0, 0.0]])
        assert (m.nstates, m.ninputs, m.noutputs) == (1, 2, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateSpaceModel(np.eye(2), np.ones((3, 1)), np.ones((1, 2)),
                            np.zeros((1, 1)))

    def test_nan_rejected(self):
        with pytest.raises(NonFinite):
            StateSpaceModel([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_models_are_immutable(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            m.A[0, 0] = 2.0

    def test_pure_gain(self):
        m = StateSpaceModel.pure_gain([[2.0, 1.0]])
        assert m.nstates == 0 and m.ninputs == 2 and m.noutputs == 1

    def test_is_hurwitz(self):
        stable, eig = StateSpaceModel(
            np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]]
        ).is_hurwitz()
        assert stable and eig == pytest.approx(-1.0)
        stable, eig = StateSpaceModel(
            [[0.0, 1.0], [-1.0, 0.0]], np.ones((2, 1)), np.ones((1, 2)), [[0.0]]
        ).is_hurwitz()
        assert not stable and eig == pytest.approx(0.0, abs=1e-12)
        # a pure gain has no poles: stable, as for hurwitz_status
        assert StateSpaceModel.pure_gain([[1.0]]).is_hurwitz() == (
            True, -np.inf)

    def test_is_hurwitz_reads_schur_diagonal(self):
        # the test reads the eigenvalues off the cached factor's diagonal
        # and decides as hurwitz_status on A does, on either side of its
        # margin -1e-12 (1 + rho) and just inside it
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n))
            A -= np.linalg.eigvals(A).real.max() * np.eye(n)
            eigs = np.linalg.eigvals(A)
            margin = 1e-12 * (1.0 + np.abs(eigs).max())
            for side in (-10.0, -0.5, 10.0):
                shift = eigs.real.max() - side * margin
                m = StateSpaceModel(A - shift * np.eye(n), np.ones((n, 1)),
                                    np.ones((1, n)), [[0.0]])
                stable, max_re = m.is_hurwitz()
                assert max_re == np.diag(m.schur_factor.T).real.max()
                assert stable == (side < -1) == hurwitz_status(m.A)[0]


class TestSeries:
    def test_gain_product(self):
        g = series(StateSpaceModel.pure_gain([[2.0]]),
                   StateSpaceModel.pure_gain([[3.0]]))
        assert g.D[0, 0] == pytest.approx(6.0)
        assert g.nstates == 0

    def test_two_mode_composition_matches_factor_product(self):
        g = two_mode_model()
        assert g.nstates == 4
        got = g.freq_response(1.0)[0, 0]
        f1 = 1.0 / ((1j) ** 2 + 0.2 * 1j + 1.0)
        f2 = 9.0 / ((1j) ** 2 + 0.003 * 1j + 9.0)
        assert got == pytest.approx(f1 * f2, abs=1e-12)
        assert abs(f1) == pytest.approx(5.0)

    def test_series_with_identity_gain(self):
        rng = np.random.default_rng(0)
        g = rand_model(rng, 3, 2, 2, with_d=True)
        gi = series(g, StateSpaceModel.pure_gain(np.eye(2)))
        for w in (0.0, 0.7, 3.0):
            np.testing.assert_allclose(gi.freq_response(w), g.freq_response(w),
                                       atol=1e-12)

    def test_response_product_property(self):
        rng = np.random.default_rng(1)
        g1 = rand_model(rng, 3, 2, 1, with_d=True)
        g2 = rand_model(rng, 2, 3, 2, with_d=True)
        g = series(g1, g2)
        for w in rng.uniform(0.0, 5.0, size=8):
            lhs = g.freq_response(w)
            rhs = g1.freq_response(w) @ g2.freq_response(w)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            series(StateSpaceModel.pure_gain(np.ones((1, 2))),
                   StateSpaceModel.pure_gain(np.ones((1, 2))))


class TestFreqResponse:
    def test_pure_gain_constant(self):
        m = StateSpaceModel.pure_gain([[4.0]])
        for w in (0.0, 1.0, 100.0):
            assert m.freq_response(w)[0, 0] == pytest.approx(4.0)

    def test_scalar_dc(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        assert m.freq_response(0.0)[0, 0] == pytest.approx(1.0)

    def test_singular_at_pole(self):
        m = StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                            [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularAtFrequency):
            m.freq_response(1.0)

    def test_singular_at_pole_in_array(self):
        m = StateSpaceModel([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                            [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularAtFrequency):
            m.freq_response(np.array([0.5, 1.0, 2.0]))

    def test_pole_just_off_axis_is_finite(self):
        # the optimizer leaves out-of-band poles this close to the axis,
        # and the CLI writes their responses; G(s) = 1 / ((s + eps)^2 + 1)
        eps = 1e-10
        m = StateSpaceModel([[-eps, 1.0], [-1.0, -eps]], [[0.0], [1.0]],
                            [[1.0, 0.0]], [[0.0]])
        exact = 1.0 / (2j * eps + eps ** 2)
        assert m.freq_response(1.0)[0, 0] == pytest.approx(exact, rel=1e-4)
        stack = m.freq_response(np.array([0.5, 1.0]))
        assert stack[1, 0, 0] == pytest.approx(exact, rel=1e-4)

    def test_array_equals_stack_of_scalar_calls(self):
        rng = np.random.default_rng(5)
        g = rand_model(rng, 6, 2, 3, with_d=True)
        grid = np.linspace(0.0, 4.0, 30)
        stack = g.freq_response(grid)
        assert stack.shape == (30, 3, 2)
        singles = np.array([g.freq_response(w) for w in grid])
        np.testing.assert_allclose(stack, singles, rtol=0,
                                   atol=1e-12 * np.abs(singles).max())
        with pytest.raises(ValueError):
            g.freq_response(grid.reshape(5, 6))

    def test_array_matches_direct_solve_across_blocks(self):
        # non-normal resonant dynamics with a feedthrough, on a grid that
        # spans several substitution blocks and ends in a partial one
        rng = np.random.default_rng(40)
        g = rand_resonant_model(rng, 40, 2, 3)
        g = StateSpaceModel(g.A, g.B, g.C, rng.standard_normal((3, 2)))
        grid = np.linspace(0.0, 6.0, 700)
        eye = np.eye(40)
        ref = np.array([g.C @ np.linalg.solve(1j * w * eye - g.A, g.B) + g.D
                        for w in grid])
        np.testing.assert_allclose(g.freq_response(grid), ref, rtol=1e-8)

    def test_scalar_matches_direct_solve(self):
        # non-normal dynamics with complex poles and a feedthrough: the
        # scalar triangular solve against a dense LU solve on A
        rng = np.random.default_rng(41)
        g = rand_resonant_model(rng, 12, 2, 3)
        g = StateSpaceModel(g.A, g.B, g.C, rng.standard_normal((3, 2)))
        assert np.iscomplexobj(g.schur_factor.T)
        for w in (0.0, 0.37, 1.9, 25.0):
            np.testing.assert_allclose(g.freq_response(w),
                                       solve_response(g, w), rtol=1e-9)

    def test_pure_gain_array_shape(self):
        m = StateSpaceModel.pure_gain([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        stack = m.freq_response(np.array([0.0, 1.0, 10.0, 100.0]))
        assert stack.shape == (4, 3, 2)
        np.testing.assert_array_equal(stack, np.broadcast_to(m.D, (4, 3, 2)))


class TestErrorSystem:
    def test_same_model_zero_response(self):
        rng = np.random.default_rng(2)
        g = rand_model(rng, 4, 2, 2, with_d=True)
        e = error_system(g, g)
        for w in (0.0, 0.3, 2.2, 17.0):
            np.testing.assert_allclose(e.freq_response(w),
                                       np.zeros((2, 2)), atol=1e-12)

    def test_zero_reference_reproduces_model(self):
        rng = np.random.default_rng(3)
        g = rand_model(rng, 3, 1, 2)
        e = error_system(g, StateSpaceModel.pure_gain(np.zeros((2, 1))))
        for w in (0.1, 1.0):
            np.testing.assert_allclose(e.freq_response(w), g.freq_response(w),
                                       atol=1e-13)

    def test_block_sizes(self):
        g = two_mode_model()
        rng = np.random.default_rng(4)
        gh = rand_model(rng, 2, 1, 1)
        e = error_system(g, gh)
        assert e.nstates == 6

    def test_response_difference_property(self):
        rng = np.random.default_rng(5)
        g = rand_model(rng, 4, 2, 2, with_d=True)
        gh = rand_model(rng, 2, 2, 2, with_d=True)
        e = error_system(g, gh)
        for w in rng.uniform(0.0, 4.0, size=8):
            np.testing.assert_allclose(
                e.freq_response(w),
                g.freq_response(w) - gh.freq_response(w),
                atol=1e-12,
            )


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        g = rand_model(rng, 5, 2, 3, with_d=True)
        path = tmp_path / "m.json"
        write_model(g, path)
        back = read_model(path)
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(back, name), getattr(g, name))

    def test_pure_gain_round_trip(self, tmp_path):
        g = StateSpaceModel.pure_gain([[2.0, -1.0]])
        path = tmp_path / "gain.json"
        write_model(g, path)
        back = read_model(path)
        assert (back.nstates, back.ninputs, back.noutputs) == (0, 2, 1)
        np.testing.assert_array_equal(back.D, g.D)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"A": [[-1.0]], "B": [[1.0], [2.0]], "C": [[1.0]], "D": [[0.0]]}'
        )
        with pytest.raises(ParseError):
            read_model(path)
        path.write_text(
            '{"A": [[1.0, 0.0], [0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}'
        )
        with pytest.raises(ParseError, match="row 1"):
            read_model(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}')
        with pytest.raises(ParseError, match="'D'"):
            read_model(path)

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n"A": [[-1.0]\n}')
        with pytest.raises(ParseError, match="line"):
            read_model(path)

    def test_labels_tolerated(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],'
            ' "labels": {"u": ["force"]}}'
        )
        assert read_model(path).nstates == 1

    def test_repo_model_file(self):
        g = read_model(REPO_ROOT / "models" / "two_mode_series.json")
        assert g.nstates == 4
        ref = two_mode_model()
        for name in "ABCD":
            np.testing.assert_array_equal(getattr(g, name), getattr(ref, name))


class TestFrequencyBand:
    def test_basic(self):
        band = FrequencyBand([(0.0, 1.7)])
        assert band.is_bounded
        assert band.measure == pytest.approx(1.7)
        assert band.theta == pytest.approx(1.7 / (2 * np.pi))

    def test_sorting_and_union(self):
        band = FrequencyBand([(3.0, 4.0), (0.0, 1.0)])
        assert band.intervals == ((0.0, 1.0), (3.0, 4.0))
        assert band.measure == pytest.approx(2.0)

    def test_unbounded(self):
        band = FrequencyBand([(0.0, np.inf)])
        assert not band.is_bounded
        assert band.measure == np.inf

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            FrequencyBand([(0.0, 2.0), (1.0, 3.0)])
        with pytest.raises(OverlapError):
            FrequencyBand([(1.0, np.inf), (2.0, 3.0)])

    def test_bad_intervals_rejected(self):
        with pytest.raises(ValueError):
            FrequencyBand([(2.0, 1.0)])
        with pytest.raises(ValueError):
            FrequencyBand([(-1.0, 1.0)])
        with pytest.raises(ValueError):
            FrequencyBand([(np.inf, np.inf)])
