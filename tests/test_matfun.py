"""Kernel tests: equation solvers, matrix log, Frechet derivative, and the
band-limiting matrices."""

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.linalg import solve_sylvester as solve_sylvester_scipy

from bandmor import (
    frechet_log,
    hurwitz_status,
    matrix_log,
    s_band,
    s_omega,
    solve_lyapunov,
    solve_sylvester,
)
from bandmor import matfun
from bandmor.exceptions import BranchCut, NotHurwitz, SpectrumClash
from bandmor.matfun import _lyapunov_schur, _sylvester_schur, complex_schur

from _oracles import (
    frechet_quadrature,
    kron_sylvester,
    rand_hurwitz,
    rand_resonant_model,
    s_omega_quadrature,
)


def sylvester_residual(A, B, C, X):
    num = np.linalg.norm(A @ X + X @ B + C, "fro")
    bound = 1e-10 * (
        (np.linalg.norm(A, "fro") + np.linalg.norm(B, "fro"))
        * np.linalg.norm(X, "fro")
        + np.linalg.norm(C, "fro")
    )
    return num, bound


class TestSolveSylvester:
    def test_scalar(self):
        X = solve_sylvester([[-1.0]], [[-1.0]], [[2.0]])
        assert X[0, 0] == pytest.approx(1.0)

    def test_identity_case(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((2, 2))
        X = solve_sylvester(-np.eye(2), -np.eye(2), C)
        np.testing.assert_allclose(X, C / 2.0, rtol=0, atol=1e-14)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        A = rand_hurwitz(rng, 5)
        B = rand_hurwitz(rng, 3)
        C = rng.standard_normal((5, 3))
        X = solve_sylvester(A, B, C)
        ref = kron_sylvester(A, B, C)
        np.testing.assert_allclose(X, ref, rtol=1e-10, atol=1e-12)

    def test_residual_bound_many_instances(self):
        rng = np.random.default_rng(3)
        for k in range(1000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            A = rand_hurwitz(rng, n)
            B = rand_hurwitz(rng, m)
            C = rng.standard_normal((n, m))
            X = solve_sylvester(A, B, C)
            num, bound = sylvester_residual(A, B, C, X)
            assert num <= bound
            if k % 4 == 0:
                W = rng.standard_normal((n, n))
                W = W + W.T
                P = solve_lyapunov(A, W)
                num, bound = sylvester_residual(A, A.T, W, P)
                assert num <= bound

    def test_spectrum_clash(self):
        # A has eigenvalue 1, -B has eigenvalue 1 as well
        with pytest.raises(SpectrumClash):
            solve_sylvester([[1.0]], [[-1.0]], [[1.0]])

    def test_real_output_for_real_input(self):
        rng = np.random.default_rng(4)
        X = solve_sylvester(rand_hurwitz(rng, 4), rand_hurwitz(rng, 4),
                            rng.standard_normal((4, 4)))
        assert X.dtype == np.float64


class TestSolveLyapunov:
    def test_scalar(self):
        assert solve_lyapunov([[-1.0]], [[1.0]])[0, 0] == pytest.approx(0.5)

    def test_decoupled_diagonal(self):
        P = solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        np.testing.assert_allclose(P, np.diag([0.5, 0.25]), atol=1e-14)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(5)
        A = rand_hurwitz(rng, 6)
        W = rng.standard_normal((6, 6))
        W = W + W.T
        P = solve_lyapunov(A, W)
        ref = kron_sylvester(A, A.T, W)
        np.testing.assert_allclose(P, ref, rtol=1e-10, atol=1e-12)

    def test_complex_matches_kronecker_oracle(self):
        # complex A takes the same conj(T) / conjugate-transpose path
        rng = np.random.default_rng(19)
        n = 6
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = K - (np.linalg.eigvals(K).real.max() + 0.3) * np.eye(n)
        W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        P = solve_lyapunov(A, W)
        ref = kron_sylvester(A, A.T, W)
        np.testing.assert_allclose(P, ref, rtol=1e-10, atol=1e-12)

    def test_symmetry_for_symmetric_rhs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = rand_hurwitz(rng, 7)
            W = rng.standard_normal((7, 7))
            W = W + W.T
            P = solve_lyapunov(A, W)
            assert np.linalg.norm(P - P.T, "fro") <= 1e-12 * max(
                1.0, np.linalg.norm(P, "fro")
            )

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov([[1.0]], [[1.0]])


# (trana, tranb): every pair of transpose flags of the triangular solve
FLAGS = [("N", "N"), ("N", "C"), ("C", "N"), ("C", "C")]


@pytest.fixture
def triangular_paths(monkeypatch):
    """Names of the triangular Sylvester kernels called, in call order:
    ``"sweep"`` for the column sweep, ``"ztrsyl"`` for LAPACK's."""
    paths = []

    def recorded(name, fun):
        def call(*args, **kwargs):
            paths.append(name)
            return fun(*args, **kwargs)
        return call

    monkeypatch.setattr(matfun, "_tri_sylvester",
                        recorded("sweep", matfun._tri_sylvester))
    monkeypatch.setattr(matfun, "ztrsyl", recorded("ztrsyl", matfun.ztrsyl))
    return paths


def scipy_sylvester(A, B, F):
    """``A X + X B + F = 0`` by ``scipy.linalg.solve_sylvester``; the
    operands go in complex, since with real ``A`` and ``B`` it returns a
    wrong solution for complex ``F``."""
    return solve_sylvester_scipy(A.astype(complex), B.astype(complex),
                                 -F.astype(complex))


class TestTransposedOperands:
    """``A.T`` taken from ``A``'s one Schur factor through the transpose
    flags of the triangular solve: LAPACK ``ztrsyl`` below the crossover
    order of ``A``, the column sweep of ``ztrtrs`` solves at and above it.
    Each test runs once on each side."""

    # (order of A, the path that solves it) for the n x r solves and the
    # n x n Lyapunov solves
    SIZES = [(30, "ztrsyl"), (150, "sweep")]
    LYAPUNOV_SIZES = [(30, "ztrsyl"), (80, "sweep")]

    @staticmethod
    def resonant(seed, n):
        # lightly damped modes in random coordinates: far from normal
        return rand_resonant_model(np.random.default_rng(seed), n, 1, 1).A

    @staticmethod
    def assert_close(X, ref, rtol):
        err = np.linalg.norm(X - ref, "fro") / np.linalg.norm(ref, "fro")
        assert err <= rtol

    @staticmethod
    def real_and_complex(rng, shape):
        F = rng.standard_normal(shape)
        return F, F + 1j * rng.standard_normal(shape)

    def test_sylvester_from_one_factor(self, triangular_paths):
        rng = np.random.default_rng(24)
        Ah = rand_hurwitz(rng, 4)
        fh = complex_schur(Ah)
        for n, path in self.SIZES:
            A = self.resonant(23, n)
            fa = complex_schur(A)
            for F in self.real_and_complex(rng, (n, 4)):
                for trana, tranb in FLAGS:
                    # op(A) X + X op(Ah) + F = 0, op(M) = M.T for "C" on
                    # real M
                    opA = A.T if trana == "C" else A
                    opAh = Ah.T if tranb == "C" else Ah
                    triangular_paths.clear()
                    X = _sylvester_schur(fa, fh, F, trana=trana, tranb=tranb)
                    assert triangular_paths == [path]
                    assert X.dtype == F.dtype
                    num, bound = sylvester_residual(opA, opAh, F, X)
                    assert num <= bound
                    self.assert_close(X, scipy_sylvester(opA, opAh, F), 1e-9)

    def test_lyapunov_from_one_factor(self, triangular_paths):
        rng = np.random.default_rng(25)
        for n, path in self.LYAPUNOV_SIZES:
            A = self.resonant(23, n)
            f = complex_schur(A)
            for W in self.real_and_complex(rng, (n, n)):
                W = W + W.T
                # A.T Q + Q A + W = 0 and A P + P A.T + W = 0
                triangular_paths.clear()
                Q = _lyapunov_schur(f, W, "C")
                P = _lyapunov_schur(f, W)
                assert triangular_paths == [path, path]
                for opA, S in ((A.T, Q), (A, P)):
                    num, bound = sylvester_residual(opA, opA.T, W, S)
                    assert num <= bound
                    self.assert_close(S, scipy_sylvester(opA, opA.T, W), 1e-9)
                np.testing.assert_array_equal(P, solve_lyapunov(A, W))

    def test_spectrum_clash_on_transposed_operand(self):
        # A.T has eigenvalues 0.5 +- 2i among stable ones, -Ah has
        # 0.5 -+ 2i; an orthogonal change of basis keeps them to roundoff
        rng = np.random.default_rng(26)
        J = np.array([[0.5, 2.0], [-2.0, 0.5]])
        for n, _ in self.SIZES:
            D = np.zeros((n, n))
            D[:2, :2] = J
            D[2:, 2:] = rand_hurwitz(rng, n - 2)
            K = np.linalg.qr(rng.standard_normal((n, n)))[0]
            A = K.T @ D @ K
            with pytest.raises(SpectrumClash):
                _sylvester_schur(complex_schur(A), complex_schur(-J),
                                 np.ones((n, 2)), trana="C")

    @pytest.mark.parametrize("trana,tranb", FLAGS)
    def test_paths_agree_across_crossover(self, trana, tranb, monkeypatch,
                                          triangular_paths):
        # just below the crossover ztrsyl runs, at it the sweep does; each
        # is checked against the other path forced on the same equation
        n0 = matfun._SWEEP_MIN_ORDER
        rng = np.random.default_rng(27)
        for n, path, other, force in ((n0 - 1, "ztrsyl", "sweep", n0 - 1),
                                      (n0, "sweep", "ztrsyl", n0 + 1)):
            A = rand_hurwitz(rng, n)
            fa = complex_schur(A)
            fh = complex_schur(rand_hurwitz(rng, 5))
            F = rng.standard_normal((n, 5))
            W = rng.standard_normal((n, n))
            W = W + W.T
            solved = (_sylvester_schur(fa, fh, F, trana, tranb),
                      _lyapunov_schur(fa, W, trana))
            with monkeypatch.context() as m:
                m.setattr(matfun, "_SWEEP_MIN_ORDER", force)
                forced = (_sylvester_schur(fa, fh, F, trana, tranb),
                          _lyapunov_schur(fa, W, trana))
            assert triangular_paths == [path, path, other, other]
            triangular_paths.clear()
            for X, Xo in zip(solved, forced):
                self.assert_close(X, Xo, 1e-12)


class TestMatrixLog:
    def test_identity(self):
        np.testing.assert_allclose(matrix_log(np.eye(3)), np.zeros((3, 3)),
                                   atol=1e-15)

    def test_diag_e(self):
        L = matrix_log(np.e * np.eye(4))
        np.testing.assert_allclose(L, np.eye(4), atol=1e-14)

    def test_exp_round_trip_small_direction(self):
        rng = np.random.default_rng(7)
        K = rng.standard_normal((5, 5))
        K *= 0.9 / np.linalg.norm(K, 2)
        L = matrix_log(expm(K))
        np.testing.assert_allclose(L, K, rtol=0, atol=1e-9)

    def test_exp_round_trip_random_complex(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            K *= rng.uniform(0.1, 1.2) / max(np.linalg.norm(K, 2), 1e-12)
            M = expm(K)
            L = matrix_log(M)
            err = np.linalg.norm(expm(L) - M, "fro") / np.linalg.norm(M, "fro")
            assert err <= 1e-9
            # principal branch: eigenvalue imaginary parts in (-pi, pi]
            im = np.linalg.eigvals(L).imag
            assert np.all(im > -np.pi - 1e-12) and np.all(im <= np.pi + 1e-12)

    def test_branch_cut_negative_axis(self):
        with pytest.raises(BranchCut):
            matrix_log(np.diag([1.0, -2.0]))

    def test_branch_cut_zero_eigenvalue(self):
        with pytest.raises(BranchCut):
            matrix_log(np.diag([1.0, 0.0]))


class TestFrechetLog:
    def test_at_identity(self):
        rng = np.random.default_rng(9)
        E = rng.standard_normal((4, 4))
        np.testing.assert_allclose(frechet_log(np.eye(4), E), E, atol=1e-13)

    def test_scalar(self):
        assert frechet_log([[2.0]], [[3.0]])[0, 0] == pytest.approx(1.5)

    def test_linearity(self):
        rng = np.random.default_rng(10)
        M = expm(0.5 * rng.standard_normal((4, 4)))
        E1 = rng.standard_normal((4, 4))
        E2 = rng.standard_normal((4, 4))
        a, b = 0.7, -1.3
        lhs = frechet_log(M, a * E1 + b * E2)
        rhs = a * frechet_log(M, E1) + b * frechet_log(M, E2)
        assert np.linalg.norm(lhs - rhs, "fro") <= 1e-10 * max(
            1.0, np.linalg.norm(lhs, "fro")
        )

    def test_direction_size_does_not_matter(self):
        # a huge direction must not drive the square-root count past the cap
        rng = np.random.default_rng(21)
        M = expm(0.5 * rng.standard_normal((4, 4)))
        E = rng.standard_normal((4, 4))
        ref = frechet_log(M, E)
        for scale in (1e-20, 1e20):
            got = frechet_log(M, scale * E) / scale
            assert np.linalg.norm(got - ref, "fro") <= 1e-12 * np.linalg.norm(
                ref, "fro"
            )
        assert frechet_log(M, np.zeros((4, 4))).shape == (4, 4)
        assert frechet_log(np.zeros((0, 0)), np.zeros((0, 0))).shape == (0, 0)

    def test_against_quadrature(self):
        rng = np.random.default_rng(11)
        M = expm(0.6 * (rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4))))
        E = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        # the argument the cost gradient feeds in: -Ahat - i*omega*I for
        # a lightly damped, non-normal reduced state matrix
        r = 12
        Ah = rand_resonant_model(rng, r, 2, 2).A
        cases = [(M, E), (-Ah - 0.8j * np.eye(r), rng.standard_normal((r, r)))]
        for M, E in cases:
            ref = frechet_quadrature(M, E)
            got = frechet_log(M, E)
            assert np.linalg.norm(got - ref, "fro") <= 1e-8 * max(
                1.0, np.linalg.norm(ref, "fro")
            )

    def test_against_finite_differences(self):
        rng = np.random.default_rng(12)
        M = expm(0.4 * rng.standard_normal((4, 4)))
        E = rng.standard_normal((4, 4))
        h = 1e-6
        fd = (matrix_log(M + h * E) - matrix_log(M - h * E)) / (2.0 * h)
        got = frechet_log(M, E)
        assert np.linalg.norm(got - fd, "fro") <= 1e-5 * max(
            1.0, np.linalg.norm(fd, "fro")
        )


class TestSOmega:
    def test_zero_frequency_is_zero(self):
        rng = np.random.default_rng(13)
        A = rand_hurwitz(rng, 5)
        np.testing.assert_array_equal(s_omega(A, 0.0), np.zeros((5, 5)))

    def test_scalar_arctan(self):
        assert s_omega([[-1.0]], 1.0)[0, 0] == pytest.approx(0.25, abs=1e-13)

    def test_large_omega_approaches_half_identity(self):
        val = s_omega([[-1.0]], 1e8)[0, 0]
        assert abs(val - 0.5) <= 1e-7

    def test_monotone_limit(self):
        rng = np.random.default_rng(14)
        A = rand_hurwitz(rng, 4)
        dists = [
            np.linalg.norm(s_omega(A, 10.0 ** k) - 0.5 * np.eye(4), "fro")
            for k in range(1, 9)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-6

    def test_against_quadrature(self):
        # non-normal, lightly damped A with resonances inside the band
        rng = np.random.default_rng(20)
        A = rand_resonant_model(rng, 30, 2, 2).A
        for w in (1.0, 3.0):
            ref = s_omega_quadrature(A, w)
            np.testing.assert_allclose(ref.imag, 0.0, atol=1e-9)
            S = s_omega(A, w)
            assert np.linalg.norm(S - ref.real, "fro") <= 1e-9 * np.linalg.norm(
                ref.real, "fro"
            )

    def test_cayley_identity(self):
        # closed form used here == i/(2 pi) log of the Cayley-type product
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            A = rand_hurwitz(rng, n)
            eye = np.eye(n)
            for w in (0.1, 1.0, 10.0):
                S = s_omega(A, w)
                M = (A + 1j * w * eye) @ np.linalg.inv(A - 1j * w * eye)
                ref = (1j / (2.0 * np.pi)) * matrix_log(M)
                worst = max(worst, np.linalg.norm(S - ref, "fro"))
        assert worst < 1e-10

    def test_requires_hurwitz(self):
        with pytest.raises(NotHurwitz):
            s_omega([[0.0]], 1.0)

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            s_omega([[-1.0]], -1.0)
        with pytest.raises(ValueError):
            s_omega([[-1.0]], np.inf)


class TestSBand:
    def test_full_band_is_half_identity(self):
        rng = np.random.default_rng(16)
        A = rand_hurwitz(rng, 4)
        np.testing.assert_allclose(s_band(A, [(0.0, np.inf)]),
                                   0.5 * np.eye(4), atol=1e-14)

    def test_lowpass_equals_s_omega(self):
        rng = np.random.default_rng(17)
        A = rand_hurwitz(rng, 5)
        np.testing.assert_allclose(s_band(A, [(0.0, 1.3)]), s_omega(A, 1.3),
                                   atol=1e-14)

    def test_two_interval_scalar(self):
        got = s_band([[-1.0]], [(1.0, 2.0), (3.0, 4.0)])[0, 0]
        want = (np.arctan(2) - np.arctan(1) + np.arctan(4) - np.arctan(3)) / np.pi
        assert got == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("kernel", [
    lambda A: s_band(A, [(0.5, 2.0), (3.0, np.inf)]),
    lambda A: solve_lyapunov(A, np.eye(A.shape[0])),
], ids=["s_band", "solve_lyapunov"])
def test_array_kernel_tests_stability_on_its_factor(kernel, monkeypatch,
                                                    general_eigs):
    # the one Schur factor a kernel solves with also gives its stability
    # test, so an array is factored once and never decomposed
    factored = []
    schur = matfun.schur

    def counted(a, *args, **kwargs):
        factored.append(a.shape)
        return schur(a, *args, **kwargs)

    monkeypatch.setattr(matfun, "schur", counted)
    A = rand_hurwitz(np.random.default_rng(20), 6)
    general_eigs.clear()  # rand_hurwitz shifts A by its own spectrum
    kernel(A)
    assert factored == [(6, 6)]
    with pytest.raises(NotHurwitz):
        kernel(-A)
    assert factored == [(6, 6)] * 2
    assert general_eigs == []


class TestHurwitzStatus:
    def test_stable_diag(self):
        ok, max_re = hurwitz_status(np.diag([-1.0, -2.0]))
        assert ok and max_re == pytest.approx(-1.0)

    def test_empty_matrix(self):
        assert hurwitz_status(np.zeros((0, 0))) == (True, -np.inf)

    def test_marginal_rotation(self):
        ok, max_re = hurwitz_status([[0.0, 1.0], [-1.0, 0.0]])
        assert not ok
        assert max_re == pytest.approx(0.0, abs=1e-12)

    def test_paired_sylvester_trace_identity(self):
        # trace(C N) == trace(D M) for the paired Sylvester solutions
        rng = np.random.default_rng(18)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            A = rand_hurwitz(rng, n)
            B = rand_hurwitz(rng, m)
            C = rng.standard_normal((n, m))
            D = rng.standard_normal((m, n))
            M = solve_sylvester(A, B, C)
            N = solve_sylvester(B, A, D)
            lhs = float(np.trace(C @ N))
            rhs = float(np.trace(D @ M))
            assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))
