"""Independent reference computations and random instance generators.

Everything here deliberately avoids the package's own solution paths:
Sylvester equations are solved through the Kronecker normal equations,
band norms and Gramians through adaptive quadrature of their defining
integrals, and derivatives through finite differences or direct
quadrature of the Frechet integral.
"""

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.optimize import minimize_scalar
from scipy.special import roots_legendre

from bandmor import StateSpaceModel, error_cost


def rand_hurwitz(rng, n, margin=0.2):
    """Random dense matrix shifted until comfortably Hurwitz."""
    A = rng.standard_normal((n, n))
    ev = np.linalg.eigvals(A)
    return A - (ev.real.max() + margin + rng.uniform(0.0, 1.0)) * np.eye(n)


def rand_model(rng, n, m, p, with_d=False, margin=0.2):
    D = rng.standard_normal((p, m)) if with_d else np.zeros((p, m))
    return StateSpaceModel(
        rand_hurwitz(rng, n, margin),
        rng.standard_normal((n, m)),
        rng.standard_normal((p, n)),
        D,
    )


def rand_resonant_model(rng, n, m, p):
    """Stable model built from lightly damped second-order blocks; the
    kind of dynamics where plain band-limited truncation tends to lose
    stability."""
    A = np.zeros((n, n))
    off = 0
    while n - off >= 2:
        w0 = rng.uniform(0.2, 5.0)
        zeta = 10.0 ** rng.uniform(-3.5, -0.5)
        A[off:off + 2, off:off + 2] = [[0.0, w0], [-w0, -2.0 * zeta * w0]]
        off += 2
    if off < n:
        A[off, off] = -rng.uniform(0.05, 2.0)
    T = rng.standard_normal((n, n)) + np.eye(n)
    A = np.linalg.solve(T, A @ T)
    return StateSpaceModel(A, rng.standard_normal((n, m)),
                           rng.standard_normal((p, n)), np.zeros((p, m)))


def kron_sylvester(A, B, C):
    """Solve A X + X B + C = 0 by the vectorized normal equations."""
    n, m = C.shape
    K = np.kron(np.eye(m), A) + np.kron(B.T, np.eye(n))
    x = np.linalg.solve(K, -C.flatten(order="F"))
    return x.reshape((n, m), order="F")


def gramian_quadrature(model, band, tol=1e-11):
    """Controllability Gramian over the band from its defining integral."""
    n = model.nstates
    eye = np.eye(n)

    def integrand(nu):
        H = np.linalg.solve(1j * nu * eye - model.A, model.B)
        return (H @ H.conj().T).real

    P = np.zeros((n, n))
    for lo, hi in band:
        P += quad_vec(integrand, lo, hi, epsabs=tol, epsrel=tol)[0]
    return P / np.pi


def h2w_quadrature(model, band, tol=1e-11):
    """Squared band H2 measure from the trace integral of G G^H."""

    def integrand(nu):
        r = model.freq_response(nu)
        return float(np.trace(r @ r.conj().T).real)

    total = 0.0
    for lo, hi in band:
        val, _ = quad(integrand, lo, hi, limit=800, epsabs=tol, epsrel=tol)
        total += val
    return total / np.pi


def frechet_quadrature(M, E, tol=1e-10, max_panels=256):
    """Frechet derivative of log at M by adaptive composite
    Gauss-Legendre quadrature of the resolvent integral on [0, 1]."""
    M = np.asarray(M, dtype=complex)
    E = np.asarray(E, dtype=complex)
    eye = np.eye(M.shape[0])
    nodes, weights = roots_legendre(24)

    def panelled(k):
        total = np.zeros_like(M)
        edges = np.linspace(0.0, 1.0, k + 1)
        for a, b in zip(edges, edges[1:]):
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * weights
            for ti, wi in zip(t, w):
                R = np.linalg.inv(ti * (M - eye) + eye)
                total += wi * (R @ E @ R)
        return total

    prev = panelled(1)
    k = 2
    while k <= max_panels:
        cur = panelled(k)
        if np.linalg.norm(cur - prev, "fro") <= tol * max(
            1.0, np.linalg.norm(cur, "fro")
        ):
            return cur
        prev = cur
        k *= 2
    return prev


def s_omega_quadrature(A, omega, tol=1e-11):
    """Band-limiting matrix ``(1/2pi) * int_{-omega}^{omega}
    (i nu I - A)^-1 d nu`` by adaptive quadrature of the resolvent."""
    A = np.asarray(A, dtype=float)
    eye = np.eye(A.shape[0])

    def integrand(nu):
        return np.linalg.inv(1j * nu * eye - A)

    val, _ = quad_vec(integrand, -omega, omega, epsabs=tol, epsrel=tol)
    return val / (2.0 * np.pi)


def solve_response(model, omega):
    """``C (i omega I - A)^-1 B + D`` by dense LU solves on ``A``, for a
    scalar ``omega`` or a 1-d array of them."""
    M = 1j * np.asarray(omega, dtype=float)[..., None, None] * np.eye(
        model.nstates) - model.A
    rhs = np.broadcast_to(model.B, M.shape[:-1] + model.B.shape[-1:])
    return model.C @ np.linalg.solve(M, rhs) + model.D


def peak_gain_dense(sigma, lo, hi, points=4001):
    """Maximum over [lo, hi] of ``sigma``, which maps a 1-d array of
    frequencies to values: a dense linear grid, its maximizer refined by
    bounded scalar minimization between the neighbouring grid points."""
    grid = np.linspace(lo, hi, points)
    vals = sigma(grid)
    k = int(np.argmax(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    res = minimize_scalar(lambda w: -float(sigma(np.array([w]))[0]),
                          bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    return max(float(vals[k]), -res.fun)


def fd_cost_gradient(g, ghat, band, step=1e-6):
    """Central finite differences of the reduction cost in every entry of
    the reduced realization."""
    mats = [ghat.A.copy(), ghat.B.copy(), ghat.C.copy(), ghat.D.copy()]
    grads = []
    for idx in range(4):
        M = mats[idx]
        G = np.zeros_like(M)
        for pos in np.ndindex(M.shape):
            h = step * (1.0 + abs(M[pos]))
            orig = M[pos]
            M[pos] = orig + h
            fp = error_cost(g, StateSpaceModel(*mats), band)
            M[pos] = orig - h
            fm = error_cost(g, StateSpaceModel(*mats), band)
            M[pos] = orig
            G[pos] = (fp - fm) / (2.0 * h)
        grads.append(G)
    return grads


def two_mode_model():
    """The 4-state series composition of two resonant second-order
    sections (peaks at 1 and 3 rad/s) used across the test suite."""
    from bandmor import series

    g1 = StateSpaceModel([[0.0, 1.0], [-1.0, -0.2]], [[0.0], [1.0]],
                         [[1.0, 0.0]], [[0.0]])
    g2 = StateSpaceModel([[0.0, 1.0], [-9.0, -0.003]], [[0.0], [1.0]],
                         [[9.0, 0.0]], [[0.0]])
    return series(g1, g2)
