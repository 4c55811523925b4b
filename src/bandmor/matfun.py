"""Dense matrix-equation and matrix-function kernels.

Every kernel works on a complex Schur factor ``A = U T U^H``
(:class:`SchurFactor`): Sylvester and Lyapunov solvers (Bartels-Stewart,
LAPACK ``ztrsyl`` on the triangular factors, whose ``trana``/``tranb``
flags let one factor of ``A`` also serve ``A^H``, which is ``A.T`` for
real ``A``), the principal matrix logarithm (inverse scaling and squaring
on the triangular factor, with ``scipy.linalg.sqrtm`` square roots and a
Pade step) and its Frechet derivative (the logarithm of a 2x2 block
matrix), the band-limiting matrices that turn standard Lyapunov
right-hand sides into frequency-limited ones (logarithms of
``-T - i omega I``, which is already triangular), and the frequency
response.  The public functions take arrays: each factors its operands
and calls the triangular kernel.  A state-space model caches the factor
of its dynamics, so the model is factored once for all of these.

All routines work on dense numpy arrays and are pure functions of their
inputs; nothing here keeps state between calls.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.linalg import schur, solve_triangular, sqrtm
from scipy.linalg.lapack import ztrsyl, ztrtrs
from scipy.special import roots_legendre

from .exceptions import (
    BranchCut,
    DimensionMismatch,
    NotHurwitz,
    SingularAtFrequency,
    SingularResolvent,
    SpectrumClash,
)

__all__ = [
    "hurwitz_status",
    "solve_sylvester",
    "solve_lyapunov",
    "matrix_log",
    "frechet_log",
    "s_omega",
    "s_band",
]

# Inverse scaling and squaring: take triangular square roots until the
# 1-norm distance from the identity is below _SQRT_TARGET, then apply the
# diagonal Pade approximant of this degree (evaluated in partial-fraction
# form through Gauss-Legendre nodes on [0, 1]).
_PADE_DEGREE = 12
_SQRT_TARGET = 0.15
_MAX_SQRTS = 60

_GL_NODES, _GL_WEIGHTS = roots_legendre(_PADE_DEGREE)
_GL_NODES = (_GL_NODES + 1.0) / 2.0
_GL_WEIGHTS = _GL_WEIGHTS / 2.0

# Relative margin below zero that the spectrum must clear to count as
# Hurwitz; guards the logarithm branch cut at -A - i*omega*I.
_HURWITZ_RTOL = 1e-12

# Frequencies per block of the vectorized response substitution; bounds its
# (n, block, m) work array, and with it the peak memory of a long grid.
_RESPONSE_BLOCK = 256

# A Schur diagonal entry within this many ulps of ``1 + |t_kk|`` from
# ``i omega`` is a pole on the axis: the computed diagonal of an exactly
# imaginary eigenvalue carries roundoff, so an exact-zero test misses it.
_AXIS_POLE_ULPS = 4


def _square(M, name):
    M = np.atleast_2d(np.asarray(M))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {M.shape}")
    return M


def hurwitz_status(A):
    """Return ``(is_hurwitz, max_real_eig)`` for a square matrix.

    A matrix counts as Hurwitz when the largest real part of its spectrum
    is below ``-1e-12 * (1 + spectral_radius)``; the relative margin keeps
    marginally stable matrices away from the branch cut of the logarithms
    evaluated on ``-A - i*omega*I``.
    """
    A = _square(A, "A")
    if A.shape[0] == 0:
        return True, -np.inf
    eigs = np.linalg.eigvals(A)
    max_re = float(eigs.real.max())
    rho = float(np.abs(eigs).max())
    return max_re < -_HURWITZ_RTOL * (1.0 + rho), max_re


def _require_hurwitz(status):
    ok, max_re = status  # from hurwitz_status
    if not ok:
        raise NotHurwitz(f"A is not Hurwitz (max real eigenvalue {max_re:.3e})")


class SchurFactor(NamedTuple):
    """Complex Schur form ``A = U T U^H`` of a square matrix: ``T`` upper
    triangular, ``U`` unitary, ``real`` whether ``A`` was real."""

    T: np.ndarray
    U: np.ndarray
    real: bool

    def conj(self):
        """The factor ``conj(A) = conj(U) conj(T) conj(U)^H``."""
        return SchurFactor(self.T.conj(), self.U.conj(), self.real)


def complex_schur(A):
    """Complex Schur factor of a square matrix (:class:`SchurFactor`)."""
    A = _square(A, "A")
    T, U = schur(A.astype(complex), output="complex")
    return SchurFactor(T, U, not np.iscomplexobj(A))


def _sylvester_schur(fa, fb, C, trana="N", tranb="N"):
    """Solve ``op(A) X + X op(B) + C = 0`` from the Schur factors ``fa`` of
    ``A`` and ``fb`` of ``B``; ``op(M)`` is ``M`` (``"N"``) or ``M^H``
    (``"C"``), which is ``M.T`` for real ``M``.  With ``op(A) = U op(TA)
    U^H`` and ``op(B) = V op(TB) V^H`` the solution is ``U Y V^H`` for the
    triangular solution ``Y`` from LAPACK ``ztrsyl``, which solves for
    ``scale * Y`` with ``scale <= 1`` chosen to avoid overflow.  Real
    whenever ``A``, ``B`` and ``C`` are."""
    C = np.atleast_2d(np.asarray(C))
    n, m = fa.T.shape[0], fb.T.shape[0]
    if C.shape != (n, m):
        raise DimensionMismatch(f"C must have shape {(n, m)}, got {C.shape}")
    if n == 0 or m == 0:
        return np.zeros((n, m))

    la = np.diag(fa.T) if trana == "N" else np.diag(fa.T).conj()
    mu = np.diag(fb.T) if tranb == "N" else np.diag(fb.T).conj()
    sep = np.abs(la[:, None] + mu[None, :])
    size = 1.0 + np.abs(la)[:, None] + np.abs(mu)[None, :]
    if np.any(sep <= 1e-13 * size):
        i, j = np.unravel_index(np.argmin(sep / size), sep.shape)
        raise SpectrumClash(
            f"eigenvalue {la[i]:.6g} of A clashes with eigenvalue "
            f"{-mu[j]:.6g} of -B"
        )

    Y, scale, info = ztrsyl(fa.T, fb.T, -(fa.U.conj().T @ C @ fb.U),
                            trana=trana, tranb=tranb)
    if info < 0:
        raise np.linalg.LinAlgError(f"ztrsyl: argument {-info} is invalid")
    X = fa.U @ (Y / scale) @ fb.U.conj().T
    real_data = fa.real and fb.real and not np.iscomplexobj(C)
    return X.real if real_data else X


def _lyapunov_schur(f, W, trans="N"):
    """Solve ``op(A) P + P op(A).T + W = 0`` from the Schur factor ``f`` of
    ``A``, with ``op`` as in :func:`_sylvester_schur`.  For real ``A``,
    ``"N"`` is ``A P + P A.T + W = 0`` and ``"C"`` its dual ``A.T Q + Q A
    + W = 0``.  ``op(A).T`` is ``conj(op(A))^H``, so its factor is
    ``f.conj()`` with the other flag."""
    other = "C" if trans == "N" else "N"
    return _sylvester_schur(f, f.conj(), W, trans, other)


def solve_sylvester(A, B, C):
    """Solve the Sylvester equation ``A X + X B + C = 0``.

    Parameters
    ----------
    A : (n, n) array_like
    B : (m, m) array_like
    C : (n, m) array_like

    Returns
    -------
    X : (n, m) ndarray
        Real whenever all inputs are real.

    Raises
    ------
    SpectrumClash
        If an eigenvalue of ``A`` coincides with an eigenvalue of ``-B``
        within solver tolerance, so the equation is (near) singular.

    Notes
    -----
    Both operands are reduced to complex Schur form and the triangular
    system is solved by LAPACK ``ztrsyl`` (Bartels-Stewart).  Callers that
    hold a factor already, such as a model's cached
    :attr:`~bandmor.StateSpaceModel.schur_factor`, call the same
    triangular kernel on it directly; ``ztrsyl``'s transpose flags let one
    factor of ``A`` serve ``A.T`` as well.
    """
    B = _square(B, "B")
    return _sylvester_schur(complex_schur(A), complex_schur(B), C)


def solve_lyapunov(A, W):
    """Solve the continuous Lyapunov equation ``A P + P A.T + W = 0``.

    ``A`` must be Hurwitz.  For symmetric ``W`` the result is symmetric up
    to roundoff.

    Notes
    -----
    Only one Schur decomposition is taken: with ``A = U T U^H``, ``A.T``
    is ``conj(U) conj(T)^H conj(U)^H``, so the transformed equation is
    ``T P' + P' conj(T)^H + W' = 0`` and real and complex ``A`` go
    through the same triangular solve.  The dual ``A.T Q + Q A + W = 0``
    takes the same factor with ``ztrsyl``'s transpose flags swapped, so a
    model's cached factor serves both of its Gramians.
    """
    A = _square(A, "A")
    W = _square(W, "W")
    if W.shape != A.shape:
        raise DimensionMismatch(f"W must have shape {A.shape}, got {W.shape}")
    _require_hurwitz(hurwitz_status(A))
    return _lyapunov_schur(complex_schur(A), W)


def _log_core(T):
    """Principal log of an upper-triangular ``T`` by inverse scaling and
    squaring; the result is upper triangular."""
    n = T.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)

    lam = np.diag(T)
    tol = 1e-13 * np.maximum(np.abs(lam), 1.0)
    on_cut = (np.abs(lam) <= tol) | ((lam.real <= 0) & (np.abs(lam.imag) <= tol))
    if np.any(on_cut):
        raise BranchCut(
            f"eigenvalue {lam[np.argmax(on_cut)]:.6g} lies on the closed "
            "negative real axis; the principal logarithm is undefined"
        )

    eye = np.eye(n)
    k = 0
    while np.linalg.norm(T - eye, 1) > _SQRT_TARGET:
        if k >= _MAX_SQRTS:
            raise np.linalg.LinAlgError(
                "matrix logarithm: square-root scaling did not converge"
            )
        # the principal square root of an upper-triangular matrix is
        # upper triangular
        T = sqrtm(T)
        k += 1

    X = T - eye
    L = np.zeros((n, n), dtype=complex)
    for t, w in zip(_GL_NODES, _GL_WEIGHTS):
        try:
            L += w * solve_triangular(eye + t * X, X, lower=False)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scaled out
            raise SingularResolvent(str(exc)) from exc
    return 2.0 ** k * L


def _log(M):
    T, U, _ = complex_schur(_square(M, "M"))
    return U @ _log_core(T) @ U.conj().T


def matrix_log(M):
    """Principal matrix logarithm of a complex square matrix.

    The spectrum must avoid the closed negative real axis (including 0);
    eigenvalues of the result have imaginary parts in (-pi, pi].

    Raises
    ------
    BranchCut
        If an eigenvalue lies on the closed negative real axis within
        tolerance.
    """
    return _log(M)


def frechet_log(M, E):
    """Frechet derivative of the matrix logarithm at ``M`` in direction ``E``.

    Equals the integral of ``(t(M-I)+I)^-1 E (t(M-I)+I)^-1`` over t in
    [0, 1] and is linear in ``E``.  Computed as the top-right block of
    ``log([[M, E], [0, M]]) = [[log M, L(M, E)], [0, log M]]`` (Higham,
    *Functions of Matrices*, 2008, Thm 3.6).  ``E`` is scaled to the norm
    of ``M`` first, so the square-root count is set by ``M`` and not by
    the size of the direction.
    """
    M = _square(M, "M")
    E = _square(E, "E")
    n = M.shape[0]
    if E.shape[0] != n:
        raise DimensionMismatch(f"E must have shape {(n, n)}, got {E.shape}")
    e_norm = np.linalg.norm(E, 1)
    s = np.linalg.norm(M, 1) / e_norm if e_norm else 1.0
    block = np.block([[M, s * E], [np.zeros((n, n)), M]])
    return _log(block)[:n, n:] / s


def s_omega(A, omega):
    """Band-limiting matrix of a Hurwitz ``A`` for the band [-omega, omega].

    This is the frequency integral ``(1/2pi) * int_{-omega}^{omega}
    (i nu I - A)^-1 d nu``, evaluated in closed form as
    ``Re[(i/pi) log(-A - i omega I)]``.  It vanishes at ``omega = 0`` and
    tends to ``I/2`` as ``omega -> inf``, where the frequency-limited
    Lyapunov right-hand side collapses to the standard one.
    """
    if not np.isfinite(omega) or omega < 0:
        raise ValueError(f"omega must be finite and nonnegative, got {omega}")
    return s_band(A, [(0.0, omega)])


def s_band(A, band):
    """Band-limiting matrix for a union of frequency intervals.

    ``band`` is iterated as ``(lo, hi)`` pairs in rad/s; each interval
    contributes the difference of its endpoint matrices, an endpoint at 0
    contributes the zero matrix and an endpoint at infinity contributes
    ``I/2``.
    """
    A = np.asarray(A, dtype=float)
    _require_hurwitz(hurwitz_status(A))
    return _s_band_schur(complex_schur(A), band)


def _s_band_schur(f, band):
    """:func:`s_band` from the Schur factor ``f`` of a real Hurwitz ``A``.
    ``log(-A - i omega I) = U log(-T - i omega I) U^H``, and ``-T - i omega
    I`` is already triangular, so each finite endpoint costs one
    triangular logarithm and the signed sum is transformed back once."""
    T, U = f.T, f.U
    n = T.shape[0]
    eye = np.eye(n)
    S = np.zeros((n, n))
    L = None
    for lo, hi in band:
        for sign, omega in ((1.0, hi), (-1.0, lo)):
            if math.isinf(omega):
                S += sign * 0.5 * eye
            elif omega > 0:
                term = sign * _log_core(-T - 1j * float(omega) * eye)
                L = term if L is None else L + term
    if L is not None:
        S += (1j / np.pi * (U @ L @ U.conj().T)).real
    return S


def _tri_response(T, Bt, Ct, omega):
    """``Ct (i omega I - T)^-1 Bt`` for an upper-triangular ``T``.

    ``omega`` is a 0-d float array, giving a ``(p, m)`` matrix through one
    LAPACK ``ztrtrs``, or a 1-d one of F frequencies, giving an
    ``(F, p, m)`` stack.  The stack comes from back substitution vectorized over blocks
    of frequencies: one matrix-vector product per row of ``T`` and block.

    Raises
    ------
    SingularAtFrequency
        If some ``i omega`` is an eigenvalue of ``T`` to within a few ulps.
    """
    t = np.diag(T)
    tol = _AXIS_POLE_ULPS * np.finfo(float).eps * (1.0 + np.abs(t))

    def shifted(w):
        # i w - t_kk per frequency and k, built per block to bound memory
        d = 1j * w[..., None] - t
        on_pole = np.any(np.abs(d) <= tol, axis=-1)
        if np.any(on_pole):
            raise SingularAtFrequency(
                f"i*{float(w[on_pole][0])} is an eigenvalue of A; "
                "response undefined"
            )
        return d

    if omega.ndim == 0:
        # (T - i omega I) Z = -Bt: the same Z, as negation is exact
        M = T.copy(order="F")
        np.fill_diagonal(M, -shifted(omega))
        Z, info = ztrtrs(M, -Bt)
        if info != 0:
            raise np.linalg.LinAlgError(f"ztrtrs: info = {info}")
        return Ct @ Z

    # the substitution reads T by rows: a C-ordered copy for this call
    T = np.ascontiguousarray(T)
    n, m, p = T.shape[0], Bt.shape[1], Ct.shape[0]
    out = np.empty((omega.size, p, m), dtype=complex)
    for start in range(0, omega.size, _RESPONSE_BLOCK):
        dk = shifted(omega[start:start + _RESPONSE_BLOCK])
        f = dk.shape[0]
        Z = np.empty((n, f, m), dtype=complex)
        for k in range(n - 1, -1, -1):
            acc = T[k, k + 1:] @ Z[k + 1:].reshape(n - k - 1, f * m)
            Z[k] = (Bt[k] + acc.reshape(f, m)) / dk[:, k, None]
        out[start:start + f] = (
            (Ct @ Z.reshape(n, f * m)).reshape(p, f, m).transpose(1, 0, 2)
        )
    return out
