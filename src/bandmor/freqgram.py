"""Band-limited Gramians, the band-limited H2 measure, and the reduction
cost with its closed-form gradient.

The central objects are the frequency-limited Gramians, obtained from
Lyapunov equations whose right-hand sides are filtered through the
band-limiting matrices of :mod:`.matfun`, and the squared band-limited H2
norm of the mismatch ``G - Ghat``.  The gradient of that cost with respect
to every entry of the reduced realization is assembled from six
Sylvester/Lyapunov solutions plus one Frechet derivative of the matrix
logarithm per finite band endpoint.  Binary structure masks restrict which
entries count as free variables; masked-out positions get an exact zero
gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatch,
    EmptyBand,
    NotHurwitz,
    UnboundedBandWithFeedthrough,
)
from .matfun import frechet_log, hurwitz_status, s_band, solve_lyapunov, solve_sylvester
from .ssmodel import FrequencyBand, as_band, error_system

__all__ = [
    "StructureMask",
    "limited_gramians",
    "h2w_norm_sq",
    "error_cost",
    "error_gradient",
    "error_cost_and_gradient",
    "hinf_w_relative",
]


def _sym(M):
    return 0.5 * (M + M.T)


def _mask_array(value, shape, name):
    M = np.atleast_2d(np.asarray(value))
    if M.shape != shape:
        raise DimensionMismatch(f"{name} must have shape {shape}, got {M.shape}")
    if M.size and not np.all((M == 0) | (M == 1)):
        raise ValueError(f"{name} entries must be 0 or 1")
    M = M.astype(float)
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class StructureMask:
    """Binary masks selecting the free entries of ``(Ahat, Bhat, Chat, Dhat)``.

    A 1 marks an optimization variable, a 0 an entry pinned at its initial
    value.  The gradient inherits the pattern through elementwise
    multiplication, so pinned entries never move.
    """

    maskA: np.ndarray
    maskB: np.ndarray
    maskC: np.ndarray
    maskD: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.maskA))
        r = A.shape[0]
        m = np.atleast_2d(np.asarray(self.maskB)).shape[1]
        p = np.atleast_2d(np.asarray(self.maskC)).shape[0]
        object.__setattr__(self, "maskA", _mask_array(self.maskA, (r, r), "maskA"))
        object.__setattr__(self, "maskB", _mask_array(self.maskB, (r, m), "maskB"))
        object.__setattr__(self, "maskC", _mask_array(self.maskC, (p, r), "maskC"))
        object.__setattr__(self, "maskD", _mask_array(self.maskD, (p, m), "maskD"))

    @classmethod
    def full(cls, r, m, p, free_d=True):
        """All entries free; set ``free_d=False`` to pin the feedthrough."""
        d = np.ones((p, m)) if free_d else np.zeros((p, m))
        return cls(np.ones((r, r)), np.ones((r, m)), np.ones((p, r)), d)

    def matches(self, model):
        return (
            self.maskA.shape == model.A.shape
            and self.maskB.shape == model.B.shape
            and self.maskC.shape == model.C.shape
            and self.maskD.shape == model.D.shape
        )


def limited_gramians(model, band):
    """Frequency-limited controllability and observability Gramians.

    Solves ``A P + P A' + S B B' + B B' S' = 0`` and its dual, where ``S``
    is the band-limiting matrix of ``A`` for ``band``.  For the band
    [0, inf) these reduce to the standard Gramians.  Both results are
    symmetrized before return.
    """
    band = as_band(band)
    A, B, C = model.A, model.B, model.C
    S = s_band(A, band)
    BBt = B @ B.T
    CtC = C.T @ C
    P = solve_lyapunov(A, S @ BBt + BBt @ S.T)
    Q = solve_lyapunov(A.T, S.T @ CtC + CtC @ S)
    return _sym(P), _sym(Q)


def h2w_norm_sq(model, band):
    """Squared band-limited H2 measure of a stable model.

    Equal to ``(1/2pi) * integral over the two-sided band of
    trace(G(i nu) G(i nu)^H)``.  With a bounded band the model may have a
    feedthrough term; a band reaching infinity requires ``D = 0``.
    """
    band = as_band(band)
    D = model.D
    has_d = bool(np.any(D))
    if has_d and not band.is_bounded:
        raise UnboundedBandWithFeedthrough(
            "the band-limited H2 measure over an unbounded band requires D = 0"
        )
    if model.nstates == 0:
        return 2.0 * band.theta * float(np.trace(D @ D.T)) if has_d else 0.0
    A, B, C = model.A, model.B, model.C
    S = s_band(A, band)
    BBt = B @ B.T
    P = _sym(solve_lyapunov(A, S @ BBt + BBt @ S.T))
    value = float(np.trace(C @ P @ C.T))
    if has_d:
        value += 2.0 * float(np.trace((C @ S @ B + band.theta * D) @ D.T))
    return value


@dataclass
class GradientWorkspace:
    """Solutions of the coupled equations behind one cost/gradient call.

    ``s_given``/``s_reduced`` are the band-limiting matrices of the full
    and reduced dynamics.  The limited blocks come from partitioning the
    error system's Gramians.  ``x_unlimited``/``p_unlimited`` are the
    standard-Gramian solutions that enter the gradient next to the
    logarithm sensitivity ``w_sens``.
    """

    band: FrequencyBand
    theta: float
    s_given: np.ndarray
    s_reduced: np.ndarray
    x_cross: np.ndarray
    y_cross: np.ndarray
    p_reduced: np.ndarray
    q_reduced: np.ndarray
    x_unlimited: np.ndarray = None
    p_unlimited: np.ndarray = None
    w_sens: np.ndarray = None


class _FixedSide:
    """Quantities depending only on the full model and the band, cached
    across optimizer iterations."""

    def __init__(self, model, band):
        band = as_band(band)
        _require_stable(model, "G")
        self.model = model
        self.band = band
        self.s = s_band(model.A, band) if model.nstates else np.zeros((0, 0))
        self.sb = self.s @ model.B
        self.cs = model.C @ self.s
        self._q = None
        self._p = None

    @property
    def q_gram(self):
        if self._q is None:
            A, C = self.model.A, self.model.C
            CtC = C.T @ C
            self._q = _sym(solve_lyapunov(A.T, self.s.T @ CtC + CtC @ self.s))
        return self._q

    @property
    def p_gram(self):
        if self._p is None:
            A, B = self.model.A, self.model.B
            BBt = B @ B.T
            self._p = _sym(solve_lyapunov(A, self.s @ BBt + BBt @ self.s.T))
        return self._p


def _require_stable(model, label):
    if model.nstates == 0:
        return
    ok, max_re = hurwitz_status(model.A)
    if not ok:
        raise NotHurwitz(f"{label} is not stable (max real eigenvalue {max_re:.3e})")


def _check_pair(g, ghat, band):
    if (g.ninputs, g.noutputs) != (ghat.ninputs, ghat.noutputs):
        raise DimensionMismatch(
            "G and Ghat must share input and output dimensions"
        )
    if not band.is_bounded and np.any(g.D != ghat.D):
        raise UnboundedBandWithFeedthrough(
            "a band reaching infinity requires Dhat = D so the error has no "
            "feedthrough"
        )


def _build_workspace(g, ghat, band, fixed=None, need_gradient=False):
    band = as_band(band)
    if fixed is None or fixed.model is not g or fixed.band != band:
        fixed = _FixedSide(g, band)
    _require_stable(ghat, "Ghat")
    _check_pair(g, ghat, band)

    A, B, C = g.A, g.B, g.C
    Ah, Bh, Ch = ghat.A, ghat.B, ghat.C
    r = ghat.nstates
    Sh = s_band(Ah, band) if r else np.zeros((0, 0))
    S = fixed.s

    X = solve_sylvester(A, Ah.T, fixed.sb @ Bh.T + (B @ Bh.T) @ Sh.T)
    Y = solve_sylvester(A.T, Ah, -(fixed.cs.T @ Ch + C.T @ (Ch @ Sh)))
    BhBh = Bh @ Bh.T
    ChCh = Ch.T @ Ch
    Ph = _sym(solve_lyapunov(Ah, Sh @ BhBh + BhBh @ Sh.T))
    Qh = _sym(solve_lyapunov(Ah.T, Sh.T @ ChCh + ChCh @ Sh))

    ws = GradientWorkspace(
        band=band,
        theta=band.theta,
        s_given=S,
        s_reduced=Sh,
        x_cross=X,
        y_cross=Y,
        p_reduced=Ph,
        q_reduced=Qh,
    )

    if need_gradient:
        Xu = solve_sylvester(A, Ah.T, B @ Bh.T)
        Pu = _sym(solve_lyapunov(Ah, BhBh))
        Dd = g.D - ghat.D
        V = ChCh @ Pu - Ch.T @ (C @ Xu) - Ch.T @ Dd @ Bh.T
        W = np.zeros((r, r))
        for sign, omega in _finite_endpoints(band):
            L = frechet_log(-Ah.T - 1j * omega * np.eye(r), V)
            W += sign * (1j / np.pi * L).real
        ws.x_unlimited = Xu
        ws.p_unlimited = Pu
        ws.w_sens = W
    return ws, fixed


def _finite_endpoints(band):
    """Signed finite nonzero endpoints of the band decomposition; the
    contributions of 0 (zero matrix) and inf (constant I/2) drop out of
    the derivative."""
    for lo, hi in band:
        if math.isfinite(hi) and hi > 0:
            yield 1.0, hi
        if lo > 0:
            yield -1.0, lo


def _d_term(g, ghat, ws):
    Dd = g.D - ghat.D
    if not np.any(Dd):
        return 0.0
    inner = (
        g.C @ ws.s_given @ g.B
        + ws.theta * g.D
        - ghat.C @ ws.s_reduced @ ghat.B
        - ws.theta * ghat.D
    )
    return 2.0 * float(np.trace(inner @ Dd.T))


def error_cost(g, ghat, band, drop_constant=False, form="B", _fixed=None):
    """Squared band-limited H2 norm of ``G - Ghat``.

    Parameters
    ----------
    g, ghat : StateSpaceModel
        Stable models with matching input/output dimensions.  ``ghat``
        may have zero states.
    band : FrequencyBand or iterable of (lo, hi)
    drop_constant : bool
        Omit the term that does not depend on ``ghat`` (the full model's
        Gramian energy).  The result then differs from the true squared
        norm by a constant, which is irrelevant inside an optimization
        loop and skips the most expensive solve.
    form : {"B", "C"}
        Assemble the value from the observability-side or the
        controllability-side partitioning.  Both agree to solver accuracy
        and exist mainly to cross-check each other.

    Returns
    -------
    float
    """
    ws, fixed = _build_workspace(g, ghat, band, fixed=_fixed)
    return _cost_from_workspace(g, ghat, ws, fixed, drop_constant, form)


def _cost_from_workspace(g, ghat, ws, fixed, drop_constant, form):
    B, C = g.B, g.C
    Bh, Ch = ghat.B, ghat.C
    if form == "B":
        value = 2.0 * float(np.trace(B.T @ ws.y_cross @ Bh))
        value += float(np.trace(Bh.T @ ws.q_reduced @ Bh))
        if not drop_constant:
            value += float(np.trace(B.T @ fixed.q_gram @ B))
    elif form == "C":
        value = -2.0 * float(np.trace(C @ ws.x_cross @ Ch.T))
        value += float(np.trace(Ch @ ws.p_reduced @ Ch.T))
        if not drop_constant:
            value += float(np.trace(C @ fixed.p_gram @ C.T))
    else:
        raise ValueError(f"form must be 'B' or 'C', got {form!r}")
    return value + _d_term(g, ghat, ws)


def error_gradient(g, ghat, band, mask=None, _fixed=None):
    """Gradient of :func:`error_cost` in the entries of the reduced model.

    Returns ``(dA, dB, dC, dD)`` with the structure mask applied
    elementwise, so pinned positions are exactly zero.  A band reaching
    infinity requires ``maskD`` to be all zero.
    """
    ws, fixed = _build_workspace(g, ghat, band, fixed=_fixed, need_gradient=True)
    if mask is None:
        mask = StructureMask.full(
            ghat.nstates, ghat.ninputs, ghat.noutputs, free_d=ws.band.is_bounded
        )
    return _gradient_from_workspace(g, ghat, ws, mask)


def _gradient_from_workspace(g, ghat, ws, mask):
    if not mask.matches(ghat):
        raise DimensionMismatch("mask shape does not match the reduced model")
    if not ws.band.is_bounded and np.any(mask.maskD):
        raise UnboundedBandWithFeedthrough(
            "Dhat cannot be free when the band reaches infinity"
        )
    B, C, D = g.B, g.C, g.D
    Bh, Ch, Dh = ghat.B, ghat.C, ghat.D
    Dd = D - Dh

    dA = 2.0 * (
        ws.y_cross.T @ ws.x_unlimited + ws.q_reduced @ ws.p_unlimited - ws.w_sens
    )
    dB = 2.0 * (
        ws.q_reduced @ Bh + ws.y_cross.T @ B - ws.s_reduced.T @ Ch.T @ Dd
    )
    dC = 2.0 * (
        Ch @ ws.p_reduced - C @ ws.x_cross - Dd @ Bh.T @ ws.s_reduced.T
    )
    if np.any(mask.maskD):
        dD = -2.0 * (
            C @ ws.s_given @ B
            + ws.theta * D
            - Ch @ ws.s_reduced @ Bh
            - ws.theta * Dh
            + ws.theta * Dd
        )
    else:
        dD = np.zeros_like(Dh)
    return dA * mask.maskA, dB * mask.maskB, dC * mask.maskC, dD * mask.maskD


def error_cost_and_gradient(g, ghat, band, mask=None, drop_constant=True,
                            form="B", _fixed=None):
    """Evaluate cost and gradient from one shared set of solves.

    This is the evaluation a quasi-Newton loop calls once per iterate; the
    constant term is dropped by default because it does not influence the
    optimization.
    """
    ws, fixed = _build_workspace(g, ghat, band, fixed=_fixed, need_gradient=True)
    if mask is None:
        mask = StructureMask.full(
            ghat.nstates, ghat.ninputs, ghat.noutputs, free_d=ws.band.is_bounded
        )
    cost = _cost_from_workspace(g, ghat, ws, fixed, drop_constant, form)
    grads = _gradient_from_workspace(g, ghat, ws, mask)
    return cost, grads


def _sigma_max(model, omega):
    resp = model.freq_response(omega)
    return float(np.linalg.svd(resp, compute_uv=False)[0])


def _band_grid(band, points, models):
    """Per-interval frequency grids of ``points`` points each: log-spaced
    when the interval starts above zero, linear from zero otherwise.  An
    interval reaching infinity is capped at ``1e4`` times the largest
    spectral radius of ``models`` (at least 1)."""
    rho = 1.0
    for model in models:
        if model.nstates:
            rho = max(rho, float(np.abs(np.linalg.eigvals(model.A)).max()))
    cap = 1e4 * rho
    grids = []
    for lo, hi in band:
        hi_eff = cap if math.isinf(hi) else hi
        if lo > 0.0:
            grids.append(np.geomspace(lo, hi_eff, points))
        else:
            grids.append(np.linspace(0.0, hi_eff, points))
    return grids


def _golden_max(fun, a, b, iters=80):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    return max(f1, f2)


def _grid_max(model, grids):
    best = -np.inf
    for grid in grids:
        vals = np.array([_sigma_max(model, w) for w in grid])
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        a = grid[max(k - 1, 0)]
        b = grid[min(k + 1, len(grid) - 1)]
        if b > a:
            best = max(best, _golden_max(lambda w: _sigma_max(model, w), a, b))
    return best


def hinf_w_relative(g, ghat, band, grid_density=2000):
    """Relative peak gain of the error over the band.

    Maximizes the largest singular value of ``G - Ghat`` over a dense grid
    per interval (log-spaced when the interval starts above zero, linear
    from zero otherwise), refines around the grid maximizer by golden
    section, and divides by the same quantity for ``G`` alone.  Intervals
    reaching infinity are capped at a multiple of the models' spectral
    radii.
    """
    band = as_band(band)
    if len(band) == 0 or band.measure == 0.0:
        raise EmptyBand("the band contains no interval of positive length")
    if (g.ninputs, g.noutputs) != (ghat.ninputs, ghat.noutputs):
        raise DimensionMismatch(
            "G and Ghat must share input and output dimensions"
        )
    err = error_system(g, ghat)
    grids = _band_grid(band, int(grid_density), (g, ghat))
    num = _grid_max(err, grids)
    den = _grid_max(g, grids)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
