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
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatch, EmptyBand, UnboundedBandWithFeedthrough
from .matfun import (_finite_endpoints, _lyapunov_schur, _require_hurwitz,
                     _s_band_schur, _sylvester_schur, frechet_log)
# not called here since every solve takes a model's cached Schur factor,
# but the benchmark's traced run wraps this module's bindings of them
from .matfun import hurwitz_status, s_band  # noqa: F401
from .matfun import solve_lyapunov, solve_sylvester  # noqa: F401
from .ssmodel import as_band

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


# Bands per model whose quantities stay cached; one ``bandmor reduce`` run
# uses two on the full model, its band and [0, inf)
_CACHED_BANDS = 4


class _BandSide:
    """A stable model's quantities on a band, for the full model G and the
    reduced model Ghat alike: the band-limiting matrix ``s`` of its
    dynamics and the frequency-limited Gramians ``p`` and ``q``, all from
    the model's one Schur factor.  Each is solved on first use and kept,
    read-only, in the model's cache beside that factor, so one model on one
    band solves each once while the band is among its ``_CACHED_BANDS``
    most recently used.  An unstable model raises :class:`NotHurwitz`."""

    def __init__(self, model, band):
        self.model = model
        self.band = band
        self.s = self._cached("s")

    p = property(lambda self: self._cached("p"))
    q = property(lambda self: self._cached("q"))

    def _cached(self, name):
        cache = self.model._band_cache
        entry = cache.pop(self.band, {})
        if name not in entry:
            entry[name] = self._solve(name)
            entry[name].flags.writeable = False
        cache[self.band] = entry
        if len(cache) > _CACHED_BANDS:
            del cache[next(iter(cache))]
        return entry[name]

    def _solve(self, name):
        if name == "s":
            _require_hurwitz(self.model.is_hurwitz())
            return _s_band_schur(self.model.schur_factor, self.band)
        trans = "N" if name == "p" else "C"
        return _sym(_lyapunov_schur(self.model.schur_factor, self.rhs(name),
                                    trans))

    def rhs(self, name):
        """Right-hand side ``W`` of the Lyapunov equation of ``p``
        (``S B B' + B B' S'``) or ``q`` (``S' C' C + C' C S``)."""
        S = self.s
        if name == "p":
            BBt = self.model.B @ self.model.B.T
            return S @ BBt + BBt @ S.T
        CtC = self.model.C.T @ self.model.C
        return S.T @ CtC + CtC @ S


def limited_gramians(model, band):
    """Frequency-limited controllability and observability Gramians.

    Solves ``A P + P A' + S B B' + B B' S' = 0`` and its dual, where ``S``
    is the band-limiting matrix of ``A`` for ``band``.  For the band
    [0, inf) these reduce to the standard Gramians.  Both results are
    symmetrized, computed once per model and band, and returned read-only.
    """
    side = _BandSide(model, as_band(band))
    return side.p, side.q


def h2w_norm_sq(model, band):
    """Squared band-limited H2 measure of a stable model.

    Equal to ``(1/2pi) * integral over the two-sided band of
    trace(G(i nu) G(i nu)^H)``.  With a bounded band the model may have a
    feedthrough term; a band reaching infinity requires ``D = 0``.  The
    band-limiting matrix and Gramian it takes are the model's cached ones
    (see :func:`limited_gramians`).
    """
    side = _BandSide(model, as_band(band))
    band, B, C, D = side.band, model.B, model.C, model.D
    has_d = bool(np.any(D))
    if has_d and not band.is_bounded:
        raise UnboundedBandWithFeedthrough(
            "the band-limited H2 measure over an unbounded band requires "
            "D = 0"
        )
    value = float(np.trace(C @ side.p @ C.T))
    if has_d:
        value += 2.0 * float(np.trace((C @ side.s @ B + band.theta * D) @ D.T))
    return value


@dataclass(frozen=True, eq=False)
class _Workspace:
    """The solves one iterate shares between cost and gradient: the band
    sides of G and Ghat and the cross Sylvester solution ``y``.  The cross
    solution ``x`` and the gradient's own solves follow on first use."""

    g: _BandSide
    gh: _BandSide
    y: np.ndarray

    @cached_property
    def x(self):
        """``X`` of ``A X + X Ah.T + F = 0``, read by the gradient and by
        the form-"C" cost only."""
        B, Bh = self.g.model.B, self.gh.model.B
        F = self.g.s @ B @ Bh.T + (B @ Bh.T) @ self.gh.s.T
        return _sylvester_schur(self.g.model.schur_factor,
                                self.gh.model.schur_factor, F, tranb="C")

    @cached_property
    def gradient_solves(self):
        """``(Xu, Pu, W)``: the standard cross solution, Ghat's standard
        Gramian and the sum of one Frechet derivative of the logarithm per
        finite band endpoint."""
        g, gh, band = self.g.model, self.gh.model, self.g.band
        B, C = g.B, g.C
        Ah, Bh, Ch = gh.A, gh.B, gh.C
        r = gh.nstates
        Dd = g.D - gh.D

        Xu = _sylvester_schur(g.schur_factor, gh.schur_factor, B @ Bh.T,
                              tranb="C")
        Pu = _sym(_lyapunov_schur(gh.schur_factor, Bh @ Bh.T))
        V = Ch.T @ Ch @ Pu - Ch.T @ (C @ Xu) - Ch.T @ Dd @ Bh.T
        W = np.zeros((r, r))
        for sign, omega in _finite_endpoints(band):
            L = frechet_log(-Ah.T - 1j * omega * np.eye(r), V)
            W += sign * (1j / np.pi * L).real
        return Xu, Pu, W


def _check_dims(g, ghat):
    if (g.ninputs, g.noutputs) != (ghat.ninputs, ghat.noutputs):
        raise DimensionMismatch(
            "G and Ghat must share input and output dimensions"
        )


def _check_pair(g, ghat, band):
    _check_dims(g, ghat)
    if not band.is_bounded and np.any(g.D != ghat.D):
        raise UnboundedBandWithFeedthrough(
            "a band reaching infinity requires Dhat = D so the error has no "
            "feedthrough"
        )


def _build_workspace(gside, ghat, need_gradient=False):
    """Workspace of ``ghat`` against the full model's side ``gside``.  With
    ``need_gradient`` ``x`` and the gradient's own solves are done now
    rather than on first use."""
    band = gside.band
    _check_pair(gside.model, ghat, band)
    ghside = _BandSide(ghat, band)
    C, Ch = gside.model.C, ghat.C
    S, Sh = gside.s, ghside.s
    # A.T Y + Y Ah + F = 0 from the factors of A and Ah: the transpose is
    # a flag of the triangular solve, as is Ah.T in the lazy X
    Y = _sylvester_schur(gside.model.schur_factor, ghat.schur_factor,
                         -((C @ S).T @ Ch + C.T @ (Ch @ Sh)), trana="C")
    ws = _Workspace(gside, ghside, Y)
    if need_gradient:
        ws.x, ws.gradient_solves
    return ws


def _d_inner(ws):
    """``C S B + theta D - Ch Sh Bh - theta Dh``: the feedthrough's
    coupling to the band, shared by the cost and the ``Dhat`` gradient."""
    g, gh, theta = ws.g.model, ws.gh.model, ws.g.band.theta
    return (
        g.C @ ws.g.s @ g.B
        + theta * g.D
        - gh.C @ ws.gh.s @ gh.B
        - theta * gh.D
    )


def error_cost(g, ghat, band, drop_constant=False, form="B"):
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
    ws = _build_workspace(_BandSide(g, as_band(band)), ghat)
    return _cost_from_workspace(ws, drop_constant, form)


def _cost_from_workspace(ws, drop_constant, form):
    B, C = ws.g.model.B, ws.g.model.C
    Bh, Ch = ws.gh.model.B, ws.gh.model.C
    if form == "B":
        value = 2.0 * float(np.trace(B.T @ ws.y @ Bh))
        value += float(np.trace(Bh.T @ ws.gh.q @ Bh))
        if not drop_constant:
            value += float(np.trace(B.T @ ws.g.q @ B))
    elif form == "C":
        value = -2.0 * float(np.trace(C @ ws.x @ Ch.T))
        value += float(np.trace(Ch @ ws.gh.p @ Ch.T))
        if not drop_constant:
            value += float(np.trace(C @ ws.g.p @ C.T))
    else:
        raise ValueError(f"form must be 'B' or 'C', got {form!r}")
    Dd = ws.g.model.D - ws.gh.model.D
    if np.any(Dd):
        value += 2.0 * float(np.trace(_d_inner(ws) @ Dd.T))
    return value


def error_gradient(g, ghat, band, mask=None):
    """Gradient of :func:`error_cost` in the entries of the reduced model.

    Returns ``(dA, dB, dC, dD)`` with the structure mask applied
    elementwise, so pinned positions are exactly zero.  A band reaching
    infinity requires ``maskD`` to be all zero.
    """
    return error_cost_and_gradient(g, ghat, band, mask)[1]


def _gradient_from_workspace(ws, mask):
    """The masked gradient from a workspace and its gradient solves."""
    g, gh, band = ws.g.model, ws.gh.model, ws.g.band
    if not mask.matches(gh):
        raise DimensionMismatch("mask shape does not match the reduced model")
    if not band.is_bounded and np.any(mask.maskD):
        raise UnboundedBandWithFeedthrough(
            "Dhat cannot be free when the band reaches infinity"
        )
    B, C = g.B, g.C
    Bh, Ch = gh.B, gh.C
    Sh, Ph, Qh = ws.gh.s, ws.gh.p, ws.gh.q
    Xu, Pu, W = ws.gradient_solves
    Dd = g.D - gh.D

    dA = 2.0 * (ws.y.T @ Xu + Qh @ Pu - W)
    dB = 2.0 * (Qh @ Bh + ws.y.T @ B - Sh.T @ Ch.T @ Dd)
    dC = 2.0 * (Ch @ Ph - C @ ws.x - Dd @ Bh.T @ Sh.T)
    if np.any(mask.maskD):
        dD = -2.0 * (_d_inner(ws) + band.theta * Dd)
    else:
        dD = np.zeros_like(gh.D)
    return dA * mask.maskA, dB * mask.maskB, dC * mask.maskC, dD * mask.maskD


def error_cost_and_gradient(g, ghat, band, mask=None, drop_constant=True,
                            form="B"):
    """Evaluate cost and gradient from one shared set of solves.

    This is the evaluation a quasi-Newton loop calls once per iterate; the
    constant term is dropped by default because it does not influence the
    optimization.
    """
    band = as_band(band)
    ws = _build_workspace(_BandSide(g, band), ghat, need_gradient=True)
    if mask is None:
        mask = StructureMask.full(
            ghat.nstates, ghat.ninputs, ghat.noutputs, free_d=band.is_bounded
        )
    cost = _cost_from_workspace(ws, drop_constant, form)
    return cost, _gradient_from_workspace(ws, mask)


def _band_grid(band, points, models):
    """Per-interval frequency grids of ``points`` points each: log-spaced
    when the interval starts above zero, linear from zero otherwise.  An
    interval ``[lo, inf)`` is capped at ``1e4`` times the largest spectral
    radius of ``models`` (at least 1), read from the diagonals of their
    Schur factors, or at ``1e4 lo`` when that cap does not lie above
    ``lo``."""
    grids = []
    for lo, hi in band:
        if math.isinf(hi):
            hi = 1e4 * max(np.abs(np.diag(model.schur_factor.T)).max(
                initial=1.0) for model in models)
            hi = hi if hi > lo else 1e4 * lo
        if lo > 0.0:
            grids.append(np.geomspace(lo, hi, points))
        else:
            grids.append(np.linspace(0.0, hi, points))
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


def _grid_max(response, grid, values):
    """Largest singular value of ``response(omega)`` on one grid, given its
    ``values`` there: the grid maximum, refined by golden section around
    its maximizer with one scalar ``response`` call per point."""
    def sigma_max(H):
        return np.linalg.svd(H, compute_uv=False)[..., 0]

    vals = sigma_max(values)
    k = int(np.argmax(vals))
    best = float(vals[k])
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    if b > a:
        best = max(best, _golden_max(lambda w: float(sigma_max(response(w))),
                                     a, b))
    return best


def hinf_w_relative(g, ghat, band, grid_density=2000):
    """Relative peak gain of the error over the band.

    Maximizes the largest singular value of ``G - Ghat`` over a dense grid
    per interval (log-spaced when the interval starts above zero, linear
    from zero otherwise), refines around the grid maximizer by golden
    section, and divides by the same quantity for ``G`` alone.  Intervals
    reaching infinity are capped at a multiple of the models' spectral
    radii, or of their start when that is larger.  Each model's response
    is evaluated once per interval on the whole grid from its cached Schur
    factor; ``G``'s serves both the error and the denominator.
    """
    band = as_band(band)
    if len(band) == 0 or band.measure == 0.0:
        raise EmptyBand("the band contains no interval of positive length")
    _check_dims(g, ghat)
    num = den = -math.inf
    for grid in _band_grid(band, int(grid_density), (g, ghat)):
        g_grid = g.freq_response(grid)
        num = max(num, _grid_max(
            lambda w: g.freq_response(w) - ghat.freq_response(w), grid,
            g_grid - ghat.freq_response(grid)))
        den = max(den, _grid_max(g.freq_response, grid, g_grid))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
