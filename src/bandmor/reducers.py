"""Reduction methods and their evaluation.

Four ways to shrink a stable model to order ``r``:

* :func:`balanced_truncation` - square-root balancing of the standard
  Gramians (the classical, band-agnostic baseline),
* :func:`gawronski_reduce` - the same balancing applied to the
  frequency-limited Gramians; focuses on the band but may lose stability,
* :func:`modified_gawronski_reduce` - limited balancing with the
  indefinite Lyapunov right-hand sides floored to their nearest positive
  semidefinite parts, which restores the stability guarantee,
* :func:`h2w_optimize` - direct quasi-Newton minimization of the
  band-limited H2 error with the closed-form gradient, warm-started from
  one of the truncation methods and restricted to stable iterates by the
  line search.

:func:`evaluate` fills a :class:`ReductionReport` with the comparison
metrics used throughout.
"""

import time
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, svd

from .exceptions import (
    IndefiniteGramian,
    RankDeficientGramian,
    UnstableInit,
)
from .freqgram import (
    StructureMask,
    _BandSide,
    _build_workspace,
    _cost_from_workspace,
    _gradient_from_workspace,
    error_cost,
    h2w_norm_sq,
    hinf_w_relative,
    limited_gramians,
)
# not called here since the Gramians come from a model's cached Schur
# factor and its stability test is cached beside it, but the benchmark's
# traced run wraps this module's bindings of them
from .matfun import hurwitz_status, s_band, solve_lyapunov  # noqa: F401
from .matfun import _lyapunov_schur
from .ssmodel import FrequencyBand, StateSpaceModel, as_band

__all__ = [
    "OptimizerOptions",
    "ReductionReport",
    "balanced_truncation",
    "gawronski_reduce",
    "modified_gawronski_reduce",
    "h2w_optimize",
    "choose_init",
    "evaluate",
]


@dataclass
class OptimizerOptions:
    """Knobs of the quasi-Newton descent in :func:`h2w_optimize`."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    memory: int = 20
    contraction: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 60

    def __post_init__(self):
        for name in ("max_iterations", "gradient_tolerance", "memory",
                     "contraction", "sufficient_decrease", "max_backtracks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class ReductionReport:
    """Comparison metrics for one reduced model.

    The three norm-based fields are ``None`` when the reduced model is
    unstable (they do not exist then); ``max_real_eig`` is always filled.
    """

    method: str
    stable: bool
    max_real_eig: float
    h2w_error: float = None
    h2w_relative: float = None
    hinfw_relative: float = None
    iterations: int = None
    runtime_seconds: float = None
    status: str = ""


def _psd_factor(M, label):
    """Factor ``M = F F.T`` for a symmetric PSD matrix, flooring negative
    eigenvalues at zero."""
    w, V = eigh(0.5 * (M + M.T))
    wmax = float(w[-1]) if w.size else 0.0
    if wmax > 0 and float(w[0]) < -1e-8 * wmax:
        warnings.warn(
            f"{label} has a significantly negative eigenvalue "
            f"({w[0]:.3e}); flooring at zero",
            IndefiniteGramian,
            stacklevel=3,
        )
    w = np.clip(w, 0.0, None)
    return V * np.sqrt(w)


def _psd_clip(M):
    """Nearest positive semidefinite part of a symmetric matrix."""
    w, V = eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return (V * w) @ V.T


def _balance_truncate(model, P, Q, r):
    """Square-root balanced truncation given a Gramian pair."""
    n = model.nstates
    if not 1 <= r < n:
        raise ValueError(f"target order must satisfy 1 <= r < {n}, got {r}")
    R = _psd_factor(P, "controllability Gramian")
    L = _psd_factor(Q, "observability Gramian")
    U, s, Vt = svd(L.T @ R)
    smax = float(s[0]) if s.size else 0.0
    floor = max(smax, 1.0) * np.finfo(float).eps
    if s[r - 1] < smax * 1e-12:
        warnings.warn(
            "Hankel-type singular values are numerically rank deficient at "
            f"the requested order (sigma_{r} = {s[r - 1]:.3e}); balancing "
            "with floored values",
            RankDeficientGramian,
            stacklevel=3,
        )
    d = 1.0 / np.sqrt(np.maximum(s[:r], floor))
    T = (R @ Vt[:r].T) * d
    Ti = (U[:, :r] * d).T @ L.T
    return StateSpaceModel(Ti @ model.A @ T, Ti @ model.B, model.C @ T, model.D)


def balanced_truncation(model, r):
    """Classical square-root balanced truncation to order ``r``.

    Uses the standard (unlimited) Gramians, which are the limited ones of
    the band [0, inf); the result is stable and keeps the feedthrough of
    the input model.
    """
    side = _BandSide(model, FrequencyBand([(0.0, np.inf)]))
    return _balance_truncate(model, side.p, side.q, r)


def gawronski_reduce(model, r, band):
    """Balanced truncation on the frequency-limited Gramians.

    Concentrates the approximation on ``band`` but carries no stability
    guarantee; callers should check the result and fall back if needed.
    """
    P, Q = limited_gramians(model, band)
    return _balance_truncate(model, P, Q, r)


def modified_gawronski_reduce(model, r, band):
    """Stability-preserving variant of the band-limited truncation.

    The possibly indefinite right-hand sides of the limited Lyapunov
    equations are replaced by their nearest PSD parts before solving, so
    the balanced Gramians come from genuine Lyapunov equations and the
    truncation inherits the classical stability argument.  When the
    right-hand sides are already PSD this coincides with
    :func:`gawronski_reduce`.
    """
    side, f = _BandSide(model, as_band(band)), model.schur_factor
    P = _lyapunov_schur(f, _psd_clip(side.rhs("p")))
    Q = _lyapunov_schur(f, _psd_clip(side.rhs("q")), "C")
    return _balance_truncate(model, P, Q, r)


def choose_init(model, r, band):
    """Starting point for the optimization: the band-limited truncation
    when it happens to be stable, the classical one otherwise."""
    candidate = gawronski_reduce(model, r, band)
    if candidate.is_hurwitz()[0]:
        return candidate
    return balanced_truncation(model, r)


class _Parameterization:
    """Pack/unpack the masked free entries of a reduced realization."""

    def __init__(self, init, mask):
        self.free = [getattr(mask, "mask" + k).astype(bool) for k in "ABCD"]
        self.base = [getattr(init, k) for k in "ABCD"]

    def pack(self, mats):
        """Free entries of ``(A, B, C, D)`` or of a gradient tuple."""
        return np.concatenate([M[free] for M, free in zip(mats, self.free)])

    def unpack(self, x):
        mats = [base.copy() for base in self.base]
        splits = np.cumsum([free.sum() for free in self.free[:3]])
        for M, free, part in zip(mats, self.free, np.split(x, splits)):
            M[free] = part
        return StateSpaceModel(*mats)


class _LbfgsMemory:
    """Two-loop recursion over the most recent curvature pairs."""

    def __init__(self, memory):
        self.pairs = deque(maxlen=memory)

    def reset(self):
        self.pairs.clear()

    def push(self, s, y):
        sy = float(s @ y)
        if sy <= 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            return
        self.pairs.append((s, y, 1.0 / sy))

    def direction(self, grad):
        q = grad.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if self.pairs:
            s, y, _ = self.pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(self.pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return -q


def h2w_optimize(model, r, band, mask=None, init=None, opts=None,
                 callback=None):
    """Minimize the band-limited H2 error over the free entries of a
    reduced realization.

    Parameters
    ----------
    model : StateSpaceModel
        The stable full-order model.
    r : int
        Order of the reduced model (must match ``init`` when given).
    band : FrequencyBand or iterable of (lo, hi)
    mask : StructureMask, optional
        Which entries of ``(Ahat, Bhat, Chat, Dhat)`` may move.  By
        default all of ``Ahat, Bhat, Chat`` are free and the feedthrough
        stays pinned at its initial value (the truncation inits all carry
        ``Dhat = D``); pass a mask with ones in ``maskD`` to let a bounded
        band trade feedthrough against in-band fit.
    init : StateSpaceModel, optional
        Stable starting point; defaults to :func:`choose_init`.
    opts : OptimizerOptions, optional
    callback : callable, optional
        Called as ``callback(iteration, cost, grad_inf_norm)`` after every
        accepted step (the cost excludes the constant reference term).

    Returns
    -------
    (StateSpaceModel, ReductionReport)
        The optimized model and a report carrying iteration count,
        runtime, termination status, and the evaluation metrics.  Every
        accepted iterate is Hurwitz and the cost never increases; if the
        line search stalls the best iterate found so far is returned with
        ``status="line_search_failure"``.
    """
    t0 = time.perf_counter()
    band = as_band(band)
    opts = opts or OptimizerOptions()
    if init is None:
        init = choose_init(model, r, band)
    if init.nstates != r:
        raise ValueError(f"init has order {init.nstates}, expected {r}")
    if (init.ninputs, init.noutputs) != (model.ninputs, model.noutputs):
        raise ValueError("init must share the model's input/output dimensions")
    if mask is None:
        mask = StructureMask.full(r, model.ninputs, model.noutputs,
                                  free_d=False)
    if not init.is_hurwitz()[0]:
        raise UnstableInit("the initial reduced model must be stable")

    gside = _BandSide(model, band)
    params = _Parameterization(init, mask)

    def gradient(ws):
        return params.pack(_gradient_from_workspace(ws, mask))

    x = params.pack([init.A, init.B, init.C, init.D])
    ws = _build_workspace(gside, init, need_gradient=True)
    f = _cost_from_workspace(ws, True, "B")
    g = gradient(ws)
    memory = _LbfgsMemory(opts.memory)
    iterations = 0
    status = "iteration_cap"

    while True:
        if np.linalg.norm(g, np.inf) <= opts.gradient_tolerance:
            status = "gradient_tolerance"
            break
        if iterations >= opts.max_iterations:
            break
        p = memory.direction(g)
        slope = float(g @ p)
        if slope >= 0.0 or not np.isfinite(slope):
            memory.reset()
            p = -g
            slope = float(g @ p)

        # one workspace per stable trial; the accepted one also gives the
        # gradient
        alpha = 1.0
        for _ in range(opts.max_backtracks):
            x_trial = x + alpha * p
            ghat = params.unpack(x_trial)
            if ghat.is_hurwitz()[0]:
                trial = _build_workspace(gside, ghat)
                f_trial = _cost_from_workspace(trial, True, "B")
                if np.isfinite(f_trial) and (
                    f_trial <= f + opts.sufficient_decrease * alpha * slope
                ):
                    break
            alpha *= opts.contraction
        else:
            status = "line_search_failure"
            break

        g_trial = gradient(trial)
        memory.push(x_trial - x, g_trial - g)
        x, f, g, ws = x_trial, f_trial, g_trial, trial
        iterations += 1
        if callback is not None:
            callback(iterations, f, float(np.linalg.norm(g, np.inf)))

    current = ws.gh.model
    runtime = time.perf_counter() - t0
    report = evaluate(model, current, band, method="proposed")
    report.iterations = iterations
    report.runtime_seconds = runtime
    report.status = status
    return current, report


def evaluate(g, ghat, band, method=""):
    """Fill a :class:`ReductionReport` comparing ``ghat`` against ``g``.

    For an unstable reduced model the norm metrics are left empty; only
    the worst eigenvalue is reported.
    """
    band = as_band(band)
    stable, max_re = ghat.is_hurwitz()
    report = ReductionReport(method=method, stable=stable, max_real_eig=max_re)
    if not stable:
        return report
    err_sq = max(error_cost(g, ghat, band), 0.0)
    ref_sq = max(h2w_norm_sq(g, band), 0.0)
    report.h2w_error = float(np.sqrt(err_sq))
    if ref_sq > 0.0:
        report.h2w_relative = report.h2w_error / float(np.sqrt(ref_sq))
    report.hinfw_relative = hinf_w_relative(g, ghat, band)
    return report
