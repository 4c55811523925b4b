"""Output checks against independent oracles.

Every reduced model a workload produces is checked here, never against
recorded outputs:

* the methods that promise stability (``hankel``, ``modgawronski``,
  ``proposed``) must return a Hurwitz ``Ahat``; plain ``gawronski`` may
  not, and then its norms must be empty (``--`` in ``metrics.csv``),
* the ``proposed`` cost must not increase over the iterations,
* ``h2w_error**2`` must match :func:`_oracles.h2w_quadrature` of the error
  within ``max(1e-6 * q, H2_ABS_EPS * eps * ref**2)``,
* ``hinfw_relative`` must match a dense peak search to ``1e-6``.

Three known defects of the program would fail these on inputs the
workloads contain.  They are counted instead, each by a rule that still
fails a value the defect cannot explain: errors below the cancellation
floor, reduced poles next to the imaginary axis, and peaks missed by the
package's grid (see the constants below).

The oracles evaluate transfer functions from an eigendecomposition
(:class:`ModalResponse`), not from the package's LU-based
``freq_response``, so they share no solution path with the code under
test and stay cheap at ``n = 150``.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.optimize import minimize_scalar

from _oracles import h2w_quadrature

EPS = np.finfo(float).eps

# Absolute part of the h2w tolerance, in units of eps * ref**2.  The
# package assembles err**2 as |G|**2 - 2<G,Ghat> + |Ghat|**2, so its
# rounding error scales with ref**2, not with err**2; this term lets a
# correct-to-working-precision value pass when err/ref is tiny (the
# "floor" jobs counted below).
H2_ABS_EPS = 1e4
# Relative agreement demanded of h2w_error**2 and hinfw_relative.
REL_TOL = 1e-6
# Absolute part of the peak tolerance, in units of eps (hinfw_relative is
# already normalized by the model's own peak).
PEAK_ABS_EPS = 1e4
# A job is a floor job when err/ref is below this: there the three-term
# assembly has no correct digits left (ROADMAP open item 3).
FLOOR_REL = 1e-6
# A second known defect: when a reduced pole sits within this distance of
# the imaginary axis (relative to 1 + its spectral radius), the Gramians
# behind the cost are nearly singular and h2w_error loses digits even
# though the band error itself is well conditioned.  The optimizer can
# drive out-of-band poles there.  Such jobs are counted apart and held to
# NEAR_AXIS_REL instead of REL_TOL.
NEAR_AXIS = 1e-8
NEAR_AXIS_REL = 1e-3
# The known peak-gain defect (ROADMAP open item 3): hinf_w_relative takes
# the best of a documented PACKAGE_GRID-point grid per interval and refines
# only around it, so each of its two peaks lies between that grid's
# maximum and the true one.  A value off the true ratio but inside the
# range this allows is counted as a missed peak instead of failing.
PACKAGE_GRID = 2000
# Grid points per interval of the dense peak search (linear and log each).
PEAK_GRID = 20001
# Stable methods by contract; plain "gawronski" carries no guarantee.
STABLE_METHODS = ("hankel", "modgawronski", "proposed")


class ModalResponse:
    """Transfer matrix of ``G - Ghat`` (or of ``G`` alone) evaluated from
    eigendecompositions, vectorized over frequency."""

    def __init__(self, g, ghat=None):
        self.parts = [(self._modal(g), 1.0)]
        self.D = np.asarray(g.D, dtype=float)
        if ghat is not None:
            self.parts.append((self._modal(ghat), -1.0))
            self.D = self.D - ghat.D
        self.poles = np.concatenate([lam for (lam, _, _), _ in self.parts])

    @staticmethod
    def _modal(model):
        lam, V = np.linalg.eig(model.A)
        return lam, model.C @ V, np.linalg.solve(V, model.B)

    def many(self, omegas):
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        out = np.broadcast_to(self.D, (omegas.size,) + self.D.shape)
        out = out.astype(complex)
        for (lam, CV, WB), sign in self.parts:
            if lam.size:
                d = 1.0 / (1j * omegas[:, None] - lam[None, :])
                out += sign * np.einsum("pk,wk,km->wpm", CV, d, WB)
        return out

    def freq_response(self, omega):
        return self.many([omega])[0]

    def sigma_max(self, omegas):
        return np.linalg.svd(self.many(omegas), compute_uv=False)[:, 0]


def quadrature_sq(resp, band):
    """Squared band H2 measure by adaptive quadrature (tests/_oracles)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return h2w_quadrature(resp, band)


def peak_gain(resp, band, cap):
    """Largest singular value over the band: dense linear and log grids
    plus every pole frequency, then bounded refinement around the best
    grid points."""
    best = 0.0
    for lo, hi in band:
        hi = min(hi, cap)
        pts = [np.linspace(lo, hi, PEAK_GRID),
               np.geomspace(max(lo, hi * 1e-9), hi, PEAK_GRID)]
        w = np.abs(resp.poles.imag)
        pts.append(w[(w >= lo) & (w <= hi)])
        grid = np.unique(np.concatenate(pts))
        vals = resp.sigma_max(grid)
        best = max(best, float(vals.max()))
        for k in np.argsort(vals)[-8:]:
            a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
            if b > a:
                res = minimize_scalar(
                    lambda x: -resp.sigma_max([x])[0], bounds=(a, b),
                    method="bounded", options={"xatol": 1e-13 * max(1.0, b)},
                )
                best = max(best, -float(res.fun))
    return best


def band_grid(band, points, cap):
    """The package's documented frequency grid (its peak search and its
    response CSVs): ``points`` per interval, log-spaced when the interval
    starts above zero, linear from zero otherwise, stopping at ``cap``
    when the interval reaches infinity."""
    pieces = []
    for lo, hi in band:
        hi = min(hi, cap)
        pieces.append(np.geomspace(lo, hi, points) if lo > 0
                      else np.linspace(0.0, hi, points))
    return np.unique(np.concatenate(pieces))


def spectral_cap(*models):
    """Upper frequency used for intervals reaching infinity: the same
    ``1e4 * max(1, spectral radius)`` the documented peak metric uses."""
    rho = 1.0
    for model in models:
        if model.nstates:
            rho = max(rho, float(np.abs(np.linalg.eigvals(model.A)).max()))
    return 1e4 * rho


@dataclass
class Output:
    """One reduced model produced by a job, with what the job reported."""

    method: str
    g: object
    ghat: object
    band: object
    report: object
    costs: list = None
    seconds: float = 0.0
    label: str = ""
    problems: list = field(default_factory=list)

    @classmethod
    def failed(cls, method, g, band, label, reason):
        """A job that returned no model."""
        return cls(method, g, None, band, None, label=label,
                   problems=[reason])


class Checker:
    """Checks outputs and counts, over the stable outputs it checks, the
    floor, near-axis and missed-peak jobs described above.

    Reference quantities of a ``(model, band)`` pair are computed once and
    reused for every method reduced from it.
    """

    def __init__(self):
        self._refs = {}
        self.stable_checked = 0
        self.floor_jobs = 0
        self.near_axis_jobs = 0
        self.missed_peak_jobs = 0

    def _ref(self, g, band):
        key = (id(g), tuple(band))
        if key not in self._refs:
            # keep g alive so its id cannot be reused by another model
            self._refs[key] = (g, quadrature_sq(ModalResponse(g), band))
        return self._refs[key][1]

    def problems(self, out):
        """List of reasons ``out`` is wrong (empty when correct)."""
        rep, ghat, g, band = out.report, out.ghat, out.g, out.band
        if ghat is None:
            return []
        found = []
        eigs = np.linalg.eigvals(ghat.A)
        max_re = float(eigs.real.max())
        rho = float(np.abs(eigs).max())
        if abs(rep.max_real_eig - max_re) > 1e-9 * (1.0 + rho):
            found.append(f"max_real_eig {rep.max_real_eig!r} != {max_re!r}")
        if out.method in STABLE_METHODS and not (rep.stable and max_re < 0):
            found.append(f"{out.method} returned an unstable model "
                         f"(max real eigenvalue {max_re:.3e})")
        if not rep.stable:
            if max_re < -1e-10 * (1.0 + rho):
                found.append("reported unstable but Ahat is Hurwitz")
            if any(v is not None for v in (rep.h2w_error, rep.h2w_relative,
                                           rep.hinfw_relative)):
                found.append("unstable model reported with norms")
            return found

        ref_sq = self._ref(g, band)
        found += self._h2w_problems(out, ref_sq,
                                    -NEAR_AXIS * (1.0 + rho) < max_re < 0.0)
        found += self._peak_problems(out)
        if out.costs:
            slack = H2_ABS_EPS * EPS * ref_sq
            for i, (a, b) in enumerate(zip(out.costs, out.costs[1:])):
                if b > a + slack:
                    found.append(f"cost rose at iteration {i + 2}: "
                                 f"{a:.12e} -> {b:.12e}")
                    break
        return found

    def _h2w_problems(self, out, ref_sq, near_axis):
        rep = out.report
        err_sq = quadrature_sq(ModalResponse(out.g, out.ghat), out.band)
        got_sq = rep.h2w_error ** 2
        tol = max((NEAR_AXIS_REL if near_axis else REL_TOL) * err_sq,
                  H2_ABS_EPS * EPS * ref_sq)
        self.stable_checked += 1
        self.floor_jobs += err_sq < FLOOR_REL ** 2 * ref_sq
        self.near_axis_jobs += near_axis
        found = []
        if not abs(got_sq - err_sq) <= tol:
            found.append(f"h2w_error**2 {got_sq:.6e} vs quadrature "
                         f"{err_sq:.6e} (tolerance {tol:.1e})")
        if rep.h2w_relative is not None and rep.h2w_error > 0:
            want = rep.h2w_error / math.sqrt(ref_sq)
            if not abs(rep.h2w_relative - want) <= REL_TOL * want:
                found.append(f"h2w_relative {rep.h2w_relative:.9e} vs "
                             f"{want:.9e}")
        return found

    def _peak_problems(self, out):
        cap = spectral_cap(out.g, out.ghat)
        err = ModalResponse(out.g, out.ghat)
        given = ModalResponse(out.g)
        peak, den = peak_gain(err, out.band, cap), peak_gain(given, out.band,
                                                             cap)
        want = peak / den
        got = out.report.hinfw_relative
        slack = REL_TOL * want + PEAK_ABS_EPS * EPS
        if abs(got - want) <= slack:
            return []
        grid = band_grid(out.band, PACKAGE_GRID, cap)
        lo = float(err.sigma_max(grid).max()) / den
        hi = peak / float(given.sigma_max(grid).max())
        if lo * (1 - REL_TOL) - slack <= got <= hi * (1 + REL_TOL) + slack:
            self.missed_peak_jobs += 1
            return []
        return [f"hinfw_relative {got:.9e} vs dense peak {want:.9e}, "
                f"outside the grid-miss range [{lo:.6e}, {hi:.6e}]"]

    def check(self, out):
        """Check one output; add and return the problems found."""
        try:
            found = self.problems(out)
        except Exception as exc:  # a check that crashes fails the output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        out.problems.extend(found)
        return found


def tally(outputs):
    """``(attempted, failed outputs, fail share)`` over a list of outputs."""
    failed = [out for out in outputs if out.problems]
    return len(outputs), failed, len(failed) / len(outputs)


def same_output(a, b):
    """True when two runs of one job returned bit-identical results."""
    if a.ghat is None or b.ghat is None:
        return False
    ra, rb = a.report, b.report
    fields = ("stable", "max_real_eig", "h2w_error", "h2w_relative",
              "hinfw_relative", "iterations")
    return (all(np.array_equal(getattr(a.ghat, m), getattr(b.ghat, m))
                for m in "ABCD")
            and all(getattr(ra, f) == getattr(rb, f) for f in fields)
            and a.costs == b.costs)
