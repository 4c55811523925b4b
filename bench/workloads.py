"""The three workloads: their inputs, warm-up job and job list.

Each workload poses a fixed set of reduction problems, drawn once from
``DESIGN_SEED`` with the ``tests/_oracles.py`` generators.  The run's
``--seed`` flips the signs of a random subset of every model's state
coordinates (a similarity by ``diag(+-1)``): each seed hands the program
different matrices for the same transfer functions, with floating-point
work that differs only in signs.  A problem then costs the same work on
every seed, which runs of one or two passes need.  Seeds that change
more do not give steady runs: with a fresh n = 150 model per seed, 20
optimizer iterations took 24 to 66 line-search trials; with a random
orthogonal change of coordinates, one small cli-sweep problem ran the
optimizer to its 500-iteration cap (79 s) where other seeds stopped
after 40.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import bandmor.cli
import bandmor.reducers
from bandmor import (FrequencyBand, OptimizerOptions, StateSpaceModel,
                     error_cost_and_gradient, error_system, write_model)

from _oracles import rand_model, rand_resonant_model
from check import ModalResponse, Output, band_grid, spectral_cap

DESIGN_SEED = 2024
BAND_150 = FrequencyBand([(0.0, 1.7)])
# cli-sweep: problems after the shipped model, cycling through the band kinds
SWEEP_PROBLEMS = 4
BAND_KINDS = ("lowpass", "bandpass", "two-interval", "semi-infinite")
# the CLI's default --respgrid, which cli-sweep keeps
RESPGRID = 400
# truncate-150: (method, order) jobs; proposed-150: order and iteration budget
TRUNCATE_JOBS = (("hankel", 6), ("gawronski", 10), ("modgawronski", 14))
PROPOSED_ORDER = 10
PROPOSED_ITERATIONS = 20
TRUNCATORS = {"hankel": "balanced_truncation",
              "gawronski": "gawronski_reduce",
              "modgawronski": "modified_gawronski_reduce"}


def flip_signs(model, rng):
    """The same transfer function with a random subset of its state
    coordinates negated."""
    s = rng.choice([-1.0, 1.0], size=model.nstates)
    return StateSpaceModel(model.A * s[:, None] * s, model.B * s[:, None],
                           model.C * s, model.D)


def band_spec(band):
    return ",".join(f"{lo!r}:{'inf' if math.isinf(hi) else repr(hi)}"
                    for lo, hi in band)


def sweep_design():
    """``(model, order, band)`` problems in the style of acceptance
    criterion 2 (n in 4..12, m and p in 1..2, half resonant), then one
    that sits on the small-error floor."""
    rng = np.random.default_rng(DESIGN_SEED)
    out = []
    for k in range(SWEEP_PROBLEMS):
        n = int(rng.integers(4, 13))
        m, p = (int(v) for v in rng.integers(1, 3, size=2))
        g = (rand_resonant_model(rng, n, m, p) if k % 2
             else rand_model(rng, n, m, p))
        r = int(rng.integers(1, n))
        lo = float(rng.uniform(0.2, 2.0))
        hi = lo + float(rng.uniform(0.3, 3.0))
        kind = BAND_KINDS[k % len(BAND_KINDS)]
        band = {"lowpass": [(0.0, hi)],
                "bandpass": [(lo, hi)],
                "two-interval": [(lo, hi), (hi + 0.5, hi + 2.0)],
                "semi-infinite": [(lo, math.inf)]}[kind]
        out.append((g, r, FrequencyBand(band)))
    # ROADMAP open item 3's case of the small-error defect: a diagonal
    # model reduced almost to its own order, where every method's true
    # error lies far below what the cost assembly can resolve
    g = StateSpaceModel(np.diag(-np.linspace(0.5, 6.0, 12)),
                        rng.standard_normal((12, 2)),
                        rng.standard_normal((2, 12)), np.zeros((2, 2)))
    out.append((g, 9, FrequencyBand([(0.0, 5.0)])))
    return out


def model_150():
    return rand_resonant_model(np.random.default_rng(DESIGN_SEED), 150, 2, 2)


@contextmanager
def captured_cli(records):
    """Record what ``cli.main`` computes, through its own bindings of
    ``evaluate`` and ``h2w_optimize``; the optimizer also gets a callback
    so its cost history can be checked."""
    cli = bandmor.cli
    evaluate, optimize = cli.evaluate, cli.h2w_optimize

    def capture_evaluate(g, ghat, band, method=""):
        report = evaluate(g, ghat, band, method=method)
        records.append((method, ghat, report, None))
        return report

    def capture_optimize(model, r, band, **kwargs):
        costs = []
        kwargs["callback"] = lambda i, cost, gnorm: costs.append(cost)
        ghat, report = optimize(model, r, band, **kwargs)
        records.append(("proposed", ghat, report, costs))
        return ghat, report

    cli.evaluate, cli.h2w_optimize = capture_evaluate, capture_optimize
    try:
        yield records
    finally:
        cli.evaluate, cli.h2w_optimize = evaluate, optimize


class CliSweep:
    """``bandmor reduce`` with all four methods and the default response
    grid, on the shipped two-mode model and on small seeded models."""

    name = "cli-sweep"

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir

    def setup(self, seed):
        self.calls = []
        shipped = self.root / "models" / "two_mode_series.json"
        problems = [(bandmor.read_model(shipped), 2,
                     FrequencyBand([(0.0, 1.7)]), shipped)]
        for k, (g, r, band) in enumerate(sweep_design()):
            g = flip_signs(g, np.random.default_rng([seed, k]))
            path = self.workdir / f"model_{k:02d}.json"
            write_model(g, path)
            problems.append((g, r, band, path))
        for k, (g, r, band, path) in enumerate(problems):
            self.calls.append({"g": g, "band": band, "argv": [
                "reduce", "--model", str(path), "--order", str(r),
                "--band", band_spec(band),
                "--out-dir", str(self.workdir / f"out_{k:02d}")]})

    def warmup(self):
        argv = list(self.calls[0]["argv"])
        argv[-1] = str(self.workdir / "warmup")
        with captured_cli([]):
            bandmor.cli.main(argv)

    def run_pass(self, span):
        outputs = []
        for call in self.calls:
            records, reason = [], "no result"
            call["code"] = None
            try:
                with captured_cli(records), span("cli.main"):
                    call["code"] = bandmor.cli.main(call["argv"])
            except Exception as exc:  # counted as failed jobs, run goes on
                reason = f"raised {type(exc).__name__}: {exc}"
            if call["code"] not in (None, 0, 2):
                reason = f"exit code {call['code']}"
            label = Path(call["argv"][2]).name
            outs = [Output(method, call["g"], ghat, call["band"], report,
                           costs, report.runtime_seconds, label)
                    for method, ghat, report, costs in records]
            done = {out.method for out in outs}
            outs += [Output.failed(method, call["g"], call["band"], label,
                                   reason)
                     for method in bandmor.cli.METHODS if method not in done]
            call["outputs"] = outs
            outputs.extend(outs)
        return outputs

    def verify_files(self):
        """Check exit codes and the files each call wrote; problems are
        attached to the outputs they concern."""
        for call in self.calls:
            outs = call["outputs"]
            if call["code"] not in (0, 2):
                continue
            want = 2 if any(not o.report.stable for o in outs) else 0
            if call["code"] != want:
                for o in outs:
                    o.problems.append(f"exit code {call['code']}, want {want}")
            out_dir = Path(call["argv"][-1])
            _verify_metrics(out_dir / "metrics.csv", outs)
            for o in outs:
                _verify_model(out_dir / f"model_{o.method}.json", o)
            _verify_responses(out_dir, call["g"], call["band"], outs)


def _fmt(x):
    return f"{x:.5e}"


def _verify_metrics(path, outs):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["method", "h2w_error", "h2w_relative", "hinfw_relative",
                     "max_real_eig", "iterations", "runtime_seconds"]]:
        for o in outs:
            o.problems.append("metrics.csv header differs")
        return
    for o, row in zip(outs, rows[1:] + [None] * len(outs)):
        rep = o.report
        want = [o.method] + [
            "--" if v is None else _fmt(v)
            for v in (rep.h2w_error, rep.h2w_relative, rep.hinfw_relative)
        ] + [_fmt(rep.max_real_eig),
             "" if rep.iterations is None else str(rep.iterations),
             _fmt(rep.runtime_seconds)]
        if row != want:
            o.problems.append(f"metrics.csv row {row} != {want}")


def _verify_model(path, out):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for name in "ABCD":
        got = np.array(payload[name], dtype=float).reshape(
            getattr(out.ghat, name).shape)
        if not np.array_equal(got, getattr(out.ghat, name)):
            out.problems.append(f"{path.name}: {name} differs from the "
                                "returned model")


def _verify_responses(out_dir, g, band, outs):
    grid = band_grid(band, RESPGRID,
                     spectral_cap(g, *(o.ghat for o in outs)))
    given = ModalResponse(g)
    scale = float(np.abs(given.many(grid)).max())
    files = [("response_given.csv", given, outs)]
    for o in outs:
        files.append((f"response_{o.method}.csv", ModalResponse(o.ghat), [o]))
        files.append((f"error_{o.method}.csv", ModalResponse(g, o.ghat), [o]))
    for name, resp, owners in files:
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        want = np.abs(resp.many(grid)).reshape(grid.size, -1)
        problem = None
        if len(rows) != grid.size:
            problem = f"{name}: {len(rows)} rows, want {grid.size}"
        elif [r[0] for r in rows] != [_fmt(w) for w in grid]:
            problem = f"{name}: frequency column differs from the grid"
        else:
            got = np.array([[float(v) for v in r[1:]] for r in rows])
            # six printed digits, plus rounding of the oracle itself
            tol = 5.1e-6 * want + 1e-10 * scale
            if got.shape != want.shape or np.any(np.abs(got - want) > tol):
                problem = f"{name}: magnitudes differ from the modal oracle"
        if problem:
            for o in owners:
                o.problems.append(problem)


class _Model150:
    """Shared set-up of the two n = 150 workloads; they write no files."""

    def __init__(self, root, workdir):
        pass

    def setup(self, seed):
        self.g = flip_signs(model_150(),
                            np.random.default_rng([seed, self.stream]))

    def verify_files(self):
        pass


class Truncate150(_Model150):
    """The three truncation methods on one n = 150 resonant model, each
    followed by ``evaluate``, which recomputes the model's reference
    quantities every time."""

    name = "truncate-150"
    stream = 150

    def warmup(self):
        ghat = bandmor.reducers.modified_gawronski_reduce(self.g, 10, BAND_150)
        error_system(self.g, ghat).freq_response(1.0)

    def run_pass(self, span):
        outputs = []
        for method, r in TRUNCATE_JOBS:
            label = f"{method}@r={r}"
            try:
                with span("bench.job"):
                    t0 = time.perf_counter()
                    # looked up per call so the traced run's wrappers apply
                    reduce = getattr(bandmor.reducers, TRUNCATORS[method])
                    ghat = (reduce(self.g, r) if method == "hankel"
                            else reduce(self.g, r, BAND_150))
                    report = bandmor.reducers.evaluate(self.g, ghat, BAND_150,
                                                       method=method)
                    seconds = time.perf_counter() - t0
            except Exception as exc:  # counted as a failed job
                outputs.append(Output.failed(
                    method, self.g, BAND_150, label,
                    f"raised {type(exc).__name__}: {exc}"))
                continue
            outputs.append(Output(method, self.g, ghat, BAND_150, report,
                                  None, seconds, label))
        return outputs


class Proposed150(_Model150):
    """``h2w_optimize`` with 20 iterations from ``choose_init`` on an
    n = 150 resonant model, then ``evaluate``."""

    name = "proposed-150"
    stream = 151

    def warmup(self):
        init = bandmor.reducers.choose_init(self.g, PROPOSED_ORDER, BAND_150)
        error_cost_and_gradient(self.g, init, BAND_150)
        error_system(self.g, init).freq_response(1.0)

    def run_pass(self, span):
        costs = []
        label = f"proposed@r={PROPOSED_ORDER}"
        try:
            with span("bench.job"):
                t0 = time.perf_counter()
                init = bandmor.reducers.choose_init(self.g, PROPOSED_ORDER,
                                                    BAND_150)
                ghat, report = bandmor.reducers.h2w_optimize(
                    self.g, PROPOSED_ORDER, BAND_150, init=init,
                    opts=OptimizerOptions(max_iterations=PROPOSED_ITERATIONS),
                    callback=lambda i, cost, gnorm: costs.append(cost))
                seconds = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed job
            return [Output.failed("proposed", self.g, BAND_150, label,
                                  f"raised {type(exc).__name__}: {exc}")]
        return [Output("proposed", self.g, ghat, BAND_150, report, costs,
                       seconds, label)]


WORKLOADS = {w.name: w for w in (CliSweep, Truncate150, Proposed150)}
