"""Command-line front end.

Two subcommands::

    bandmor reduce  --model m.json --order 2 --band 0:1.7 \\
                    --methods hankel,gawronski,modgawronski,proposed \\
                    [--mask mask.json] [--init auto] [--out-dir out] \\
                    [--respgrid 400]
    bandmor analyze --model m.json --band 0:1.7

``reduce`` writes one reduced-model JSON per method, a ``metrics.csv``
with the comparison columns plus iteration counts and runtimes, and
magnitude-response CSVs for the given model, every reduced model, and
every error model.  Exit code 0 on success, 1 on parse/validation
problems (diagnostic on stderr), 2 when a requested method produced an
unstable model (its metrics row is still written, with ``--`` entries).
"""

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import BandmorError, OverlapError, ParseError
from .freqgram import StructureMask, _band_grid, h2w_norm_sq
from .reducers import (
    OptimizerOptions,
    balanced_truncation,
    choose_init,
    evaluate,
    gawronski_reduce,
    h2w_optimize,
    modified_gawronski_reduce,
)
from .ssmodel import (FrequencyBand, _read_json_object, read_model,
                      write_model)

__all__ = ["parse_band", "RunConfig", "cmd_reduce", "cmd_analyze", "main"]

# Truncation method name -> reduce(model, config).  The lambdas look the
# reducers up among this module's globals when they run, so a rebinding of
# ``cli.balanced_truncation`` and the like takes effect.
_TRUNCATE = {
    "hankel": lambda model, config: balanced_truncation(model, config.order),
    "gawronski": lambda model, config: gawronski_reduce(
        model, config.order, config.band),
    "modgawronski": lambda model, config: modified_gawronski_reduce(
        model, config.order, config.band),
}
METHODS = (*_TRUNCATE, "proposed")


def parse_band(text):
    """Parse a band specification like ``"0:1.7"``, ``"1.5:3.2"``,
    ``"0:1.7,3:4"``, or ``"0:inf"`` into a :class:`FrequencyBand`.

    ``inf`` is accepted only as the upper end of the last interval.
    """
    intervals = []
    for part in text.split(","):
        lo_s, sep, hi_s = part.partition(":")
        if not sep:
            raise ParseError(f"band: interval '{part}' must look like 'lo:hi'")
        intervals.append((_parse_freq(lo_s, part), _parse_freq(hi_s, part)))
    try:
        return FrequencyBand(intervals)
    except OverlapError:
        raise
    except ValueError as exc:
        raise ParseError(f"band: {exc}") from exc


def _parse_freq(token, part):
    token = token.strip()
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(
            f"band: '{token}' in interval '{part}' is not a frequency"
        ) from exc
    if math.isnan(value):
        raise ParseError(f"band: NaN endpoint in interval '{part}'")
    return value


@dataclass
class RunConfig:
    """Everything one ``reduce`` invocation needs."""

    model_path: str
    order: int
    band: FrequencyBand
    methods: list = field(default_factory=lambda: list(METHODS))
    init_policy: str = "auto"
    mask_path: str = None
    out_dir: str = "."
    respgrid: int = 400


def _read_mask(path, r, m, p):
    payload = _read_json_object(path)
    names = ("maskA", "maskB", "maskC", "maskD")
    missing = [k for k in names if k not in payload]
    if missing:
        raise ParseError(f"{path}: missing field '{missing[0]}'")
    try:
        mask = StructureMask(*(np.array(payload[k]) for k in names))
    except (ValueError, BandmorError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if mask.maskA.shape != (r, r) or mask.maskB.shape != (r, m) \
            or mask.maskC.shape != (p, r):
        raise ParseError(
            f"{path}: mask shapes do not fit a reduced model of order {r} "
            f"with {m} inputs and {p} outputs"
        )
    return mask


def _fmt(x):
    return f"{x:.5e}"


def _metric(x):
    return "--" if x is None else _fmt(x)


def _write_response(path, response, grid):
    """Write the magnitudes of an ``(F, p, m)`` response on ``grid``."""
    p, m = response.shape[1:]
    header = ["omega_rad_s"] + [
        f"mag_y{i + 1}u{j + 1}" for i in range(p) for j in range(m)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        mags = np.abs(response).reshape(len(grid), p * m)
        for w, row in zip(grid, mags):
            writer.writerow([_fmt(w)] + [_fmt(v) for v in row])


def cmd_reduce(config):
    """Run the configured reduction methods; returns the process exit code."""
    model = read_model(config.model_path)
    if not 1 <= config.order < model.nstates:
        raise ParseError(
            f"order: must satisfy 1 <= r < {model.nstates}, got {config.order}"
        )
    unknown = [m for m in config.methods if m not in METHODS]
    if unknown:
        raise ParseError(f"methods: unknown method '{unknown[0]}'")
    if not config.methods:
        raise ParseError("methods: need at least one method")
    if config.init_policy not in ("auto", "gawronski", "hankel"):
        raise ParseError(f"init: unknown policy '{config.init_policy}'")

    mask = None
    if config.mask_path:
        mask = _read_mask(config.mask_path, config.order, model.ninputs,
                          model.noutputs)

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    reduced = {}
    any_unstable = False
    for name in config.methods:
        t0 = time.perf_counter()
        if name == "proposed":
            ghat, report = h2w_optimize(
                model, config.order, config.band, mask=mask,
                init=_initial_model(model, config), opts=OptimizerOptions(),
            )
        else:
            ghat = _TRUNCATE[name](model, config)
            report = evaluate(model, ghat, config.band, method=name)
        report.runtime_seconds = time.perf_counter() - t0
        rows.append(report)
        reduced[name] = ghat
        write_model(ghat, out_dir / f"model_{name}.json")
        if not report.stable:
            any_unstable = True
            print(f"warning: method '{name}' produced an unstable model",
                  file=sys.stderr)

    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "method", "h2w_error", "h2w_relative", "hinfw_relative",
            "max_real_eig", "iterations", "runtime_seconds",
        ])
        for report in rows:
            writer.writerow([
                report.method,
                _metric(report.h2w_error),
                _metric(report.h2w_relative),
                _metric(report.hinfw_relative),
                _fmt(report.max_real_eig),
                "" if report.iterations is None else str(report.iterations),
                _fmt(report.runtime_seconds),
            ])

    if config.respgrid > 0:
        grid = np.unique(np.concatenate(_band_grid(
            config.band, config.respgrid, [model, *reduced.values()])))
        given = model.freq_response(grid)
        _write_response(out_dir / "response_given.csv", given, grid)
        for name, ghat in reduced.items():
            response = ghat.freq_response(grid)
            _write_response(out_dir / f"response_{name}.csv", response, grid)
            _write_response(out_dir / f"error_{name}.csv", given - response,
                            grid)

    return 2 if any_unstable else 0


def _initial_model(model, config):
    if config.init_policy == "auto":
        return choose_init(model, config.order, config.band)
    return _TRUNCATE[config.init_policy](model, config)


def cmd_analyze(model_path, band):
    """Print band norm, standard H2 norm (when strictly proper), worst
    eigenvalue, and band measure for one model."""
    model = read_model(model_path)
    stable, max_re = model.is_hurwitz()
    if not stable:
        print(
            f"error: model is unstable (max real eigenvalue {max_re:.5e});"
            " band norms are undefined",
            file=sys.stderr,
        )
        return 1
    h2w = math.sqrt(max(h2w_norm_sq(model, band), 0.0))
    print(f"h2w_norm = {_fmt(h2w)}")
    if not np.any(model.D) and model.nstates:
        h2 = math.sqrt(max(h2w_norm_sq(model, FrequencyBand([(0, math.inf)])), 0.0))
        print(f"h2_norm = {_fmt(h2)}")
    print(f"max_real_eig = {_fmt(max_re)}")
    print(f"band_theta = {_fmt(band.theta)}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bandmor",
        description="Band-limited H2 model order reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reduce_p = sub.add_parser("reduce", help="reduce a model on a band")
    reduce_p.add_argument("--model", required=True, help="input model JSON")
    reduce_p.add_argument("--order", required=True, type=int,
                          help="target reduced order r")
    reduce_p.add_argument("--band", required=True,
                          help="band spec, e.g. 0:1.7 or 0:1.7,3:4 or 0:inf")
    reduce_p.add_argument("--methods", default=",".join(METHODS),
                          help="comma-separated subset of "
                               f"{','.join(METHODS)}")
    reduce_p.add_argument("--mask", default=None,
                          help="JSON file with maskA/maskB/maskC/maskD")
    reduce_p.add_argument("--init", default="auto",
                          choices=("auto", "gawronski", "hankel"),
                          help="initial point policy for the proposed method")
    reduce_p.add_argument("--out-dir", default=".", help="output directory")
    reduce_p.add_argument("--respgrid", default=400, type=int,
                          help="response points per band interval "
                               "(0 disables response CSVs)")

    analyze_p = sub.add_parser("analyze", help="print band norms of a model")
    analyze_p.add_argument("--model", required=True, help="input model JSON")
    analyze_p.add_argument("--band", required=True, help="band spec")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "reduce":
            config = RunConfig(
                model_path=args.model,
                order=args.order,
                band=parse_band(args.band),
                methods=[m for m in args.methods.split(",") if m],
                init_policy=args.init,
                mask_path=args.mask,
                out_dir=args.out_dir,
                respgrid=args.respgrid,
            )
            return cmd_reduce(config)
        return cmd_analyze(args.model, parse_band(args.band))
    except (BandmorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
