"""bandmor benchmark.

    python3 bench/run.py --workload cli-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the oracles from ``tests/_oracles.py``.  One run sets the
workload up several times (setup_s is their median), then makes untraced
passes over its job list until ``--seconds`` is used up, and checks every
output against the oracles in ``check.py``.  With ``--trace 1`` it adds
one more pass with every layer wrapped (``spans.py``) and reports the
per-layer metrics instead of the end-to-end ones.  Times are reported in
reference seconds, scaled by a calibration kernel run between jobs (see
``CALIB_REF_S``).  The last line of standard output is the JSON result;
the lines before it give the raw seconds, the thread count and library
versions, the job counts behind each share, and the failures.
"""

import os

# Pin every BLAS/OpenMP pool before numpy loads.  Unpinned, OpenBLAS
# threads on a 2-core machine made 20 optimizer iterations at n = 150 take
# 19 s instead of 7-8 s and moved the final cost in its 9th digit.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
# Every time is reported in reference seconds: measured seconds times
# CALIB_REF_S over the median time of calibrate() around them (between the
# jobs of a pass, between the set-up repeats).  On the shared 2-core
# machine this benchmark was written on, one cli-sweep pass took 8 to 14 s
# from run to run and the kernel drifted with it: over five runs the pass
# time spread 0.52 raw and 0.14 scaled by a run-wide median.
CALIB_REF_S = 0.075


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-sweep", "truncate-150", "proposed-150"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import bandmor from this checkout's ``src/`` and the oracles from
    its ``tests/``; exit non-zero without a result when either is missing."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "bandmor" / "__init__.py").is_file() or not (
            tests / "_oracles.py").is_file():
        sys.exit(f"bench: no bandmor checkout at {ROOT} "
                 "(need src/bandmor and tests/_oracles.py)")
    sys.path[:0] = [str(src), str(tests), str(BENCH)]
    import bandmor
    if Path(bandmor.__file__).resolve().parent != src / "bandmor":
        sys.exit(f"bench: imported bandmor from {bandmor.__file__}, "
                 f"not from {src}")
    import _oracles  # noqa: F401
    import check  # noqa: F401
    import spans  # noqa: F401
    import workloads  # noqa: F401


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = {}
    return {"threads": THREADS, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpus": os.cpu_count()}


def tail_percentile(count):
    """Highest whole percentile with at least ten samples beyond it; 100
    (the maximum) when fewer than 20 samples leave no such percentile
    above the median."""
    if count < 20:
        return 100
    return int(100 * (1 - 10 / count))


def percentile(values, pct):
    values = sorted(values)
    if pct >= 100:
        return values[-1]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibrate():
    """Seconds for a fixed numpy workload in the program's two regimes:
    LAPACK at n = 160 and per-call overhead at n = 8.  It never calls
    bandmor, so a change to the program cannot move it."""
    import numpy as np
    rng = np.random.default_rng(0)
    big = rng.standard_normal((160, 160)) + 1j * np.eye(160)
    small = rng.standard_normal((8, 8)) + 1j * np.eye(8)
    t = time.perf_counter()
    for _ in range(100):
        np.linalg.solve(big, big[:, :2])
    for _ in range(2500):
        np.linalg.solve(small, small[:, :2])
    return time.perf_counter() - t


class Stopwatch:
    """Span factory for untraced passes: adds up the seconds spent in the
    jobs, and runs :func:`calibrate` before the first job and after every
    job, outside their time."""

    def __init__(self):
        self.elapsed = 0.0
        self.calib = [calibrate()]

    @contextmanager
    def span(self, name):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - t
            self.calib.append(calibrate())

    @property
    def scale(self):
        """Factor from this pass's seconds to reference seconds."""
        return CALIB_REF_S / statistics.median(self.calib)


def measure(args):
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0

    from check import Checker, same_output, tally
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, workdir)
        setups, setup_calib = [], [calibrate()]
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            workload.setup(args.seed)
            workload.warmup()
            setups.append(time.perf_counter() - t)
            setup_calib.append(calibrate())

        passes, watches = [], []
        while not watches or (sum(w.elapsed for w in watches)
                              + watches[-1].elapsed <= args.seconds):
            watch = Stopwatch()
            passes.append(workload.run_pass(watch.span))
            watches.append(watch)
            workload.verify_files()
        # read before the checks and the traced pass add their own memory
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = None
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                t = time.perf_counter()
                outputs = workload.run_pass(tracer.span)
                traced_s = time.perf_counter() - t
            workload.verify_files()
            passes.append(outputs)

        checker = Checker()
        first = passes[0]
        verdicts = [checker.check(out) for out in first]
        for later in passes[1:]:
            for a, found, b in zip(first, verdicts, later):
                if same_output(a, b):
                    b.problems.extend(found)
                else:
                    checker.check(b)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    everything = [out for outputs in passes for out in outputs]
    attempted, failed, fail_share = tally(everything)
    pass_s = [w.elapsed for w in watches]
    job_s = [out.seconds * w.scale for w, outputs in zip(watches, passes)
             for out in outputs if out.ghat is not None]
    stable = [out.report.h2w_relative for out in first
              if out.report is not None and out.report.stable]
    tail = tail_percentile(len(job_s))
    setup_scale = CALIB_REF_S / statistics.median(setup_calib)
    run_scale = CALIB_REF_S / statistics.median(
        setup_calib + [c for w in watches for c in w.calib])

    notes = {
        "environment": environment(),
        "passes": len(pass_s), "pass_s": pass_s,
        "pass_scale": [w.scale for w in watches],
        "setup_runs_s": setups, "import_s": import_s,
        "setup_scale": setup_scale, "calib_ref_s": CALIB_REF_S,
        "jobs": attempted, "jobs_failed": len(failed),
        "fail_share": fail_share,
        "timed_jobs": len(job_s), "job_tail_percentile": tail,
        "h2w_checked_jobs": checker.stable_checked,
        "h2w_floor_jobs": checker.floor_jobs,
        "h2w_near_axis_jobs": checker.near_axis_jobs,
        "hinf_missed_peak_jobs": checker.missed_peak_jobs,
    }
    print("bench: " + json.dumps(notes))
    for out in first:
        if out.report is not None:
            print(f"bench: job {out.label} {out.method} {out.seconds:.3f}s "
                  f"iterations={out.report.iterations} "
                  f"status={out.report.status or '-'} "
                  f"h2w_relative={out.report.h2w_relative}")
    for out in failed:
        print(f"bench: FAILED {out.method} on {out.label}: "
              + "; ".join(out.problems))

    if not job_s:
        sys.exit("bench: no job returned a model")
    if tracer is None:
        metrics = {
            "setup_s": ((import_s + statistics.median(setups)) * setup_scale,
                        "s"),
            "wall_s": (statistics.median(w.elapsed * w.scale
                                         for w in watches), "s"),
            "job_p50_s": (statistics.median(job_s), "s"),
            "h2w_rel_final": (statistics.median(stable), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        for line in tracer.edge_lines():
            print("bench: span " + line)
        metrics = {name: (value * run_scale if unit == "s" else value, unit)
                   for name, (value, unit) in tracer.layer_metrics().items()}
        metrics["trace_overhead_s"] = (
            (traced_s - statistics.median(pass_s)) * run_scale, "s")
        metrics["traced_wall_s"] = (traced_s * run_scale, "s")
        metrics["fail_share"] = (fail_share, "ratio")
        metrics["jobs.count"] = (attempted, "count")
        metrics["jobs.tail_s"] = (percentile(job_s, tail), "s")
        metrics["jobs.tail_percentile"] = (tail, "%")
        metrics["freqgram.h2w_floor_jobs"] = (checker.floor_jobs, "count")
        metrics["freqgram.h2w_checked_jobs"] = (checker.stable_checked,
                                                "count")
        metrics["freqgram.h2w_near_axis_jobs"] = (checker.near_axis_jobs,
                                                  "count")
        metrics["freqgram.hinf_missed_peak_jobs"] = (
            checker.missed_peak_jobs, "count")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    with warnings.catch_warnings():
        # the truncations warn on rank-deficient Gramians by design
        warnings.simplefilter("ignore")
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
