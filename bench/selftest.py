"""Self-test of the benchmark's output check and of its traced run.

    python3 bench/selftest.py

Checks that

* a correct report passes the oracle check,
* the same report with ``h2w_error`` scaled by ``1 + 1e-3`` fails,
* a model whose ``Ahat`` is unstable fails when it comes from a method
  that promises stability, whether or not its report admits it,

and that each failure is counted in ``fail_share``; then makes one traced
``cli-sweep`` run and checks that it emits every per-layer metric that
``BENCHMARK.json`` names, as a number.  Exits 0 when all of it holds.
"""

import run  # first: pins the BLAS threads before numpy loads

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402


def expect(ok, what):
    if not ok:
        sys.exit(f"selftest: FAIL: {what}")


def check_the_check():
    import numpy as np
    from bandmor import (FrequencyBand, StateSpaceModel, evaluate,
                         modified_gawronski_reduce)

    from _oracles import two_mode_model
    from check import Checker, Output, tally

    g = two_mode_model()
    band = FrequencyBand([(0.0, 1.7)])
    ghat = modified_gawronski_reduce(g, 2, band)
    report = evaluate(g, ghat, band, method="modgawronski")

    shift = float(np.linalg.eigvals(ghat.A).real.max()) - 0.5
    unstable = StateSpaceModel(ghat.A - shift * np.eye(2), ghat.B, ghat.C,
                               ghat.D)
    cases = {
        "correct": Output("modgawronski", g, ghat, band, report),
        "h2w_error * (1 + 1e-3)": Output(
            "modgawronski", g, ghat, band,
            dataclasses.replace(report, h2w_error=report.h2w_error * 1.001)),
        "unstable Ahat, honest report": Output(
            "modgawronski", g, unstable, band,
            evaluate(g, unstable, band, method="modgawronski")),
        "unstable Ahat, stable report": Output(
            "proposed", g, unstable, band,
            dataclasses.replace(report, method="proposed")),
    }
    checker = Checker()
    for name, out in cases.items():
        checker.check(out)
        print(f"selftest: {name}: {out.problems or 'passes'}")
    attempted, failed, share = tally(list(cases.values()))
    expect(not cases["correct"].problems, "a correct report failed")
    expect(failed == [out for name, out in cases.items() if name != "correct"],
           "a corrupted output passed")
    expect(share == 3 / 4, f"fail_share {share}, want 0.75")
    print(f"selftest: fail_share {share} ({len(failed)} of {attempted})")


def check_the_trace():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    result = run.measure(run.parse_args([
        "--workload", "cli-sweep", "--seed", "1", "--seconds", "0",
        "--trace", "1"]))
    got = result["metrics"]
    missing = [name for name in wanted if name not in got]
    extra = [name for name in got if name not in wanted]
    expect(not missing and not extra,
           f"missing {missing}, not in BENCHMARK.json {extra}")
    for name in wanted:
        expect(isinstance(got[name]["value"], (int, float)),
               f"{name} is not a number")
    for name in ("matfun.schur_calls", "ssmodel.freq_response_calls",
                 "freqgram.workspace_grad_calls", "reducers.iterations",
                 "cli.response_points", "freqgram.h2w_checked_jobs"):
        expect(got[name]["value"] > 0, f"{name} is zero")
    print(f"selftest: traced run emits all {len(wanted)} per-layer metrics")


def main():
    run.import_package()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        check_the_check()
        check_the_trace()
    print("selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
