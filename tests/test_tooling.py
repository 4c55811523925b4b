"""Guards for the tooling around the package."""

import sys

import numpy as np
import pytest

import bandmor.reducers
from bandmor import FrequencyBand, OptimizerOptions
from conftest import REPO_ROOT
from _oracles import rand_model


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(REPO_ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(REPO_ROOT / "bench"))
    return spans


def test_traced_bindings_resolve(spans):
    # the benchmark's traced run wraps these names; a refactor that drops
    # one should fail here rather than in ``bench/run.py --trace 1``
    for name, sites in spans.SPANS:
        for owner, attr in sites:
            assert callable(getattr(owner, attr, None)), (name, attr)


def _traced_optimize(spans, *args, **kwargs):
    tracer = spans.Tracer()
    with tracer.installed():
        bandmor.reducers.h2w_optimize(*args, **kwargs)
    return {name: value for name, (value, _) in tracer.layer_metrics().items()}


def test_traced_optimizer_counts(spans):
    # the tracer tells the optimizer's gradient workspace from its
    # line-search trials by the ``need_gradient`` keyword; the initial
    # point must not count as a trial
    rng = np.random.default_rng(7)
    g = rand_model(rng, 5, 1, 1)
    band = FrequencyBand([(0.0, 1.7)])
    at_optimum = _traced_optimize(spans, g, 5, band, init=g)
    assert at_optimum["reducers.iterations"] == 0
    assert at_optimum["reducers.trials"] == 0
    assert at_optimum["freqgram.workspace_grad_calls"] == 1

    run = _traced_optimize(spans, g, 2, band,
                           opts=OptimizerOptions(max_iterations=3))
    assert run["reducers.iterations"] == 3
    assert run["reducers.trials"] >= 3
    assert run["freqgram.workspace_grad_calls"] == 1
