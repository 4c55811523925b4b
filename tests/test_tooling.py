"""Guards for the tooling around the package."""

import ast
import sys

import numpy as np
import pytest

import bandmor.reducers
from bandmor import (FrequencyBand, OptimizerOptions, StateSpaceModel,
                     modified_gawronski_reduce)
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


def test_tracer_only_imports_are_traced(spans):
    # an import that nothing calls is kept only for the tracer to wrap; once
    # the tracer stops wrapping it, the import has to go
    traced = {(owner.__name__, attr) for _, sites in spans.SPANS
              for owner, attr in sites}
    for path in sorted((REPO_ROOT / "src" / "bandmor").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = f"bandmor.{path.stem}"
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and "noqa: F401" in " ".join(
                    lines[node.lineno - 1:node.end_lineno]):
                for alias in node.names:
                    name = alias.asname or alias.name
                    assert (module, name) in traced, (path.name, name)


_GENERAL_EIG = {f"{module}.{name}" for module in ("numpy.linalg", "scipy.linalg")
                for name in ("eig", "eigvals")}


def _qualified(node, aliases):
    """Dotted name of a called expression with its head resolved through
    the module's imports; None unless it is a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([aliases.get(node.id, node.id), *reversed(parts)])


def test_spectra_come_from_schur_factors():
    # a model's eigenvalues are the diagonal of its cached Schur factor:
    # the stability rule alone asks LAPACK for eigenvalues, of the
    # triangular T its callers pass.  The symmetric eigh that factors
    # Gramians reads no spectrum of A and is not counted
    found = []
    for path in sorted((REPO_ROOT / "src" / "bandmor").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases, owner = {}, {}
        # ast.walk visits outer nodes first, so inner functions own lines
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                prefix = (f"{node.module}." if isinstance(node, ast.ImportFrom)
                          else "")
                for alias in node.names:
                    aliases[alias.asname or alias.name] = prefix + alias.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line in range(node.lineno, node.end_lineno + 1):
                    owner[line] = node.name
        found += [f"{path.stem}.{owner.get(node.lineno, '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and _qualified(node.func, aliases) in _GENERAL_EIG]
    assert found == ["matfun.hurwitz_status"]


def _traced(spans, function, *args, **kwargs):
    tracer = spans.Tracer()
    with tracer.installed():
        # looked up once installed, so the call goes through the wrapper
        getattr(bandmor.reducers, function)(*args, **kwargs)
    return {name: value for name, (value, _) in tracer.layer_metrics().items()}


def test_traced_optimizer_counts(spans):
    # the tracer tells the optimizer's gradient workspace from its
    # line-search trials by the ``need_gradient`` keyword; the initial
    # point must not count as a trial
    rng = np.random.default_rng(7)
    g = rand_model(rng, 5, 1, 1)
    band = FrequencyBand([(0.0, 1.7)])
    at_optimum = _traced(spans, "h2w_optimize", g, 5, band, init=g)
    assert at_optimum["reducers.iterations"] == 0
    assert at_optimum["reducers.trials"] == 0
    assert at_optimum["freqgram.workspace_grad_calls"] == 1

    run = _traced(spans, "h2w_optimize", g, 2, band,
                  opts=OptimizerOptions(max_iterations=3))
    assert run["reducers.iterations"] == 3
    assert run["reducers.trials"] >= 3
    assert run["freqgram.workspace_grad_calls"] == 1


def test_traced_optimizer_factors_g_once(spans):
    # every solve, band-limiting matrix and response of the full model goes
    # through its one cached Schur factor; the reduced models' factors are
    # r-sized and together stay well below another n^3
    rng = np.random.default_rng(11)
    n = 30
    g = rand_model(rng, n, 1, 1)
    band = FrequencyBand([(0.0, 1.7)])
    run = _traced(spans, "h2w_optimize", g, 3, band,
                  opts=OptimizerOptions(max_iterations=5))
    assert run["reducers.iterations"] == 5
    assert n ** 3 <= run["matfun.schur_n3"] < 2 * n ** 3


def test_traced_evaluate_factors_each_model_once(spans):
    # the peak search takes each model's response on a whole grid per call
    # from one cached Schur factor; per-point solves would make thousands
    # of calls, and a factor per call would show in the Schur counts
    rng = np.random.default_rng(3)
    n, r = 30, 6
    g = rand_model(rng, n, 2, 2)
    band = FrequencyBand([(0.0, 1.7)])
    # reduced from a copy of G: the reduction factors its model, and the
    # first evaluate should be the one to factor G
    ghat = modified_gawronski_reduce(StateSpaceModel(g.A, g.B, g.C, g.D), r,
                                     band)

    def traced_evaluate(reduced):
        return _traced(spans, "evaluate", g, reduced, band)

    first = traced_evaluate(ghat)
    assert 100 <= first["ssmodel.freq_response_calls"] < 1000
    # both norms go through the bindings the tracer wraps
    assert first["freqgram.error_cost_s"] > 0
    assert first["freqgram.h2w_norm_s"] > 0
    # the same matrices in a new model: only Ghat is factored again
    fresh = StateSpaceModel(ghat.A, ghat.B, ghat.C, ghat.D)
    second = traced_evaluate(fresh)
    assert first["matfun.schur_calls"] - second["matfun.schur_calls"] == 1
    assert first["matfun.schur_n3"] - second["matfun.schur_n3"] == n ** 3
    third = traced_evaluate(fresh)
    assert second["matfun.schur_calls"] - third["matfun.schur_calls"] == 1
    assert second["matfun.schur_n3"] - third["matfun.schur_n3"] == r ** 3
