"""Per-layer spans for the traced run.

:class:`Tracer` replaces each layer's functions at the names other
modules call them by (``bandmor.freqgram.solve_sylvester``,
``bandmor.reducers.hinf_w_relative``, ...) with timing wrappers, and puts
the originals back on exit.  Nothing under ``src/`` changes.  Spans are
aggregated as they close: per span name the call count, inclusive time
and self time (inclusive time minus the time of the spans nested in it),
and per ``(caller span, span)`` edge the call count, so the tree of which
layer called which survives without keeping every span in memory.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import bandmor.cli
import bandmor.freqgram
import bandmor.matfun
import bandmor.reducers
import bandmor.ssmodel

MODULES = ("matfun", "ssmodel", "freqgram", "reducers", "cli")

# (span name, [(object, attribute), ...]): every binding a caller in
# another module (or the benchmark) goes through.
_m, _f, _r, _c = (bandmor.matfun, bandmor.freqgram, bandmor.reducers,
                  bandmor.cli)
SPANS = [
    ("matfun.schur", [(_m, "schur")]),
    ("matfun.sylvester", [(_f, "solve_sylvester")]),
    ("matfun.lyapunov", [(_f, "solve_lyapunov"), (_r, "solve_lyapunov")]),
    ("matfun.hurwitz", [(_m, "hurwitz_status"), (_f, "hurwitz_status"),
                        (_r, "hurwitz_status"),
                        (bandmor.ssmodel, "hurwitz_status")]),
    ("matfun.s_band", [(_f, "s_band"), (_r, "s_band")]),
    ("matfun.log", [(_f, "frechet_log"), (_m, "matrix_log")]),
    ("ssmodel.freq_response",
     [(bandmor.ssmodel.StateSpaceModel, "freq_response")]),
    ("freqgram.hinf", [(_r, "hinf_w_relative")]),
    ("freqgram.workspace", [(_r, "_build_workspace")]),
    ("freqgram.error_cost", [(_r, "error_cost")]),
    ("freqgram.h2w_norm", [(_r, "h2w_norm_sq"), (_c, "h2w_norm_sq")]),
    ("freqgram.gramians", [(_r, "limited_gramians")]),
    ("reducers.truncate", [(mod, name) for mod in (_r, _c) for name in (
        "balanced_truncation", "gawronski_reduce",
        "modified_gawronski_reduce")]),
    ("reducers.init", [(_r, "choose_init"), (_c, "choose_init")]),
    ("reducers.optimize", [(_r, "h2w_optimize"), (_c, "h2w_optimize")]),
    ("reducers.evaluate", [(_r, "evaluate"), (_c, "evaluate")]),
    ("cli.read", [(_c, "read_model")]),
    ("cli.write", [(_c, "write_model"), (_c, "_write_response")]),
]


class Tracer:
    """Collects span statistics while installed."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        stack = self._stack
        frame = [name, 0.0, stack[-1][0] if stack else "-",
                 time.perf_counter()]
        stack.append(frame)
        return frame

    def _close(self, frame):
        dt = time.perf_counter() - frame[3]
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - frame[1]
        self.edges[(frame[2], name)] += 1
        if stack:
            stack[-1][1] += dt
        if name == "reducers.evaluate" and self.inside("reducers.optimize"):
            self.counts["evaluate_in_optimize_s"] += dt

    @contextmanager
    def span(self, name):
        """Time the enclosed block as one span called ``name``."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, name, fn):
        open_, close = self._open, self._close
        counts = self.counts
        inside = self.inside

        def timed(*args, **kwargs):
            frame = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        if name == "matfun.schur":
            def wrapper(a, *args, **kwargs):
                counts["schur_n3"] += a.shape[0] ** 3
                return timed(a, *args, **kwargs)
        elif name == "freqgram.workspace":
            def wrapper(*args, **kwargs):
                kind = "grad" if kwargs.get("need_gradient") else "cost"
                counts[f"workspace_{kind}"] += 1
                return timed(*args, **kwargs)
        elif name == "matfun.hurwitz":
            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                if not result[0] and inside("reducers.optimize"):
                    counts["unstable_trials"] += 1
                return result
        elif name == "reducers.optimize":
            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                counts["iterations"] += result[1].iterations
                return result
        elif name == "cli.write" and fn.__name__ == "_write_response":
            def wrapper(path, model, grid):
                counts["response_points"] += len(grid)
                return timed(path, model, grid)
        else:
            wrapper = timed
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding in :data:`SPANS`; restore them on exit."""
        saved = []
        try:
            for name, sites in SPANS:
                for owner, attr in sites:
                    fn = getattr(owner, attr)
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def layer_metrics(self):
        """Per-layer metrics named as in ``BENCHMARK.json``."""
        out = {}

        def timed(span):
            out[f"{span}_calls"] = (self.calls[span], "count")
            out[f"{span}_s"] = (self.total[span], "s")

        for short in ("schur", "sylvester", "lyapunov", "hurwitz", "s_band",
                      "log"):
            timed(f"matfun.{short}")
        out["matfun.schur_n3"] = (self.counts["schur_n3"], "count")
        timed("ssmodel.freq_response")
        timed("freqgram.hinf")
        out["freqgram.workspace_cost_calls"] = (
            self.counts["workspace_cost"], "count")
        out["freqgram.workspace_grad_calls"] = (
            self.counts["workspace_grad"], "count")
        for short in ("workspace", "error_cost", "h2w_norm", "gramians"):
            out[f"freqgram.{short}_s"] = (self.total[f"freqgram.{short}"], "s")
        trials = self.counts["workspace_cost"] + self.counts["unstable_trials"]
        iterations = self.counts["iterations"]
        out["reducers.iterations"] = (iterations, "count")
        out["reducers.trials"] = (trials, "count")
        out["reducers.accept_ratio"] = (
            iterations / trials if trials else 0.0, "ratio")
        out["reducers.unstable_trials"] = (self.counts["unstable_trials"],
                                           "count")
        for short in ("truncate", "init", "evaluate"):
            out[f"reducers.{short}_s"] = (self.total[f"reducers.{short}"], "s")
        # the optimizer loop alone: h2w_optimize ends with its own evaluate
        out["reducers.optimize_s"] = (
            self.total["reducers.optimize"]
            - self.counts["evaluate_in_optimize_s"], "s")
        out["cli.read_s"] = (self.total["cli.read"], "s")
        out["cli.write_s"] = (self.total["cli.write"], "s")
        out["cli.response_points"] = (self.counts["response_points"], "count")
        for module in MODULES + ("bench",):
            out[f"{module}.self_s"] = (sum(
                t for span, t in self.self_time.items()
                if span.split(".", 1)[0] == module), "s")
        return out

    def edge_lines(self):
        """``caller -> span: calls`` lines, most frequent first."""
        return [f"{caller} -> {name}: {n}"
                for (caller, name), n in self.edges.most_common()]
