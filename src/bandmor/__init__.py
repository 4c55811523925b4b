"""bandmor - band-limited H2 model order reduction for LTI systems.

Reduce a stable state-space model so that it matches the original over a
chosen union of frequency intervals, by truncating frequency-limited
Gramians (with or without a stability fix) or by directly minimizing the
band-limited H2 error with its closed-form gradient.
"""

from . import exceptions
from .freqgram import (
    StructureMask,
    error_cost,
    error_cost_and_gradient,
    error_gradient,
    h2w_norm_sq,
    hinf_w_relative,
    limited_gramians,
)
from .matfun import (
    frechet_log,
    hurwitz_status,
    matrix_log,
    s_band,
    s_omega,
    solve_lyapunov,
    solve_sylvester,
)
from .reducers import (
    OptimizerOptions,
    ReductionReport,
    balanced_truncation,
    choose_init,
    evaluate,
    gawronski_reduce,
    h2w_optimize,
    modified_gawronski_reduce,
)
from .ssmodel import (
    FrequencyBand,
    StateSpaceModel,
    error_system,
    read_model,
    series,
    write_model,
)

__version__ = "0.1.0"

__all__ = [
    "exceptions",
    "StateSpaceModel",
    "FrequencyBand",
    "series",
    "error_system",
    "read_model",
    "write_model",
    "hurwitz_status",
    "solve_sylvester",
    "solve_lyapunov",
    "matrix_log",
    "frechet_log",
    "s_omega",
    "s_band",
    "StructureMask",
    "limited_gramians",
    "h2w_norm_sq",
    "error_cost",
    "error_gradient",
    "error_cost_and_gradient",
    "hinf_w_relative",
    "OptimizerOptions",
    "ReductionReport",
    "balanced_truncation",
    "gawronski_reduce",
    "modified_gawronski_reduce",
    "h2w_optimize",
    "choose_init",
    "evaluate",
]
