import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def general_eigs(monkeypatch):
    """The shapes of the non-triangular matrices passed to a numpy or
    scipy ``eig``/``eigvals`` while the test runs.  The spectrum of a
    triangular matrix is its diagonal, so only these cost an
    eigen-decomposition."""
    shapes = []
    for module in (np.linalg, scipy.linalg):
        for name in ("eig", "eigvals"):
            def counted(a, *args, _fn=getattr(module, name), **kwargs):
                M = np.asarray(a)
                if not np.array_equal(M, np.triu(M)):
                    shapes.append(M.shape)
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return shapes
