"""Continuous-time state-space models and frequency bands.

Provides the immutable :class:`StateSpaceModel` value type, series
composition, error-system construction, frequency response, and a JSON
file format, plus :class:`FrequencyBand` for unions of frequency
intervals on [0, inf].
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import (
    DimensionMismatch,
    NonFinite,
    OverlapError,
    ParseError,
)
from .matfun import _tri_response, complex_schur, hurwitz_status

__all__ = [
    "StateSpaceModel",
    "FrequencyBand",
    "series",
    "error_system",
    "read_model",
    "write_model",
]


def _as_matrix(value, name):
    try:
        M = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise NonFinite(f"{name}: {exc}") from exc
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        # 1-d convenience: B as a column, C as a row
        M = M.reshape(-1, 1) if name == "B" else M.reshape(1, -1)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got ndim={M.ndim}")
    if M.size and not np.all(np.isfinite(M)):
        raise NonFinite(f"{name} contains non-finite entries")
    M.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Real LTI model ``x' = A x + B u, y = C x + D u``.

    Matrices are validated for shape consistency and finiteness on
    construction and stored read-only; a model is an immutable value.
    ``n = 0`` (no states) is a legal pure feedthrough.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        D = _as_matrix(self.D, "D")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise DimensionMismatch(
                f"D must have shape {(C.shape[0], B.shape[1])}, got {D.shape}"
            )
        for field, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            object.__setattr__(self, field, M)

    @classmethod
    def pure_gain(cls, D):
        """Build a stateless model realizing the constant gain ``D``."""
        D = _as_matrix(D, "D")
        p, m = D.shape
        return cls(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), D)

    @property
    def nstates(self):
        return self.A.shape[0]

    @property
    def ninputs(self):
        return self.B.shape[1]

    @property
    def noutputs(self):
        return self.C.shape[0]

    def is_hurwitz(self):
        """Return ``(stable, max_real_eig)`` from :func:`hurwitz_status`,
        tested once per model; ``(True, -inf)`` for a pure gain."""
        return self._hurwitz

    _hurwitz = cached_property(lambda self: hurwitz_status(self.A))

    @cached_property
    def schur_factor(self):
        """Complex Schur factor ``A = U T U^H`` (a
        :class:`~bandmor.matfun.SchurFactor`), computed on first use.  The
        model is immutable, so the factor cannot go stale; Sylvester and
        Lyapunov solves, band-limiting matrices and the frequency response
        all take ``A`` through it."""
        return complex_schur(self.A)

    @cached_property
    def _band_cache(self):
        """``band -> {name: array}``, least recently used band first; filled
        and bounded by ``freqgram._BandSide``, which reinserts a band on
        every use.  Arrays only, so the model never refers back to itself."""
        return {}

    @cached_property
    def _schur(self):
        T, U, _ = self.schur_factor
        return T, U.conj().T @ self.B, self.C @ U

    def freq_response(self, omega):
        """Transfer matrix ``C (i omega I - A)^-1 B + D``.

        ``omega`` in rad/s is a scalar, giving a ``(p, m)`` matrix, or a 1-d
        array of F frequencies, giving an ``(F, p, m)`` stack.  Each
        frequency costs a triangular solve with ``i omega I - T`` on the
        model's :attr:`schur_factor`.

        Raises
        ------
        SingularAtFrequency
            If some ``i omega`` is an eigenvalue of ``A`` to roundoff.
        """
        w = np.asarray(omega, dtype=float)
        if w.ndim > 1:
            raise ValueError(
                f"omega must be a scalar or a 1-d array, got ndim={w.ndim}"
            )
        if self.nstates == 0:
            return np.broadcast_to(self.D, w.shape + self.D.shape).astype(complex)
        return _tri_response(*self._schur, w) + self.D

    def __repr__(self):
        return (
            f"StateSpaceModel(n={self.nstates}, m={self.ninputs}, "
            f"p={self.noutputs})"
        )


def series(g1, g2):
    """Realize the product ``G1 * G2`` (the output of ``g2`` feeds ``g1``).

    The state dimension of the result is ``n1 + n2`` and its transfer
    function is the pointwise product of the factors'.
    """
    if g2.noutputs != g1.ninputs:
        raise DimensionMismatch(
            f"series: G2 has {g2.noutputs} outputs but G1 expects "
            f"{g1.ninputs} inputs"
        )
    n1, n2 = g1.nstates, g2.nstates
    n = n1 + n2
    A = np.zeros((n, n))
    A[:n1, :n1] = g1.A
    A[:n1, n1:] = g1.B @ g2.C
    A[n1:, n1:] = g2.A
    B = np.vstack([g1.B @ g2.D, g2.B])
    C = np.hstack([g1.C, g1.D @ g2.C])
    return StateSpaceModel(A, B, C, g1.D @ g2.D)


def error_system(g, ghat):
    """Realize ``G - Ghat`` as one block model.

    The dynamics are block diagonal, the inputs are shared, and the output
    matrices are stacked with a sign flip, so the response equals the
    difference of the responses.
    """
    if (g.ninputs, g.noutputs) != (ghat.ninputs, ghat.noutputs):
        raise DimensionMismatch(
            "error_system: models must share input and output dimensions"
        )
    n1, n2 = g.nstates, ghat.nstates
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, :n1] = g.A
    A[n1:, n1:] = ghat.A
    B = np.vstack([g.B, ghat.B])
    C = np.hstack([g.C, -ghat.C])
    return StateSpaceModel(A, B, C, g.D - ghat.D)


_MODEL_FIELDS = ("A", "B", "C", "D")


def write_model(model, path):
    """Write a model as JSON with row-major nested arrays, one matrix row
    per line.

    Floats are serialized with shortest round-trip precision, so a
    write/read cycle reproduces every entry bit-exactly.
    """
    chunks = []
    for name in _MODEL_FIELDS:
        rows = getattr(model, name).tolist()
        if rows:
            body = ",\n".join("    " + json.dumps(row) for row in rows)
            chunks.append(f'  "{name}": [\n{body}\n  ]')
        else:
            chunks.append(f'  "{name}": []')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(chunks) + "\n}\n")


def read_model(path):
    """Read a model from the JSON format of :func:`write_model`.

    The file must contain the keys ``A``, ``B``, ``C``, ``D`` as
    rectangular nested arrays of numbers; an optional ``labels`` entry is
    tolerated and ignored.
    """
    payload = _read_json_object(path)
    mats = {}
    for name in _MODEL_FIELDS:
        if name not in payload:
            raise ParseError(f"{path}: missing field '{name}'")
        mats[name] = _parse_matrix_field(payload[name], name, path)
    if mats["A"].shape == (0, 0):
        # row-free matrices serialize as [] and lose their width; recover
        # the input/output counts from D
        p, m = mats["D"].shape
        if mats["B"].size == 0:
            mats["B"] = np.zeros((0, m))
        if mats["C"].size == 0:
            mats["C"] = np.zeros((p, 0))
    try:
        return StateSpaceModel(**mats)
    except (DimensionMismatch, NonFinite) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_json_object(path):
    """The JSON object in the file ``path``, else :class:`ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    return payload


def _parse_matrix_field(rows, name, path):
    if not isinstance(rows, list):
        raise ParseError(f"{path}: field '{name}' must be a nested array")
    if rows and not isinstance(rows[0], list):
        raise ParseError(f"{path}: field '{name}' must be a list of rows")
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise ParseError(
                f"{path}: field '{name}', row {i}: expected {width} entries"
            )
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                raise ParseError(
                    f"{path}: field '{name}', row {i}, column {j}: "
                    "not a number"
                )
    return np.array(rows, dtype=float).reshape(len(rows), width)


class FrequencyBand:
    """Ordered union of disjoint frequency intervals on [0, inf].

    Intervals are ``(lo, hi)`` pairs in rad/s with ``0 <= lo < hi``; only
    the last interval may extend to infinity.  Instances are immutable and
    iterate as their intervals.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        items = []
        for pair in intervals:
            lo, hi = pair
            lo = float(lo)
            hi = float(hi)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("band endpoints must not be NaN")
            if math.isinf(lo) or lo < 0:
                raise ValueError(f"band start {lo} must be finite and >= 0")
            if not lo < hi:
                raise ValueError(f"band interval [{lo}, {hi}] needs lo < hi")
            items.append((lo, hi))
        items.sort()
        for (_, hi_prev), (lo, _) in zip(items, items[1:]):
            if lo < hi_prev:
                raise OverlapError(
                    f"band intervals overlap at [{lo}, {hi_prev}]"
                )
        object.__setattr__(self, "intervals", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("FrequencyBand is immutable")

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        return (
            isinstance(other, FrequencyBand) and self.intervals == other.intervals
        )

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        spans = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.intervals)
        return f"FrequencyBand({spans})"

    @property
    def is_bounded(self):
        """True when no interval reaches infinity."""
        return all(math.isfinite(hi) for _, hi in self.intervals)

    @property
    def measure(self):
        """Total one-sided length in rad/s (inf for unbounded bands)."""
        return float(sum(hi - lo for lo, hi in self.intervals))

    @property
    def theta(self):
        """Band measure divided by 2 pi; the weight of the feedthrough
        term in the band-limited H2 norm."""
        return self.measure / (2.0 * math.pi)


def as_band(band):
    """Coerce ``band`` to a :class:`FrequencyBand` (tuples pass through)."""
    if isinstance(band, FrequencyBand):
        return band
    return FrequencyBand(band)
