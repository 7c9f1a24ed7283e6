"""Problem, solution, history, and factorization file formats.

A problem file is a UTF-8 JSON object with keys n, s, t, p, A, B, Q in that
order.  Matrix entries are plain reals or two-element [re, im] pairs; writers
emit the pair form only for entries with nonzero imaginary part, so real
problems stay readable.  Floats are written in Python's shortest round-trip
form (exact for double precision); history CSV uses 17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import Factorization, ProblemInstance

__all__ = [
    "ProblemFileError",
    "ProblemFile",
    "SolutionFile",
    "parse_problem",
    "load_problem",
    "write_problem",
    "problem_from_instance",
    "parse_solution",
    "load_solution",
    "write_solution",
    "write_history_csv",
    "write_factorization",
]


class ProblemFileError(ValueError):
    """Malformed problem or solution file; message carries the location."""


_PROBLEM_KEYS = ("n", "s", "t", "p", "A", "B", "Q")


@dataclass(frozen=True)
class ProblemFile:
    n: int
    s: float
    t: float
    p: float
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray

    def to_instance(self) -> ProblemInstance:
        return ProblemInstance(self.A, self.B, self.Q, self.s, self.t, self.p)


@dataclass(frozen=True)
class SolutionFile:
    """Candidate solution read back for verification or factorization."""

    X: np.ndarray
    Y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def _parse_object(text: str, what: str) -> dict:
    """The one JSON rule of both file kinds: valid JSON holding an object."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int's digit limit
        raise ProblemFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFileError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _real(value, loc: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"{loc}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the double range
        v = math.inf if value > 0 else -math.inf
    if not np.isfinite(v):
        raise ProblemFileError(f"{loc}: number must be finite, got {v}")
    return v


def _entry(value, loc: str) -> complex:
    if isinstance(value, list):
        if len(value) != 2:
            raise ProblemFileError(
                f"{loc}: a complex entry must be a [re, im] pair, got {len(value)} elements"
            )
        return complex(_real(value[0], loc + "[0]"), _real(value[1], loc + "[1]"))
    return complex(_real(value, loc))


def _matrix(value, n: int | None, name: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ProblemFileError(f"{name}: expected a list of rows, got {type(value).__name__}")
    if n is None:
        n = len(value)
    if len(value) != n:
        raise ProblemFileError(f"{name}: expected {n} rows, got {len(value)}")
    if n == 0:
        raise ProblemFileError(f"{name}: matrix must be nonempty")
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ProblemFileError(
                f"{name}[{i}]: expected a list of {n} entries, got {type(row).__name__}"
            )
        if len(row) != n:
            raise ProblemFileError(f"{name}[{i}]: expected {n} entries, got {len(row)}")
        for j, cell in enumerate(row):
            out[i, j] = _entry(cell, f"{name}[{i}][{j}]")
    return out


def parse_problem(text: str) -> ProblemFile:
    doc = _parse_object(text, "problem file")
    missing = [k for k in _PROBLEM_KEYS if k not in doc]
    if missing:
        raise ProblemFileError(f"missing required keys: {', '.join(missing)}")
    extra = [k for k in doc if k not in _PROBLEM_KEYS]
    if extra:
        raise ProblemFileError(f"unexpected keys: {', '.join(sorted(extra))}")
    n_raw = doc["n"]
    if isinstance(n_raw, bool) or not isinstance(n_raw, int):
        raise ProblemFileError(f"n: expected a positive integer, got {n_raw!r}")
    if n_raw < 1:
        raise ProblemFileError(f"n: must be at least 1, got {n_raw}")
    s = _real(doc["s"], "s")
    t = _real(doc["t"], "t")
    p = _real(doc["p"], "p")
    A = _matrix(doc["A"], n_raw, "A")
    B = _matrix(doc["B"], n_raw, "B")
    Q = _matrix(doc["Q"], n_raw, "Q")
    return ProblemFile(n_raw, s, t, p, A, B, Q)


def load_problem(path) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _encode_entry(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _encode_matrix(M: np.ndarray) -> list:
    return [[_encode_entry(complex(M[i, j])) for j in range(M.shape[1])] for i in range(M.shape[0])]


def write_problem(pf: ProblemFile) -> str:
    doc = {
        "n": pf.n,
        "s": float(pf.s),
        "t": float(pf.t),
        "p": float(pf.p),
        "A": _encode_matrix(pf.A),
        "B": _encode_matrix(pf.B),
        "Q": _encode_matrix(pf.Q),
    }
    return json.dumps(doc, indent=2) + "\n"


def problem_from_instance(P: ProblemInstance) -> ProblemFile:
    return ProblemFile(P.n, P.s, P.t, P.p, P.A.copy(), P.B.copy(), P.Q.copy())


_SOLUTION_SCALARS = ("scheme", "iterations", "residual", "delta", "extremality", "converged", "lift_root")


def parse_solution(text: str) -> SolutionFile:
    doc = _parse_object(text, "solution file")
    if "X" not in doc:
        raise ProblemFileError("missing required key: X")
    X = _matrix(doc["X"], None, "X")
    Y = _matrix(doc["Y"], None, "Y") if "Y" in doc else None
    meta = {k: doc[k] for k in _SOLUTION_SCALARS if k in doc}
    return SolutionFile(X=X, Y=Y, meta=meta)


def load_solution(path) -> SolutionFile:
    with open(path, encoding="utf-8") as fh:
        return parse_solution(fh.read())


def write_solution(report) -> str:
    """Serialize a SolveReport (X, Y plus run metadata) as JSON."""
    doc = {
        "scheme": report.scheme.value,
        "iterations": report.iterations,
        "converged": report.converged,
        "residual": float(report.residual),
        "delta": float(report.delta),
        "extremality": report.extremality.value,
        "lift_root": float(report.lift_root),
        "X": _encode_matrix(report.solution_X),
        "Y": _encode_matrix(report.solution_Y),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_history_csv(history) -> str:
    lines = ["iteration,step_error_X,step_error_Y"]
    for row in history:
        lines.append(f"{row.iteration},{row.step_error_X:.17g},{row.step_error_Y:.17g}")
    return "\n".join(lines) + "\n"


def write_factorization(F: Factorization) -> str:
    doc = {
        "U": _encode_matrix(F.U),
        "Lambda": _encode_matrix(np.diag(F.lam)),
        "N1": _encode_matrix(F.N1),
        "N2": _encode_matrix(F.N2),
    }
    return json.dumps(doc, indent=2) + "\n"
