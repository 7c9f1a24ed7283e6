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
    if not math.isfinite(v):
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
    out = _bulk_matrix(value, n)
    return _matrix_by_entry(value, n, name) if out is None else out


_NUMBER = {int, float}  # exact types: json reads true and false as bool, an int subclass


def _bulk_matrix(rows: list, n: int) -> np.ndarray | None:
    """The matrix of rows when every row is a list of n finite numbers or
    [re, im] pairs of finite numbers, converted in bulk; otherwise None, and
    _matrix_by_entry, the reference rule, names the first bad entry."""
    if not all(type(row) is list and len(row) == n for row in rows):
        return None
    cells = [cell for row in rows for cell in row]
    kinds = set(map(type, cells))
    pairs = [cell for cell in cells if type(cell) is list] if list in kinds else []
    parts = {type(x) for pair in pairs for x in pair}
    if not (kinds - {list} <= _NUMBER and parts <= _NUMBER and all(len(p) == 2 for p in pairs)):
        return None
    re, im = cells, None
    if pairs:
        re = [cell[0] if type(cell) is list else cell for cell in cells]
        im = [cell[1] if type(cell) is list else 0.0 for cell in cells]
    out = np.zeros((n, n), dtype=np.complex128)
    try:  # an int past the double range overflows
        out.real = np.array(re, dtype=np.float64).reshape(n, n)
        if im is not None:
            out.imag = np.array(im, dtype=np.float64).reshape(n, n)
    except OverflowError:
        return None
    return out if np.isfinite(out).all() else None


def _matrix_by_entry(rows: list, n: int, name: str) -> np.ndarray:
    """The reference rule: row by row and entry by entry, naming the first bad one."""
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
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


def _matrix_text(M: np.ndarray) -> str:
    """json.dumps's indent=2 text of M's entries at depth 1: a plain real for
    an entry with zero imaginary part, else an [re, im] pair."""
    re = np.asarray(M.real, dtype=np.float64)
    im = np.asarray(M.imag, dtype=np.float64)
    rows = []
    for re_row, im_row in zip(re.tolist(), im.tolist()):
        cells = [repr(x) if y == 0.0 else f"[\n        {x!r},\n        {y!r}\n      ]"
                 for x, y in zip(re_row, im_row)]
        rows.append("[\n      " + ",\n      ".join(cells) + "\n    ]" if cells else "[]")
    text = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        # only non-finite floats spell nan or inf: json writes NaN, Infinity, -Infinity
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _dumps(doc: dict) -> str:
    """json.dumps(doc, indent=2) + "\n" for an object of scalars and matrices,
    each matrix written by the entry rule of _matrix_text."""
    texts = (_matrix_text(v) if isinstance(v, np.ndarray) else json.dumps(v) for v in doc.values())
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {t}" for k, t in zip(doc, texts)) + "\n}\n"


def write_problem(pf: ProblemFile) -> str:
    return _dumps({
        "n": pf.n,
        "s": float(pf.s),
        "t": float(pf.t),
        "p": float(pf.p),
        "A": pf.A,
        "B": pf.B,
        "Q": pf.Q,
    })


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
    return _dumps({
        "scheme": report.scheme.value,
        "iterations": report.iterations,
        "converged": report.converged,
        "residual": float(report.residual),
        "delta": float(report.delta),
        "extremality": report.extremality.value,
        "lift_root": float(report.lift_root),
        "X": report.solution_X,
        "Y": report.solution_Y,
    })


def write_history_csv(history) -> str:
    lines = ["iteration,step_error_X,step_error_Y"]
    for row in history:
        lines.append(f"{row.iteration},{row.step_error_X:.17g},{row.step_error_Y:.17g}")
    return "\n".join(lines) + "\n"


def write_factorization(F: Factorization) -> str:
    return _dumps({"U": F.U, "Lambda": np.diag(F.lam), "N1": F.N1, "N2": F.N2})
