"""Seeded workload generators, the timed operations, and their correctness gates.

Every input is drawn from ``numpy.random.default_rng([seed, stream, index])``,
so one seed always yields the same inputs and the program under test only
sees the generated matrices or problem files.  The families are built so that
every precondition holds by a margin; no draw is ever filtered by seed.

One op is either one in-process CLI command (``cli-small``) or one
``ProblemInstance`` construction plus ``solve`` (the library workloads).
``run_op`` is the only timed code; input generation and the correctness gate
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import nmeq
from nmeq import builtin, cli

# An op whose solution misses this residual certificate counts as failed.
RESIDUAL_RTOL = 1e-10
# A bundled-example solution farther than this from the reference counts as failed.
REFERENCE_ATOL = 1e-9


def _unitary(rng, n: int, cplx: bool) -> np.ndarray:
    G = rng.standard_normal((n, n))
    if cplx:
        G = G + 1j * rng.standard_normal((n, n))
    Qm, R = np.linalg.qr(G)
    d = np.diag(R)
    return Qm * (d / np.abs(d))


class UnitaryPool:
    """Cheap random unitaries for large n: a few QR factors drawn once per
    run, then per draw a random row and column permutation and random
    column phases (or signs), which keep the result unitary."""

    def __init__(self, rng, n: int, cplx: bool, size: int = 4):
        self.n = n
        self.cplx = cplx
        self.pool = [_unitary(rng, n, cplx) for _ in range(size)]

    def __call__(self, rng) -> np.ndarray:
        W = self.pool[rng.integers(len(self.pool))]
        W = W[rng.permutation(self.n)][:, rng.permutation(self.n)]
        if self.cplx:
            return W * np.exp(2j * np.pi * rng.random(self.n))
        return W * rng.choice((-1.0, 1.0), self.n)


def fresh_unitary(n: int, cplx: bool):
    return lambda rng: _unitary(rng, n, cplx)


def _scaled(rng, n: int, unitary, norm: float, lo: float) -> np.ndarray:
    """norm * U diag(sigma) V* with sigma_1 = 1 and the rest in [lo, 1]."""
    sigma = rng.uniform(lo, 1.0, n)
    sigma[0] = 1.0
    return norm * (unitary(rng) * sigma) @ unitary(rng).conj().T


@dataclass(frozen=True)
class Problem:
    """Raw equation data as a caller would hold it before validation."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    s: float
    t: float
    p: float
    family: str  # "fixed-point" (maximal solution) or "coupled" (minimal solution)
    q_norm: float  # ||Q|| = lambda_max(Q)


def _hpd(rng, n: int, unitary, lo: float, hi: float):
    U = unitary(rng)
    values = rng.uniform(lo, hi, n)
    Q = (U * values) @ U.conj().T
    return 0.5 * (Q + Q.conj().T), float(values.max())


def fixed_point_problem(rng, n: int, unitary, a_norm: float, q_lo: float) -> Problem:
    """s = 3, t = 2, p = 1: ||A|| = a_norm, ||B|| = 0.2, Q eigenvalues in [q_lo, 4].

    Library family (a_norm 0.3, q_lo 2): alpha_search is feasible and the
    contraction constant stays near 0.03.  CLI family (a_norm 1.1, q_lo 3):
    still feasible and contractive (delta < 0.4), and c1^3 / lambda_min(Q)
    >= (1.1^2 / 4)^(3/2) / 4 > 0.041 exceeds the largest right-hand side
    (1 - k^-2 - k^-1) k^-3 < 0.032 of the spread condition, so scan_k
    rejects every grid point, as it does on bundled example 2.
    """
    Q, q_norm = _hpd(rng, n, unitary, q_lo, 4.0)
    A = _scaled(rng, n, unitary, a_norm, 0.5)
    B = _scaled(rng, n, unitary, 0.2, 0.5)
    return Problem(A, B, Q, 3.0, 2.0, 1.0, "fixed-point", q_norm)


def coupled_problem(rng, n: int, unitary) -> Problem:
    """s = 3, t = 4, p = 1: A a scaled near-unitary, small B, Q eigenvalues in [6, 9.5].

    With ||A|| = c in [1.6, 2.4] and singular values of A/c in [0.98, 1],
    the coupled preconditions hold on a b-window at least a factor 1.4 wide
    (domination needs roughly c^2/b + b^(3/4) <= lambda_min(Q); the first
    contraction needs b below sqrt(2/3 c^2 a^(1/4))), so b_search finds a
    start for every draw after a few rejected grid points.
    """
    Q, q_norm = _hpd(rng, n, unitary, 6.0, 9.5)
    A = _scaled(rng, n, unitary, rng.uniform(1.6, 2.4), 0.98)
    B = _scaled(rng, n, unitary, 0.1, 0.5)
    return Problem(A, B, Q, 3.0, 4.0, 1.0, "coupled", q_norm)


def independent_residual(P: Problem, X: np.ndarray) -> float:
    """Frobenius norm of X^s + A* X^-t A + B* X^-p B - Q, computed without nmeq.

    It bounds the spectral norm from above, so the gate is at least as strict
    as a spectral-norm certificate.
    """
    X = 0.5 * (X + X.conj().T)
    w, V = np.linalg.eigh(X)
    if w[0] <= 0.0:
        return float("inf")

    def power(e):
        return (V * w**e) @ V.conj().T

    R = power(P.s) + P.A.conj().T @ power(-P.t) @ P.A + P.B.conj().T @ power(-P.p) @ P.B - P.Q
    return float(np.linalg.norm(R))


def _solution_error(P: Problem, X, extremality: str, converged: bool) -> str | None:
    expected = "maximal" if P.family == "fixed-point" else "minimal"
    if not converged:
        return "did not converge"
    if extremality != expected:
        return f"extremality {extremality}, expected {expected}"
    res = independent_residual(P, X)
    limit = RESIDUAL_RTOL * (1.0 + P.q_norm)
    if not res <= limit:
        return f"residual {res:.3e} above {limit:.3e}"
    return None


# ---------------------------------------------------------------------------
# library workloads: one op = ProblemInstance(...) + solve(P)


class LibraryWorkload:
    cycle = 1

    def __init__(self, name: str, seed: int, make, n: int, cplx: bool, reference_parts):
        self.name = name
        self.reference_parts = reference_parts
        self.seed = seed
        self._make = make
        self.n = n
        self._unitary = UnitaryPool(np.random.default_rng([seed, 0]), n, cplx)

    def op_input(self, k: int) -> Problem:
        return self._make(np.random.default_rng([self.seed, 1, k]), self.n, self._unitary)

    @staticmethod
    def run_op(P: Problem):
        inst = nmeq.ProblemInstance(P.A, P.B, P.Q, P.s, P.t, P.p)
        return nmeq.solve(inst)

    @staticmethod
    def check(P: Problem, report) -> str | None:
        return _solution_error(
            P, report.solution_X, report.extremality.value, report.converged
        )

    def describe(self, k: int, P: Problem) -> str:
        return f"{self.name} op {k}: build + solve, n = {P.Q.shape[0]}, seed {self.seed}"

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli-small: one op = one in-process nmeq.cli.main(argv) call


def _encode_matrix(M: np.ndarray) -> list:
    def entry(z):
        z = complex(z)
        return z.real if z.imag == 0.0 else [z.real, z.imag]

    return [[entry(z) for z in row] for row in M]


def _problem_json(P: Problem) -> str:
    doc = {
        "n": int(P.Q.shape[0]),
        "s": P.s,
        "t": P.t,
        "p": P.p,
        "A": _encode_matrix(P.A),
        "B": _encode_matrix(P.B),
        "Q": _encode_matrix(P.Q),
    }
    return json.dumps(doc, indent=2) + "\n"


def _parse_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(*e) if isinstance(e, list) else complex(e) for e in row] for row in rows]
    )


@dataclass
class CliOp:
    argv: list[str]
    command: str
    problem: Problem | None  # None for a bundled example
    example: int | None
    solution: str  # solution file shared by solve, verify and factorize
    history: str
    output: str


_COMMANDS = ("check", "solve", "bounds", "verify", "factorize")


class CliWorkload:
    """Cycles the five CLI commands over four problem sources.

    One cycle is 20 ops: check, solve --history --solution, bounds, verify and
    factorize on bundled example 1, bundled example 2, a fresh fixed-point
    problem file (complex, n in 2..8) and a fresh coupled problem file (real,
    n in 2..8).  verify and factorize read the solution that solve wrote
    earlier in the same cycle.
    """

    name = "cli-small"
    cycle = 4 * len(_COMMANDS)
    reference_parts = ("dense_r64", "small", "python")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._cycle_index = None
        self._sources: list[tuple[Problem | None, int | None, str]] = []
        self._references = {}  # bundled example -> (Problem, reference X)
        for which, family in ((1, "fixed-point"), (2, "coupled")):
            ref = builtin.example(which)
            P = ref.instance
            q_norm = float(np.linalg.eigvalsh(P.Q)[-1])
            self._references[which] = (
                Problem(P.A, P.B, P.Q, P.s, P.t, P.p, family, q_norm),
                ref.solution_X,
            )

    def _prepare_cycle(self, c: int) -> None:
        rng = np.random.default_rng([self.seed, 2, c])
        n_fp, n_cp = (int(n) for n in rng.integers(2, 9, 2))
        fp = fixed_point_problem(rng, n_fp, fresh_unitary(n_fp, True), 1.1, 3.0)
        cp = coupled_problem(rng, n_cp, fresh_unitary(n_cp, False))
        self._sources = [(None, 1, "ex1"), (None, 2, "ex2")]
        for tag, P in (("fp", fp), ("cp", cp)):
            path = os.path.join(self.workdir, f"{tag}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_problem_json(P))
            self._sources.append((P, None, path))
        self._cycle_index = c

    def op_input(self, k: int) -> CliOp:
        c, r = divmod(k, self.cycle)
        if c != self._cycle_index:
            self._prepare_cycle(c)
        src, command = divmod(r, len(_COMMANDS))
        problem, example, path = self._sources[src]
        command = _COMMANDS[command]
        tag = f"s{src}"
        solution = os.path.join(self.workdir, f"{tag}-sol.json")
        history = os.path.join(self.workdir, f"{tag}-hist.csv")
        output = os.path.join(self.workdir, f"{tag}-fact.json")
        source = ["--example", str(example)] if example is not None else [path]
        argv = [command, *source]
        if command == "solve":
            argv += ["--history", history, "--solution", solution]
        elif command == "verify":
            argv += [solution]
        elif command == "factorize":
            argv += [solution, "--output", output]
        return CliOp(argv, command, problem, example, solution, history, output)

    @staticmethod
    def run_op(op: CliOp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op: CliOp, result) -> str | None:
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if op.command == "check":
            return None if out.startswith("problem: n = ") else "unexpected check output"
        if op.command == "bounds":
            return None if out.startswith("c: ") else "unexpected bounds output"
        if op.command == "verify":
            return None if "verification: passed" in out else "verification did not pass"
        if op.command == "factorize":
            if "factorization verified: true" not in out:
                return "factorization not verified"
            with open(op.output, encoding="utf-8") as fh:
                doc = json.load(fh)
            return None if set(doc) == {"U", "Lambda", "N1", "N2"} else "bad factorization file"
        with open(op.solution, encoding="utf-8") as fh:
            sol = json.load(fh)
        X = _parse_matrix(sol["X"])
        with open(op.history, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != sol["iterations"] + 1:
            return f"history has {len(rows) - 1} rows for {sol['iterations']} iterations"
        if op.example is not None:
            P, X_ref = self._references[op.example]
            gap = float(np.max(np.abs(X - X_ref)))
            if not gap <= REFERENCE_ATOL:
                return f"X is {gap:.3e} off the bundled reference"
        else:
            P = op.problem
        return _solution_error(P, X, sol["extremality"], sol["converged"])

    def describe(self, k: int, op: CliOp) -> str:
        return f"{self.name} op {k}: nmeq {' '.join(op.argv)}, seed {self.seed}"

    def close(self) -> None:
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {
    "cli-small": "in-process CLI commands on n <= 8 problems: Python-level overhead, file I/O, condition checks",
    "fixedpoint-n128": "build + solve, fixed-point scheme, complex n = 128: validation and the iteration loop",
    "coupled-n64": "build + solve, coupled scheme, real n = 64: b_search, prechecks and the coupled loop",
}


def make_workload(name: str, seed: int, workdir: str):
    if name == "cli-small":
        return CliWorkload(seed, workdir)
    if name == "fixedpoint-n128":
        return LibraryWorkload(
            name, seed, lambda rng, n, u: fixed_point_problem(rng, n, u, 0.3, 2.0), 128, True,
            ("dense_c128",),
        )
    if name == "coupled-n64":
        return LibraryWorkload(name, seed, coupled_problem, 64, False, ("dense_r64", "small"))
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
