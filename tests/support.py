"""Shared oracles and random generators for the test suite.

The eigenvalue oracles here deliberately avoid the library's own
eigendecomposition path: characteristic polynomial coefficients come from the
trace-based Faddeev-LeVerrier recurrence and roots from numpy's
companion-matrix root finder.  The scalar oracle solves the n = 1 equation
x^s + a2 x^-t + b2 x^-p = q by sign-change bisection in plain floats and
uses nothing from ``nmeq``, so it shares no code with the library it checks.
The reference iterate sequence recomputes a solve's iterates with plain
numpy ``eigh`` and ``inv``, since a solve does not keep them.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from nmeq.solvers import Scheme


def agrees(value: float, exact: decimal.Decimal) -> bool:
    """value is the exact Decimal to 1e-12 relative, the infinity of its sign
    past the double range, or (for a subnormal exact value, which no double
    carries to 1e-12) within one subnormal step."""
    D = decimal.Decimal
    if abs(exact) > D(sys.float_info.max):
        return value == math.copysign(math.inf, exact)
    return abs(D(value) - exact) <= D("1e-12") * abs(exact) + D(5e-324)


def decimal_contraction(P, k: float) -> decimal.Decimal:
    """The contraction term of check_uniqueness_k, x^(1-s) / s times the slope
    t ||A||^2 x^-(t+1) + p ||B||^2 x^-(p+1) at x = k c1, in 50-digit decimals
    from the instance's doubles."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=50)):
        s, t, p = D(P.s), D(P.t), D(P.p)
        x = D(k) * D(P._derived.c1)
        slope = t * D(P._norm_a) ** 2 * x ** -(t + 1) + p * D(P._norm_b) ** 2 * x ** -(p + 1)
        return x ** (1 - s) / s * slope


def char_poly_coeffs(A) -> np.ndarray:
    """Monic characteristic polynomial coefficients of a square matrix.

    Faddeev-LeVerrier recurrence: only matrix products and traces, no
    eigendecomposition.  Returns [1, c1, ..., cn] with
    det(lam*I - A) = lam^n + c1 lam^(n-1) + ... + cn.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def char_poly_roots(A) -> np.ndarray:
    """Eigenvalues of ``A`` as roots of its characteristic polynomial."""
    return np.roots(char_poly_coeffs(A))


def eigvals_oracle(A) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending, via char_poly_roots."""
    roots = char_poly_roots(A)
    return np.sort(roots.real)


def spectral_radius_oracle(A) -> float:
    return float(np.max(np.abs(char_poly_roots(A))))


@dataclass(frozen=True)
class ScalarInstance:
    """The n = 1 equation x^s + a2 x^-t + b2 x^-p = q with q, a2, b2 > 0."""

    q: float
    a2: float
    b2: float
    s: float
    t: float
    p: float

    def __post_init__(self):
        for name in ("q", "a2", "b2"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        for name, v in (("s", self.s), ("t", self.t), ("p", self.p)):
            if not (math.isfinite(v) and v >= 1.0):
                raise ValueError(f"exponent {name} must be >= 1, got {v}")

    def f(self, x):
        return x**self.s + self.a2 * x**-self.t + self.b2 * x**-self.p - self.q


class ScalarRoots(NamedTuple):
    roots: tuple[float, ...]
    max_root: float | None
    min_root: float | None


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= 1e-14 * mid:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scalar_oracle(S: ScalarInstance) -> ScalarRoots:
    """All positive roots of x^s + a2 x^-t + b2 x^-p - q by sign-change
    bisection on a log grid over [1e-12, 10 q^(1/s)], refined to 1e-14
    relative.  An empty root set is a valid outcome (no solution exists)."""
    grid = np.geomspace(1e-12, 10.0 * S.q ** (1.0 / S.s), 2000)
    fg = S.f(grid)
    roots: list[float] = []
    for i in range(len(grid) - 1):
        lo, hi = float(grid[i]), float(grid[i + 1])
        if fg[i] == 0.0:
            roots.append(lo)
        elif (fg[i] < 0.0) != (fg[i + 1] < 0.0):
            roots.append(_bisect(S.f, lo, hi))
    if fg[-1] == 0.0:
        roots.append(float(grid[-1]))
    roots = sorted(set(roots))
    return ScalarRoots(
        roots=tuple(roots),
        max_root=roots[-1] if roots else None,
        min_root=roots[0] if roots else None,
    )


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hpd(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Random HPD matrix with eigenvalues log-uniform in [lo, hi]."""
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    U = random_unitary(rng, n)
    M = (U * eigs) @ U.conj().T
    return 0.5 * (M + M.conj().T)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (Z + Z.conj().T)


def near_singular_coupled_problem(seed: int = 5):
    """Coefficients (A, B, Q, s, t, p) of a coupled-scheme instance whose
    A = U diag(1, 0.5, 2e-12) V passes the nonsingularity check.

    The true lambda_min(A Q^-1 A*) = 8e-25 lies far below rounding, so the
    sign of its computed value depends on the eigensolver.  With seed 5 it
    rounds to a tiny negative number under eigvalsh and eigh alike (-1.1e-17,
    -1.6e-17), so the lower starting scalar a clamps to 0.  With seed 2,
    a = 1.6e-18 is positive rounding noise under both, and
    theta = sigma_min(A)^2 / b is 4.0e-24 at b = 1."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = U @ np.diag([1.0, 0.5, 2e-12]) @ V
    return A, 0.1 * np.eye(3), 5.0 * np.eye(3), 3.0, 4.0, 1.0



def _hermitian(M) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def loewner_leq(L, R, tol: float = 0.0) -> bool:
    """L <= R in the Loewner order up to tol, by one plain numpy eigvalsh."""
    return bool(np.linalg.eigvalsh(_hermitian(np.asarray(R) - np.asarray(L)))[0] >= -tol)


def _power(M, r: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(_hermitian(M))
    return (vectors * values**r) @ vectors.conj().T


def _step(M0, M1) -> float:
    """The solver's step norm: the Frobenius norm of the difference."""
    return float(np.linalg.norm(M1 - M0, "fro"))


def reference_iterates(P, rep) -> list:
    """The iterate sequence of a solve, recomputed in plain numpy.

    The scheme comes from ``rep.scheme``, the start from ``rep.precheck``
    (alpha, or a and b) and the length from ``rep.iterations``; no nmeq
    kernel is used.  Fixed-point: Y_0 = alpha I and Y_(n+1) = Q -
    A* Y_n^(-t/s) A - B* Y_n^(-p/s) B, returned as [Y_0, ..., Y_N].
    Coupled: X_0 = a I, Y_0 = b I and (X_(n+1), Y_(n+1)) = (F(X_n, Y_n),
    F(Y_n, X_n)) with F(X, Y) = A (Q - X^(s/t) - B* Y^(-p/t) B)^-1 A*,
    returned as [(X_0, Y_0), ..., (X_N, Y_N)].
    """
    A, B, Q, s, t, p = P.A, P.B, P.Q, P.s, P.t, P.p
    Ah, Bh = A.conj().T, B.conj().T
    eye = np.eye(P.n, dtype=Q.dtype)
    if rep.scheme is Scheme.FIXED_POINT:
        seq = [rep.precheck.alpha * eye]
        for _ in range(rep.iterations):
            Y = seq[-1]
            seq.append(_hermitian(Q - Ah @ _power(Y, -t / s) @ A - Bh @ _power(Y, -p / s) @ B))
        return seq

    seq = [(rep.precheck.a * eye, rep.precheck.b * eye)]
    for _ in range(rep.iterations):
        X, Y = seq[-1]
        seq.append((_coupled_map(P, X, Y), _coupled_map(P, Y, X)))
    return seq


def _coupled_map(P, X, Y):
    """F(X, Y) = A (Q - X^(s/t) - B* Y^(-p/t) B)^-1 A*, inverted by np.linalg.inv."""
    A, B, s, t, p = P.A, P.B, P.s, P.t, P.p
    inner = _hermitian(P.Q - _power(X, s / t) - B.conj().T @ _power(Y, -p / t) @ B)
    return _hermitian(A @ np.linalg.inv(inner) @ A.conj().T)


def inverse_step_bound(X0, X1) -> float:
    """The proven bound ||N1 - N0||_F / (l_1(N1) l_1(N0)) >= ||X1 - X0||_F, N = X^-1
    by np.linalg.inv and l_1 by eigvalsh: what a coupled solve records for a step."""
    N0, N1 = (_hermitian(np.linalg.inv(X)) for X in (X0, X1))
    return _step(N0, N1) / np.linalg.eigvalsh(N1)[0] / np.linalg.eigvalsh(N0)[0]


def coupled_limit(X, Y):
    """((X^-1 + Y^-1) / 2)^-1, the limit a coupled solve returns for its last pair."""
    return _hermitian(np.linalg.inv(_hermitian(0.5 * (np.linalg.inv(X) + np.linalg.inv(Y)))))


def reference_coupled_solve(P, a: float, b: float, tol: float, max_iter: int = 1000):
    """The coupled solve in plain numpy, in the paper's variable Y = X^t: the pair
    (X_(n+1), Y_(n+1)) = (F(X_n, Y_n), F(Y_n, X_n)) from X_0 = a I, Y_0 = b I, every
    inner matrix inverted by np.linalg.inv and nothing frozen, stopped as the library
    stops, at the first n whose larger inverse_step_bound is <= tol.  Returns the
    history rows (n, ||X_n - X_(n-1)||_F, ||Y_n - Y_(n-1)||_F), the rows (n, bound on
    the X step, bound on the Y step) and the solution coupled_limit(X_N, Y_N)^(1/t)."""
    eye = np.eye(P.n, dtype=P.Q.dtype)
    X, Y = a * eye, b * eye
    history, bounds = [], []
    for it in range(1, max_iter + 1):
        X_next, Y_next = _coupled_map(P, X, Y), _coupled_map(P, Y, X)
        history.append((it, _step(X, X_next), _step(Y, Y_next)))
        bounds.append((it, inverse_step_bound(X, X_next), inverse_step_bound(Y, Y_next)))
        X, Y = X_next, Y_next
        if max(bounds[-1][1:]) <= tol:
            break
    return history, bounds, _power(coupled_limit(X, Y), 1.0 / P.t)


# agreement of the reference sequence with the solver, relative to ||Q||
REFERENCE_RTOL = 1e-12

# A coupled step bound takes l_1 of a frozen N as l_1(N_f) - ||N - N_f||_F (Weyl), so
# it may exceed the one from eigvalsh by the relative drift d / l_1 of each of its two
# N; measured over the suite: up to 1.8e-7 of the bound past 16 eps ||Y||_F
WEYL_SLACK = 4e-7


def assert_reference_matches(P, rep, seq) -> None:
    """The reference sequence pins the solver: its steps match ``rep.history``
    within REFERENCE_RTOL ||Q|| and its limit (the final iterate, or coupled_limit
    of the final pair) matches ``rep.solution_Y`` within the same.  A coupled
    history holds the inverse_step_bound of each step, which may exceed the
    reference's by the WEYL_SLACK."""
    tol = REFERENCE_RTOL * np.linalg.norm(P.Q, 2)
    if rep.scheme is Scheme.FIXED_POINT:
        steps = [(_step(Y0, Y1),) * 2 for Y0, Y1 in zip(seq, seq[1:])]
        limit = seq[-1]
    else:
        steps = [(inverse_step_bound(X0, X1), inverse_step_bound(Y0, Y1))
                 for (X0, Y0), (X1, Y1) in zip(seq, seq[1:])]
        limit = coupled_limit(*seq[-1])
    got, want = np.array([tuple(h[1:]) for h in rep.history]), np.array(steps)
    assert got.shape == (rep.iterations, 2)
    slack = 0.0 if rep.scheme is Scheme.FIXED_POINT else WEYL_SLACK
    assert np.all(np.abs(got - want) <= tol + slack * want)
    assert _step(limit, rep.solution_Y) <= tol
