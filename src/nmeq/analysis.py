"""Solvability and uniqueness conditions, solution brackets, and the
factorization characterization for X^s + A* X^-t A + B* X^-p B = Q.

All checks return a ConditionReport with one Verdict per hypothesis; a report
never raises just because a condition fails, since a false verdict is data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matcore as mc

__all__ = [
    "BracketUndefinedError",
    "NotASolutionError",
    "ProblemInstance",
    "DerivedScalars",
    "Verdict",
    "ConditionReport",
    "SolutionBounds",
    "Factorization",
    "derived_scalars",
    "check_necessary",
    "check_sufficient",
    "solution_bounds",
    "check_uniqueness_interval",
    "check_uniqueness_k",
    "scan_k",
    "verify_factorization",
    "factorization_from_solution",
]


class BracketUndefinedError(ValueError):
    """The two-sided solution bracket does not exist for this instance."""


class NotASolutionError(ValueError):
    """A candidate matrix fails the equation residual check."""


def _require_nonsingular(M: np.ndarray, name: str) -> float:
    """Reject a (numerically) singular M; return its spectral norm."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError(
            f"{name} must be nonsingular (singular values span "
            f"[{sv[-1]:.3e}, {sv[0]:.3e}])"
        )
    return float(sv[0])


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One equation X^s + A* X^-t A + B* X^-p B = Q.

    The constructor validates A, B nonsingular, Q Hermitian positive
    definite, and s, t, p >= 1, and puts the two correction terms in the
    canonical orientation t >= p.  The equation is symmetric in
    (A, t) <-> (B, p), so swapping loses nothing; ``swapped`` records
    whether it happened.

    A, B and Q are stored in one dtype: float64 when none of them has an
    entry with a nonzero imaginary part, complex128 otherwise.  A real
    instance has real extremal solutions (conj(X) solves it whenever X
    does), so it is solved in real arithmetic.

    Q is validated here once; the matrices are stored read-only.  The
    invariants every condition check and solver reads (||A||, ||B||, ||Q||,
    the spectrum of Q, A Q^-1 A* and B Q^-1 B* with their spectra, A* A,
    B* B, Q^(1/s), the derived scalars) are therefore computed once per
    instance: the norms of A and B and the eigendecomposition of Q come out
    of validation, the rest on first use, and all of them are kept in
    private attributes.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    s: float
    t: float
    p: float
    swapped: bool = field(init=False, default=False)

    def __post_init__(self):
        A = mc.as_matrix(self.A, "A")
        B = mc.as_matrix(self.B, "B")
        Q = mc.check_hermitian(self.Q, "Q")
        if A.shape != Q.shape or B.shape != Q.shape:
            raise ValueError(
                f"A, B, Q must share one dimension, got {A.shape}, {B.shape}, {Q.shape}"
            )
        dtype = np.result_type(A, B, Q)
        # astype copies, so the stored matrices never alias the caller's
        A, B, Q = (_read_only(M.astype(dtype)) for M in (A, B, Q))
        q_values, q_vectors = mc.trusted_eigh(Q)
        if not mc.is_pd_spectrum(q_values):
            raise ValueError("Q must be Hermitian positive definite")
        norm_a = _require_nonsingular(A, "A")
        norm_b = _require_nonsingular(B, "B")
        s, t, p = float(self.s), float(self.t), float(self.p)
        for name, v in (("s", s), ("t", t), ("p", p)):
            if not (math.isfinite(v) and v >= 1.0):
                raise ValueError(f"exponent {name} must be finite and >= 1, got {v}")
        swapped = False
        if t < p:
            A, B = B, A
            norm_a, norm_b = norm_b, norm_a
            t, p = p, t
            swapped = True
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "swapped", swapped)
        object.__setattr__(self, "_norm_a", norm_a)
        object.__setattr__(self, "_norm_b", norm_b)
        object.__setattr__(self, "_q_eig", _frozen_eig(q_values, q_vectors))
        object.__setattr__(self, "_lambda_min_q", float(q_values[0]))
        object.__setattr__(self, "_lambda_max_q", float(q_values[-1]))

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    # Cached invariants.  cached_property writes to the instance __dict__,
    # which the frozen dataclass allows; every cached array is read-only.

    @property
    def _norm_q(self) -> float:
        """||Q||: Q is positive definite, so its norm is lambda_max(Q)."""
        return self._lambda_max_q

    @property
    def _accept_tol(self) -> float:
        """Default residual tolerance for accepting a candidate solution."""
        return 1e-8 * (1.0 + self._norm_q)

    def _inverse_q_eig(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of M Q^-1 M*, with Q^-1 read from the eigh of Q."""
        q_values, q_vectors = self._q_eig
        return _frozen_eig(*mc.trusted_eigh(mc.congruence(q_vectors, 1.0 / q_values, M.conj().T)))

    @cached_property
    def _aqa_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return self._inverse_q_eig(self.A)

    @cached_property
    def _bqb_eig(self) -> tuple[np.ndarray, np.ndarray]:
        return self._inverse_q_eig(self.B)

    @cached_property
    def _ata(self) -> np.ndarray:
        """A* A, symmetrized."""
        return _read_only(mc.hermitian_part(self.A.conj().T @ self.A))

    @cached_property
    def _btb(self) -> np.ndarray:
        """B* B."""
        return _read_only(self.B.conj().T @ self.B)

    @cached_property
    def _lambda_min_ata(self) -> float:
        """lambda_min(A* A), clamped at 0."""
        return max(mc.trusted_lambda_min(self._ata), 0.0)

    @cached_property
    def _q_root(self) -> np.ndarray:
        """Q^(1/s)."""
        return _read_only(mc.eig_power(*self._q_eig, 1.0 / self.s))

    @cached_property
    def _derived(self) -> DerivedScalars:
        values_a, values_b = self._aqa_eig[0], self._bqb_eig[0]
        lo_a, hi_a = float(values_a[0]), float(values_a[-1])
        lo_b, hi_b = float(values_b[0]), float(values_b[-1])
        t, p, s = self.t, self.p, self.s
        return DerivedScalars(
            k=self._lambda_max_q,
            k_tilde=self._lambda_min_q,
            q=min(t / s, p / s),
            q_tilde=max(t / s, p / s),
            c=max(_clamped_root(lo_a, 1.0 / t), _clamped_root(lo_b, 1.0 / p)),
            c1=max(_clamped_root(hi_a, 1.0 / t), _clamped_root(hi_b, 1.0 / p)),
            a=_clamped_root(lo_a, s / t) + _clamped_root(lo_b, s / p),
        )


def _read_only(M: np.ndarray) -> np.ndarray:
    M.setflags(write=False)
    return M


def _frozen_eig(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(values), _read_only(vectors)


class Verdict(NamedTuple):
    """One checked inequality.  For Loewner comparisons lhs is the smallest
    eigenvalue of (rhs matrix - lhs matrix) and rhs is 0."""

    holds: bool
    lhs: float
    rhs: float
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts of one condition check, with the branch that applied and an
    optional solution bracket (lower, upper) when the check guarantees one."""

    criterion: str
    branch: str
    verdicts: dict[str, Verdict]
    holds: bool
    bracket: tuple[np.ndarray, np.ndarray] | None = None


class SolutionBounds(NamedTuple):
    """Two nested solution brackets: [c I, q_root] and the refined [m I, N]."""

    m: float
    N: np.ndarray
    c: float
    q_root: np.ndarray


@dataclass(frozen=True)
class DerivedScalars:
    """Scalars shared by the condition checks.

    k, k_tilde: largest / smallest eigenvalue of Q.
    q, q_tilde: min / max of the exponent ratios t/s and p/s.
    c  = max(lambda_min(A Q^-1 A*)^(1/t), lambda_min(B Q^-1 B*)^(1/p))
    c1 = the same with lambda_max in place of lambda_min.
    a  = lambda_min(A Q^-1 A*)^(s/t) + lambda_min(B Q^-1 B*)^(s/p)
    """

    k: float
    k_tilde: float
    q: float
    q_tilde: float
    c: float
    c1: float
    a: float


def _clamped_root(value: float, root: float) -> float:
    # congruences of HPD matrices are HPD; clamp rounding-level negatives
    return max(value, 0.0) ** root


def _power(x: float, r: float) -> float:
    """x^r for x >= 0, with an overflow, or 0 to a negative power, read as
    its limit inf."""
    try:
        return x**r
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _loewner_verdict(L: np.ndarray, R: np.ndarray, scale: float, note: str = "") -> Verdict:
    """The one Loewner-order rule for library-built Hermitian L, R: L <= R holds when
    gap = lambda_min(R - L) >= -1e-10 max(scale, 1), scale a norm of the two sides."""
    gap = mc.trusted_lambda_min(R - L)
    return Verdict(gap >= -1e-10 * max(scale, 1.0), gap, 0.0, note)


def derived_scalars(P: ProblemInstance) -> DerivedScalars:
    return P._derived


def check_necessary(P: ProblemInstance) -> ConditionReport:
    """Necessary condition on the squared spectral radii of A and B.

    A false verdict certifies that the instance has no Hermitian positive
    definite solution; a true verdict decides nothing on its own.
    """
    d = derived_scalars(P)
    if d.k <= 1.0:
        branch = "k<=1"
        bound = d.q**d.q / (d.q + 1.0) ** (d.q + 1.0)
    else:
        branch = "k>1"
        bound = d.q**d.q * d.k ** (1.0 + d.q_tilde) / (d.q + 1.0) ** (d.q + 1.0)
    rho_a2 = mc.spectral_radius(P.A) ** 2
    rho_b2 = mc.spectral_radius(P.B) ** 2
    verdicts = {
        "spectral_radius_A": Verdict(rho_a2 < bound, rho_a2, bound),
        "spectral_radius_B": Verdict(rho_b2 < bound, rho_b2, bound),
    }
    return ConditionReport(
        criterion="necessary",
        branch=branch,
        verdicts=verdicts,
        holds=all(v.holds for v in verdicts.values()),
    )


def check_sufficient(P: ProblemInstance) -> ConditionReport:
    """Sufficient condition on ||A||^2 + ||B||^2; on success a solution is
    guaranteed inside the reported bracket."""
    d = derived_scalars(P)
    lhs = P._norm_a**2 + P._norm_b**2
    if d.k <= 1.0:
        branch = "k<=1"
        rhs = d.q**d.q_tilde * d.k_tilde ** (d.q_tilde + 1.0) / (d.q + 1.0) ** (d.q_tilde + 1.0)
        lower = (d.q * d.k_tilde / (d.q + 1.0)) ** (1.0 / P.s)
    else:
        branch = "k>1"
        rhs = (
            d.q**d.q_tilde
            * d.k_tilde ** (d.q_tilde + 1.0)
            / (d.k**d.q_tilde * (d.q + 1.0) ** (d.q_tilde + 1.0))
        )
        lower = (d.q * d.k_tilde / (d.k * (d.q + 1.0))) ** (1.0 / P.s)
    holds = lhs < rhs
    bracket = None
    if holds:
        eye = np.eye(P.n, dtype=P.Q.dtype)
        bracket = (lower * eye, P._q_root.copy())
    return ConditionReport(
        criterion="sufficient",
        branch=branch,
        verdicts={"norm_sum": Verdict(holds, lhs, rhs)},
        holds=holds,
        bracket=bracket,
    )


def solution_bounds(P: ProblemInstance) -> SolutionBounds:
    """Two-sided brackets [c I, Q^(1/s)] and the refined [m I, N].

    Every Hermitian positive definite solution lies in both intervals.
    Raises BracketUndefinedError when Q - c^s I (or the matrix under the
    1/s root of N) is not positive definite, which certifies that the
    instance cannot have a solution.
    """
    d = derived_scalars(P)
    # Q - c^s I and Q share eigenvectors, so every Q-side term below is a
    # congruence through the one eigendecomposition of Q
    q_values, q_vectors = P._q_eig
    gap_values = q_values - d.c**P.s
    if not mc.is_pd_spectrum(gap_values):
        raise BracketUndefinedError(
            "bracket undefined; Q - c^s I is not positive definite "
            f"(lambda_min = {gap_values[0]:.3e}), so the instance "
            "cannot have a Hermitian positive definite solution"
        )
    a_ref = mc.congruence(q_vectors, 1.0 / gap_values, P.A.conj().T)
    b_ref = mc.congruence(q_vectors, 1.0 / gap_values, P.B.conj().T)
    m = max(
        _clamped_root(mc.trusted_lambda_min(a_ref), 1.0 / P.t),
        _clamped_root(mc.trusted_lambda_min(b_ref), 1.0 / P.p),
    )
    r = d.k_tilde / d.k
    inner = (
        P.Q
        - r ** ((P.t - 1.0) / P.s) * mc.congruence(q_vectors, q_values ** (-P.t / P.s), P.A)
        - r ** ((P.p - 1.0) / P.s) * mc.congruence(q_vectors, q_values ** (-P.p / P.s), P.B)
    )
    inner_values, inner_vectors = mc.trusted_eigh(inner)
    if not mc.is_pd_spectrum(inner_values):
        raise BracketUndefinedError(
            "bracket undefined; the matrix under the 1/s root of the upper "
            f"bound N is not positive definite (lambda_min = {inner_values[0]:.3e}), "
            "so the instance cannot have a Hermitian positive definite solution"
        )
    N = mc.eig_power(inner_values, inner_vectors, 1.0 / P.s)
    return SolutionBounds(m=m, N=N, c=d.c, q_root=P._q_root.copy())


def _correction_slope(P: ProblemInstance, x: float) -> float:
    """t ||A||^2 / x^(t+1) + p ||B||^2 / x^(p+1), the contraction sum of the
    correction X -> A* X^-t A + B* X^-p B at X = x I; its limit inf when a
    power of x underflows to 0."""
    x_t, x_p = x ** (P.t + 1.0), x ** (P.p + 1.0)
    if x_t > 0.0 and x_p > 0.0:
        return P.t / x_t * P._norm_a**2 + P.p / x_p * P._norm_b**2
    return math.inf


def check_uniqueness_interval(P: ProblemInstance) -> ConditionReport:
    """Uniqueness of the solution inside [c I, Q^(1/s)].

    The domination hypothesis quantifies over every X in the interval; the
    correction map X -> A* X^-t A + B* X^-p B is order-reversing, so checking
    it at the lower endpoint X = c I dominates the whole interval.  The
    verdict is labeled accordingly.

    When c clamps to 0, or a power c^-t, c^-p overflows, the correction at
    X = c I is unbounded: domination fails with lhs = -inf.  When a vanishes
    (c = 0, or a underflows), a power c^(t+1), c^(p+1) underflows or
    a^(1/s - 1) overflows, the contraction term is its limit inf.  Neither
    is raised.
    """
    d = derived_scalars(P)
    n = P.n
    eye = np.eye(n, dtype=P.Q.dtype)
    # congruences of HPD matrices: clamp rounding-level negatives as _clamped_root does
    floor_sum = mc.hermitian_part(
        mc.eig_power(np.maximum(P._aqa_eig[0], 0.0), P._aqa_eig[1], P.s / P.t)
        + mc.eig_power(np.maximum(P._bqb_eig[0], 0.0), P._bqb_eig[1], P.s / P.p)
    )
    v_floor = _loewner_verdict(floor_sum, P.Q, max(mc.hermitian_norm(floor_sum), P._norm_q))
    dom_note = "checked at lower endpoint X = cI"
    c_t, c_p = _power(d.c, -P.t), _power(d.c, -P.p)
    if c_t < math.inf and c_p < math.inf:
        correction_at_c = mc.hermitian_part(c_t * P._ata + c_p * P._btb)
        dom_rhs = mc.hermitian_part(P.Q - floor_sum)
        scale = max(mc.hermitian_norm(correction_at_c), mc.hermitian_norm(dom_rhs))
        v_dom = _loewner_verdict(correction_at_c, dom_rhs, scale, note=dom_note)
    else:
        v_dom = Verdict(False, -math.inf, 0.0, dom_note)
    contraction = math.inf
    if d.a > 0.0:
        contraction = (1.0 / P.s) * _power(d.a, 1.0 / P.s - 1.0) * _correction_slope(P, d.c)
    v_contr = Verdict(contraction < 1.0, contraction, 1.0)
    verdicts = {"interval_floor": v_floor, "domination": v_dom, "contraction": v_contr}
    holds = all(v.holds for v in verdicts.values())
    bracket = None
    if holds:
        bracket = (d.c * eye, P._q_root.copy())
    return ConditionReport(
        criterion="uniqueness-interval",
        branch="",
        verdicts=verdicts,
        holds=holds,
        bracket=bracket,
    )


def check_uniqueness_k(P: ProblemInstance, k: float) -> ConditionReport:
    """Uniqueness of the solution inside [k c1 I, Q^(1/s)] for a scale k > 0.

    k here is a free parameter, not an eigenvalue of Q; scan_k searches a
    grid for a value making every hypothesis hold.  A negative power of k or
    k c1 that overflows is its limit inf, and so is the contraction term when
    a power of k c1 underflows: the verdicts fail.  The spread fails whenever
    1 - k^-t - k^-p <= 0, whatever underflowed.  Raises FloatingPointError
    when both sides of the spread are positive but underflow to 0.
    """
    k = float(k)
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be a positive real, got {k}")
    d = derived_scalars(P)
    k_t, k_p = _power(k, -P.t), _power(k, -P.p)
    power_sum = k_t + k_p
    v_powers = Verdict(power_sum < 1.0, power_sum, 1.0)
    spread_lhs = d.c1**P.s / d.k_tilde
    k_s = _power(k, -P.s)
    spread_factor = 1.0 - k_t - k_p
    spread_rhs = spread_factor * k_s
    if spread_lhs == 0.0 and k_s == 0.0 and v_powers.holds:
        # c1^s > 0 and, with the power sum below 1, the right-hand side is > 0 too
        raise FloatingPointError(f"spread condition underflows on both sides at k = {k:.6g}")
    # the true left side c1^s / lambda_min(Q) is > 0, so a factor <= 0 fails
    # the verdict even where both sides underflowed to (signed) zeros
    v_spread = Verdict(spread_factor > 0.0 and spread_lhs <= spread_rhs, spread_lhs, spread_rhs)
    kc = k * d.c1
    slope = _correction_slope(P, kc)
    contraction = math.inf
    if slope < math.inf:
        contraction = (1.0 / P.s) * _power(kc, 1.0 - P.s) * slope
    v_contr = Verdict(contraction < 1.0, contraction, 1.0)
    verdicts = {"power_sum": v_powers, "spread": v_spread, "contraction": v_contr}
    holds = all(v.holds for v in verdicts.values())
    bracket = None
    if holds:
        bracket = (kc * np.eye(P.n, dtype=P.Q.dtype), P._q_root.copy())
    return ConditionReport(
        criterion="uniqueness-scaled",
        branch=f"k={k:.6g}",
        verdicts=verdicts,
        holds=holds,
        bracket=bracket,
    )


_K_GRID = _read_only(np.geomspace(1.01, 100.0, 200))


def scan_k(P: ProblemInstance) -> float | None:
    """First k on a 200-point log grid in [1.01, 100] making check_uniqueness_k hold."""
    for k in _K_GRID:
        if check_uniqueness_k(P, float(k)).holds:
            return float(k)
    return None


@dataclass(frozen=True)
class Factorization:
    """Witness (U, lam, N1, N2) of the coefficient factorization.

    U is unitary, lam holds the positive diagonal entries of the middle
    factor, and A = (U diag(lam) U*)^(t/2s) N1, B = (U diag(lam) U*)^(p/2s) N2
    with U diag(lam) U* + N1* N1 + N2* N2 = Q.
    """

    U: np.ndarray
    lam: np.ndarray
    N1: np.ndarray
    N2: np.ndarray


def verify_factorization(P: ProblemInstance, F: Factorization, tol: float = 1e-8) -> bool:
    """True iff F reproduces A, B and completes Q within tolerance."""
    U = mc.as_matrix(F.U, "U")
    N1 = mc.as_matrix(F.N1, "N1")
    N2 = mc.as_matrix(F.N2, "N2")
    lam = np.asarray(F.lam, dtype=float).ravel()
    n = P.n
    if U.shape != (n, n) or N1.shape != (n, n) or N2.shape != (n, n) or lam.shape != (n,):
        raise ValueError("factorization dimensions do not match the instance")
    if np.any(lam <= 0.0):
        return False
    if mc.spectral_norm(U.conj().T @ U - np.eye(n)) > tol:
        return False
    core = mc.hermitian_part((U * lam) @ U.conj().T)
    core_eig = mc.trusted_eigh(core)  # lam comes from the caller: check its powers
    ok_a = mc.spectral_norm(P.A - mc.checked_eig_power(*core_eig, P.t / (2.0 * P.s)) @ N1)
    ok_b = mc.spectral_norm(P.B - mc.checked_eig_power(*core_eig, P.p / (2.0 * P.s)) @ N2)
    ok_q = mc.spectral_norm(core + N1.conj().T @ N1 + N2.conj().T @ N2 - P.Q)
    return (
        ok_a <= tol * (1.0 + P._norm_a)
        and ok_b <= tol * (1.0 + P._norm_b)
        and ok_q <= tol * (1.0 + P._norm_q)
    )


def factorization_from_solution(
    P: ProblemInstance, X, tol: float | None = None
) -> Factorization:
    """Build the factorization witness from a solution X.

    Eigendecomposes X^s = U diag(lam) U* and sets N1 = X^(-t/2) A,
    N2 = X^(-p/2) B.  Raises NotASolutionError when X fails the equation
    residual check (tolerance 1e-8 * (1 + ||Q||) by default).
    """
    _, values, vectors = _accept_candidate(P, X)
    res = _residual(P, values, vectors)
    if tol is None:
        tol = P._accept_tol
    if res > tol:
        raise NotASolutionError(
            f"candidate is not a solution (residual {res:.3e} > tolerance {tol:.3e})"
        )
    adj = vectors.conj().T
    n1 = (vectors * values ** (-P.t / 2.0)) @ adj @ P.A
    n2 = (vectors * values ** (-P.p / 2.0)) @ adj @ P.B
    return Factorization(U=vectors, lam=values**P.s, N1=n1, N2=n2)


def _accept_candidate(P: ProblemInstance, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one acceptance rule for a candidate solution X from outside:
    Hermitian up to drift, the shape of Q, and positive definite (else
    NotASolutionError).  Returns X symmetrized and its eigendecomposition."""
    X = mc.check_hermitian(X, "X")
    if X.shape != P.Q.shape:
        raise ValueError(f"X has shape {X.shape}, expected {P.Q.shape}")
    values, vectors = mc.trusted_eigh(X)
    if not mc.is_pd_spectrum(values):
        raise NotASolutionError(
            f"X is not positive definite (lambda_min = {values[0]:.3e})"
        )
    return X, values, vectors


def _residual(P: ProblemInstance, values: np.ndarray, vectors: np.ndarray) -> float:
    """||X^s + A* X^-t A + B* X^-p B - Q|| for X = V diag(values) V* positive definite.

    The one residual certificate behind the solvers and every candidate
    check; callers validate X and its positivity (see _accept_candidate).
    """
    x_s = (vectors * values**P.s) @ vectors.conj().T
    R = (
        x_s
        + mc.congruence(vectors, values**-P.t, P.A)
        + mc.congruence(vectors, values**-P.p, P.B)
        - P.Q
    )
    return mc.hermitian_norm(mc.hermitian_part(R))
