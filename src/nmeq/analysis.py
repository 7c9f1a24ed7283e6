"""Solvability and uniqueness conditions, solution brackets, and the
factorization characterization for X^s + A* X^-t A + B* X^-p B = Q.

Each check returns a ConditionReport with one Verdict per hypothesis it decides;
a report never raises just because a condition fails, since a false verdict is data.
"""

from __future__ import annotations

import math
import sys
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


def _require_nonsingular(M: np.ndarray, name: str) -> tuple[float, float]:
    """Reject a (numerically) singular M; return its largest and smallest singular values."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        raise ValueError(
            f"{name} must be nonsingular (singular values span "
            f"[{sv[-1]:.3e}, {sv[0]:.3e}])"
        )
    return float(sv[0]), float(sv[-1])


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

    Q is validated here once; the matrices are stored read-only.  The invariants
    every condition check and solver reads (||A||, ||B||, sigma_min(A), ||Q||, the spectrum
    of Q and its eigenvectors, the spectra of A Q^-1 A* and B Q^-1 B*, A* A, B* B, their
    Rayleigh quotients at the eigenvectors of Q, Q^(1/s), the derived scalars) are computed
    once per instance: the singular values of A and B and the spectrum of Q come out of
    validation, the rest on first use, and all are kept in private attributes.  Each matrix
    is decomposed only as far as its readers need: Q's eigenvectors are formed on first use
    and paired with the validated spectrum, so Q keeps one spectrum.
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
        q_values = _read_only(np.linalg.eigvalsh(Q))
        if not mc.is_pd_spectrum(q_values):
            raise ValueError("Q must be Hermitian positive definite")
        sv_a, sv_b = _require_nonsingular(A, "A"), _require_nonsingular(B, "B")
        s, t, p = float(self.s), float(self.t), float(self.p)
        for name, v in (("s", s), ("t", t), ("p", p)):
            if not (math.isfinite(v) and v >= 1.0):
                raise ValueError(f"exponent {name} must be finite and >= 1, got {v}")
        swapped = False
        if t < p:
            A, B, sv_a, sv_b = B, A, sv_b, sv_a
            t, p = p, t
            swapped = True
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "swapped", swapped)
        object.__setattr__(self, "_norm_a", sv_a[0])
        object.__setattr__(self, "_norm_b", sv_b[0])
        object.__setattr__(self, "_sigma_min_a", sv_a[1])
        object.__setattr__(self, "_q_values", q_values)
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

    @cached_property
    def _q_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """The validated spectrum of Q with the eigenvectors of one eigh of Q."""
        return self._q_values, _read_only(mc.trusted_eigh(self.Q)[1])

    def _inverse_q(self, M: np.ndarray) -> np.ndarray:
        """M Q^-1 M*, symmetrized, with Q^-1 read from the eigenpairs of Q.  Only its
        spectrum is read, and cached."""
        q_values, q_vectors = self._q_eig
        return mc.hermitian_part(mc.congruence(q_vectors, 1.0 / q_values, M.conj().T))

    @cached_property
    def _aqa_values(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self._inverse_q(self.A)))

    @cached_property
    def _bqb_values(self) -> np.ndarray:
        return _read_only(np.linalg.eigvalsh(self._inverse_q(self.B)))

    @cached_property
    def _q_rayleigh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """lambda(Q), and ||A v_i||^2, ||B v_i||^2 (inf on overflow) at the unit
        eigenvectors v_i of Q: the Rayleigh quotients of Q, A* A and B* B there."""
        q_values, q_vectors = self._q_eig
        with np.errstate(over="ignore"):
            k_a, k_b = (np.sum(np.abs(M @ q_vectors) ** 2, axis=0) for M in (self.A, self.B))
        return q_values, _read_only(k_a), _read_only(k_b)

    @cached_property
    def _ata(self) -> np.ndarray:
        """A* A, symmetrized."""
        return _read_only(mc.hermitian_part(self.A.conj().T @ self.A))

    @cached_property
    def _btb(self) -> np.ndarray:
        """B* B."""
        return _read_only(self.B.conj().T @ self.B)

    @cached_property
    def _solver_memo(self) -> dict:
        """What the solvers keep per instance, by name: the coupled precheck's terms
        that do not depend on b (solvers._coupled_terms)."""
        return {}

    @cached_property
    def _q_root(self) -> np.ndarray:
        """Q^(1/s)."""
        return _read_only(mc.eig_power(*self._q_eig, 1.0 / self.s))

    @cached_property
    def _derived(self) -> DerivedScalars:
        values_a, values_b = self._aqa_values, self._bqb_values
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
        )

    @cached_property
    def _k_scalars(self) -> tuple[float, float, float, float, float]:
        """log c1, log(t ||A||^2 / s), log(p ||B||^2 / s), and the spread's left side
        c1^s / lambda_min(Q) with its log: what check_uniqueness_k reads at every k."""
        c1, lmq = self._derived.c1, self._lambda_min_q
        log_a2 = math.log(self.t / self.s) + 2.0 * math.log(self._norm_a)
        log_b2 = math.log(self.p / self.s) + 2.0 * math.log(self._norm_b)
        spread = _monomial(1.0, (c1, self.s), (lmq, -1.0))
        return _log(c1), log_a2, log_b2, spread, self.s * _log(c1) - math.log(lmq)


def _read_only(M: np.ndarray) -> np.ndarray:
    M.setflags(write=False)
    return M


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
    """

    k: float
    k_tilde: float
    q: float
    q_tilde: float
    c: float
    c1: float


def _clamped_root(value: float, root: float) -> float:
    # congruences of HPD matrices are HPD; clamp rounding-level negatives
    return _monomial(1.0, (max(value, 0.0), root))


# The smallest positive normal double.
_NORMAL = sys.float_info.min


def _log(x: float) -> float:
    """log x for x >= 0, with log 0 = -inf."""
    return math.log(x) if x > 0.0 else -math.inf


def _exp(x: float) -> float:
    """exp x, with an overflow read as inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _monomial(c: float, *powers: tuple[float, float]) -> float:
    """c x1^r1 x2^r2 ... for c > 0 and floats x_i >= 0 (x_i > 0 where r_i < 0), the one
    rule for a power of an instance scalar: multiplied left to right in floats while
    every factor and partial product is a normal double, else exp(log c + r1 log x1
    + ...) with log 0 = -inf, x^0 = 1 and an overflow read as inf.  No intermediate
    overflow or underflow makes it inf, 0 or NaN where the true value is not."""
    value = c
    try:
        for x, r in powers:
            factor = x**r
            value *= factor
            if not (_NORMAL <= min(factor, value) and max(factor, value) < math.inf):
                break
        else:
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    return _exp(_log_monomial(c, *powers))


def _log_monomial(c: float, *powers: tuple[float, float]) -> float:
    """log(c x1^r1 x2^r2 ...) = log c + r1 log x1 + ..., with log 0 = -inf and x^0 = 1:
    the fallback of _monomial, for comparing monomials past the double range."""
    return math.log(c) + sum(r * _log(x) for x, r in powers if r != 0.0)


def _positive(value: float, name: str) -> float:
    """The one rule for a user-given scalar (a tolerance, a start, a scale): finite
    and > 0, else ValueError naming it.  Returns it as a float."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _loewner_tol(scale: float) -> float:
    return 1e-10 * max(scale, 1.0)


def _loewner_verdict(L: np.ndarray, R: np.ndarray, scale: float) -> Verdict:
    """The one Loewner-order rule for library-built Hermitian L, R: L <= R holds when
    gap = lambda_min(R - L) >= -_loewner_tol(scale), scale a norm of the two sides."""
    gap = mc.trusted_lambda_min(R - L)
    return Verdict(gap >= -_loewner_tol(scale), gap, 0.0)


def _condition_report(
    P: ProblemInstance, criterion: str, branch: str, verdicts: dict, floor: float | None = None
) -> ConditionReport:
    """The one rule of every check: it holds when all its verdicts hold, and a
    check with a bracket floor then reports the bracket [floor I, Q^(1/s)]."""
    holds = all(v.holds for v in verdicts.values())
    bracket = None
    if holds and floor is not None:
        bracket = (floor * np.eye(P.n, dtype=P.Q.dtype), P._q_root.copy())
    return ConditionReport(criterion, branch, verdicts, holds, bracket)


def derived_scalars(P: ProblemInstance) -> DerivedScalars:
    return P._derived


def check_necessary(P: ProblemInstance) -> ConditionReport:
    """Necessary condition on the squared spectral radii of A and B.

    A false verdict certifies that the instance has no Hermitian positive
    definite solution; a true verdict decides nothing on its own.
    """
    d = derived_scalars(P)
    branch = "k<=1" if d.k <= 1.0 else "k>1"
    # k^(1 + q_tilde) enters only for k > 1; 1^r is exactly 1
    powers = ((d.q, d.q), (max(d.k, 1.0), 1.0 + d.q_tilde), (d.q + 1.0, -(d.q + 1.0)))
    bound, log_bound = _monomial(1.0, *powers), _log_monomial(1.0, *powers)
    verdicts = {}
    # decided in logs, so two sides past the double range still compare
    for name, M in (("spectral_radius_A", P.A), ("spectral_radius_B", P.B)):
        rho = mc.spectral_radius(M)
        verdicts[name] = Verdict(2.0 * _log(rho) < log_bound, _monomial(1.0, (rho, 2.0)), bound)
    return _condition_report(P, "necessary", branch, verdicts)


def check_sufficient(P: ProblemInstance) -> ConditionReport:
    """Sufficient condition on ||A||^2 + ||B||^2; on success a solution is
    guaranteed inside the reported bracket."""
    d = derived_scalars(P)
    lhs = _monomial(1.0, (P._norm_a, 2.0)) + _monomial(1.0, (P._norm_b, 2.0))
    branch = "k<=1" if d.k <= 1.0 else "k>1"
    k = max(d.k, 1.0)  # k enters only for k > 1; 1^r is exactly 1
    rhs = _monomial(
        1.0, (d.q, d.q_tilde), (d.k_tilde, d.q_tilde + 1.0), (k, -d.q_tilde),
        (d.q + 1.0, -(d.q_tilde + 1.0)),
    )
    lower = _monomial(1.0, (d.q * d.k_tilde / (k * (d.q + 1.0)), 1.0 / P.s))
    verdicts = {"norm_sum": Verdict(lhs < rhs, lhs, rhs)}
    return _condition_report(P, "sufficient", branch, verdicts, lower)


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
    gap_values = q_values - _monomial(1.0, (d.c, P.s))
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
    w_a, w_b = _monomial(1.0, (r, (P.t - 1.0) / P.s)), _monomial(1.0, (r, (P.p - 1.0) / P.s))
    inner = (
        P.Q
        - w_a * mc.congruence(q_vectors, q_values ** (-P.t / P.s), P.A)
        - w_b * mc.congruence(q_vectors, q_values ** (-P.p / P.s), P.B)
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


def check_uniqueness_interval(P: ProblemInstance) -> ConditionReport:
    """Uniqueness of the solution inside [c I, Q^(1/s)], decided by proof.

    It needs the order-reversing correction X -> A* X^-t A + B* X^-p B at X = c I
    below Q - F, F the positive definite floor sum.  Q^-1/2 A* A Q^-1/2 and A Q^-1 A*
    share their spectrum, so A* A >= lambda_min(A Q^-1 A*) Q and the correction at
    c I is >= c^-t A* A >= Q when c comes from A (likewise from B; unbounded at
    c = 0), while Q - F < Q.  So the domination fails, unformed (lhs -inf), for
    every instance; scan_k is the uniqueness test that can hold.
    """
    domination = Verdict(False, -math.inf, 0.0, "checked at lower endpoint X = cI")
    return ConditionReport("uniqueness-interval", "", {"domination": domination}, False)


def check_uniqueness_k(P: ProblemInstance, k: float) -> ConditionReport:
    """Uniqueness of the solution inside [k c1 I, Q^(1/s)] for a scale k > 0.

    k here is a free parameter, not an eigenvalue of Q; scan_k searches a
    grid for a value making every hypothesis hold.  Every power is taken in
    logs (the fallback of _monomial, from logs cached per instance), so every
    verdict is decided: the spread c1^s / lambda_min(Q) <= (1 - k^-t - k^-p) k^-s
    is compared in logs, whatever its two sides underflow to.
    """
    k = _positive(k, "k")
    log_c1, log_a2, log_b2, spread_lhs, log_spread = P._k_scalars
    log_k = math.log(k)
    k_t, k_p = _exp(-P.t * log_k), _exp(-P.p * log_k)
    power_sum = k_t + k_p
    v_powers = Verdict(power_sum < 1.0, power_sum, 1.0)
    spread_factor = 1.0 - k_t - k_p
    spread = spread_factor > 0.0 and log_spread <= math.log(spread_factor) - P.s * log_k
    v_spread = Verdict(spread, spread_lhs, spread_factor * _exp(-P.s * log_k))
    # (k c1)^(1-s) / s (t ||A||^2 (k c1)^-(t+1) + p ||B||^2 (k c1)^-(p+1))
    log_kc = log_k + log_c1
    contraction = _exp(log_a2 - (P.s + P.t) * log_kc) + _exp(log_b2 - (P.s + P.p) * log_kc)
    v_contr = Verdict(contraction < 1.0, contraction, 1.0)
    verdicts = {"power_sum": v_powers, "spread": v_spread, "contraction": v_contr}
    kc = k * derived_scalars(P).c1
    return _condition_report(P, "uniqueness-scaled", f"k={k:.6g}", verdicts, kc)


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
    """True iff F reproduces A, B and completes Q within tol.  A lam that is not
    real and finite, or a tol that is not finite and positive, raises ValueError."""
    tol = _positive(tol, "tol")
    U = mc.as_matrix(F.U, "U")
    N1 = mc.as_matrix(F.N1, "N1")
    N2 = mc.as_matrix(F.N2, "N2")
    try:
        lam = np.asarray(F.lam, dtype=complex).ravel()
        if np.any(lam.imag) or not np.all(np.isfinite(lam)):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError("lam must be real and finite") from None
    lam = lam.real
    n = P.n
    if U.shape != (n, n) or N1.shape != (n, n) or N2.shape != (n, n) or lam.shape != (n,):
        raise ValueError("factorization dimensions do not match the instance")
    if np.any(lam <= 0.0):
        return False
    if mc.spectral_norm(U.conj().T @ U - np.eye(n)) > tol:
        return False
    core = mc.eig_power(lam, U, 1.0)
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
    tol = P._accept_tol if tol is None else _positive(tol, "tol")
    _, values, vectors = _accept_candidate(P, X)
    res = _residual(P, values, vectors)
    if res > tol:
        raise NotASolutionError(
            f"candidate is not a solution (residual {res:.3e} > tolerance {tol:.3e})"
        )
    n1 = mc.eig_compose(vectors, values ** (-P.t / 2.0)) @ P.A
    n2 = mc.eig_compose(vectors, values ** (-P.p / 2.0)) @ P.B
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
    check; callers validate X and its positivity (see _accept_candidate).  The
    norm is the spectral one, the largest |eigenvalue| of the symmetrized R.
    """
    R = (
        mc.eig_compose(vectors, values**P.s)
        + mc.congruence(vectors, values**-P.t, P.A)
        + mc.congruence(vectors, values**-P.p, P.B)
        - P.Q
    )
    return float(np.max(np.abs(np.linalg.eigvalsh(mc.hermitian_part(R)))))
