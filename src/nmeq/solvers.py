"""Iteration schemes for X^s + A* X^-t A + B* X^-p B = Q.

Two schemes, chosen by which exponent dominates:

* fixed-point (s is the largest exponent): substitute Y = X^s and iterate
  Y_{n+1} = Q - A* Y_n^{-t/s} A - B* Y_n^{-p/s} B from Y_0 = alpha I.  The
  iterates ascend in the Loewner order to the maximal solution.
* coupled (t is the largest exponent): substitute Y = X^t and run the
  mixed-monotone pair X_{n+1} = F(X_n, Y_n), Y_{n+1} = F(Y_n, X_n) with
  F(X, Y) = A (Q - X^{s/t} - B* Y^{-p/t} B)^{-1} A* from X_0 = a I,
  Y_0 = b I.  Both sequences converge to the minimal solution.

Each scheme has sufficient preconditions that guarantee convergence with a
contraction constant delta < 1; ``force`` runs the iteration anyway, in which
case extremality of the limit is unknown.
"""

from __future__ import annotations

import contextvars
import enum
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore as mc
from .analysis import ProblemInstance, Verdict, _accept_candidate, _loewner_verdict, _residual

__all__ = [
    "PreconditionError",
    "PositivityError",
    "Scheme",
    "Extremality",
    "SolveOptions",
    "HistoryEntry",
    "SolveReport",
    "FixedPointCheck",
    "CoupledCheck",
    "ScalarInstance",
    "ScalarRoots",
    "residual",
    "alpha_search",
    "b_search",
    "fixed_point_check",
    "coupled_check",
    "solve_fixed_point",
    "solve_coupled",
    "solve",
    "scalar_oracle",
]


class PreconditionError(RuntimeError):
    """A solver precondition failed and force was not requested."""


class PositivityError(RuntimeError):
    """An iterate or intermediate matrix left the positive definite cone."""


class Scheme(enum.Enum):
    FIXED_POINT = "fixed-point"
    COUPLED = "coupled"


class Extremality(enum.Enum):
    MAXIMAL = "maximal"
    MINIMAL = "minimal"
    UNKNOWN = "unknown"


class HistoryEntry(NamedTuple):
    iteration: int
    step_error_X: float
    step_error_Y: float


@dataclass
class SolveOptions:
    """Iteration controls.

    tol: absolute step-norm stopping threshold; None means 1e-14 * ||Q||.
    alpha: starting scalar for the fixed-point scheme (None: alpha_search).
    b_upper: upper starting scalar for the coupled scheme (None: b_search).
    force: iterate even when preconditions fail; extremality becomes unknown.
    """

    tol: float | None = None
    max_iter: int = 1000
    alpha: float | None = None
    b_upper: float | None = None
    force: bool = False

    def __post_init__(self):
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class FixedPointCheck:
    """Precondition scalars of the fixed-point scheme for a given alpha.

    feasibility_lhs = alpha + alpha^{-t/s} ||A||^2 + alpha^{-p/s} ||B||^2
    must stay below lambda_min(Q); beta is the floor of the first iterate,
    and the contraction inequality t beta^{-t/s} ||A||^2 +
    p beta^{-p/s} ||B||^2 < s beta is equivalent to delta < 1.
    """

    alpha: float
    feasibility_lhs: float
    lambda_min_q: float
    beta: float
    contraction_lhs: float
    contraction_rhs: float
    delta: float
    scheme_applies: bool
    feasible: bool
    contractive: bool

    @property
    def ok(self) -> bool:
        return self.scheme_applies and self.feasible and self.contractive


@dataclass(frozen=True)
class CoupledCheck:
    """Precondition verdicts of the coupled scheme for a given b.

    a = lambda_min(A Q^-1 A*), theta = lambda_min(A* A) / b.  The four
    conditions are: separation b > a; domination Q >= b^-1 A* A +
    b^{s/t} I + a^{-p/t} B* B; the two contraction inequalities
    s ||A||^2 < t theta^2 a^{1-s/t} / 2 and p ||B||^2 < s a^{(p+s)/t}.
    """

    b: float
    a: float
    theta: float
    delta: float
    separation: Verdict
    domination: Verdict
    contraction_a: Verdict
    contraction_b: Verdict
    scheme_applies: bool

    @property
    def ok(self) -> bool:
        return self.scheme_applies and all(
            v.holds
            for v in (self.separation, self.domination, self.contraction_a, self.contraction_b)
        )


@dataclass
class SolveReport:
    """Outcome of one solve.

    solution_Y is the solution of the transformed equation in Y = X^lift_root
    and solution_X = solution_Y^(1/lift_root) solves the original equation.
    history rows are (iteration, step_error_X, step_error_Y); for the
    fixed-point scheme both step errors are the same single-sequence step
    norm.  The iterates themselves are not kept: a solve holds a fixed number
    of n x n matrices whatever max_iter is.
    """

    solution_X: np.ndarray
    solution_Y: np.ndarray
    scheme: Scheme
    iterations: int
    residual: float
    history: list[HistoryEntry]
    delta: float
    extremality: Extremality
    preconditions_held: bool
    swap_applied: bool
    converged: bool
    lift_root: float
    precheck: FixedPointCheck | CoupledCheck
    refined_bracket: tuple[np.ndarray, np.ndarray] | None = None


def _resolve_tol(P: ProblemInstance, opts: SolveOptions) -> float:
    if opts.tol is not None:
        return opts.tol
    return 1e-14 * P._norm_q


def residual(P: ProblemInstance, X) -> float:
    """||X^s + A* X^-t A + B* X^-p B - Q|| for an HPD candidate X."""
    _, values, vectors = _accept_candidate(P, X)
    return _residual(P, values, vectors)


# ---------------------------------------------------------------------------
# fixed-point scheme (maximal solution, s the largest exponent)


def _feasibility_lhs(P: ProblemInstance, alpha):
    na2, nb2 = P._norm_a**2, P._norm_b**2
    return alpha + alpha ** (-P.t / P.s) * na2 + alpha ** (-P.p / P.s) * nb2


def _best_alpha(P: ProblemInstance) -> tuple[float, bool]:
    """The alpha on the search grid with the smallest feasibility left-hand
    side, and whether that left-hand side stays below lambda_min(Q)."""
    lmq = P._lambda_min_q
    grid = np.geomspace(1e-8 * lmq, lmq, 500)
    lhs = _feasibility_lhs(P, grid)
    idx = np.argmin(lhs)
    return float(grid[idx]), bool(lhs[idx] < lmq)


def alpha_search(P: ProblemInstance) -> float | None:
    """Feasible starting scalar minimizing the feasibility left-hand side.

    Scans 500 log-spaced alphas in (1e-8 lambda_min(Q), lambda_min(Q)] and
    returns the one with the smallest alpha + alpha^{-t/s} ||A||^2 +
    alpha^{-p/s} ||B||^2 if that keeps it below lambda_min(Q), or None when
    no grid point is feasible.
    """
    alpha, feasible = _best_alpha(P)
    return alpha if feasible else None


def fixed_point_check(P: ProblemInstance, alpha: float) -> FixedPointCheck:
    """Evaluate the fixed-point scheme preconditions at a starting alpha."""
    alpha = float(alpha)
    na2 = P._norm_a**2
    nb2 = P._norm_b**2
    lmq = P._lambda_min_q
    scheme_applies = P.s >= max(P.t, P.p)
    if alpha > 0.0:
        feas_lhs = float(_feasibility_lhs(P, alpha))
        beta = mc.trusted_lambda_min(_first_iterate(P, alpha))
    else:
        feas_lhs = math.inf
        beta = -math.inf
    feasible = 0.0 < alpha <= lmq and feas_lhs < lmq
    if beta > 0.0:
        contraction_lhs = P.t * beta ** (-P.t / P.s) * na2 + P.p * beta ** (-P.p / P.s) * nb2
        delta = (P.t / P.s) * na2 * beta ** (-P.t / P.s - 1.0) + (
            P.p / P.s
        ) * nb2 * beta ** (-P.p / P.s - 1.0)
    else:
        contraction_lhs = math.inf
        delta = math.inf
    contraction_rhs = P.s * beta
    return FixedPointCheck(
        alpha=alpha,
        feasibility_lhs=feas_lhs,
        lambda_min_q=lmq,
        beta=beta,
        contraction_lhs=contraction_lhs,
        contraction_rhs=contraction_rhs,
        delta=delta,
        scheme_applies=scheme_applies,
        feasible=feasible,
        contractive=contraction_lhs < contraction_rhs,
    )


def _first_iterate(P: ProblemInstance, alpha: float) -> np.ndarray:
    """Y_1 = Q - alpha^{-t/s} A* A - alpha^{-p/s} B* B, the fixed-point
    iterate after Y_0 = alpha I, from the cached A* A and B* B."""
    return mc.hermitian_part(
        P.Q - alpha ** (-P.t / P.s) * P._ata - alpha ** (-P.p / P.s) * P._btb
    )


def _eigh_pd(M: np.ndarray, what: str):
    values, vectors = np.linalg.eigh(M)
    if not mc.is_pd_spectrum(values):
        raise PositivityError(
            f"{what} is not positive definite (lambda_min = {values[0]:.3e})"
        )
    return values, vectors


# Below this dimension a decomposition costs less than handing it to another
# thread: on 2 cores with one BLAS thread, a real eigh + eigvalsh took 28 us
# serial vs 35 us paired at n = 16, and 81 vs 62 us at n = 32.
_PAIR_MIN_N = 32
# The executor of _pair's second lane: one thread, made on first use.
_lane = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drop_lane() -> None:
    # a forked child inherits the executor but not its thread: a task
    # submitted there would wait forever, so the child makes its own
    global _lane
    _lane = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_lane)


def _pair(n: int, f, g):
    """(f(), g()), with g on a second thread while the caller runs f.

    The two lanes must be independent: each reads only arrays computed
    before the call.  numpy releases the interpreter lock inside LAPACK and
    BLAS, so at n >= _PAIR_MIN_N with two usable CPUs the lanes overlap;
    smaller problems, or a single CPU, run f then g inline.  The outcome is
    the serial one: when f raises, g is waited for and f's exception is
    raised; otherwise g's result is returned or its exception raised.
    """
    global _lane
    if n < _PAIR_MIN_N or _usable_cpus() < 2:
        first = f()
        return first, g()
    if _lane is None:
        from concurrent.futures import ThreadPoolExecutor

        _lane = ThreadPoolExecutor(max_workers=1, thread_name_prefix="nmeq-lane")
    # g runs in the caller's context, so a numpy errstate covers both lanes
    future = _lane.submit(contextvars.copy_context().run, g)
    try:
        first = f()
    except BaseException:
        future.exception()
        raise
    return first, future.result()


def solve_fixed_point(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Maximal-solution fixed-point iteration in Y = X^s.

    Iterates Y_{n+1} = Q - A* Y_n^{-t/s} A - B* Y_n^{-p/s} B from
    Y_0 = alpha I until the step norm drops to opts.tol or max_iter is hit
    (non-convergence is reported on the result, not raised).  Under the
    preconditions the iterates ascend to the maximal solution and the a
    priori error bound delta^n/(1-delta) ||Y_1 - Y_0|| holds.
    """
    if opts is None:
        opts = SolveOptions()
    tol = _resolve_tol(P, opts)
    alpha = opts.alpha
    if alpha is None:
        alpha = alpha_search(P)
        if alpha is None:
            if not opts.force:
                raise PreconditionError(
                    "no feasible starting scalar alpha exists on the search grid; "
                    "the fixed-point preconditions cannot be satisfied "
                    "(enable force to iterate anyway)"
                )
            alpha, _ = _best_alpha(P)  # force: the unconstrained minimizer
    check = fixed_point_check(P, float(alpha))
    if not check.ok and not opts.force:
        raise PreconditionError(_fixed_point_failure_message(check))
    alpha = check.alpha
    if not mc.is_pd_spectrum(np.array([alpha])):
        raise PositivityError(
            f"iterate 0 is not positive definite (lambda_min = {alpha:.3e})"
        )
    e_t = P.t / P.s
    e_p = P.p / P.s
    # Y_0 = alpha I is never decomposed: Y_1 is known in closed form, and
    # ||Y_1 - Y_0|| = max|lambda(Y_1) - alpha|.  Each later iterate gets one
    # eigh, which feeds the next step or, for the last one, both the lift and
    # the residual certificate (X = Y^(1/s) has the spectrum values^(1/s)).
    # The two congruences of a step, then the next iterate's eigh and the
    # step norm, are independent pairs: each runs as the two lanes of _pair.
    Y = _first_iterate(P, alpha)
    values, vectors = _eigh_pd(Y, "iterate 1")
    step = float(np.max(np.abs(values - alpha)))
    history = [HistoryEntry(1, step, step)]
    iterations = 1
    converged = step <= tol
    while not converged and iterations < opts.max_iter:
        iterations += 1
        term_a, term_b = _pair(
            P.n,
            lambda: mc.congruence(vectors, values**-e_t, P.A),
            lambda: mc.congruence(vectors, values**-e_p, P.B),
        )
        Y_next = mc.hermitian_part(P.Q - term_a - term_b)
        (values, vectors), step = _pair(
            P.n,
            lambda: _eigh_pd(Y_next, f"iterate {iterations}"),
            lambda: mc.hermitian_norm(Y_next - Y),
        )
        history.append(HistoryEntry(iterations, step, step))
        Y = Y_next
        converged = step <= tol
    return SolveReport(
        solution_X=mc.eig_power(values, vectors, 1.0 / P.s),
        solution_Y=Y,
        scheme=Scheme.FIXED_POINT,
        iterations=iterations,
        residual=_residual(P, values ** (1.0 / P.s), vectors),
        history=history,
        delta=check.delta,
        extremality=Extremality.MAXIMAL if check.ok else Extremality.UNKNOWN,
        preconditions_held=check.ok,
        swap_applied=P.swapped,
        converged=converged,
        lift_root=P.s,
        precheck=check,
    )


def _fixed_point_failure_message(check: FixedPointCheck) -> str:
    problems = []
    if not check.scheme_applies:
        problems.append("s is not the largest exponent (intended scheme is coupled)")
    if not check.feasible:
        problems.append(
            f"alpha = {check.alpha:.6g} infeasible: lhs {check.feasibility_lhs:.6g} "
            f"must stay below lambda_min(Q) = {check.lambda_min_q:.6g} with alpha in range"
        )
    if not check.contractive:
        problems.append(
            f"contraction fails: {check.contraction_lhs:.6g} >= {check.contraction_rhs:.6g}"
        )
    return "fixed-point preconditions failed: " + "; ".join(problems)


# ---------------------------------------------------------------------------
# coupled scheme (minimal solution, t the largest exponent)


def coupled_check(P: ProblemInstance, b: float) -> CoupledCheck:
    """Evaluate the coupled scheme preconditions at an upper scalar b.

    When lambda_min(A* A) or a = lambda_min(A Q^-1 A*) rounds to 0, the
    conditions it enters as a negative power fail and delta is inf, so the
    verdict is reported, not raised.
    """
    b = float(b)
    if not (math.isfinite(b) and b > 0.0):
        raise ValueError(f"b must be a positive real, got {b}")
    na2 = P._norm_a**2
    nb2 = P._norm_b**2
    a = _coupled_a(P)
    theta = P._lambda_min_ata / b
    separation = Verdict(b > a, a, b, note="requires lhs < rhs")
    domination = Verdict(False, -math.inf, 0.0)
    if a > 0.0:
        dom_rhs = mc.hermitian_part(
            P._ata / b + b ** (P.s / P.t) * np.eye(P.n) + a ** (-P.p / P.t) * P._btb
        )
        # dom_rhs is positive semidefinite, so wherever the verdict is close,
        # ||dom_rhs|| <= ||Q|| + |gap|: scaling the tolerance by ||Q|| alone
        # decides the same way as scaling it by max(||Q||, ||dom_rhs||).
        domination = _loewner_verdict(dom_rhs, P.Q, P._norm_q)
    rhs_a = 0.0
    if theta > 0.0:
        # for s > t the power of a is negative; at a = 0 it is its limit, inf
        a_pow = a ** (1.0 - P.s / P.t) if a > 0.0 or P.s <= P.t else math.inf
        rhs_a = 0.5 * P.t * theta**2 * a_pow
    contraction_a = Verdict(P.s * na2 < rhs_a, P.s * na2, rhs_a)
    contraction_b = Verdict(
        P.p * nb2 < P.s * a ** ((P.p + P.s) / P.t),
        P.p * nb2,
        P.s * a ** ((P.p + P.s) / P.t),
    )
    delta = math.inf
    if theta > 0.0 and a > 0.0:
        delta = 2.0 * max(
            (P.s / P.t) * na2 * theta**-2 * a ** (P.s / P.t - 1.0),
            (P.p / P.t) * na2 * nb2 * theta**-2 * a ** (-P.p / P.t - 1.0),
        )
    return CoupledCheck(
        b=b,
        a=a,
        theta=theta,
        delta=delta,
        separation=separation,
        domination=domination,
        contraction_a=contraction_a,
        contraction_b=contraction_b,
        scheme_applies=P.t >= max(P.s, P.p),
    )


def _coupled_a(P: ProblemInstance) -> float:
    """a = lambda_min(A Q^-1 A*), clamped at 0: the lower starting scalar."""
    return max(float(P._aqa_eig[0][0]), 0.0)


def b_search(P: ProblemInstance) -> float | None:
    """First b on a log grid in (a, 10 lambda_max(Q)^(t/s)] passing the
    coupled-scheme conditions, or None."""
    a = _coupled_a(P)
    upper = 10.0 * P._lambda_max_q ** (P.t / P.s)
    if upper <= a or a == 0.0:
        return None
    for b in np.geomspace(a * (1.0 + 1e-6), upper, 100):
        check = coupled_check(P, float(b))
        if check.ok:
            return float(b)
    return None


def solve_coupled(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Minimal-solution coupled iteration in Y = X^t.

    Runs the mixed-monotone pair X_{n+1} = F(X_n, Y_n), Y_{n+1} = F(Y_n, X_n)
    with F(X, Y) = A (Q - X^{s/t} - B* Y^{-p/t} B)^{-1} A* from X_0 = a I and
    Y_0 = b I, stopping when the larger of the two step norms drops to
    opts.tol.  The lower sequence ascends, the upper descends, and both
    converge to the minimal solution; the first pair (X_1, Y_1) is returned
    as a refined bracket.  Loss of positive definiteness of the inverted
    matrix aborts with a diagnostic, and an instance whose lower starting
    scalar a = lambda_min(A Q^-1 A*) rounds to 0 is rejected up front, even
    with force.
    """
    if opts is None:
        opts = SolveOptions()
    if _coupled_a(P) == 0.0:
        raise PreconditionError(
            "lambda_min(A Q^-1 A*) rounds to 0, so the coupled scheme has no "
            "lower starting scalar a > 0"
        )
    tol = _resolve_tol(P, opts)
    b = opts.b_upper
    if b is None:
        b = b_search(P)
        if b is None:
            if not opts.force:
                raise PreconditionError(
                    "no feasible upper scalar b found on the search grid; "
                    "the coupled preconditions cannot be satisfied "
                    "(enable force to iterate anyway)"
                )
            b = 2.0 * _coupled_a(P)
    check = coupled_check(P, float(b))
    if not check.ok and not opts.force:
        raise PreconditionError(_coupled_failure_message(check))
    e_s = P.s / P.t
    e_p = P.p / P.t
    n = P.n
    adj_a = P.A.conj().T
    X = check.a * np.eye(n, dtype=P.Q.dtype)
    Y = check.b * np.eye(n, dtype=P.Q.dtype)
    history: list[HistoryEntry] = []
    refined: tuple[np.ndarray, np.ndarray] | None = None
    converged = False
    iterations = 0

    def lane(lo_eig, hi_eig, prev: np.ndarray, it: int) -> tuple[np.ndarray, float]:
        """One sequence's half-step from the previous pair, with its step norm."""
        (lo_vals, lo_vecs), (hi_vals, hi_vecs) = lo_eig, hi_eig
        lo_pow = (lo_vecs * lo_vals**e_s) @ lo_vecs.conj().T
        inner = mc.hermitian_part(P.Q - lo_pow - mc.congruence(hi_vecs, hi_vals**-e_p, P.B))
        nxt = _inverse_congruence(inner, adj_a, it)
        return nxt, mc.hermitian_norm(nxt - prev)

    # The lower and upper sequences are symmetric: the two eigh of a step,
    # then the two half-steps, run as the two lanes of _pair, lower first.
    for it in range(1, opts.max_iter + 1):
        x_eig, y_eig = _pair(
            n,
            lambda: _eigh_pd(X, f"lower iterate {it - 1}"),
            lambda: _eigh_pd(Y, f"upper iterate {it - 1}"),
        )
        (X_next, step_x), (Y_next, step_y) = _pair(
            n,
            lambda: lane(x_eig, y_eig, X, it),
            lambda: lane(y_eig, x_eig, Y, it),
        )
        history.append(HistoryEntry(it, step_x, step_y))
        if it == 1:
            refined = (X_next, Y_next)
        X, Y = X_next, Y_next
        iterations = it
        if max(step_x, step_y) <= tol:
            converged = True
            break
    Y_sol = mc.hermitian_part(0.5 * (X + Y))
    sol_values, sol_vectors = _eigh_pd(Y_sol, "limit")
    return SolveReport(
        solution_X=mc.eig_power(sol_values, sol_vectors, 1.0 / P.t),
        solution_Y=Y_sol,
        scheme=Scheme.COUPLED,
        iterations=iterations,
        residual=_residual(P, sol_values ** (1.0 / P.t), sol_vectors),
        history=history,
        delta=check.delta,
        extremality=Extremality.MINIMAL if check.ok else Extremality.UNKNOWN,
        preconditions_held=check.ok,
        swap_applied=P.swapped,
        converged=converged,
        lift_root=P.t,
        precheck=check,
        refined_bracket=refined,
    )


def _inverse_congruence(inner: np.ndarray, adj_a: np.ndarray, it: int) -> np.ndarray:
    """A inner^-1 A* for the coupled half-step, with adj_a = A*; raises
    PositivityError when inner fails the PD_TOL verdict of is_pd_spectrum.

    The fast path factors inner = L L* and returns W* W with W = L^-1 A*.
    It is taken only when it provably agrees with that verdict:
    lambda_min(inner) >= 1/||L^-1||_F^2 and max|lambda(inner)| <= ||inner||_F,
    so 1/||L^-1||_F^2 > 2 PD_TOL ||inner||_F (the factor 2 absorbs rounding)
    passes it.  Otherwise the eigendecomposition decides, and inverts.
    """
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(inner))
    except np.linalg.LinAlgError:
        L_inv = None
    if (
        L_inv is not None
        and np.all(np.isfinite(L_inv))
        and 1.0 / np.linalg.norm(L_inv) ** 2 > 2.0 * mc.PD_TOL * np.linalg.norm(inner)
    ):
        W = L_inv @ adj_a
        return mc.hermitian_part(W.conj().T @ W)
    inner_vals, inner_vecs = np.linalg.eigh(inner)
    if not mc.is_pd_spectrum(inner_vals):
        raise PositivityError(
            f"inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
            f"definiteness at iteration {it} (lambda_min = {inner_vals[0]:.3e})"
        )
    return mc.hermitian_part(mc.congruence(inner_vecs, 1.0 / inner_vals, adj_a))


def _coupled_failure_message(check: CoupledCheck) -> str:
    problems = []
    if not check.scheme_applies:
        problems.append("t is not the largest exponent (intended scheme is fixed-point)")
    if not check.separation.holds:
        problems.append(f"separation fails: b = {check.b:.6g} <= a = {check.a:.6g}")
    if not check.domination.holds:
        problems.append(
            f"domination fails: lambda_min(Q - lower bound) = {check.domination.lhs:.6g} < 0"
        )
    if not check.contraction_a.holds:
        problems.append(
            f"first contraction fails: {check.contraction_a.lhs:.6g} >= "
            f"{check.contraction_a.rhs:.6g}"
        )
    if not check.contraction_b.holds:
        problems.append(
            f"second contraction fails: {check.contraction_b.lhs:.6g} >= "
            f"{check.contraction_b.rhs:.6g}"
        )
    return "coupled preconditions failed: " + "; ".join(problems)


def solve(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Dispatch on the largest exponent: s >= max(t, p) runs the fixed-point
    scheme (ties included), otherwise the coupled scheme."""
    if P.s >= P.t:
        return solve_fixed_point(P, opts)
    return solve_coupled(P, opts)


# ---------------------------------------------------------------------------
# scalar oracle (n = 1 specialization, used as an independent test oracle)


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
        for name, v in (("q", self.q), ("a2", self.a2), ("b2", self.b2)):
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive, got {v}")
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
