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

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import matcore as mc
from .analysis import ProblemInstance, Verdict, _accept_candidate, _loewner_verdict, _residual
from .analysis import _NORMAL, _exceeds_q, _loewner_tol, _monomial, _positive

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
    "residual",
    "alpha_search",
    "b_search",
    "fixed_point_check",
    "coupled_check",
    "solve_fixed_point",
    "solve_coupled",
    "solve",
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

    tol: absolute stopping threshold on the Frobenius norm of the step;
         None means 1e-14 * ||Q||.
    max_iter: iteration cap, an int >= 1.
    alpha: starting scalar for the fixed-point scheme (None: alpha_search).
    b_upper: upper starting scalar for the coupled scheme (None: b_search).
    tol, alpha and b_upper, when given, must be finite and positive.
    force: iterate even when preconditions fail; extremality becomes unknown.
    """

    tol: float | None = None
    max_iter: int = 1000
    alpha: float | None = None
    b_upper: float | None = None
    force: bool = False

    def __post_init__(self):
        for name in ("tol", "alpha", "b_upper"):
            if getattr(self, name) is not None:
                _positive(getattr(self, name), name)
        cap = self.max_iter
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
            raise ValueError(f"max_iter must be an int >= 1, got {self.max_iter!r}")


class _Precheck:
    """The one rule of both scheme prechecks: ok when the scheme applies and
    every Verdict field holds."""

    def _verdicts(self) -> dict[str, Verdict]:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v for name, v in values.items() if isinstance(v, Verdict)}

    @property
    def ok(self) -> bool:
        return self.scheme_applies and all(v.holds for v in self._verdicts().values())


@dataclass(frozen=True)
class FixedPointCheck(_Precheck):
    """Precondition verdicts of the fixed-point scheme for a given alpha.

    beta = lambda_min(Y_1) is the floor of the first iterate.  The two
    conditions are: feasibility alpha + alpha^{-t/s} ||A||^2 +
    alpha^{-p/s} ||B||^2 < lambda_min(Q), and contraction
    t beta^{-t/s} ||A||^2 + p beta^{-p/s} ||B||^2 < s beta, which is
    equivalent to delta < 1.
    """

    alpha: float
    beta: float
    delta: float
    feasibility: Verdict
    contraction: Verdict
    scheme_applies: bool


@dataclass(frozen=True)
class CoupledCheck(_Precheck):
    """Precondition verdicts of the coupled scheme for a given b.

    a = lambda_min(A Q^-1 A*), theta = lambda_min(A* A) / b = sigma_min(A)^2 / b with
    sigma_min(A) from the SVD that validated A.  The four conditions are: separation
    b > a; domination Q >= b^-1 A* A + b^{s/t} I + a^{-p/t} B* B; the two contraction
    inequalities s ||A||^2 < t theta^2 a^{1-s/t} / 2 and p ||B||^2 < s a^{(p+s)/t}.
    A domination failed unformed (see coupled_check) reads "-inf vs 0", at any b.
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


@dataclass
class SolveReport:
    """Outcome of one solve.

    solution_Y is the solution of the transformed equation in Y = X^lift_root
    and solution_X = solution_Y^(1/lift_root) solves the original equation.
    history rows are (iteration, step_error_X, step_error_Y), Frobenius
    norms of the steps; for the fixed-point scheme both step errors are the
    same single-sequence step norm.  The iterates themselves are not kept:
    a solve holds a fixed number of n x n matrices whatever max_iter is.
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


def _best_alpha(P: ProblemInstance) -> tuple[float, bool]:
    """The alpha on the search grid with the smallest feasibility left-hand
    side, and whether that left-hand side stays below lambda_min(Q)."""
    lmq = P._lambda_min_q
    grid = np.geomspace(1e-8 * lmq, lmq, 500)
    lhs = grid + _grid_weight(grid, -P.t / P.s, P._norm_a)
    lhs += _grid_weight(grid, -P.p / P.s, P._norm_b)
    idx = np.argmin(lhs)
    return float(grid[idx]), bool(lhs[idx] < lmq)


def _grid_weight(grid: np.ndarray, r: float, norm: float) -> np.ndarray:
    """grid^r norm^2 elementwise, by the rule of _monomial: in floats where
    both factors and the product are normal, else exp(r log grid + 2 log norm)."""
    square = _monomial(1.0, (norm, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):
        factor = grid**r
        weight = factor * square
        normal = (_NORMAL <= np.minimum(factor, weight)) & (np.maximum(factor, weight) < math.inf)
        normal &= _NORMAL <= square < math.inf
        return np.where(normal, weight, np.exp(r * np.log(grid) + 2.0 * math.log(norm)))


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
    return _fixed_point_start(P, alpha)[0]


def _fixed_point_start(P: ProblemInstance, alpha: float) -> tuple[FixedPointCheck, tuple | None]:
    """(fixed_point_check(P, alpha), start): start is (Y_1, values, vectors),
    the first iterate after Y_0 = alpha I with the eigendecomposition beta is
    read from, or None when a weight of Y_1 overflows."""
    alpha = _positive(alpha, "alpha")
    norm_a, norm_b = P._norm_a, P._norm_b
    e_t, e_p = P.t / P.s, P.p / P.s
    lmq = P._lambda_min_q
    feas_lhs = alpha + _monomial(1.0, (alpha, -e_t), (norm_a, 2.0))
    feas_lhs += _monomial(1.0, (alpha, -e_p), (norm_b, 2.0))
    # feas_lhs >= alpha, so feasibility also has alpha < lambda_min(Q)
    feasibility = Verdict(feas_lhs < lmq, feas_lhs, lmq)
    beta = -math.inf
    start = None
    # Y_1 = Q - alpha^-(t/s) A* A - alpha^-(p/s) B* B, from the cached A* A and B* B,
    # is unbounded below when a weight overflows (the first, as t >= p): beta
    # keeps its limit -inf
    w_a, w_b = _monomial(1.0, (alpha, -e_t)), _monomial(1.0, (alpha, -e_p))
    if w_a < math.inf:
        Y_1 = mc.hermitian_part(P.Q - w_a * P._ata - w_b * P._btb)
        start = (Y_1, *np.linalg.eigh(Y_1))
        beta = float(start[1][0])
    contraction_lhs = delta = math.inf
    if beta > 0.0:
        contraction_lhs = _monomial(P.t, (beta, -e_t), (norm_a, 2.0))
        contraction_lhs += _monomial(P.p, (beta, -e_p), (norm_b, 2.0))
        delta = _monomial(e_t, (norm_a, 2.0), (beta, -e_t - 1.0))
        delta += _monomial(e_p, (norm_b, 2.0), (beta, -e_p - 1.0))
    contraction_rhs = P.s * beta
    check = FixedPointCheck(
        alpha=alpha,
        beta=beta,
        delta=delta,
        feasibility=feasibility,
        contraction=Verdict(contraction_lhs < contraction_rhs, contraction_lhs, contraction_rhs),
        scheme_applies=P.s >= max(P.t, P.p),
    )
    return check, start


def _eigh_pd(M: np.ndarray, what: str):
    values, vectors = np.linalg.eigh(M)
    _require_pd(values, what)
    return values, vectors


def _require_pd(values: np.ndarray, what: str) -> None:
    if not mc.is_pd_spectrum(values):
        raise PositivityError(
            f"{what} is not positive definite (lambda_min = {values[0]:.3e})"
        )


# An iterate sequence freezes its eigenbasis once its predicted next step is at
# most _FREEZE_RTOL ||Q|| (and _FREEZE_LMIN_RTOL l_min, below), and re-bases
# once its drift from the frozen iterate passes either again; a coupled
# half-step freezes its inverse on the same scale (see _Inverses).  Only at
# n >= _FREEZE_MIN_N, the measured crossover: a freeze costs a
# divided-difference table per term, which the few frozen steps of a solve must
# win back.  On random instances of both schemes (one BLAS thread,
# real and complex), a solve that may freeze took 1.00-1.09x the time of one
# that never does at n = 8, 0.97-1.06x at n = 12, 0.92-0.99x at n = 16 and
# 0.84-0.89x at n = 24.  Below it the loops decompose and factor every iterate.
_FREEZE_RTOL = 1e-8
_FREEZE_MIN_N = 16
# The first-order remainder of a frozen power, relative to the term, grows like
# (||D||_F / l_min)^2, which the limit on the scale of ||Q|| does not bound when
# the iterate is much smaller than Q.  So the drift must also be at most
# _FREEZE_LMIN_RTOL times the base's smallest eigenvalue.  That gate keeps the
# eigh per solve of the perfbench workloads (seed 1) at 15.8 on coupled-n64 and
# 7.0 on fixedpoint-n128; the tighter 1e-7 and 1e-8 re-base more often, at 16.7
# and 18.4 on coupled-n64.
_FREEZE_LMIN_RTOL = 1e-6


class _Powers:
    """The terms M* Y^r M (M None: Y^r itself) of one iterate sequence, for fixed
    pairs (r, M), each iterate with a positivity verdict.

    A decomposed iterate Y = V diag(l) V* gets the exact verdict of is_pd_spectrum
    on its spectrum and keeps, per pair, l^r and W = V* M (V* when M is None): its
    terms are W* diag(l^r) W.  The sequence freezes on its predicted drift: once
    its last Frobenius step times the last step ratio, min(1, step / previous
    step), is at most the freeze limit and _FREEZE_LMIN_RTOL times its smallest
    eigenvalue, that iterate is the base Y_f, and a later iterate Y = Y_f + D
    is evaluated in the base's eigenbasis to first order
    (Daleckii-Krein): Y^r = V (diag(l^r) + Gamma_r o V* D V) V* + O(||D||^2), with
    Gamma_r the divided differences of x^r on l and the remainder at most about
    ||D||_F^2 sup |f''| on the spectrum's interval.  So a frozen term is
    W* (diag(l^r) + Gamma_r o V* D V) W from the base's own W, and its verdict is
    the Weyl certificate.  A sequence with no base first tries its partner's (the
    other coupled sequence, which has the same pairs) and adopts it when that
    step passes.  When the certificate cannot decide, when the drift ||D||_F
    passes either bound, or when a divided difference is not finite, a fresh
    eigh re-bases.
    """

    def __init__(self, P: ProblemInstance, pairs: tuple):
        self.pairs = pairs
        self.limit = _FREEZE_RTOL * P._norm_q if P.n >= _FREEZE_MIN_N else -math.inf
        # the frozen (Y_f, l, V, [(l^r, Gamma_r, W) per pair]), or None
        self.base: tuple | None = None
        self.last_step = math.inf

    def at(
        self, Y: np.ndarray, step: float, what: str, eig=None, partner_base=None
    ) -> list[np.ndarray]:
        """The terms at iterate Y, whose last Frobenius step is step; eig is its
        eigendecomposition when the caller has it, already verdicted, and
        partner_base the base of the partner sequence, if any."""
        # the predicted next step: step times the last step ratio, once there is one
        predicted = step * step / self.last_step if step < self.last_step < math.inf else step
        self.last_step = step
        if eig is None:
            base = partner_base if self.base is None else self.base
            if base is not None:
                terms = self._first_order(Y, base)
                if terms is not None:
                    self.base = base
                    return terms
        values, vectors = _eigh_pd(Y, what) if eig is None else eig
        freeze = predicted <= self._drift_limit(values)
        adj = vectors.conj().T
        kept = []
        for r, M in self.pairs:
            gamma = _divided_differences(values, r) if freeze else None
            kept.append((values**r, gamma, adj if M is None else adj @ M))
        self.base = None
        if freeze and all(np.all(np.isfinite(gamma)) for _, gamma, _ in kept):
            self.base = (Y, values, vectors, kept)
        return [(W.conj().T * power) @ W for power, _, W in kept]

    def _drift_limit(self, values: np.ndarray) -> float:
        """The largest drift a base with ascending spectrum values may take."""
        return min(self.limit, _FREEZE_LMIN_RTOL * values[0])

    def _first_order(self, Y: np.ndarray, base: tuple) -> list[np.ndarray] | None:
        """The terms at Y from the frozen base, or None when its drift passes
        either bound or the Weyl certificate cannot decide its positivity."""
        Y_f, values, vectors, kept = base
        D = Y - Y_f
        drift = float(np.linalg.norm(D))
        if not (drift <= self._drift_limit(values) and _weyl_certifies(values, drift)):
            return None
        E = vectors.conj().T @ D @ vectors
        out = []
        for power, gamma, W in kept:
            S = gamma * E
            S.flat[:: len(power) + 1] += power
            out.append(W.conj().T @ S @ W)
        return out


def _weyl_certifies(values: np.ndarray, drift: float) -> bool:
    """Whether Y_f + D passes is_pd_spectrum for every Hermitian D with
    ||D||_F <= drift, Y_f having the ascending spectrum values: by Weyl each
    eigenvalue moves by at most ||D||_2 <= ||D||_F."""
    scale = float(np.max(np.abs(values))) + drift
    return bool(values[0] - drift > mc.PD_TOL * scale)


def _divided_differences(values: np.ndarray, r: float) -> np.ndarray:
    """Gamma_ij = (l_i^r - l_j^r) / (l_i - l_j), and r l_i^(r-1) where l_i = l_j,
    for positive l = values; no floating-point warning is raised.

    Off the diagonal it is l_j^(r-1) expm1(r u) / expm1(u) with u = log(l_i / l_j),
    which has no cancellation at near-ties; its relative rounding error is a few
    eps (1 + |log l_i| + |log l_j|), from the log and from r - 1.  Where that form
    is not finite, the plain quotient is used; it has no cancellation there.
    Exact ties (l_i / l_j rounding to 1) take the derivative r l^(r-1).
    """
    li, lj = values[:, None], values[None, :]
    with np.errstate(all="ignore"):
        u = np.log(li / lj)
        tie = u == 0.0
        safe = np.where(tie, 1.0, u)
        gamma = lj ** (r - 1.0) * (np.expm1(r * safe) / np.expm1(safe))
        plain = ~np.isfinite(gamma) & ~tie
        if plain.any():
            gamma = np.where(plain, (li**r - lj**r) / np.where(plain, li - lj, 1.0), gamma)
        return np.where(tie, r * li ** (r - 1.0), gamma)


def solve_fixed_point(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Maximal-solution fixed-point iteration in Y = X^s.

    Iterates Y_{n+1} = Q - A* Y_n^{-t/s} A - B* Y_n^{-p/s} B from
    Y_0 = alpha I until the Frobenius step norm drops to opts.tol or
    max_iter is hit (non-convergence is reported on the result, not
    raised).  Under the preconditions the iterates ascend to the maximal
    solution and the a priori error bound delta^n/(1-delta) ||Y_1 - Y_0||_F
    holds.

    Every iterate gets a positivity verdict from _Powers, whose loss raises
    PositivityError.  The last iterate always gets its own eigh, which feeds
    the lift and the residual certificate.
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
    check, start = _fixed_point_start(P, alpha)
    if not check.ok and not opts.force:
        raise _precondition_error(Scheme.FIXED_POINT, check)
    alpha = check.alpha
    e_t = P.t / P.s
    e_p = P.p / P.s
    # Y_0 = alpha I is never decomposed: Y_1 is known in closed form, its
    # eigh is the one the precheck read beta from, and ||Y_1 - Y_0||_F is the
    # 2-norm of lambda(Y_1) - alpha.
    if start is None:  # only a forced run gets here
        raise OverflowError(f"alpha^(-t/s) overflows at alpha = {alpha:.6g}, so Y_1 is unbounded")
    Y, values, vectors = start
    _require_pd(values, "iterate 1")
    step = float(np.linalg.norm(values - alpha))
    history = [HistoryEntry(1, step, step)]
    powers = _Powers(P, ((-e_t, P.A), (-e_p, P.B)))
    eig = (values, vectors)
    for it in range(2, opts.max_iter + 1):
        if step <= tol:
            break
        term_a, term_b = powers.at(Y, step, f"iterate {it - 1}", eig)
        Y_next = mc.hermitian_part(P.Q - term_a - term_b)
        step = float(np.linalg.norm(Y_next - Y))
        history.append(HistoryEntry(it, step, step))
        Y, eig = Y_next, None
    if eig is None:
        eig = _eigh_pd(Y, f"iterate {len(history)}")
    return _lift_and_certify(P, Scheme.FIXED_POINT, check, history, step <= tol, Y, *eig)


def _lift_and_certify(
    P: ProblemInstance, scheme: Scheme, check, history: list[HistoryEntry], converged: bool,
    Y: np.ndarray, values: np.ndarray, vectors: np.ndarray, refined=None,
) -> SolveReport:
    """The one ending of both schemes: lift the limit Y = X^root (root s or t)
    with eigendecomposition (values, vectors) to X = Y^(1/root), and certify
    its residual from the same decomposition (X has spectrum values^(1/root))."""
    fixed_point = scheme is Scheme.FIXED_POINT
    root = P.s if fixed_point else P.t
    extremality = Extremality.MAXIMAL if fixed_point else Extremality.MINIMAL
    return SolveReport(
        solution_X=mc.eig_power(values, vectors, 1.0 / root),
        solution_Y=Y,
        scheme=scheme,
        iterations=len(history),
        residual=_residual(P, values ** (1.0 / root), vectors),
        history=history,
        delta=check.delta,
        extremality=extremality if check.ok else Extremality.UNKNOWN,
        preconditions_held=check.ok,
        swap_applied=P.swapped,
        converged=converged,
        lift_root=root,
        precheck=check,
        refined_bracket=refined,
    )


def _precondition_error(scheme: Scheme, check: FixedPointCheck | CoupledCheck) -> PreconditionError:
    """The one failure message of both prechecks: each failed condition with its two sides."""
    fixed_point = scheme is Scheme.FIXED_POINT
    problems = []
    if not check.scheme_applies:
        exponent, other = ("s", Scheme.COUPLED) if fixed_point else ("t", Scheme.FIXED_POINT)
        problems.append(f"{exponent} is not the largest exponent (intended scheme is {other.value})")
    for name, v in check._verdicts().items():
        if not v.holds:
            note = f" ({v.note})" if v.note else ""
            problems.append(f"{name} fails: {v.lhs:.6g} vs {v.rhs:.6g}{note}")
    start = f"alpha = {check.alpha:.6g}" if fixed_point else f"b = {check.b:.6g}"
    head = f"{scheme.value} preconditions failed at {start}: "
    return PreconditionError(head + "; ".join(problems))


# ---------------------------------------------------------------------------
# coupled scheme (minimal solution, t the largest exponent)


def coupled_check(P: ProblemInstance, b: float) -> CoupledCheck:
    """Evaluate the coupled scheme preconditions at an upper scalar b.

    Every verdict is decided, the scalar powers by _monomial: where theta or
    a = lambda_min(A Q^-1 A*) rounds to 0, the conditions it enters as a negative
    power fail and delta is inf (never NaN).  Domination fails unformed (lhs -inf) once
    ||A||^2 / b exceeds lambda_max(Q), where a is 0 or b^(s/t), a^(-p/t) overflows, or
    where _rayleigh_fails proves it; otherwise its matrix is formed and lhs is its gap.
    """
    b = _positive(b, "b")
    norm_a, norm_b = P._norm_a, P._norm_b
    a = _coupled_a(P)
    theta = _monomial(1.0, (P._sigma_min_a, 2.0), (b, -1.0))
    separation = Verdict(b > a, a, b, note="requires lhs < rhs")
    domination = Verdict(False, -math.inf, 0.0)
    w_b, w_a = _monomial(1.0, (b, P.s / P.t)), _monomial(1.0, (a, -P.p / P.t))
    # lambda_max(dom_rhs) >= ||A||^2 / b, as its other two terms are PSD
    norm_a2_b = _monomial(1.0, (norm_a, 2.0), (b, -1.0))
    formable = max(w_b, w_a) < math.inf and not _exceeds_q(P, norm_a2_b)
    if formable and not _rayleigh_fails(P, b, w_b, w_a, norm_a2_b):
        dom_rhs = mc.hermitian_part(P._ata / b + w_b * np.eye(P.n) + w_a * P._btb)
        # dom_rhs is positive semidefinite, so wherever the verdict is close,
        # ||dom_rhs|| <= ||Q|| + |gap|: scaling the tolerance by ||Q|| alone
        # decides the same way as scaling it by max(||Q||, ||dom_rhs||).
        domination = _loewner_verdict(dom_rhs, P.Q, P._norm_q)
    # for s > t the power of a is negative, and _monomial gives its limit inf at a = 0
    rhs_a = _monomial(0.5 * P.t, (theta, 2.0), (a, 1.0 - P.s / P.t)) if theta > 0.0 else 0.0
    lhs_a = _monomial(P.s, (norm_a, 2.0))
    contraction_a = Verdict(lhs_a < rhs_a, lhs_a, rhs_a)
    lhs_b = _monomial(P.p, (norm_b, 2.0))
    rhs_b = _monomial(P.s, (a, (P.p + P.s) / P.t))
    contraction_b = Verdict(lhs_b < rhs_b, lhs_b, rhs_b)
    delta = math.inf
    if theta > 0.0 and a > 0.0:
        delta = 2.0 * max(
            _monomial(P.s / P.t, (norm_a, 2.0), (theta, -2.0), (a, P.s / P.t - 1.0)),
            _monomial(
                P.p / P.t, (norm_a, 2.0), (norm_b, 2.0), (theta, -2.0), (a, -P.p / P.t - 1.0)
            ),
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


def _rayleigh_fails(P: ProblemInstance, b: float, w_b: float, w_a: float, norm_a2_b: float) -> bool:
    """Whether Q >= A* A / b + w_b I + w_a B* B (norm_a2_b = ||A||^2 / b) fails unformed:
    lambda_min of Q minus the right side is <= r_i = q_i - ||A v_i||^2 / b - w_b -
    w_a ||B v_i||^2 at each unit eigenvector v_i of Q (Courant-Fischer; P._q_rayleigh).
    A non-finite r_i, from an overflowing ||A v_i||^2 say, never rejects."""
    q, k_a, k_b = P._q_rayleigh
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(np.min(q - k_a / b - w_b - w_a * k_b))
    # r and the gap the matrix verdict would compute each stray from the exact bound by
    # rounding in the four terms and two eigensolvers, a small multiple of n eps S for S
    # bounding every term; _loewner_tol(S) = 1e-10 max(S, 1) is 1700 n eps S at n = 256.
    size = P._norm_q + norm_a2_b + w_b + w_a * _monomial(1.0, (P._norm_b, 2.0))
    return math.isfinite(r) and r < -_loewner_tol(P._norm_q) - _loewner_tol(size)


def _coupled_a(P: ProblemInstance) -> float:
    """a = lambda_min(A Q^-1 A*), clamped at 0: the lower starting scalar."""
    return max(float(P._aqa_eig[0][0]), 0.0)


def b_search(P: ProblemInstance) -> float | None:
    """First b on a log grid in (a, 10 lambda_max(Q)^(t/s)] passing the
    coupled-scheme conditions, or None."""
    a = _coupled_a(P)
    upper = _monomial(10.0, (P._lambda_max_q, P.t / P.s))
    if upper <= a or a == 0.0 or upper == math.inf:
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
    Y_0 = b I, stopping when the larger of the two Frobenius step norms
    drops to opts.tol.  The lower sequence ascends, the upper descends, and both
    converge to the minimal solution; the first pair (X_1, Y_1) is returned
    as a refined bracket.  Loss of positive definiteness of the inverted
    matrix aborts with a diagnostic, and an instance whose lower starting
    scalar a = lambda_min(A Q^-1 A*) rounds to 0 is rejected up front, even
    with force.

    Each iterate but the last pair gets a positivity verdict from _Powers, and
    each half-step's inverted matrix one from _Inverses.  Near convergence an
    iterate's terms come from a frozen eigenbasis, its own or the other
    sequence's, and a half-step from a Neumann series about its lane's last
    exact inverse.  The limit (X + Y)/2 always gets its own eigh, which feeds
    the lift and the residual certificate.
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
    check = coupled_check(P, b)
    if not check.ok and not opts.force:
        raise _precondition_error(Scheme.COUPLED, check)
    e_s = P.s / P.t
    e_p = P.p / P.t
    n = P.n
    adj_a = P.A.conj().T
    eye = np.eye(n, dtype=P.Q.dtype)
    X, Y = check.a * eye, check.b * eye
    # X_0 = a I and Y_0 = b I (a, b > 0) are not decomposed: eigh(c I) is exactly (c 1, I)
    x_eig, y_eig = (np.full(n, check.a), eye), (np.full(n, check.b), eye)
    step_x = step_y = math.inf
    # each sequence supplies its own X^(s/t) and, to the other one, B* X^(-p/t) B
    # and its frozen base
    lower = _Powers(P, ((e_s, None), (-e_p, P.B)))
    upper = _Powers(P, ((e_s, None), (-e_p, P.B)))
    lower_inv, upper_inv = _Inverses(adj_a), _Inverses(adj_a)
    history: list[HistoryEntry] = []
    refined: tuple[np.ndarray, np.ndarray] | None = None
    converged = False
    # The lower and upper sequences are symmetric; each step runs the lower
    # one first, so the first error raised is the lower sequence's.  The last
    # pair is never decomposed on its own.
    for it in range(1, opts.max_iter + 1):
        x_pow, x_b = lower.at(X, step_x, f"lower iterate {it - 1}", x_eig, upper.base)
        y_pow, y_b = upper.at(Y, step_y, f"upper iterate {it - 1}", y_eig, lower.base)
        x_eig = y_eig = None
        X_next = lower_inv.at(mc.hermitian_part(P.Q - x_pow - y_b), it)
        step_x = float(np.linalg.norm(X_next - X))
        Y_next = upper_inv.at(mc.hermitian_part(P.Q - y_pow - x_b), it)
        step_y = float(np.linalg.norm(Y_next - Y))
        history.append(HistoryEntry(it, step_x, step_y))
        if it == 1:
            refined = (X_next, Y_next)
        X, Y = X_next, Y_next
        if max(step_x, step_y) <= tol:
            converged = True
            break
    # both halves come out of _Inverses.at symmetrized, so their mean is
    # exactly Hermitian
    Y_sol = 0.5 * (X + Y)
    sol_values, sol_vectors = _eigh_pd(Y_sol, "limit")
    return _lift_and_certify(
        P, Scheme.COUPLED, check, history, converged, Y_sol, sol_values, sol_vectors, refined
    )


# A frozen half-step sums at most _NEUMANN_MAX_ORDER terms past the identity of
# the Neumann series of (I + G)^-1 (see _Inverses).  Order k costs k + 3 matrix
# products; the exact half-step it replaces costs one Cholesky factorization, one
# triangular inverse and 2 products.  With one BLAS thread that exact step took
# the time of 16 products at real n = 64, 9.6-10 at real n = 128 and 256, 9.1 at
# complex n = 64 and 7.2 at complex n = 128, the fewest measured.  So order 4, at
# 7 products, never costs more than the exact step it saves.
_NEUMANN_MAX_ORDER = 4


class _Inverses:
    """The half-steps A M^-1 A* of one coupled lane (adj_a = A*), for its
    successive inner matrices M, each with the positivity verdict of
    is_pd_spectrum on M.

    The exact half-step factors M = L L* and returns W* W with W = L^-1 A*.  It
    is taken only when it provably agrees with that verdict:
    lambda_min(M) >= lam = 1/||L^-1||_F^2 and max|lambda(M)| <= ||M||_F, so
    lam > 2 PD_TOL ||M||_F (the factor 2 absorbs rounding) passes it; a
    non-finite L^-1 fails it, as 1/inf^2 = 0 and NaN compares false.  Otherwise
    the eigendecomposition decides, and inverts.

    At n >= _FREEZE_MIN_N the lane keeps its last exact Cholesky half-step:
    M_f, L^-1, W, ||X_f||_F and lam.  A later M = M_f + D is L (I + G) L* with
    G = L^-1 D L^-*, so A M^-1 A* = W* (I + G)^-1 W, and the update is the
    Neumann series W* (I - G + G^2 - ... + (-G)^k) W, whose remainder
    W* (-G)^(k+1) (I + G)^-1 W has ||.||_F <= ||W||_F^2 g^(k+1) / (1 - g) for
    g = ||G||_F < 1.  At k = 1 it is X_f - U* D U with U = M_f^-1 A*, the
    Frechet derivative of the inverse.  The update is taken only when
    lam (1 - g) > 2 PD_TOL (||M_f||_F + ||D||_F), which passes the verdict as
    above, since lambda_min(M) >= lam lambda_min(I + G) >= lam (1 - g) and
    max|lambda(M)| <= ||M||_F <= ||M_f||_F + ||D||_F, and at
    the smallest order k <= _NEUMANN_MAX_ORDER whose remainder bound is at most
    _FREEZE_RTOL^2 ||X_f||_F; otherwise the exact half-step runs.  As
    ||D||_F <= ||M_f||_2 g, the drift ||D||_F / ||M_f||_F bounds g from below and
    refuses a hopeless update before G is formed.
    """

    def __init__(self, adj_a: np.ndarray):
        self.adj_a = adj_a
        self.freeze = adj_a.shape[0] >= _FREEZE_MIN_N
        # the last exact (M_f, ||M_f||_F, L^-1, W, ||W||_F^2, ||X_f||_F, lam), or None
        self.base: tuple | None = None

    def at(self, inner: np.ndarray, it: int) -> np.ndarray:
        """A inner^-1 A*, inner being the lane's matrix at iteration it."""
        if self.base is not None:
            X = self._series(inner)
            if X is not None:
                return X
        try:
            L_inv = np.linalg.inv(np.linalg.cholesky(inner))
        except np.linalg.LinAlgError:
            L_inv = None
        if L_inv is not None:
            lam = 1.0 / np.linalg.norm(L_inv) ** 2
            norm_m = np.linalg.norm(inner)
            if lam > 2.0 * mc.PD_TOL * norm_m:
                W = L_inv @ self.adj_a
                X = mc.hermitian_part(W.conj().T @ W)
                if self.freeze:
                    norm_w = np.linalg.norm(W)
                    self.base = (inner, norm_m, L_inv, W, norm_w * norm_w, np.linalg.norm(X), lam)
                return X
        inner_vals, inner_vecs = np.linalg.eigh(inner)
        if not mc.is_pd_spectrum(inner_vals):
            raise PositivityError(
                f"inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
                f"definiteness at iteration {it} (lambda_min = {inner_vals[0]:.3e})"
            )
        return mc.hermitian_part(mc.congruence(inner_vecs, 1.0 / inner_vals, self.adj_a))

    def _series(self, inner: np.ndarray) -> np.ndarray | None:
        """The Neumann series update at inner = M_f + D, or None when the
        positivity certificate or the remainder bound fails at every order."""
        M_f, norm_m, L_inv, W, _, _, _ = self.base
        D = inner - M_f
        drift = float(np.linalg.norm(D))
        if self._order(drift / norm_m, drift) is None:
            return None
        G = L_inv @ D @ L_inv.conj().T
        order = self._order(float(np.linalg.norm(G)), drift)
        if order is None:
            return None
        Z = W
        for _ in range(order):  # Horner: Z = (I - G + ... + (-G)^order) W
            Z = W - G @ Z
        return mc.hermitian_part(W.conj().T @ Z)

    def _order(self, g: float, drift: float) -> int | None:
        """The series order for ||G||_F = g, or None when the positivity
        certificate or the remainder bound fails at every order."""
        _, norm_m, _, _, norm_w2, norm_x, lam = self.base
        # the certificate also gives g < 1, and it fails on a NaN g
        if not lam * (1.0 - g) > 2.0 * mc.PD_TOL * (norm_m + drift):
            return None
        budget = _FREEZE_RTOL**2 * norm_x * (1.0 - g)
        bound = norm_w2 * g * g  # the remainder bound at order 1, times 1 - g
        for order in range(1, _NEUMANN_MAX_ORDER + 1):
            if bound <= budget:
                return order
            bound *= g
        return None


def solve(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Dispatch on the largest exponent: s >= max(t, p) runs the fixed-point
    scheme (ties included), otherwise the coupled scheme."""
    if P.s >= P.t:
        return solve_fixed_point(P, opts)
    return solve_coupled(P, opts)
