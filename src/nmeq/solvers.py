"""Iteration schemes for X^s + A* X^-t A + B* X^-p B = Q.

Two schemes, chosen by which exponent dominates:

* fixed-point (s is the largest exponent): substitute Y = X^s and iterate
  Y_{n+1} = Q - A* Y_n^{-t/s} A - B* Y_n^{-p/s} B from Y_0 = alpha I.  The
  iterates ascend in the Loewner order to the maximal solution.
* coupled (t is the largest exponent): substitute Y = X^t and run the
  mixed-monotone pair X_{n+1} = F(X_n, Y_n), Y_{n+1} = F(Y_n, X_n) with
  F(X, Y) = A (Q - X^{s/t} - B* Y^{-p/t} B)^{-1} A* from X_0 = a I,
  Y_0 = b I.  Both sequences converge to the minimal solution.  The pair is
  run in the inverse variables X^-1, Y^-1, so that no step inverts a matrix.

Each scheme has sufficient preconditions that guarantee convergence with a
contraction constant delta < 1; ``force`` runs the iteration anyway, in which
case extremality of the limit is unknown.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import matcore as mc
from .analysis import ProblemInstance, Verdict, _accept_candidate, _loewner_verdict, _residual
from .analysis import _NORMAL, _loewner_tol, _monomial, _positive

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
    """Frobenius steps: the fixed-point ||Y_n - Y_(n-1)||_F twice, or per coupled lane
    ||N_n - N_(n-1)||_F / (l_1(N_n) l_1(N_(n-1))) >= ||X_n - X_(n-1)||_F, N = X^-1."""

    iteration: int
    step_error_X: float
    step_error_Y: float


@dataclass
class SolveOptions:
    """Iteration controls.

    tol: absolute stopping threshold on the HistoryEntry steps; None means
         1e-14 * ||Q||.  It also budgets frozen updates (tol / 10).
    max_iter: iteration cap, an integer >= 1 of any integer type but bool, kept as an int.
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
        is_int = hasattr(cap, "__index__") and not isinstance(cap, (bool, np.bool_))
        if not is_int or operator.index(cap) < 1:
            raise ValueError(f"max_iter must be an int >= 1, got {cap!r}")
        self.max_iter = operator.index(cap)


class _Precheck:
    """The one rule of both scheme prechecks: ok when the scheme applies and
    every Verdict field holds.  The verdicts are the fields that hold a Verdict,
    in declaration order."""

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
    """Outcome of one solve.  solution_Y solves the transformed equation in
    Y = X^lift_root, and solution_X = solution_Y^(1/lift_root) the original one.
    history rows are HistoryEntry: the fixed-point step norm twice, or the coupled
    lanes' proven upper bounds on theirs.  The iterates are not kept: a solve holds
    a fixed number of n x n matrices whatever max_iter is."""

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


# A sequence freezes its eigenbasis only while a proven remainder bound keeps each
# frozen update within the budget of _freeze_budget, and only at n >= _FREEZE_MIN_N,
# the measured crossover: a freeze costs a divided-difference table per term, which
# the few frozen steps of a solve must win back.  On random instances of both
# schemes (one BLAS thread, real and complex), a solve that may freeze took
# 1.00-1.09x the time of one that never does at n = 8, 0.97-1.06x at n = 12,
# 0.92-0.99x at n = 16 and 0.84-0.89x at n = 24.  Below it the loops decompose
# every iterate.
_FREEZE_MIN_N = 16


def _freeze_budget(P: ProblemInstance, tol: float) -> float:
    """The most, in the Frobenius norm, a frozen update may differ from the exact
    one: tol / 10 at n >= _FREEZE_MIN_N, else -inf, so that nothing freezes."""
    return 0.1 * tol if P.n >= _FREEZE_MIN_N else -math.inf


class _Powers:
    """The terms M* Y^r M of one iterate sequence, for fixed pairs (r, M, ||M||_2)
    with r < 2 (an upper bound on ||M||_2 serves), each iterate with a positivity
    verdict.

    A decomposed iterate Y = V diag(l) V* gets the verdict of is_pd_spectrum
    (_decompose) and keeps, per pair, l^r and W = V* M: its terms are
    W* diag(l^r) W.  A later Y = Y_f + D of a base Y_f takes the first-order
    (Daleckii-Krein) term W* (diag(l^r) + Gamma_r o V* D V) W, Gamma_r the divided
    differences of x^r on l, and _weyl_certifies at the sequence's spread as its
    verdict.  A coupled _Lane sets the spread and replaces _decompose and _drift.  For
    d = ||D||_F < l_1 that term is within (1/2) |r (r - 1)| ||M||_2^2
    (l_1 - d)^(r-2) d^2 of the exact one (Taylor's theorem with integral remainder;
    Higham, Functions of Matrices, 2008, ch. 3; Bhatia, Matrix Analysis, 1997,
    ch. V), a bound _remainder sums over the pairs.  An iterate becomes the base
    when the bound at its predicted drift, its last step times min(1, step /
    previous step), is within the freeze budget; a frozen step is taken when the
    bound at its drift is and the certificate decides.  A sequence with no base
    first tries its partner's (the other coupled sequence, with the same pairs)
    and adopts it when that step passes.  Otherwise, or when a divided difference
    is not finite, a fresh eigh re-bases.  decide gives an iterate its verdict and
    terms forms its terms, so that a loop can stop between the two.
    """

    def __init__(self, pairs: tuple, budget: float, spread: float = 1.0):
        self.budget, self.spread = budget, spread
        # (r, M, (1/2) |r (r - 1)| ||M||_2^2) per pair, the last its weight in _remainder
        self.pairs = [(r, M, _monomial(0.5, (abs(r * (r - 1.0)), 1.0), (norm, 2.0)))
                      for r, M, norm in pairs]
        # the base or None; the last decided iterate, (Y, l, V, Gamma_r per pair or None,
        # (l^r, W) per pair once formed) or frozen its D = Y - Y_f, and its low (decide)
        self.base: tuple | None = None
        self.iterate, self.low, self.last_step = None, math.nan, math.inf

    def decide(self, Y: np.ndarray, step: float, what, eig=None, partner_base=None) -> None:
        """Give iterate Y, whose last Frobenius step is step, its verdict and base, and
        record low = l_1(Y), or frozen its Weyl bound l_1(Y_f) - ||Y - Y_f||_F.  what
        names Y for _decompose (a lane takes its iteration), eig is its eigh when the
        caller has it, verdicted, and partner_base the partner sequence's base."""
        # the predicted next step: step times the last step ratio, once there is one
        predicted = step * step / self.last_step if step < self.last_step < math.inf else step
        self.last_step = step
        if eig is None:
            base = partner_base if self.base is None else self.base
            if base is not None and self._freezes(Y, base):
                return
        values, vectors = self._decompose(Y, what) if eig is None else eig
        freeze = self.budget > -math.inf and self._remainder(values, predicted) <= self.budget
        gammas = [_divided_differences(values, r) for r, _, _ in self.pairs] if freeze else None
        self.iterate, self.low, self.base = (Y, values, vectors, gammas, []), float(values[0]), None
        if freeze and all(np.all(np.isfinite(gamma)) for gamma in gammas):
            self.base = self.iterate

    def terms(self) -> list[np.ndarray]:
        """The terms of the last decided iterate: W* diag(l^r) W from its own
        eigendecomposition, or W* (diag(l^r) + Gamma_r o V* D V) W from its base."""
        frozen = not isinstance(self.iterate, tuple)
        _, values, vectors, gammas, weights = self.base if frozen else self.iterate
        if not weights:  # (l^r, W) per pair, formed once per decomposed iterate
            adj = vectors.conj().T
            weights += [(values**r, adj @ M) for r, M, _ in self.pairs]
        if not frozen:
            return [(W.conj().T * power) @ W for power, W in weights]
        E = vectors.conj().T @ self.iterate @ vectors
        out = []
        for (power, W), gamma in zip(weights, gammas):
            S = gamma * E
            S.flat[:: len(values) + 1] += power
            out.append(W.conj().T @ S @ W)
        return out

    _decompose = staticmethod(_eigh_pd)  # eigh(Y) once Y passed; what names Y in the error

    def _drift(self, D: np.ndarray) -> float:
        """||D||_F of a drift from the base."""
        return float(np.linalg.norm(D))

    def _remainder(self, values: np.ndarray, drift: float) -> float:
        """The bound on the error of the frozen terms at a drift ||D||_F from a base
        with ascending spectrum values; inf once the drift reaches l_1."""
        gap = max(float(values[0]) - drift, 0.0)
        try:  # scaled as (d / gap)^2 gap^r, which stays in range at any scale of Y;
            # a division by gap = 0.0 or an overflow reads inf
            return (drift / gap) ** 2 * sum(weight * gap**r for r, _, weight in self.pairs)
        except (ZeroDivisionError, OverflowError):
            return math.inf

    def _freezes(self, Y: np.ndarray, base: tuple) -> bool:
        """Whether Y = Y_f + D freezes on base: the remainder bound at ||D||_F is within
        the budget and the Weyl certificate decides.  If so, base is adopted and D kept."""
        D = Y - base[0]
        drift, values = self._drift(D), base[1]
        if not (self._remainder(values, drift) <= self.budget
                and _weyl_certifies(values, drift, self.spread)):
            return False
        self.iterate, self.low, self.base = D, float(values[0]) - drift, base
        return True


def _weyl_certifies(values: np.ndarray, drift: float, spread: float) -> bool:
    """Whether low = l_1 - drift > 0 and low > spread PD_TOL (l_n + drift), for the
    ascending spectrum l = values of a base Y_f: by Weyl, Y_f + D has its spectrum in
    [low, l_n + drift] for every Hermitian D with ||D||_F <= drift.  Spread 1 proves
    is_pd_spectrum(Y_f + D) (l_n stands for the largest modulus: where they differ,
    low < 0); a _Lane takes 2 cond(A)^2, past 1 / PD_TOL once cond(A) > 7e5, where
    the second test no longer implies low > 0."""
    low, high = float(values[0]) - drift, float(values[-1]) + drift
    return low > 0.0 and low > spread * mc.PD_TOL * high


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
    powers = _Powers(((-e_t, P.A, P._norm_a), (-e_p, P.B, P._norm_b)), _freeze_budget(P, tol))
    eig = (values, vectors)
    for it in range(2, opts.max_iter + 1):
        if step <= tol:
            break
        powers.decide(Y, step, f"iterate {it - 1}", eig)
        term_a, term_b = powers.terms()
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
    The terms that do not depend on b, and the last formed domination verdict, are
    kept per instance (_CoupledTerms), so a solve that checks the b its search
    accepted forms that verdict once.
    """
    b = _positive(b, "b")
    norm_a, norm_b = P._norm_a, P._norm_b
    terms = _coupled_terms(P)
    a, w_a = terms.a, terms.w_a
    theta = _monomial(1.0, (P._sigma_min_a, 2.0), (b, -1.0))
    separation = Verdict(b > a, a, b, note="requires lhs < rhs")
    domination = Verdict(False, -math.inf, 0.0)
    w_b = _monomial(1.0, (b, P.s / P.t))
    # lambda_max(dom_rhs) >= ||A||^2 / b, as its other two terms are PSD
    norm_a2_b = _monomial(1.0, (norm_a, 2.0), (b, -1.0))
    formable = max(w_b, w_a) < math.inf and not _exceeds_q(P, norm_a2_b)
    if formable and not _rayleigh_fails(P, b, w_b, w_a, norm_a2_b):
        formed = terms.formed
        if formed is not None and formed[0] == b:
            domination = formed[1]
        else:
            dom_rhs = mc.hermitian_part(P._ata / b + w_b * np.eye(P.n) + w_a * P._btb)
            # dom_rhs is positive semidefinite, so wherever the verdict is close,
            # ||dom_rhs|| <= ||Q|| + |gap|: scaling the tolerance by ||Q|| alone
            # decides the same way as scaling it by max(||Q||, ||dom_rhs||).
            domination = _loewner_verdict(dom_rhs, P.Q, P._norm_q)
            terms.formed = (b, domination)
    # for s > t the power of a is negative, and _monomial gives its limit inf at a = 0
    rhs_a = _monomial(0.5 * P.t, (theta, 2.0), (a, 1.0 - P.s / P.t)) if theta > 0.0 else 0.0
    lhs_a = terms.lhs_a
    contraction_a = Verdict(lhs_a < rhs_a, lhs_a, rhs_a)
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
        contraction_b=terms.contraction_b,
        scheme_applies=P.t >= max(P.s, P.p),
    )


class _CoupledTerms:
    """What coupled_check reads at every b of one instance, each formed once by the
    expression it had there: a, w_a = a^(-p/t), s ||A||^2, ||B||^2 and the second
    contraction verdict; the Rayleigh bank weighted by w_a, on the first pretest that
    reads it; and the last formed domination verdict with its b."""

    def __init__(self, P: ProblemInstance):
        self.a = a = _coupled_a(P)
        self.w_a = _monomial(1.0, (a, -P.p / P.t))
        self.lhs_a = _monomial(P.s, (P._norm_a, 2.0))
        lhs_b = _monomial(P.p, (P._norm_b, 2.0))
        rhs_b = _monomial(P.s, (a, (P.p + P.s) / P.t))
        self.contraction_b = Verdict(lhs_b < rhs_b, lhs_b, rhs_b)
        self.norm_b2 = _monomial(1.0, (P._norm_b, 2.0))
        self.bank: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.formed: tuple[float, Verdict] | None = None

    def rayleigh_bank(self, P: ProblemInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """q_i, ||A v_i||^2 and w_a ||B v_i||^2 from P._q_rayleigh."""
        if self.bank is None:
            q, k_a, k_b = P._q_rayleigh
            with np.errstate(over="ignore", invalid="ignore"):
                self.bank = (q, k_a, self.w_a * k_b)
        return self.bank


def _coupled_terms(P: ProblemInstance) -> _CoupledTerms:
    """P's _CoupledTerms, formed on its first coupled_check and kept in P._solver_memo."""
    memo = P._solver_memo
    if "coupled" not in memo:
        memo["coupled"] = _CoupledTerms(P)
    return memo["coupled"]


def _exceeds_q(P: ProblemInstance, bound: float) -> bool:
    """Whether a lower bound on lambda_max(L), L >= 0, fails L <= R for every R <= Q
    unformed: lambda_min(R - L) <= lambda_max(Q) - bound, past _loewner_tol(||Q||) at
    the scale ||Q|| and, up to a 1e-20 relative margin, at max(||L||, ||R||)."""
    return bound - P._lambda_max_q > _loewner_tol(P._norm_q)


def _rayleigh_fails(P: ProblemInstance, b: float, w_b: float, w_a: float, norm_a2_b: float) -> bool:
    """Whether Q >= A* A / b + w_b I + w_a B* B (norm_a2_b = ||A||^2 / b) fails unformed:
    lambda_min of Q minus the right side is <= r_i = q_i - ||A v_i||^2 / b - w_b -
    w_a ||B v_i||^2 at each unit eigenvector v_i of Q (Courant-Fischer; P._q_rayleigh).
    w_a is the instance's a^(-p/t), whose bank w_a ||B v_i||^2 _CoupledTerms keeps.
    A non-finite r_i, from an overflowing ||A v_i||^2 say, never rejects."""
    terms = _coupled_terms(P)
    q, k_a, w_k_b = terms.rayleigh_bank(P)
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(np.min(q - k_a / b - w_b - w_k_b))
    # r and the gap the matrix verdict would compute each stray from the exact bound by
    # rounding in the four terms and two eigensolvers, a small multiple of n eps S for S
    # bounding every term; _loewner_tol(S) = 1e-10 max(S, 1) is 1700 n eps S at n = 256.
    size = P._norm_q + norm_a2_b + w_b + w_a * terms.norm_b2
    return math.isfinite(r) and r < -_loewner_tol(P._norm_q) - _loewner_tol(size)


def _coupled_a(P: ProblemInstance) -> float:
    """a = lambda_min(A Q^-1 A*), clamped at 0: the lower starting scalar."""
    return max(float(P._aqa_values[0]), 0.0)


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
    Y_0 = b I, stopping when the larger of the two step bounds of HistoryEntry
    drops to opts.tol.  The lower sequence ascends, the upper descends, and both
    converge to the minimal solution; the first pair (X_1, Y_1) is returned
    as a refined bracket.  Loss of positive definiteness of the inverted
    matrix aborts with a diagnostic, and an instance whose lower starting
    scalar a = lambda_min(A Q^-1 A*) rounds to 0 is rejected up front, even
    with force.

    The pair runs in the inverse variables: each _Lane iterates N = X^-1 by
    N_{n+1} = Q~ - A^* N_n^(-s/t) A^ - B^* (N_n')^(p/t) B^, with A^ = A^-1,
    Q~ = A^* Q A^, B^ = B A^ and N_n' the other lane's iterate, as
    F(X, Y)^-1 = A^-* (Q - X^{s/t} - B* Y^{-p/t} B) A^-1.  So A is inverted once
    per solve and no step inverts a matrix.  One eigh of N gives the terms of the
    next N and l_1(N) for the step bound, and decides the positivity of the inner
    matrix and of X: both lanes' inner matrices, the lower's first, before either
    iterate.  Near convergence N comes from a frozen eigenbasis, its own lane's or
    the other's, and l_1 from Weyl.  X = N^-1 is formed only for the refined
    bracket, and the last N forms no terms.  The limit ((N_x + N_y)/2)^-1, in
    [X_n, Y_n], gets its own eigh, which feeds the lift and the residual.
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
    n = P.n
    eye = np.eye(n, dtype=P.Q.dtype)
    a_inv = np.linalg.inv(P.A)
    q_hat = mc.hermitian_part(a_inv.conj().T @ P.Q @ a_inv)
    lanes = [_Lane(P, a_inv, _freeze_budget(P, tol), check.a, name) for name in ("lower", "upper")]
    # N_0 = I / a and I / b are not decomposed: eigh(c I) is exactly (c 1, I)
    N = [eye / check.a, eye / check.b]
    for lane, M, c in zip(lanes, N, (check.a, check.b)):
        lane.decide(M, math.inf, 0, (np.full(n, 1.0 / c), eye))
    history: list[HistoryEntry] = []
    for it in range(1, opts.max_iter + 1):
        terms = [lane.terms() for lane in lanes]
        # each lane supplies its own A^* N^(-s/t) A^ and, to the other one, B^* N^(p/t) B^
        N_next = [mc.hermitian_part(q_hat - own[0] - other[1])
                  for own, other in zip(terms, terms[::-1])]
        bounds, lost = [], []
        for lane, other, M, M_0 in zip(lanes, lanes[::-1], N_next, N):
            low, step = lane.low, lane._drift(M - M_0)
            try:
                lane.decide(M, step, it, None, other.base)
            except _LostIterate as err:  # raised once both inner matrices are decided
                lost.append(err)
            # ||X' - X||_F = ||X' (N - N') X||_F <= ||N' - N||_F / (l_1(N') l_1(N))
            bounds.append(step / lane.low / low)
        if lost:
            raise lost[0]
        history.append(HistoryEntry(it, *bounds))
        if it == 1:
            refined = (lanes[0].inverse(), lanes[1].inverse())
        N = N_next
        if max(bounds) <= tol:  # before the terms, so that the last N forms none
            break
    # (N_x + N_y) / 2 lies in [N_y, N_x], so its inverse lies in [X, Y]
    values, vectors = _eigh_pd(mc.hermitian_part(0.5 * N[0] + 0.5 * N[1]), "limit")
    return _lift_and_certify(P, Scheme.COUPLED, check, history, max(bounds) <= tol,
                             mc.eig_power(values, vectors, -1.0), 1.0 / values, vectors, refined)


class _LostIterate(PositivityError):
    """An iterate of a coupled lane that failed its verdict; the loop raises it once
    the other lane's inner matrix is decided."""


class _Lane(_Powers):
    """One lane of the coupled pair in the inverse variable N = X^-1 (the lower
    lane's X, or the upper's Y), for the A^ = A^-1 of its solve, freeze budget and
    lower start a.  Its pairs (-s/t, A^, 1/sigma_min(A)) and (p/t, B^, ||B|| /
    sigma_min(A)) give A^* N^(-s/t) A^ for its own next N and B^* N^(p/t) B^ for
    the other lane's; ||B^||_2 <= ||B|| ||A^||_2 needs no SVD.

    N stands for the inner matrix M = A* N A of the step that formed X, and gets
    the verdicts of a loop in X: is_pd_spectrum(M), then is_pd_spectrum(X), the
    same inequality as is_pd_spectrum(N).  For N > 0, lambda_min(M) >=
    sigma_min(A)^2 lambda_min(N) and lambda_max(M) <= sigma_max(A)^2 lambda_max(N),
    so lambda_min(N) > 0 with sigma_min^2 lambda_min(N) > 2 PD_TOL sigma_max^2
    lambda_max(N) passes both (the factor 2 absorbs rounding; N passes, as
    2 cond(A)^2 >= 1): _weyl_certifies at spread 2 cond(A)^2, at drift 0 for a
    decomposed N, whose M is formed and decided by eigvalsh when it fails, and at d frozen.

    Every N > 0 has N <= Q~ <= I / a, as a = lambda_min(A Q^-1 A*) =
    1 / lambda_max(Q~), so a drift in N is measured at the power-of-two scale of
    1 / a: exactly, and in range at any scale of X.
    """

    def __init__(self, P: ProblemInstance, a_inv: np.ndarray, budget: float, a: float, name: str):
        sigma_min = P._sigma_min_a
        super().__init__(
            ((-P.s / P.t, a_inv, _monomial(1.0, (sigma_min, -1.0))),
             (P.p / P.t, P.B @ a_inv, _monomial(1.0, (P._norm_b, 1.0), (sigma_min, -1.0)))),
            budget,
            _monomial(2.0, (P._norm_a, 2.0), (sigma_min, -2.0)),  # 2 cond(A)^2
        )
        self.A, self.name = P.A, name
        exponent = math.frexp(a)[1]
        self.unit, self.scale = math.ldexp(1.0, exponent), math.ldexp(1.0, -exponent)

    def _decompose(self, N: np.ndarray, it: int) -> tuple[np.ndarray, np.ndarray]:
        """eigh(N), once the inner matrix and the iterate of iteration it passed."""
        values, vectors = np.linalg.eigh(N)
        if not _weyl_certifies(values, 0.0, self.spread):
            inner = np.linalg.eigvalsh(mc.hermitian_part(self.A.conj().T @ N @ self.A))
            if not mc.is_pd_spectrum(inner):
                raise PositivityError(
                    f"inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
                    f"definiteness at iteration {it} (lambda_min = {inner[0]:.3e})"
                )
            if not mc.is_pd_spectrum(values):
                raise _LostIterate(
                    f"{self.name} iterate {it} is not positive definite "
                    f"(lambda_min = {1.0 / values[-1]:.3e})"
                )
        return values, vectors

    def _drift(self, D: np.ndarray) -> float:
        return float(np.linalg.norm(D * self.unit)) * self.scale

    def inverse(self) -> np.ndarray:
        """X = N^-1 of the last decided N, from its eigh, or from its base N_f: the
        first-order X_f - X_f D X_f, within d^2 / (l_1 - d)^3 of X for d = ||D||_F."""
        frozen = not isinstance(self.iterate, tuple)
        X = mc.eig_power(*(self.base if frozen else self.iterate)[1:3], -1.0)
        return mc.hermitian_part(X - X @ self.iterate @ X) if frozen else X


def solve(P: ProblemInstance, opts: SolveOptions | None = None) -> SolveReport:
    """Dispatch on the largest exponent: s >= max(t, p) runs the fixed-point
    scheme (ties included), otherwise the coupled scheme."""
    if P.s >= P.t:
        return solve_fixed_point(P, opts)
    return solve_coupled(P, opts)
