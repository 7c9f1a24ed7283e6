"""Condition checks, brackets, and the solution factorization.

The 1x1 cases double as independent oracles: every expected number is plain
scalar arithmetic written out in the test body, so the matrix code path is
checked against hand-computable ground truth.  Matrix cases use the bundled
reference problems and randomly constructed solvable instances.
"""

import decimal
import math
import warnings

import numpy as np
import pytest

from nmeq import analysis, builtin, cli, probfile, solvers
from nmeq import matcore as mc

from support import (
    agrees,
    decimal_contraction,
    loewner_leq,
    near_singular_coupled_problem,
    random_hpd,
)


def scalar_instance(q, a, b, s=1.0, t=1.0, p=1.0):
    """1x1 instance with A = (a), B = (b), Q = (q)."""
    return analysis.ProblemInstance(
        np.array([[a]]), np.array([[b]]), np.array([[q]]), s, t, p
    )


class TestProblemInstance:
    def test_valid_construction(self):
        P = builtin.example(1).instance
        assert P.n == 3
        assert not P.swapped

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            analysis.ProblemInstance(
                np.zeros((2, 3)), np.eye(3), np.eye(3), 1.0, 1.0, 1.0
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            analysis.ProblemInstance(np.eye(2), np.eye(3), np.eye(3), 1.0, 1.0, 1.0)

    def test_rejects_non_hpd_q(self):
        with pytest.raises(ValueError, match="positive definite"):
            analysis.ProblemInstance(
                np.eye(2), np.eye(2), np.diag([1.0, -1.0]), 1.0, 1.0, 1.0
            )

    def test_rejects_non_hermitian_q(self):
        with pytest.raises(ValueError, match="Hermitian"):
            analysis.ProblemInstance(
                np.eye(2), np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, 1.0, 1.0
            )

    @staticmethod
    def count_norm_calls(monkeypatch) -> list:
        calls = []
        original = np.linalg.norm

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        return calls

    @pytest.mark.parametrize("cplx", [False, True])
    def test_exactly_hermitian_q_costs_no_norm(self, monkeypatch, cplx):
        rng = np.random.default_rng(31)
        Q = random_hpd(rng, 4, lo=1.0, hi=3.0)
        if not cplx:
            Q = Q.real.copy()
        assert np.array_equal(Q, Q.conj().T)
        calls = self.count_norm_calls(monkeypatch)
        P = analysis.ProblemInstance(np.eye(4), 0.5 * np.eye(4), Q, 2.0, 1.0, 1.0)
        assert calls == []
        assert np.array_equal(P.Q, Q)
        assert P.Q is not Q

    def test_q_drift_is_symmetrized_or_rejected(self, monkeypatch):
        Q = np.array([[2.0, 0.5], [0.5, 3.0]])
        small = Q.copy()
        small[0, 1] += 1e-14
        calls = self.count_norm_calls(monkeypatch)
        P = analysis.ProblemInstance(np.eye(2), np.eye(2), small, 1.0, 1.0, 1.0)
        assert len(calls) == 2
        assert np.array_equal(P.Q, P.Q.T)
        assert np.array_equal(P.Q, mc.hermitian_part(small))
        large = Q.copy()
        large[0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            analysis.ProblemInstance(np.eye(2), np.eye(2), large, 1.0, 1.0, 1.0)

    def test_rejects_singular_coefficient(self):
        S = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="nonsingular"):
            analysis.ProblemInstance(S, np.eye(2), np.eye(2), 1.0, 1.0, 1.0)

    def test_rejects_exponent_below_one(self):
        with pytest.raises(ValueError, match="exponent"):
            analysis.ProblemInstance(np.eye(2), np.eye(2), np.eye(2), 0.5, 1.0, 1.0)

    def test_rejects_nonfinite_exponent(self):
        with pytest.raises(ValueError):
            analysis.ProblemInstance(np.eye(2), np.eye(2), np.eye(2), 1.0, math.inf, 1.0)

    def test_canonical_swap(self):
        A = np.array([[0.2, 0.0], [0.1, 0.3]])
        B = np.array([[0.4, 0.05], [0.0, 0.25]])
        P = analysis.ProblemInstance(A, B, np.eye(2), 2.0, 1.0, 3.0)
        assert P.swapped
        assert P.t == 3.0 and P.p == 1.0
        assert np.array_equal(P.A, B)
        assert np.array_equal(P.B, A)

    def test_swap_preserves_equation(self):
        # the two middle terms commute as a sum, so the swapped instance has
        # the same residual for every candidate
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3)) * 0.2 + np.eye(3)
        B = rng.normal(size=(3, 3)) * 0.2 + np.eye(3)
        Q = random_hpd(rng, 3, lo=5.0, hi=9.0)
        P = analysis.ProblemInstance(A, B, Q, 2.0, 1.0, 3.0)
        R = analysis.ProblemInstance(B, A, Q, 2.0, 3.0, 1.0)
        X = random_hpd(rng, 3, lo=0.5, hi=2.0)
        def resid(inst):
            return (
                mc.herm_power(X, inst.s)
                + inst.A.conj().T @ mc.herm_power(X, -inst.t) @ inst.A
                + inst.B.conj().T @ mc.herm_power(X, -inst.p) @ inst.B
                - inst.Q
            )
        assert np.allclose(resid(P), resid(R))

    def test_arrays_are_frozen_copies(self):
        A = np.eye(2) * 0.5
        P = analysis.ProblemInstance(A, np.eye(2), np.eye(2), 1.0, 1.0, 1.0)
        A[0, 0] = 99.0
        assert P.A[0, 0] == 0.5
        with pytest.raises(ValueError):
            P.A[0, 0] = 1.0


class TestDerivedScalars:
    def test_example_1(self):
        d = analysis.derived_scalars(builtin.example(1).instance)
        assert d.k == pytest.approx(2.0, rel=1e-12)
        assert d.k_tilde == pytest.approx(2.0, rel=1e-12)
        assert d.q == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert d.q_tilde == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_example_2_lower_scalar(self):
        # c^t recovers lambda_min(A Q^-1 A*), the coupled scheme's scalar a
        d = analysis.derived_scalars(builtin.example(2).instance)
        assert d.c**4 == pytest.approx(0.50754289893569, rel=1e-10)

    def test_scalar_case(self):
        # Q=2, A=B=0.5: A Q^-1 A* = 0.125, c = c1 = 0.125
        d = analysis.derived_scalars(scalar_instance(2.0, 0.5, 0.5))
        assert d.k == pytest.approx(2.0)
        assert d.k_tilde == pytest.approx(2.0)
        assert d.c == pytest.approx(0.125, rel=1e-12)
        assert d.c1 == pytest.approx(0.125, rel=1e-12)

    def test_swap_invariant(self):
        A = np.array([[0.2, 0.0], [0.1, 0.3]])
        B = np.array([[0.4, 0.05], [0.0, 0.25]])
        Q = np.diag([2.0, 3.0])
        P = analysis.ProblemInstance(A, B, Q, 2.0, 1.0, 3.0)
        R = analysis.ProblemInstance(B, A, Q, 2.0, 3.0, 1.0)
        dp, dr = analysis.derived_scalars(P), analysis.derived_scalars(R)
        assert dp == dr


def q_eigenpairs(P):
    """The source of the instance's Q-side invariants, from scratch: the
    eigvalsh spectrum of Q with the eigenvectors of one eigh."""
    return np.linalg.eigvalsh(P.Q), np.linalg.eigh(P.Q)[1]


def q_inverse_congruence(P, M, q_eig=q_eigenpairs):
    """M Q^-1 M* from scratch, with Q^-1 from the eigenpairs q_eig(P) of Q."""
    q_values, q_vectors = q_eig(P)
    return mc.hermitian_part(mc.congruence(q_vectors, 1.0 / q_values, M.conj().T))


def herm_eig_congruence(P, M):
    """M Q^-1 M* through the validating herm_eig of Q."""
    return q_inverse_congruence(P, M, lambda P: mc.herm_eig(P.Q))


def solved_q_inverse_congruence(P, M):
    """M Q^-1 M* by an LU solve, the independent definition."""
    return mc.hermitian_part(M @ np.linalg.solve(P.Q, M.conj().T))


def extreme_eigenvalues(M, spectrum=np.linalg.eigvalsh):
    """(lambda_min, lambda_max) of a Hermitian M, by eigvalsh (the library's
    source) or another ascending spectrum."""
    values = spectrum(M)
    return float(values[0]), float(values[-1])


def herm_eig_values(M):
    """The spectrum of a Hermitian M by the validating herm_eig."""
    return mc.herm_eig(M)[0]


def from_scratch_derived_scalars(P, congruence=q_inverse_congruence, spectrum=np.linalg.eigvalsh):
    """DerivedScalars recomputed from scratch, by default from the library's sources."""
    lo_a, hi_a = extreme_eigenvalues(congruence(P, P.A), spectrum)
    lo_b, hi_b = extreme_eigenvalues(congruence(P, P.B), spectrum)
    lo_q, hi_q = extreme_eigenvalues(P.Q, spectrum)
    return analysis.DerivedScalars(
        k=hi_q,
        k_tilde=lo_q,
        q=min(P.t / P.s, P.p / P.s),
        q_tilde=max(P.t / P.s, P.p / P.s),
        c=max(max(lo_a, 0.0) ** (1.0 / P.t), max(lo_b, 0.0) ** (1.0 / P.p)),
        c1=max(max(hi_a, 0.0) ** (1.0 / P.t), max(hi_b, 0.0) ** (1.0 / P.p)),
    )


class TestCachedInvariants:
    """Each invariant cached on a ProblemInstance equals its from-scratch value."""

    # (seed, s, t, p); the last two have t < p, so the constructor swaps
    @pytest.fixture(
        params=[(1, 3.0, 2.0, 1.0), (2, 3.0, 4.0, 1.0), (3, 2.0, 1.0, 3.0), (4, 1.5, 1.0, 2.5)]
    )
    def instance(self, request):
        seed, s, t, p = request.param
        rng = np.random.default_rng(seed)
        n = 4
        A = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) + np.eye(n)
        B = 0.2 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) + np.eye(n)
        Q = random_hpd(rng, n, lo=2.0, hi=6.0)
        P = analysis.ProblemInstance(A, B, Q, s, t, p)
        assert P.swapped == (t < p)
        return P

    def test_norms(self, instance):
        P = instance
        assert P._norm_a**2 == mc.spectral_norm(P.A) ** 2
        assert P._norm_b**2 == mc.spectral_norm(P.B) ** 2
        # Q is positive definite, so ||Q|| is lambda_max(Q): no SVD needed
        assert P._norm_q == extreme_eigenvalues(P.Q)[1]
        assert math.isclose(P._norm_q, extreme_eigenvalues(P.Q, herm_eig_values)[1], rel_tol=1e-14)
        assert math.isclose(P._norm_q, mc.spectral_norm(P.Q), rel_tol=1e-14)

    def test_spectrum_and_powers_of_q(self, instance):
        P = instance
        assert (P._lambda_min_q, P._lambda_max_q) == extreme_eigenvalues(P.Q)
        assert np.array_equal(P._q_root, mc.eig_power(*q_eigenpairs(P), 1.0 / P.s))
        # the validating herm_eig agrees within rounding
        for cached, oracle in zip(
            (P._lambda_min_q, P._lambda_max_q), extreme_eigenvalues(P.Q, herm_eig_values)
        ):
            assert math.isclose(cached, oracle, rel_tol=1e-14)
        oracle_root = mc.herm_power(P.Q, 1.0 / P.s)
        assert np.linalg.norm(P._q_root - oracle_root) <= 1e-14 * np.linalg.norm(oracle_root)

    def test_congruences_and_gram_matrices(self, instance):
        P = instance
        for cached, M in ((P._aqa_values, P.A), (P._bqb_values, P.B)):
            values = np.linalg.eigvalsh(q_inverse_congruence(P, M))
            assert np.array_equal(cached, values)
            # the validating herm_eig agrees within rounding
            oracle = herm_eig_values(herm_eig_congruence(P, M))
            assert np.allclose(values, oracle, rtol=1e-13, atol=0.0)
            solved = mc.herm_eig(solved_q_inverse_congruence(P, M))[0]
            assert np.allclose(values, solved, rtol=1e-12, atol=0.0)
        ata = mc.hermitian_part(P.A.conj().T @ P.A)
        assert np.array_equal(P._ata, ata)
        assert np.array_equal(P._btb, P.B.conj().T @ P.B)
        # sigma_min(A) is kept from the validating SVD, of B where the constructor swapped
        assert P._sigma_min_a == np.linalg.svd(P.A, compute_uv=False)[-1]

    def test_derived_scalars(self, instance):
        d = analysis.derived_scalars(instance)
        assert d == from_scratch_derived_scalars(instance)
        assert analysis.derived_scalars(instance) is d
        # the validating herm_eig agrees within rounding
        oracle = from_scratch_derived_scalars(instance, herm_eig_congruence, herm_eig_values)
        for name, value in vars(d).items():
            assert math.isclose(value, getattr(oracle, name), rel_tol=1e-13)
        solved = from_scratch_derived_scalars(instance, solved_q_inverse_congruence)
        for name, value in vars(d).items():
            assert math.isclose(value, getattr(solved, name), rel_tol=1e-12)

    def test_cached_arrays_are_read_only(self, instance):
        P = instance
        for M in (*P._q_eig, P._aqa_values, P._bqb_values, P._ata, P._btb, P._q_root):
            with pytest.raises(ValueError):
                M[0, ...] = 0.0

    def test_returned_q_root_is_a_private_copy(self):
        P = builtin.example(1).instance
        bounds = analysis.solution_bounds(P)
        bounds.q_root[0, 0] = 0.0
        assert analysis.solution_bounds(P).q_root[0, 0] != 0.0


class TestNecessary:
    def test_example_1_closed_form_bound(self):
        # k=2, q=1/3, q~=2/3: the bound collapses to 3/2 exactly
        rep = analysis.check_necessary(builtin.example(1).instance)
        assert rep.holds
        assert rep.branch == "k>1"
        assert rep.verdicts["spectral_radius_A"].rhs == pytest.approx(1.5, rel=1e-12)
        assert rep.verdicts["spectral_radius_B"].rhs == pytest.approx(1.5, rel=1e-12)

    def test_scalar_boundary_fails(self):
        # q=1, k=1: bound is 1/4; rho^2 = 0.25 violates the strict inequality,
        # matching the fact that x^2 - x + 0.5 = 0 has no real root
        rep = analysis.check_necessary(scalar_instance(1.0, 0.5, 0.5))
        assert rep.branch == "k<=1"
        assert rep.verdicts["spectral_radius_A"].lhs == pytest.approx(0.25, rel=1e-8)
        assert rep.verdicts["spectral_radius_A"].rhs == pytest.approx(0.25, rel=1e-12)
        assert not rep.holds

    def test_scalar_inside_bound_holds(self):
        # rho^2 = 0.09 < 1/4, and indeed x^2 - x + 0.18 has real roots
        rep = analysis.check_necessary(scalar_instance(1.0, 0.3, 0.3))
        assert rep.holds

    def test_no_false_alarm_on_solvable_instance(self):
        # built by construction: choose X, read off Q
        rng = np.random.default_rng(33)
        X = random_hpd(rng, 3, lo=0.8, hi=1.6)
        A = rng.normal(size=(3, 3)) * 0.1 + 0.3 * np.eye(3)
        B = rng.normal(size=(3, 3)) * 0.1 + 0.3 * np.eye(3)
        Q = (
            mc.herm_power(X, 2.0)
            + A.conj().T @ mc.herm_power(X, -1.0) @ A
            + B.conj().T @ mc.herm_power(X, -1.0) @ B
        )
        P = analysis.ProblemInstance(A, B, mc.hermitian_part(Q), 2.0, 1.0, 1.0)
        assert analysis.check_necessary(P).holds

    @pytest.mark.parametrize(
        "scale_a, exponents", [(1e160, (3.0, 4.0, 1.0)), (1e200, (10.0, 1.5, 1.0))]
    )
    def test_sides_past_the_double_range_are_compared_in_logs(self, scale_a, exponents):
        # rho(A)^2 and the bound both overflow to inf (Q = 1e300 I); the verdict is
        # still their true comparison, in 50-digit decimals: 1e320 < 1e700 holds,
        # 1e400 < 1e345 fails
        I3 = np.eye(3)
        P = analysis.ProblemInstance(scale_a * I3, 1e150 * I3, 1e300 * I3, *exponents)
        d = analysis.derived_scalars(P)
        with decimal.localcontext(decimal.Context(prec=50)):
            q, q_tilde, k = decimal.Decimal(d.q), decimal.Decimal(d.q_tilde), decimal.Decimal(d.k)
            bound = q**q * k ** (1 + q_tilde) / (q + 1) ** (q + 1)
            holds = decimal.Decimal(scale_a) ** 2 < bound
        assert holds == (scale_a == 1e160)
        verdict = analysis.check_necessary(P).verdicts["spectral_radius_A"]
        assert verdict == analysis.Verdict(holds, math.inf, math.inf)


class TestSufficient:
    def test_scalar_holds_with_bracket(self):
        # q=1, k=k~=1: rhs = 1/4; lhs = 0.18; bracket = [1/2, 1]
        rep = analysis.check_sufficient(scalar_instance(1.0, 0.3, 0.3))
        assert rep.holds
        assert rep.branch == "k<=1"
        v = rep.verdicts["norm_sum"]
        assert v.lhs == pytest.approx(0.18, rel=1e-12)
        assert v.rhs == pytest.approx(0.25, rel=1e-12)
        lower, upper = rep.bracket
        assert lower[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert upper[0, 0] == pytest.approx(1.0, rel=1e-12)
        # the bracketed solution really is there: larger root of x^2 - x + 0.18
        root = (1.0 + math.sqrt(0.28)) / 2.0
        assert lower[0, 0] <= root <= upper[0, 0]

    def test_scalar_fails_no_bracket(self):
        rep = analysis.check_sufficient(scalar_instance(1.0, 0.4, 0.4))
        assert not rep.holds
        assert rep.bracket is None

    def test_example_1_holds(self):
        rep = analysis.check_sufficient(builtin.example(1).instance)
        assert rep.holds
        assert rep.branch == "k>1"
        lower, upper = rep.bracket
        # upper endpoint is Q^(1/3) = 2^(1/3) I
        assert np.allclose(upper, 2.0 ** (1.0 / 3.0) * np.eye(3))
        assert loewner_leq(lower, upper)

    def test_small_q_branch(self):
        A = 0.01 * np.eye(2)
        P = analysis.ProblemInstance(A, A, 0.5 * np.eye(2), 2.0, 1.0, 1.0)
        rep = analysis.check_sufficient(P)
        assert rep.branch == "k<=1"
        assert rep.holds


class TestBounds:
    def test_scalar_case_by_hand(self):
        # Q=2, A=B=0.5, s=t=p=1: c = 0.25/2 = 0.125; gap = 1.875;
        # m = 0.25/1.875; N = 2 - 0.125 - 0.125 = 1.75; Q^(1/s) = 2
        b = analysis.solution_bounds(scalar_instance(2.0, 0.5, 0.5))
        assert b.c == pytest.approx(0.125, rel=1e-12)
        assert b.m == pytest.approx(0.25 / 1.875, rel=1e-12)
        assert b.N[0, 0] == pytest.approx(1.75, rel=1e-12)
        assert b.q_root[0, 0] == pytest.approx(2.0, rel=1e-12)
        # both quadratic roots x^2 - 2x + 0.5 = 0 live inside both brackets
        for root in (1.0 + math.sqrt(0.5), 1.0 - math.sqrt(0.5)):
            assert b.c <= root <= b.N[0, 0]
            assert b.m <= root <= b.q_root[0, 0]

    def test_refined_lower_dominates(self):
        b = analysis.solution_bounds(scalar_instance(2.0, 0.5, 0.5))
        assert b.m >= b.c

    def test_example_solutions_inside_brackets(self):
        for which in (1, 2):
            bp = builtin.example(which)
            b = analysis.solution_bounds(bp.instance)
            X = bp.solution_X
            tol = 1e-10 * mc.spectral_norm(b.q_root)
            assert loewner_leq(b.c * np.eye(3), X, tol)
            assert loewner_leq(X, b.q_root, tol)
            assert loewner_leq(b.m * np.eye(3), X, tol)
            assert loewner_leq(X, b.N, tol)

    def test_undefined_when_c_too_large(self):
        # A=2, Q=1: c = 4 so Q - c^s I < 0; certifies no solution
        with pytest.raises(analysis.BracketUndefinedError, match="cannot have"):
            analysis.solution_bounds(scalar_instance(1.0, 2.0, 0.1))

    def test_undefined_when_upper_root_degenerate(self):
        # a2 = b2 = 1/2 makes the matrix under the root of N exactly zero;
        # consistent with x^2 - x + 1 = 0 having no real root
        r = math.sqrt(0.5)
        with pytest.raises(analysis.BracketUndefinedError, match="upper bound N"):
            analysis.solution_bounds(scalar_instance(1.0, r, r))


# the report check_uniqueness_interval decides for every instance
INTERVAL_REPORT = analysis.ConditionReport(
    "uniqueness-interval",
    "",
    {"domination": analysis.Verdict(False, -math.inf, 0.0, "checked at lower endpoint X = cI")},
    False,
)


class TestUniquenessInterval:
    """The domination at X = cI never holds (test_correction_at_c_dominates_q is
    its independent oracle), so every instance gets the one decided report."""

    def test_scalar_case_by_hand(self):
        # Q=4, A=B=0.5, s=2, t=p=1: A Q^-1 A* = 1/16 = c, and the correction at
        # X = cI, 2 * 0.25 / c = 8, exceeds Q = 4 and so Q - F: the domination fails
        P = scalar_instance(4.0, 0.5, 0.5, s=2.0)
        c = analysis.derived_scalars(P).c
        assert c == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert 2.0 * 0.25 / c > 4.0
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT

    def test_tiny_coefficients_fail_honestly(self):
        # A = B = eps I, Q = I, s=t=p=1: c = eps^2, so the correction at X = cI
        # is 2 eps^2 / c = 2 I > Q; the condition is sufficient, not necessary,
        # and the verdict must say so honestly
        eps = 1e-3
        P = analysis.ProblemInstance(
            eps * np.eye(2), eps * np.eye(2), np.eye(2), 1.0, 1.0, 1.0
        )
        assert analysis.derived_scalars(P).c == pytest.approx(eps**2, rel=1e-10)
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT

    def test_holds_is_conjunction(self):
        P = scalar_instance(25.0, 0.9, 0.9)
        rep = analysis.check_uniqueness_interval(P)
        assert rep.holds == all(v.holds for v in rep.verdicts.values())

    def test_example_1_domination_fails(self):
        rep = analysis.check_uniqueness_interval(builtin.example(1).instance)
        assert rep == INTERVAL_REPORT

    def test_domination_inside_the_loewner_tolerance_fails(self):
        # the correction at X = cI exceeds Q - F by only 2e-12, inside the
        # Loewner tolerance, but the domination cannot hold for any instance
        P = analysis.ProblemInstance(1e-6 * np.eye(3), 1e-12 * np.eye(3), np.eye(3), 1, 1, 1)
        assert analysis.check_uniqueness_interval(P).verdicts["domination"] == analysis.Verdict(
            False, -math.inf, 0.0, "checked at lower endpoint X = cI"
        )

    def test_correction_at_c_dominates_q(self):
        # c^-t A* A + c^-p B* B >= Q on random instances, computed here without
        # the library's cached spectra: the reason the domination never holds
        rng = np.random.default_rng(20261018)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            s, t, p = rng.uniform(1.0, 5.0, 3)
            A, B = (
                10.0 ** rng.uniform(-2.0, 2.0) * rng.standard_normal((n, n, 2)) @ [1.0, 1j]
                for _ in range(2)
            )
            Q = random_hpd(rng, n)
            P = analysis.ProblemInstance(A, B, Q, s, t, p)
            Q_inv = np.linalg.inv(P.Q)
            lam_a = np.linalg.eigvalsh(P.A @ Q_inv @ P.A.conj().T)[0]
            lam_b = np.linalg.eigvalsh(P.B @ Q_inv @ P.B.conj().T)[0]
            c = max(lam_a ** (1.0 / P.t), lam_b ** (1.0 / P.p))
            L = c**-P.t * P.A.conj().T @ P.A + c**-P.p * P.B.conj().T @ P.B
            L = 0.5 * (L + L.conj().T)
            gap = np.linalg.eigvalsh(L - P.Q)[0]
            assert gap >= -1e-10 * max(np.linalg.norm(L, 2), 1.0), (n, s, t, p, gap)
            assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_computes_nothing(self, monkeypatch, dtype):
        # on a fresh instance: no np.linalg call, and no invariant cached on it
        Z = np.random.default_rng(24).standard_normal((3, 4, 4, 2)) @ [1.0, 1j]
        A, B, M = Z if dtype is complex else Z.real
        P = analysis.ProblemInstance(A, B, M @ M.conj().T + 4.0 * np.eye(4), 3.0, 2.0, 1.0)
        assert P.Q.dtype == dtype
        before = dict(vars(P))
        called = []

        def spy(name, function):
            return lambda *args, **kwargs: called.append(name) or function(*args, **kwargs)

        for name in np.linalg.__all__:
            if callable(getattr(np.linalg, name)):
                monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT
        assert called == []
        assert vars(P).keys() == before.keys()
        assert all(vars(P)[key] is value for key, value in before.items())

    @pytest.mark.parametrize("which", ["B=A^T", "B=A"])
    def test_rounding_negative_spectrum_is_a_failed_verdict(self, which):
        # lambda_min(A Q^-1 A*) = -1.1e-17 rounds negative and clamps to 0; with
        # B = A both spectra clamp, so c = 0 and the correction at X = cI is unbounded
        A = near_singular_coupled_problem()[0]
        B = A.T if which == "B=A^T" else A
        P = analysis.ProblemInstance(A, B, 5.0 * np.eye(3), 3.0, 4.0, 1.0)
        assert P._aqa_values[0] < 0.0
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT
        if which == "B=A":
            assert analysis.derived_scalars(P).c == 0.0

    def test_underflowing_c_power_is_a_failed_verdict(self):
        # A = B = 1e-100 I, Q = I, s = t = p = 1: c = c1 = 1e-200 > 0 and c^(t+1)
        # underflows, but the contraction term at k = 2 is its true value, 5e199
        P = analysis.ProblemInstance(
            1e-100 * np.eye(2), 1e-100 * np.eye(2), np.eye(2), 1.0, 1.0, 1.0
        )
        d = analysis.derived_scalars(P)
        assert d.c > 0.0 and d.c ** 2 == 0.0
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT
        scaled = analysis.check_uniqueness_k(P, 2.0).verdicts["contraction"]
        assert agrees(scaled.lhs, decimal_contraction(P, 2.0))
        assert scaled.lhs == pytest.approx(5e199, rel=1e-12)
        assert scaled.holds is False
        assert analysis.scan_k(P) is None

    @pytest.mark.parametrize(
        "exponents", [(1, 1, 1), (2, 2, 1), (3, 4, 1), (1, 3, 2), (5, 1, 1), (1, 5, 1)]
    )
    def test_overflowing_c_power_is_a_failed_verdict(self, exponents):
        # A = B = 1e-160 I, Q = I: c^-t overflows, and the report is the decided one
        P = analysis.ProblemInstance(
            1e-160 * np.eye(2), 1e-160 * np.eye(2), np.eye(2), *exponents
        )
        assert analysis.check_uniqueness_interval(P) == INTERVAL_REPORT
        assert analysis.scan_k(P) is None


class TestUniquenessScaled:
    def test_rejects_bad_k(self):
        P = scalar_instance(9.0, 0.3, 0.3)
        with pytest.raises(ValueError, match="positive"):
            analysis.check_uniqueness_k(P, 0.0)
        with pytest.raises(ValueError):
            analysis.check_uniqueness_k(P, math.nan)

    def test_scalar_fails_at_small_k(self):
        # Q=9, A=B=0.3: c1 = 0.01.  k=4: kc = 0.04 and the contraction
        # term is 2 * 0.09 / 0.04^2 = 112.5 >= 1
        rep = analysis.check_uniqueness_k(scalar_instance(9.0, 0.3, 0.3), 4.0)
        assert rep.verdicts["power_sum"].holds
        assert rep.verdicts["spread"].holds
        contr = rep.verdicts["contraction"]
        assert contr.lhs == pytest.approx(112.5, rel=1e-12)
        assert not rep.holds

    def test_scalar_holds_at_large_k(self):
        # k=50: kc = 0.5, contraction 2 * 0.09 / 0.25 = 0.72 < 1,
        # power sum 0.04 < 1, spread 0.01/9 <= 0.96/50
        rep = analysis.check_uniqueness_k(scalar_instance(9.0, 0.3, 0.3), 50.0)
        assert rep.holds
        assert rep.branch == "k=50"
        assert rep.verdicts["contraction"].lhs == pytest.approx(0.72, rel=1e-12)
        lower, upper = rep.bracket
        assert lower[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert upper[0, 0] == pytest.approx(9.0, rel=1e-12)
        # unique root inside [0.5, 9]: the larger root of x^2 - 9x + 0.18
        big = (9.0 + math.sqrt(81.0 - 0.72)) / 2.0
        small = (9.0 - math.sqrt(81.0 - 0.72)) / 2.0
        assert lower[0, 0] <= big <= upper[0, 0]
        assert small < lower[0, 0]

    def test_spread_is_non_strict(self):
        # equality on the spread verdict counts as holding
        rep = analysis.check_uniqueness_k(scalar_instance(9.0, 0.3, 0.3), 50.0)
        v = rep.verdicts["spread"]
        eq = analysis.Verdict(v.lhs <= v.lhs, v.lhs, v.lhs)
        assert eq.holds

    def test_overflowing_kc_power_is_a_failed_verdict(self):
        # A = B = 1e-60 I, Q = I, s = 5: c1 = 1e-120, so (k c1)^(1-s) overflows
        P = analysis.ProblemInstance(
            1e-60 * np.eye(2), 1e-60 * np.eye(2), np.eye(2), 5.0, 1.0, 1.0
        )
        rep = analysis.check_uniqueness_k(P, 50.0)
        assert rep.verdicts["contraction"] == analysis.Verdict(False, math.inf, 1.0)
        assert not rep.holds
        assert analysis.scan_k(P) is None

    def test_overflowing_k_power_is_a_failed_verdict(self):
        # k^-t = (1e-200)^-2 overflows
        rep = analysis.check_uniqueness_k(scalar_instance(9.0, 0.3, 0.3, t=2.0), 1e-200)
        assert rep.verdicts["power_sum"] == analysis.Verdict(False, math.inf, 1.0)
        assert rep.verdicts["spread"].rhs == -math.inf
        assert not rep.verdicts["spread"].holds and not rep.holds

    def test_spread_underflowing_on_both_sides_is_decided(self):
        # s = 1e6 on example 1: both sides of the spread underflow to zeros.  At
        # k = 2 the power sum is < 1, so both sides are > 0 and the verdict holds
        # in logs; at k = 1.01 it is >= 1, so the right side is <= 0 and it fails.
        # Both verdicts and all four sides agree with 50-digit decimals.
        E = builtin.example(1).instance
        P = analysis.ProblemInstance(E.A, E.B, E.Q, 1e6, E.t, E.p)
        d = analysis.derived_scalars(P)
        D = decimal.Decimal
        for k, holds in ((2.0, True), (1.01, False)):
            v = analysis.check_uniqueness_k(P, k).verdicts["spread"]
            with decimal.localcontext(decimal.Context(prec=50)):
                lhs = D(d.c1) ** D(P.s) / D(d.k_tilde)
                rhs = (1 - D(k) ** -D(P.t) - D(k) ** -D(P.p)) * D(k) ** -D(P.s)
            assert (lhs <= rhs) is holds and v.holds is holds
            assert agrees(v.lhs, lhs) and agrees(v.rhs, rhs)
            assert (v.lhs, v.rhs) == (0.0, 0.0)

    def test_spread_with_nonpositive_factor_fails_after_underflow(self):
        # s = 1e6 on example 1: at k = 1.01 the power sum is >= 1, so the true
        # right side is <= 0 and the true left side c1^s / lambda_min(Q) > 0;
        # both underflow, to 0.0 and -0.0, and 0.0 <= -0.0 must not hold
        E = builtin.example(1).instance
        P = analysis.ProblemInstance(E.A, E.B, E.Q, 1e6, E.t, E.p)
        v = analysis.check_uniqueness_k(P, 1.01).verdicts["spread"]
        assert (v.lhs, v.rhs) == (0.0, 0.0) and math.copysign(1.0, v.rhs) == -1.0
        assert not v.holds

    def test_scan_finds_parameter(self):
        P = scalar_instance(9.0, 0.3, 0.3)
        k = analysis.scan_k(P)
        assert k is not None
        assert analysis.check_uniqueness_k(P, k).holds

    def test_scan_exhausts(self):
        assert analysis.scan_k(scalar_instance(1.0, 5.0, 5.0)) is None

    def test_example_1_scan(self):
        P = builtin.example(1).instance
        k = analysis.scan_k(P)
        assert k is not None
        assert analysis.check_uniqueness_k(P, k).holds

    def test_scan_checks_every_grid_point(self, monkeypatch):
        # example 2 rejects the whole grid: one check per grid point
        ks = []
        original = analysis.check_uniqueness_k

        def counting(P, k):
            ks.append(k)
            return original(P, k)

        monkeypatch.setattr(analysis, "check_uniqueness_k", counting)
        assert analysis.scan_k(builtin.example(2).instance) is None
        assert len(ks) == 200


class TestFactorization:
    def test_scalar_roundtrip(self):
        # x = 1 + sqrt(1/2) solves x + 0.5/x = 2
        P = scalar_instance(2.0, 0.5, 0.5)
        x = 1.0 + math.sqrt(0.5)
        F = analysis.factorization_from_solution(P, np.array([[x]]))
        assert F.lam[0] == pytest.approx(x, rel=1e-12)
        assert F.N1[0, 0] == pytest.approx(0.5 / math.sqrt(x), rel=1e-12)
        assert analysis.verify_factorization(P, F)

    def test_builtin_roundtrip(self):
        for which in (1, 2):
            bp = builtin.example(which)
            F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
            assert analysis.verify_factorization(bp.instance, F)
            # middle factor is exactly X^s
            core = (F.U * F.lam) @ F.U.conj().T
            assert np.allclose(
                core, mc.herm_power(bp.solution_X, bp.instance.s), atol=1e-10
            )

    def test_rejects_perturbed_candidate(self):
        bp = builtin.example(1)
        X = bp.solution_X.copy()
        X[0, 0] += 0.01
        with pytest.raises(analysis.NotASolutionError, match="residual"):
            analysis.factorization_from_solution(bp.instance, X)

    def test_rejects_indefinite_candidate(self):
        bp = builtin.example(1)
        with pytest.raises(analysis.NotASolutionError, match="positive definite"):
            analysis.factorization_from_solution(bp.instance, -np.eye(3))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        # X = 2I has residual 6 on example 1: no tolerance may accept it
        bp = builtin.example(1)
        with pytest.raises(ValueError, match="tol") as info:
            analysis.factorization_from_solution(bp.instance, 2.0 * np.eye(3), tol=tol)
        assert not isinstance(info.value, analysis.NotASolutionError)

    def test_verify_rejects_tampering(self):
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        bad_lam = analysis.Factorization(F.U, -F.lam, F.N1, F.N2)
        assert not analysis.verify_factorization(bp.instance, bad_lam)
        bad_n1 = analysis.Factorization(F.U, F.lam, 1.5 * F.N1, F.N2)
        assert not analysis.verify_factorization(bp.instance, bad_n1)
        bad_u = analysis.Factorization(2.0 * F.U, F.lam, F.N1, F.N2)
        assert not analysis.verify_factorization(bp.instance, bad_u)

    def test_verify_gates_a_non_pd_middle_factor(self):
        # the middle factor comes from the caller: with lam = [1e-18, 1, 2] and
        # U unitary to 1e-9, lambda_min(U diag(lam) U*) rounds below 0, and its
        # fractional power is refused before the trusted kernel could warn
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        U = (1.0 - 1e-9) * F.U
        core = mc.hermitian_part((U * np.array([1e-18, 1.0, 2.0])) @ U.conj().T)
        assert mc.trusted_eigh(core)[0][0] < 0.0
        bad = analysis.Factorization(U, np.array([1e-18, 1.0, 2.0]), F.N1, F.N2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError,
                match=r"^matrix must be positive definite for exponent 0\.3333333333333333 "
                r"\(lambda_min = -",
            ):
                analysis.verify_factorization(bp.instance, bad)

    def test_verify_rejects_dimension_mismatch(self):
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        bad = analysis.Factorization(np.eye(2), F.lam, F.N1, F.N2)
        with pytest.raises(ValueError, match="dimensions"):
            analysis.verify_factorization(bp.instance, bad)

    @pytest.mark.parametrize(
        "entry", [1e3j, math.nan, math.inf, "x"], ids=["complex", "nan", "inf", "text"]
    )
    def test_verify_rejects_non_real_lam(self, entry):
        # a complex lam used to lose its imaginary part to a float cast and
        # certify; a NaN or inf one reached eigh
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        lam = list(F.lam)
        lam[0] = lam[0] + entry if isinstance(entry, complex) else entry
        bad = analysis.Factorization(F.U, lam, F.N1, F.N2)
        with pytest.raises(ValueError, match="^lam must be real and finite$"):
            analysis.verify_factorization(bp.instance, bad)

    def test_verify_accepts_lam_with_zero_imaginary_part(self):
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        F = analysis.Factorization(F.U, np.asarray(F.lam, dtype=complex), F.N1, F.N2)
        assert analysis.verify_factorization(bp.instance, F)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_verify_rejects_bad_tol(self, tol):
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        with pytest.raises(ValueError, match="^tol must be finite and positive"):
            analysis.verify_factorization(bp.instance, F, tol=tol)

    def test_constructed_instances_roundtrip(self):
        rng = np.random.default_rng(55)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            s, t, p = (float(rng.integers(1, 4)) for _ in range(3))
            X = random_hpd(rng, n, lo=0.7, hi=1.8)
            A = rng.normal(size=(n, n)) * 0.2 + 0.5 * np.eye(n)
            B = rng.normal(size=(n, n)) * 0.2 + 0.5 * np.eye(n)
            Q = mc.hermitian_part(
                mc.herm_power(X, s)
                + A.conj().T @ mc.herm_power(X, -t) @ A
                + B.conj().T @ mc.herm_power(X, -p) @ B
            )
            # the canonical swap leaves the solution set unchanged, so X
            # stays a valid witness either way
            P = analysis.ProblemInstance(A, B, Q, s, t, p)
            F = analysis.factorization_from_solution(P, X)
            assert analysis.verify_factorization(P, F)


class TestLoewnerVerdict:
    """One rule for every Loewner comparison: L <= R holds when
    lambda_min(R - L) >= -1e-10 max(scale, 1), with the scale its caller has."""

    rule = staticmethod(analysis._loewner_verdict)

    def capture(self, monkeypatch, module, run):
        """The (L, scale) pairs ``module`` passes to the rule during ``run``."""
        calls = []

        def spy(L, R, scale):
            calls.append((L, scale))
            return self.rule(L, R, scale)

        monkeypatch.setattr(module, "_loewner_verdict", spy)
        run()
        return calls

    def assert_threshold(self, L, scale):
        tol = 1e-10 * max(scale, 1.0)
        n = L.shape[0]
        for factor, holds in ((0.99, True), (1.01, False)):
            shift = np.ones(n)
            shift[0] = -factor * tol
            v = self.rule(L, L + np.diag(shift), scale)
            assert v.holds is holds
            assert v.lhs == pytest.approx(-factor * tol, rel=1e-3)

    def test_coupled_domination_scales_by_norm_q(self, monkeypatch):
        P = builtin.example(2).instance
        calls = self.capture(monkeypatch, solvers, lambda: solvers.coupled_check(P, 1.0))
        [(dom_rhs, scale)] = calls
        assert scale == P._norm_q > 1.0
        self.assert_threshold(dom_rhs, scale)

    def test_verify_scales_by_x_and_q_root(self, monkeypatch, tmp_path, capsys):
        bp = builtin.example(2)
        path = tmp_path / "sol.json"
        path.write_text(probfile.write_solution(solvers.solve(bp.instance)))
        calls = self.capture(
            monkeypatch, cli, lambda: cli.main(["verify", "--example", "2", str(path)])
        )
        assert "verification: passed" in capsys.readouterr().out
        P = bp.instance
        x_max = float(np.linalg.eigvalsh(probfile.load_solution(path).X)[-1])
        assert len(calls) == 4
        assert {scale for _, scale in calls} == {max(x_max, P._lambda_max_q ** (1.0 / P.s))}
        for L, scale in calls:
            self.assert_threshold(L, scale)
