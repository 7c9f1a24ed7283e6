"""Condition checks, brackets, and the solution factorization.

The 1x1 cases double as independent oracles: every expected number is plain
scalar arithmetic written out in the test body, so the matrix code path is
checked against hand-computable ground truth.  Matrix cases use the bundled
reference problems and randomly constructed solvable instances.
"""

import math
import warnings

import numpy as np
import pytest

from nmeq import analysis, builtin, cli, probfile, solvers
from nmeq import matcore as mc

from support import near_singular_coupled_problem, random_hpd


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
        # Q=2, A=B=0.5: A Q^-1 A* = 0.125, c = c1 = 0.125, a = 0.25
        d = analysis.derived_scalars(scalar_instance(2.0, 0.5, 0.5))
        assert d.k == pytest.approx(2.0)
        assert d.k_tilde == pytest.approx(2.0)
        assert d.c == pytest.approx(0.125, rel=1e-12)
        assert d.c1 == pytest.approx(0.125, rel=1e-12)
        assert d.a == pytest.approx(0.25, rel=1e-12)

    def test_swap_invariant(self):
        A = np.array([[0.2, 0.0], [0.1, 0.3]])
        B = np.array([[0.4, 0.05], [0.0, 0.25]])
        Q = np.diag([2.0, 3.0])
        P = analysis.ProblemInstance(A, B, Q, 2.0, 1.0, 3.0)
        R = analysis.ProblemInstance(B, A, Q, 2.0, 3.0, 1.0)
        dp, dr = analysis.derived_scalars(P), analysis.derived_scalars(R)
        assert dp == dr


def q_inverse_congruence(P, M):
    """M Q^-1 M* from scratch, with Q^-1 from the eigendecomposition of Q."""
    q_values, q_vectors = mc.herm_eig(P.Q)
    return mc.hermitian_part(mc.congruence(q_vectors, 1.0 / q_values, M.conj().T))


def solved_q_inverse_congruence(P, M):
    """M Q^-1 M* by an LU solve, the independent definition."""
    return mc.hermitian_part(M @ np.linalg.solve(P.Q, M.conj().T))


def from_scratch_derived_scalars(P, congruence=q_inverse_congruence):
    """DerivedScalars recomputed through the public, validating primitives."""
    aqa = congruence(P, P.A)
    bqb = congruence(P, P.B)
    lo_a, hi_a = mc.lambda_min(aqa), mc.lambda_max(aqa)
    lo_b, hi_b = mc.lambda_min(bqb), mc.lambda_max(bqb)
    return analysis.DerivedScalars(
        k=mc.lambda_max(P.Q),
        k_tilde=mc.lambda_min(P.Q),
        q=min(P.t / P.s, P.p / P.s),
        q_tilde=max(P.t / P.s, P.p / P.s),
        c=max(max(lo_a, 0.0) ** (1.0 / P.t), max(lo_b, 0.0) ** (1.0 / P.p)),
        c1=max(max(hi_a, 0.0) ** (1.0 / P.t), max(hi_b, 0.0) ** (1.0 / P.p)),
        a=max(lo_a, 0.0) ** (P.s / P.t) + max(lo_b, 0.0) ** (P.s / P.p),
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
        assert P._norm_q == mc.lambda_max(P.Q)
        assert math.isclose(P._norm_q, mc.spectral_norm(P.Q), rel_tol=1e-14)

    def test_spectrum_and_powers_of_q(self, instance):
        P = instance
        assert P._lambda_min_q == mc.lambda_min(P.Q)
        assert P._lambda_max_q == mc.lambda_max(P.Q)
        assert np.array_equal(P._q_root, mc.herm_power(P.Q, 1.0 / P.s))

    def test_congruences_and_gram_matrices(self, instance):
        P = instance
        for cached, M in ((P._aqa_eig, P.A), (P._bqb_eig, P.B)):
            values, vectors = mc.herm_eig(q_inverse_congruence(P, M))
            assert np.array_equal(cached[0], values)
            assert np.array_equal(cached[1], vectors)
            solved = mc.herm_eig(solved_q_inverse_congruence(P, M))[0]
            assert np.allclose(values, solved, rtol=1e-12, atol=0.0)
        ata = mc.hermitian_part(P.A.conj().T @ P.A)
        assert np.array_equal(P._ata, ata)
        assert np.array_equal(P._btb, P.B.conj().T @ P.B)
        assert P._lambda_min_ata == max(mc.trusted_lambda_min(ata), 0.0)

    def test_derived_scalars(self, instance):
        d = analysis.derived_scalars(instance)
        assert d == from_scratch_derived_scalars(instance)
        assert analysis.derived_scalars(instance) is d
        solved = from_scratch_derived_scalars(instance, solved_q_inverse_congruence)
        for name, value in vars(d).items():
            assert math.isclose(value, getattr(solved, name), rel_tol=1e-12)

    def test_cached_arrays_are_read_only(self, instance):
        P = instance
        for M in (*P._q_eig, *P._aqa_eig, *P._bqb_eig, P._ata, P._btb, P._q_root):
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
        assert mc.loewner_leq(lower, upper)

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
            assert mc.loewner_leq(b.c * np.eye(3), X, tol)
            assert mc.loewner_leq(X, b.q_root, tol)
            assert mc.loewner_leq(b.m * np.eye(3), X, tol)
            assert mc.loewner_leq(X, b.N, tol)

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


class TestUniquenessInterval:
    def test_scalar_case_by_hand(self):
        # Q=4, A=B=0.5, s=2, t=p=1: AQ^-1A* = 1/16, c = 1/16,
        # a = 2 * (1/16)^(s/t) = 1/128
        P = scalar_instance(4.0, 0.5, 0.5, s=2.0)
        rep = analysis.check_uniqueness_interval(P)
        floor = rep.verdicts["interval_floor"]
        # floor sum = 2 * (1/16)^2 = 1/128; verdict records the Loewner gap
        assert floor.holds
        assert floor.lhs == pytest.approx(4.0 - 2.0 * (1.0 / 16.0) ** 2, rel=1e-12)
        dom = rep.verdicts["domination"]
        # correction at c: 2 * 0.25 * 16 = 8 > 4 - 1/128: fails
        assert not dom.holds
        assert dom.note == "checked at lower endpoint X = cI"
        contr = rep.verdicts["contraction"]
        expected = 0.5 * (1.0 / 128.0) ** (-0.5) * (2.0 * 0.25 * 16.0**2)
        assert contr.lhs == pytest.approx(expected, rel=1e-12)
        assert not contr.holds
        assert not rep.holds
        assert rep.bracket is None

    def test_tiny_coefficients_fail_honestly(self):
        # A = B = eps I, Q = I, s=t=p=1: c = eps^2, so the contraction term
        # 2 eps^2 / c^2 = 2 / eps^2 blows up; the condition is sufficient,
        # not necessary, and the verdict must say so honestly
        eps = 1e-3
        P = analysis.ProblemInstance(
            eps * np.eye(2), eps * np.eye(2), np.eye(2), 1.0, 1.0, 1.0
        )
        rep = analysis.check_uniqueness_interval(P)
        d = analysis.derived_scalars(P)
        assert d.c == pytest.approx(eps**2, rel=1e-10)
        assert d.a == pytest.approx(2.0 * eps**2, rel=1e-10)
        assert rep.verdicts["interval_floor"].holds
        assert not rep.verdicts["contraction"].holds
        assert rep.verdicts["contraction"].lhs > 1e5
        assert not rep.holds

    def test_holds_is_conjunction(self):
        P = scalar_instance(25.0, 0.9, 0.9)
        rep = analysis.check_uniqueness_interval(P)
        assert rep.holds == all(v.holds for v in rep.verdicts.values())

    def test_example_1_domination_fails(self):
        rep = analysis.check_uniqueness_interval(builtin.example(1).instance)
        assert rep.verdicts["interval_floor"].holds
        assert not rep.verdicts["domination"].holds
        assert not rep.holds


    @pytest.mark.parametrize("which", ["B=A^T", "B=A"])
    def test_rounding_negative_spectrum_is_a_failed_verdict(self, which):
        # lambda_min(A Q^-1 A*) = -2.8e-19: the floor is formed from the
        # clamped spectrum; with B = A both spectra clamp, so c = a = 0 and
        # the correction at X = cI is unbounded
        A = near_singular_coupled_problem()[0]
        B = A.T if which == "B=A^T" else A
        P = analysis.ProblemInstance(A, B, 5.0 * np.eye(3), 3.0, 4.0, 1.0)
        assert P._aqa_eig[0][0] < 0.0
        rep = analysis.check_uniqueness_interval(P)
        assert rep.verdicts["interval_floor"].holds
        assert not rep.verdicts["domination"].holds
        assert not rep.verdicts["contraction"].holds
        assert not rep.holds and rep.bracket is None
        if which == "B=A":
            assert analysis.derived_scalars(P).c == 0.0
            assert rep.verdicts["domination"].lhs == -math.inf
            assert rep.verdicts["contraction"].lhs == math.inf

    def test_underflowing_a_is_a_failed_verdict(self):
        # A = B = 1e-40 I, Q = I, s = 5: c = 1e-80 but a = 2 c^5 underflows
        # to 0, so the contraction term is its limit inf
        P = analysis.ProblemInstance(
            1e-40 * np.eye(2), 1e-40 * np.eye(2), np.eye(2), 5.0, 1.0, 1.0
        )
        d = analysis.derived_scalars(P)
        assert d.c > 0.0 and d.a == 0.0
        rep = analysis.check_uniqueness_interval(P)
        assert rep.verdicts["contraction"] == analysis.Verdict(False, math.inf, 1.0)
        assert not rep.holds

    def test_underflowing_c_power_is_a_failed_verdict(self):
        # A = B = 1e-100 I, Q = I, s = t = p = 1: c = c1 = 1e-200 > 0, but
        # c^(t+1) underflows to 0, so both contraction terms are their limit
        P = analysis.ProblemInstance(
            1e-100 * np.eye(2), 1e-100 * np.eye(2), np.eye(2), 1.0, 1.0, 1.0
        )
        d = analysis.derived_scalars(P)
        assert d.a > 0.0 and d.c > 0.0 and d.c ** 2 == 0.0
        rep = analysis.check_uniqueness_interval(P)
        assert rep.verdicts["contraction"] == analysis.Verdict(False, math.inf, 1.0)
        assert not rep.holds
        scaled = analysis.check_uniqueness_k(P, 2.0)
        assert scaled.verdicts["contraction"] == analysis.Verdict(False, math.inf, 1.0)
        assert analysis.scan_k(P) is None

    @pytest.mark.parametrize(
        "exponents", [(1, 1, 1), (2, 2, 1), (3, 4, 1), (1, 3, 2), (5, 1, 1), (1, 5, 1)]
    )
    def test_overflowing_c_power_is_a_failed_verdict(self, exponents):
        # A = B = 1e-160 I, Q = I: c^-t overflows, so the correction at X = cI
        # is unbounded, and the contraction term is its limit inf
        P = analysis.ProblemInstance(
            1e-160 * np.eye(2), 1e-160 * np.eye(2), np.eye(2), *exponents
        )
        rep = analysis.check_uniqueness_interval(P)
        assert rep.verdicts["domination"] == analysis.Verdict(
            False, -math.inf, 0.0, "checked at lower endpoint X = cI"
        )
        assert rep.verdicts["contraction"] == analysis.Verdict(False, math.inf, 1.0)
        assert not rep.holds and rep.bracket is None
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

    def test_spread_underflowing_on_both_sides_raises(self):
        # s = 1e6 on example 1: at k = 2 the power sum holds, so both sides of
        # the spread are positive, and both c1^s and k^-s underflow to 0
        E = builtin.example(1).instance
        P = analysis.ProblemInstance(E.A, E.B, E.Q, 1e6, E.t, E.p)
        with pytest.raises(FloatingPointError, match="spread condition underflows"):
            analysis.check_uniqueness_k(P, 2.0)

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

        def spy(L, R, scale, note=""):
            calls.append((L, scale))
            return self.rule(L, R, scale, note)

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

    def test_interval_check_scales_by_hermitian_norms(self, monkeypatch):
        P = builtin.example(1).instance
        calls = self.capture(
            monkeypatch, analysis, lambda: analysis.check_uniqueness_interval(P)
        )
        (floor_sum, floor_scale), (correction, dom_scale) = calls
        assert floor_scale == max(mc.hermitian_norm(floor_sum), P._norm_q)
        assert dom_scale >= mc.hermitian_norm(correction) > 1.0
        for L, scale in calls:
            self.assert_threshold(L, scale)

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
