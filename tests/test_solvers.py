"""The two iteration schemes, their precondition checks, and the scalar
oracle.

Frozen reference scalars were recomputed independently before being asserted
here; diagonal matrix instances are cross-checked entrywise against the
sign-change-bisection scalar oracle, which shares no code with the matrix
iteration path.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nmeq import analysis, builtin, solvers
from nmeq import matcore as mc

from support import (
    assert_reference_matches,
    near_singular_coupled_problem,
    random_unitary,
    reference_iterates,
)


def scalar_instance(q, a, b, s=1.0, t=1.0, p=1.0):
    return analysis.ProblemInstance(
        np.array([[a]]), np.array([[b]]), np.array([[q]]), s, t, p
    )


def diag_instance(qd, ad, bd, s, t, p):
    return analysis.ProblemInstance(np.diag(ad), np.diag(bd), np.diag(qd), s, t, p)


# s = t instance on which both schemes' preconditions hold; calibrated so
# alpha_search and b_search both succeed and the two extremal solutions are
# well separated
BOTH_SCHEMES = dict(
    qd=(7.5, 8.5), ad=(2.1, 2.3), bd=(0.1, 0.15), s=2.0, t=2.0, p=1.0
)


class TestSolveOptions:
    def test_defaults(self):
        opts = solvers.SolveOptions()
        assert opts.tol is None and opts.max_iter == 1000 and not opts.force

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol"):
            solvers.SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            solvers.SolveOptions(tol=-1e-10)

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            solvers.SolveOptions(max_iter=0)


class TestResidual:
    def test_printed_solutions(self):
        for which in (1, 2):
            bp = builtin.example(which)
            assert solvers.residual(bp.instance, bp.solution_X) <= 1e-10

    def test_scalar_root_exact(self):
        P = scalar_instance(2.0, 0.5, 0.5)
        x = 1.0 + math.sqrt(0.5)
        assert solvers.residual(P, np.array([[x]])) <= 1e-14

    def test_rejects_indefinite(self):
        P = builtin.example(1).instance
        with pytest.raises(ValueError, match="positive definite"):
            solvers.residual(P, np.diag([1.0, 1.0, -1.0]))

    def test_rejects_wrong_shape(self):
        P = builtin.example(1).instance
        with pytest.raises(ValueError, match="shape"):
            solvers.residual(P, np.eye(2))


class TestBoundaryValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda P, X: solvers.residual(P, X),
            lambda P, X: mc.herm_power(X, 0.5),
            lambda P, X: mc.lambda_min(X),
            lambda P, X: analysis.factorization_from_solution(P, X),
        ],
        ids=["residual", "herm_power", "lambda_min", "factorization_from_solution"],
    )
    def test_public_entry_rejects_non_hermitian(self, call):
        bp = builtin.example(1)
        X = bp.solution_X.copy()
        X[0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            call(bp.instance, X)


class TestReduceLift:
    """The printed pair (Y, X) of each bundled example: Y = X^r with r the
    lift root, and Y solves the transformed equation
    Y^(s/r) + A* Y^(-t/r) A + B* Y^(-p/r) B = Q."""

    def test_lift_matches_printed_pair(self):
        for which in (1, 2):
            bp = builtin.example(which)
            X = mc.herm_power(bp.solution_Y, 1.0 / bp.lift_root)
            assert np.max(np.abs(X - bp.solution_X)) <= 1e-12

    def test_reduced_residual_of_printed_y(self):
        for which in (1, 2):
            bp = builtin.example(which)
            P, Y, r = bp.instance, bp.solution_Y, bp.lift_root
            defect = (
                mc.herm_power(Y, P.s / r)
                + P.A.conj().T @ mc.herm_power(Y, -P.t / r) @ P.A
                + P.B.conj().T @ mc.herm_power(Y, -P.p / r) @ P.B
                - P.Q
            )
            assert mc.spectral_norm(defect) <= 1e-10


class TestAlphaSearch:
    def test_example_1_feasible(self):
        P = builtin.example(1).instance
        alpha = solvers.alpha_search(P)
        assert alpha is not None
        check = solvers.fixed_point_check(P, alpha)
        assert check.feasible
        assert check.feasibility_lhs < 2.0

    def test_huge_coefficients_infeasible(self):
        P = analysis.ProblemInstance(
            2.0 * np.eye(2), 2.0 * np.eye(2), np.eye(2), 2.0, 1.0, 1.0
        )
        assert solvers.alpha_search(P) is None

    def test_small_coefficients_feasible(self):
        P = analysis.ProblemInstance(
            1e-3 * np.eye(2), 1e-3 * np.eye(2), np.eye(2), 2.0, 1.0, 1.0
        )
        assert solvers.alpha_search(P) is not None


    def test_force_without_feasible_alpha_starts_at_grid_minimizer(self):
        # alpha + 2 * 0.45^2 / sqrt(alpha) >= 3 * 0.45^(4/3) > 1 = q for every
        # alpha, so no start is feasible; one forced step stays positive
        P = scalar_instance(1.0, 0.45, 0.45, s=2.0)
        assert solvers.alpha_search(P) is None
        rep = solvers.solve_fixed_point(P, solvers.SolveOptions(force=True, max_iter=1))
        grid = np.geomspace(1e-8, 1.0, 500)
        na2 = mc.spectral_norm(P.A) ** 2
        lhs = grid + grid**-0.5 * na2 + grid**-0.5 * na2
        assert rep.precheck.alpha == float(grid[np.argmin(lhs)])
        assert not rep.preconditions_held


class TestFixedPoint:
    def test_example_1_precheck_scalars(self):
        check = solvers.fixed_point_check(builtin.example(1).instance, 1.0)
        assert check.feasibility_lhs == pytest.approx(1.0619115756200548, rel=1e-12)
        assert check.beta == pytest.approx(1.946624597494776, rel=1e-12)
        assert check.contraction_lhs == pytest.approx(0.07160121494970163, rel=1e-12)
        assert check.contraction_rhs == pytest.approx(5.839873792484328, rel=1e-12)
        assert check.delta == pytest.approx(0.012260746977417454, rel=1e-12)
        assert check.ok

    def test_example_1_reproduction(self):
        bp = builtin.example(1)
        rep = solvers.solve_fixed_point(bp.instance, solvers.SolveOptions(alpha=1.0))
        assert rep.converged
        assert rep.iterations <= 12
        assert np.max(np.abs(rep.solution_Y - bp.solution_Y)) <= 1e-9
        assert np.max(np.abs(rep.solution_X - bp.solution_X)) <= 1e-9
        assert rep.scheme is solvers.Scheme.FIXED_POINT
        assert rep.extremality is solvers.Extremality.MAXIMAL
        assert rep.preconditions_held
        assert rep.lift_root == 3.0
        assert not rep.swap_applied

    def test_history_structure(self):
        rep = solvers.solve_fixed_point(
            builtin.example(1).instance, solvers.SolveOptions(alpha=1.0)
        )
        assert len(rep.history) == rep.iterations
        its = [h.iteration for h in rep.history]
        assert its == list(range(1, rep.iterations + 1))
        for h in rep.history:
            assert h.step_error_X == h.step_error_Y

    def test_monotone_ascent(self):
        bp = builtin.example(1)
        rep = solvers.solve_fixed_point(bp.instance, solvers.SolveOptions(alpha=1.0))
        seq = reference_iterates(bp.instance, rep)
        assert_reference_matches(bp.instance, rep, seq)
        tol = 1e-10 * mc.spectral_norm(bp.instance.Q)
        for Y0, Y1 in zip(seq, seq[1:]):
            assert mc.loewner_leq(Y0, Y1, tol)
        for Y in seq:
            assert mc.loewner_leq(Y, bp.instance.Q, tol)

    def test_a_priori_error_bound(self):
        # delta governs steps once the iterates sit above beta I; with
        # alpha < beta the first update happens below that floor, so the
        # geometric envelope is anchored at the larger of the first step and
        # the delta-rescaled second step
        bp = builtin.example(1)
        rep = solvers.solve_fixed_point(bp.instance, solvers.SolveOptions(alpha=1.0))
        tol = 1e-14 * mc.spectral_norm(bp.instance.Q)
        d = rep.delta
        s1 = rep.history[0].step_error_Y
        s2 = rep.history[1].step_error_Y
        anchor = max(s1, s2 / d)
        seq = reference_iterates(bp.instance, rep)
        assert_reference_matches(bp.instance, rep, seq)
        Yf = seq[-1]
        for n, Y in enumerate(seq):
            assert mc.spectral_norm(Y - Yf) <= d**n / (1.0 - d) * anchor + 10 * tol

    def test_one_decomposition_per_iterate(self, monkeypatch):
        # Y_1 .. Y_N get one eigh each, and the last one feeds both the lift
        # and the residual certificate; Y_0 = alpha I gets none.  The
        # precheck's eigvalsh of Y_1, the N - 1 step norms and the residual's
        # norm make N + 1 eigvalsh.
        P = builtin.example(1).instance
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        rep = solvers.solve_fixed_point(P)
        assert rep.converged and rep.preconditions_held
        assert counts == {"eigh": rep.iterations, "eigvalsh": rep.iterations + 1}

    @pytest.mark.parametrize("which", [1, 2])
    def test_analytic_first_step(self, which):
        P = builtin.example(which).instance
        opts = solvers.SolveOptions(alpha=1.0, max_iter=1, force=True)
        rep = solvers.solve_fixed_point(P, opts)
        assert rep.iterations == 1
        alpha = rep.precheck.alpha
        eye = np.eye(P.n)
        Y1 = rep.solution_Y
        explicit = (
            P.Q
            - P.A.conj().T @ (alpha ** (-P.t / P.s) * eye) @ P.A
            - P.B.conj().T @ (alpha ** (-P.p / P.s) * eye) @ P.B
        )
        assert mc.spectral_norm(Y1 - explicit) <= 1e-14 * mc.spectral_norm(P.Q)
        step = mc.spectral_norm(Y1 - alpha * eye)
        assert rep.history[0].step_error_X == pytest.approx(step, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_forced_nonpositive_alpha_loses_positivity(self, alpha):
        with pytest.raises(solvers.PositivityError, match="iterate 0"):
            solvers.solve_fixed_point(
                builtin.example(1).instance, solvers.SolveOptions(alpha=alpha, force=True)
            )

    def test_infeasible_alpha_raises(self):
        with pytest.raises(solvers.PreconditionError, match="infeasible"):
            solvers.solve_fixed_point(
                builtin.example(1).instance, solvers.SolveOptions(alpha=1e-9)
            )

    def test_force_runs_with_unknown_extremality(self):
        # alpha = 1.99 pushes the feasibility lhs just past lambda_min(Q) = 2
        # while the iteration itself still stays positive definite
        check = solvers.fixed_point_check(builtin.example(1).instance, 1.99)
        assert not check.feasible
        rep = solvers.solve_fixed_point(
            builtin.example(1).instance,
            solvers.SolveOptions(alpha=1.99, force=True),
        )
        assert rep.converged
        assert rep.extremality is solvers.Extremality.UNKNOWN
        assert not rep.preconditions_held

    def test_no_feasible_alpha_raises(self):
        P = analysis.ProblemInstance(
            2.0 * np.eye(2), 2.0 * np.eye(2), np.eye(2), 2.0, 1.0, 1.0
        )
        with pytest.raises(solvers.PreconditionError, match="starting scalar"):
            solvers.solve_fixed_point(P)

    def test_max_iter_reports_non_convergence(self):
        rep = solvers.solve_fixed_point(
            builtin.example(1).instance,
            solvers.SolveOptions(alpha=1.0, max_iter=1),
        )
        assert not rep.converged
        assert rep.iterations == 1

    def test_loose_tol_stops_earlier(self):
        bp = builtin.example(1)
        tight = solvers.solve_fixed_point(bp.instance, solvers.SolveOptions(alpha=1.0))
        loose = solvers.solve_fixed_point(
            bp.instance, solvers.SolveOptions(alpha=1.0, tol=1e-6)
        )
        assert loose.iterations < tight.iterations

    def test_reduction_consistency(self):
        # at tolerances above the floating point noise floor, the lifted
        # solution's residual stays within 10x the final step error
        bp = builtin.example(1)
        for tol in (1e-8, 1e-10):
            rep = solvers.solve_fixed_point(
                bp.instance, solvers.SolveOptions(alpha=1.0, tol=tol)
            )
            final_step = rep.history[-1].step_error_Y
            assert rep.residual <= 10.0 * final_step


class TestCoupled:
    def test_example_2_precheck_scalars(self):
        check = solvers.coupled_check(builtin.example(2).instance, 1.0)
        assert check.a == pytest.approx(0.5075428989356894, rel=1e-12)
        assert check.theta == pytest.approx(3.9401807908665676, rel=1e-12)
        assert check.contraction_a.lhs == pytest.approx(17.269307701721161, rel=1e-10)
        assert check.contraction_a.rhs == pytest.approx(26.207795027718277, rel=1e-10)
        assert check.contraction_b.lhs == pytest.approx(0.90086767947051, rel=1e-10)
        assert check.contraction_b.rhs == pytest.approx(1.52262869680707, rel=1e-10)
        assert check.delta == pytest.approx(0.6589378344670563, rel=1e-12)
        assert check.ok

    def test_example_2_reproduction(self):
        bp = builtin.example(2)
        rep = solvers.solve_coupled(bp.instance, solvers.SolveOptions(b_upper=1.0))
        assert rep.converged
        assert rep.iterations <= 25
        assert np.max(np.abs(rep.solution_Y - bp.solution_Y)) <= 1e-9
        assert np.max(np.abs(rep.solution_X - bp.solution_X)) <= 1e-9
        assert rep.scheme is solvers.Scheme.COUPLED
        assert rep.extremality is solvers.Extremality.MINIMAL
        assert rep.lift_root == 4.0

    def test_refined_bracket_contains_solution(self):
        bp = builtin.example(2)
        rep = solvers.solve_coupled(bp.instance, solvers.SolveOptions(b_upper=1.0))
        lo, hi = rep.refined_bracket
        tol = 1e-10 * mc.spectral_norm(bp.instance.Q)
        assert mc.loewner_leq(lo, rep.solution_Y, tol)
        assert mc.loewner_leq(rep.solution_Y, hi, tol)
        seq = reference_iterates(bp.instance, rep)
        assert_reference_matches(bp.instance, rep, seq)
        ref_lo, ref_hi = seq[1]
        gap = 1e-12 * mc.spectral_norm(bp.instance.Q)
        assert mc.spectral_norm(lo - ref_lo) <= gap
        assert mc.spectral_norm(hi - ref_hi) <= gap

    def test_coupled_bracketing(self):
        bp = builtin.example(2)
        rep = solvers.solve_coupled(bp.instance, solvers.SolveOptions(b_upper=1.0))
        tol = 1e-10 * mc.spectral_norm(bp.instance.Q)
        pairs = reference_iterates(bp.instance, rep)
        assert_reference_matches(bp.instance, rep, pairs)
        for (X0, Y0), (X1, Y1) in zip(pairs, pairs[1:]):
            assert mc.loewner_leq(X0, X1, tol)
            assert mc.loewner_leq(Y1, Y0, tol)
        for Xn, Yn in pairs:
            assert mc.loewner_leq(Xn, Yn, tol)

    def test_max_form_error_bound(self):
        bp = builtin.example(2)
        rep = solvers.solve_coupled(bp.instance, solvers.SolveOptions(b_upper=1.0))
        tol = 1e-14 * mc.spectral_norm(bp.instance.Q)
        d = rep.delta
        h1, h2 = rep.history[0], rep.history[1]
        s1 = max(h1.step_error_X, h1.step_error_Y)
        s2 = max(h2.step_error_X, h2.step_error_Y)
        anchor = max(s1, s2 / d)
        pairs = reference_iterates(bp.instance, rep)
        assert_reference_matches(bp.instance, rep, pairs)
        Xf, Yf = pairs[-1]
        for n, (Xn, Yn) in enumerate(pairs):
            err = max(mc.spectral_norm(Xn - Xf), mc.spectral_norm(Yn - Yf))
            assert err <= d**n / (1.0 - d) * anchor + 10 * tol

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError, match="positive"):
            solvers.coupled_check(builtin.example(2).instance, 0.0)

    def test_separation_failure_raises(self):
        # b below a = 0.5075 violates condition (i)
        with pytest.raises(solvers.PreconditionError, match="separation"):
            solvers.solve_coupled(
                builtin.example(2).instance, solvers.SolveOptions(b_upper=0.4)
            )

    def test_wrong_scheme_raises(self):
        with pytest.raises(solvers.PreconditionError, match="fixed-point"):
            solvers.solve_coupled(
                builtin.example(1).instance, solvers.SolveOptions(b_upper=1.0)
            )

    def test_b_search(self):
        P = builtin.example(2).instance
        b = solvers.b_search(P)
        assert b is not None
        assert solvers.coupled_check(P, b).ok
        assert solvers.b_search(builtin.example(1).instance) is None

    def test_b_search_checks_every_grid_point(self, monkeypatch):
        # example 1 is a fixed-point instance: all 100 grid points fail
        bs = []
        original = solvers.coupled_check

        def counting(P, b):
            bs.append(b)
            return original(P, b)

        monkeypatch.setattr(solvers, "coupled_check", counting)
        assert solvers.b_search(builtin.example(1).instance) is None
        assert len(bs) == 100

    def test_positivity_loss_aborts(self):
        # a = lambda_min(A Q^-1 A*) = 9, so the lower start X_0 = 9 I already
        # overshoots Q and the inverted matrix turns negative at once
        P = scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0)
        with pytest.raises(solvers.PositivityError, match="positive definiteness"):
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=20.0, force=True))

    def test_positivity_loss_message(self):
        # the inverted matrix of that run is -2.002 < 0, so Cholesky fails and
        # the eigh fallback words the verdict
        P = scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0)
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=20.0, force=True))
        assert str(err.value) == (
            "inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
            "definiteness at iteration 1 (lambda_min = -2.002e+00)"
        )

    def test_one_cholesky_per_half_step(self, monkeypatch):
        # each iteration decomposes X_n and Y_n (two eigh) and inverts both
        # half-steps' matrices through Cholesky; the limit gets one more eigh
        P = builtin.example(2).instance
        solvers.solve_coupled(P)  # fill the instance caches
        counts = {"eigh": 0, "cholesky": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        rep = solvers.solve_coupled(P)
        assert rep.converged and rep.preconditions_held
        assert counts == {"eigh": 2 * rep.iterations + 1, "cholesky": 2 * rep.iterations}

    def test_degenerate_tie_cannot_start(self):
        # q=2, a2=b2=0.25, s=t=p=1: X_0 = (a2/q) I makes B* X_0^-1 B equal Q
        # exactly, so the upper update's inner matrix is -b < 0 for every b;
        # no starting scalar exists and a forced run aborts honestly
        P = scalar_instance(2.0, 0.5, 0.5)
        assert solvers.b_search(P) is None
        with pytest.raises(solvers.PositivityError):
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=1.0, force=True))
        # the minimal root the iteration would target exists nonetheless
        roots = solvers.scalar_oracle(solvers.ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert roots.min_root == pytest.approx(0.2928932188134525, rel=1e-12)

    def test_diagonal_matches_scalar_oracle(self):
        qd, ad, bd = (7.5, 8.5), (2.1, 2.3), (0.1, 0.15)
        for s, t, p in ((1.0, 2.0, 1.0), (3.0, 4.0, 1.0)):
            P = diag_instance(qd, ad, bd, s, t, p)
            b = solvers.b_search(P)
            assert b is not None
            rep = solvers.solve_coupled(P, solvers.SolveOptions(b_upper=b))
            for i in range(2):
                S = solvers.ScalarInstance(qd[i], ad[i] ** 2, bd[i] ** 2, s, t, p)
                want = solvers.scalar_oracle(S).min_root
                assert rep.solution_X[i, i].real == pytest.approx(want, abs=1e-10)


class TestInverseCongruence:
    """A inner^-1 A* of the coupled half-step: the Cholesky path agrees with
    the eigh inversion, and the helper raises exactly when the PD_TOL
    verdict on eigh(inner) fails, with the same message."""

    @staticmethod
    def _problem(rng, values, cplx):
        n = len(values)
        U = random_unitary(rng, n) if cplx else _orthogonal(rng, n)
        A = rng.standard_normal((n, n))
        if cplx:
            A = A + 1j * rng.standard_normal((n, n))
        return mc.hermitian_part((U * values) @ U.conj().T), A.conj().T

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_matches_eigh_inversion(self, n, cplx, monkeypatch):
        rng = np.random.default_rng(n)
        inner, adj_a = self._problem(rng, rng.uniform(0.5, 4.0, n), cplx)
        values, vectors = np.linalg.eigh(inner)
        want = mc.hermitian_part(mc.congruence(vectors, 1.0 / values, adj_a))
        # a well-conditioned inner matrix takes the Cholesky path: no eigh
        monkeypatch.setattr(np.linalg, "eigh", None)
        got = solvers._inverse_congruence(inner, adj_a, 1)
        assert got.dtype == want.dtype
        assert np.linalg.norm(got - want, 2) <= 1e-13 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [5, 32])
    def test_verdict_matches_eigh(self, n, cplx):
        rng = np.random.default_rng(100 + n)
        spectra = [np.geomspace(1.0, 1.0 / cond, n) for cond in np.logspace(2, 14, 13)]
        # around the PD_TOL threshold, where the certificate defers to eigh
        spectra += [np.geomspace(1.0, f * mc.PD_TOL, n) for f in (0.5, 0.9, 1.1, 2.0, 3.0)]
        # indefinite, negative definite and singular
        spectra += [
            np.linspace(-0.1, 1.0, n),
            np.linspace(-1.0, -0.01, n),
            np.r_[-1e-14, np.ones(n - 1)],
            np.r_[0.0, np.ones(n - 1)],
            np.zeros(n),
        ]
        raised = 0
        for values in spectra:
            inner, adj_a = self._problem(rng, values, cplx)
            lam = np.linalg.eigh(inner)[0]
            if mc.is_pd_spectrum(lam):
                assert np.all(np.isfinite(solvers._inverse_congruence(inner, adj_a, 7)))
                continue
            raised += 1
            with pytest.raises(solvers.PositivityError) as err:
                solvers._inverse_congruence(inner, adj_a, 7)
            assert str(err.value) == (
                "inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
                f"definiteness at iteration 7 (lambda_min = {lam[0]:.3e})"
            )
        assert 0 < raised < len(spectra)


class TestDispatch:
    def test_s_dominant_goes_fixed_point(self):
        rep = solvers.solve(builtin.example(1).instance, solvers.SolveOptions(alpha=1.0))
        assert rep.scheme is solvers.Scheme.FIXED_POINT

    def test_t_dominant_goes_coupled(self):
        rep = solvers.solve(builtin.example(2).instance, solvers.SolveOptions(b_upper=1.0))
        assert rep.scheme is solvers.Scheme.COUPLED

    def test_tie_goes_fixed_point(self):
        P = diag_instance(**BOTH_SCHEMES)
        rep = solvers.solve(P)
        assert rep.scheme is solvers.Scheme.FIXED_POINT
        assert rep.extremality is solvers.Extremality.MAXIMAL

    def test_extremal_ordering_on_tie(self):
        # both schemes' preconditions hold here; the coupled limit must sit
        # below the fixed-point limit
        P = diag_instance(**BOTH_SCHEMES)
        hi = solvers.solve_fixed_point(P)
        lo = solvers.solve_coupled(P)
        assert hi.preconditions_held and lo.preconditions_held
        tol = 1e-10 * mc.spectral_norm(hi.solution_X)
        assert mc.loewner_leq(lo.solution_X, hi.solution_X, tol)
        # genuinely distinct solutions, not a numerical tie
        assert mc.spectral_norm(hi.solution_X - lo.solution_X) > 0.5
        for rep in (hi, lo):
            assert solvers.residual(P, rep.solution_X) <= 1e-10

    def test_swap_applied_flag(self):
        # p > t forces the canonical swap; dispatch still picks by size
        P = analysis.ProblemInstance(
            0.1 * np.eye(2), 0.1 * np.eye(2), 5.0 * np.eye(2), 3.0, 1.0, 2.0
        )
        rep = solvers.solve(P)
        assert rep.swap_applied
        assert rep.scheme is solvers.Scheme.FIXED_POINT


class TestScalarOracle:
    def test_quadratic_roots(self):
        roots = solvers.scalar_oracle(solvers.ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert len(roots.roots) == 2
        assert roots.min_root == pytest.approx(0.2928932188134525, rel=1e-12)
        assert roots.max_root == pytest.approx(1.7071067811865475, rel=1e-12)

    def test_empty_when_no_solution(self):
        roots = solvers.scalar_oracle(solvers.ScalarInstance(1.0, 0.25, 0.25, 1, 1, 1))
        assert roots.roots == ()
        assert roots.max_root is None and roots.min_root is None

    def test_self_consistency(self):
        S = solvers.ScalarInstance(2.0, 0.01, 0.04, 3, 2, 1)
        roots = solvers.scalar_oracle(S)
        assert roots.roots
        for x in roots.roots:
            assert abs(S.f(x)) <= 1e-12

    def test_roots_sorted(self):
        roots = solvers.scalar_oracle(solvers.ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert list(roots.roots) == sorted(roots.roots)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            solvers.ScalarInstance(-1.0, 0.1, 0.1, 1, 1, 1)
        with pytest.raises(ValueError, match="exponent"):
            solvers.ScalarInstance(1.0, 0.1, 0.1, 0.5, 1, 1)

    def test_agrees_with_fixed_point_on_scalar(self):
        # dispatcher solves the 1x1 instance; oracle max root is the
        # maximal solution
        P = scalar_instance(2.0, 0.5, 0.5)
        rep = solvers.solve(P)
        roots = solvers.scalar_oracle(solvers.ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert rep.solution_X[0, 0].real == pytest.approx(roots.max_root, abs=1e-12)


class TestResidualCertificate:
    def test_certificate_on_precondition_runs(self):
        for which, kw in ((1, dict(alpha=1.0)), (2, dict(b_upper=1.0))):
            bp = builtin.example(which)
            rep = solvers.solve(bp.instance, solvers.SolveOptions(**kw))
            assert rep.preconditions_held
            tol = 1e-14 * mc.spectral_norm(bp.instance.Q)
            assert rep.residual <= 100.0 * tol * mc.spectral_norm(bp.instance.Q)


class TestForcedCoupledStart:
    def test_vanishing_lower_start_is_a_precondition_failure(self):
        P = analysis.ProblemInstance(*near_singular_coupled_problem())
        assert solvers._coupled_a(P) == 0.0
        for force in (False, True):
            with pytest.raises(solvers.PreconditionError, match="rounds to 0"):
                solvers.solve_coupled(P, solvers.SolveOptions(force=force))
        with pytest.raises(solvers.PreconditionError, match="rounds to 0"):
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=1.0, force=True))


    def test_clamped_theta_fails_the_first_contraction(self):
        # a = 5.96e-18 > 0, but lambda_min(A* A) clamps to 0, so theta = 0
        P = analysis.ProblemInstance(*near_singular_coupled_problem(seed=2))
        assert solvers._coupled_a(P) > 0.0
        assert P._lambda_min_ata == 0.0
        check = solvers.coupled_check(P, 1.0)
        assert check.theta == 0.0
        assert check.delta == math.inf
        assert not check.contraction_a.holds
        assert not check.ok
        assert solvers.b_search(P) is None
        with pytest.raises(solvers.PreconditionError, match="no feasible upper scalar"):
            solvers.solve_coupled(P)

    @pytest.mark.parametrize("s", [3.0, 5.0])
    def test_clamped_a_is_a_failed_verdict(self, s, monkeypatch):
        # a clamps to 0, so a^(-p/t) in the domination bound and the negative
        # powers of a in delta (and, for s > t, in the first contraction) are
        # infinite: reported, never evaluated
        A, B, Q, _, t, p = near_singular_coupled_problem()
        P = analysis.ProblemInstance(A, B, Q, s, t, p)
        assert solvers._coupled_a(P) == 0.0
        eigvalsh = np.linalg.eigvalsh

        def finite_only(M, *args, **kwargs):
            assert np.all(np.isfinite(M))
            return eigvalsh(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
        check = solvers.coupled_check(P, 1.0)
        assert check.a == 0.0
        assert not check.domination.holds
        assert check.domination.lhs == -math.inf
        assert not check.contraction_b.holds
        assert check.delta == math.inf
        assert not check.ok


class TestRealArithmetic:
    """Real data stays real from the instance to the solution; one complex
    coefficient makes the whole instance complex."""

    @pytest.mark.parametrize("which", [1, 2])
    def test_real_instance_is_solved_in_float64(self, which, monkeypatch):
        # every matrix the solve decomposes (each iterate, each step, each
        # inverted matrix) is float64, and the real run matches the reference
        P = builtin.example(which).instance
        assert P.A.dtype == P.B.dtype == P.Q.dtype == np.float64
        decomposed = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(M, *args, _original=original, **kwargs):
                decomposed.append(M.dtype)
                return _original(M, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert len(decomposed) >= rep.iterations
        assert set(decomposed) == {np.dtype(np.float64)}
        assert rep.solution_X.dtype == np.float64
        assert rep.solution_Y.dtype == np.float64
        for M in rep.refined_bracket or ():
            assert M.dtype == np.float64
        assert_reference_matches(P, rep, reference_iterates(P, rep))
        F = analysis.factorization_from_solution(P, rep.solution_X)
        for M in (F.U, F.lam, F.N1, F.N2):
            assert M.dtype == np.float64

    def test_one_complex_coefficient_makes_the_instance_complex(self):
        P = builtin.example(1).instance
        B = P.B.astype(complex)
        B[0, 0] += 1e-3j
        C = analysis.ProblemInstance(P.A, B, P.Q, P.s, P.t, P.p)
        assert C.A.dtype == C.B.dtype == C.Q.dtype == np.complex128
        rep = solvers.solve(C)
        assert rep.solution_X.dtype == np.complex128
        assert rep.converged

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("which", [1, 2])
    def test_unitary_congruence(self, which, seed):
        # (U*AU, U*BU, U*QU) is solved by U*XU: the complex path on the
        # rotated instance pins the real path on the original one
        P = builtin.example(which).instance
        U = random_unitary(np.random.default_rng(seed), P.n)
        Uh = U.conj().T
        R = analysis.ProblemInstance(Uh @ P.A @ U, Uh @ P.B @ U, Uh @ P.Q @ U, P.s, P.t, P.p)
        assert P.Q.dtype == np.float64 and R.Q.dtype == np.complex128
        real = solvers.solve(P)
        rotated = solvers.solve(R)
        assert real.converged and rotated.converged
        assert real.extremality is rotated.extremality
        assert real.extremality is not solvers.Extremality.UNKNOWN
        gap = mc.spectral_norm(Uh @ real.solution_X @ U - rotated.solution_X)
        assert gap <= 1e-10 * (1.0 + mc.spectral_norm(P.Q))


def _orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _scaled(rng, n, norm, lo):
    sigma = rng.uniform(lo, 1.0, n)
    sigma[0] = 1.0
    return norm * (_orthogonal(rng, n) * sigma) @ _orthogonal(rng, n).T


def _dense_instance(rng, n, scheme):
    """Real instances on which each scheme's preconditions hold: s = 3,
    t = 2, p = 1 with small A for the fixed-point scheme; s = 3, t = 4,
    p = 1 with A a scaled near-orthogonal matrix for the coupled scheme."""
    q_lo, q_hi = (2.0, 4.0) if scheme == "fixed-point" else (6.0, 9.5)
    U = _orthogonal(rng, n)
    Q = (U * rng.uniform(q_lo, q_hi, n)) @ U.T
    if scheme == "fixed-point":
        A, t = _scaled(rng, n, 0.3, 0.5), 2.0
    else:
        A, t = _scaled(rng, n, 2.0, 0.98), 4.0
    B = _scaled(rng, n, 0.1, 0.5)
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.T), 3.0, t, 1.0)


class TestBoundedMemory:
    """A solve holds a fixed number of n x n matrices: its peak memory does
    not grow with max_iter (only the three-float history rows do)."""

    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_peak_does_not_grow_with_max_iter(self, scheme):
        P = _dense_instance(np.random.default_rng(64), 64, scheme)
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        peaks = []
        for max_iter in (20, 200):
            opts = solvers.SolveOptions(tol=1e-300, max_iter=max_iter)
            tracemalloc.start()
            try:
                rep = solvers.solve(P, opts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rep.scheme.value == scheme and rep.preconditions_held
            assert not rep.converged and rep.iterations == max_iter
        assert peaks[1] / peaks[0] < 1.5


def _kron_instance(E, k):
    """k diagonal copies of the instance E: its solutions are kron(I_k, X)
    for E's solutions X, so it is a large twin of a small run."""
    I = np.eye(k)
    return analysis.ProblemInstance(
        np.kron(I, E.A), np.kron(I, E.B), np.kron(I, E.Q), E.s, E.t, E.p
    )


def _inline_pair(n, f, g):
    first = f()
    return first, g()


def _run_python(code, timeout=None):
    path = os.environ.get("PYTHONPATH")
    root = str(Path(solvers.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=timeout
    )


class TestTwoLanes:
    """From n = 32 on, each step's independent decompositions run as two
    lanes, one of them on a worker thread.  The outcome is the serial one:
    the same bits, and the same exception a serial run raises first."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # take the threaded path even on a machine with a single CPU
        monkeypatch.setattr(solvers, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("k", [11, 16], ids=["n33", "n48"])
    @pytest.mark.parametrize("which", [1, 2], ids=["fixed-point", "coupled"])
    def test_paired_solve_matches_inline_and_small_twin(self, which, k, monkeypatch):
        threads = set()
        norm = mc.hermitian_norm

        def recording_norm(D):
            threads.add(threading.current_thread().name)
            return norm(D)

        monkeypatch.setattr(mc, "hermitian_norm", recording_norm)
        E = builtin.example(which).instance
        paired = solvers.solve(_kron_instance(E, k))
        # every step norm of the fixed-point loop, and the upper one of the
        # coupled loop, is taken on the worker
        assert any(name.startswith("nmeq-lane") for name in threads)
        monkeypatch.setattr(solvers, "_pair", _inline_pair)
        inline = solvers.solve(_kron_instance(E, k))
        assert np.array_equal(paired.solution_X, inline.solution_X)
        assert paired.history == inline.history
        assert paired.residual == inline.residual
        assert paired.iterations == inline.iterations
        assert paired.converged and paired.preconditions_held
        small = solvers.solve(E).solution_X
        want = np.kron(np.eye(k), small)
        assert np.linalg.norm(paired.solution_X - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    def test_both_lanes_failing_raise_the_lower_lanes_error(self, monkeypatch):
        # k = 33 copies of the scalar run of test_positivity_loss_message: at
        # iteration 1 the lower inner matrix is -2.002 I and the upper one
        # -3.475 I, so both lanes raise; the lower one is the serial error
        P = _kron_instance(scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0), 33)
        opts = solvers.SolveOptions(b_upper=20.0, force=True)
        want = (
            "inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
            "definiteness at iteration 1 (lambda_min = -2.002e+00)"
        )
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, opts)
        assert str(err.value) == want
        monkeypatch.setattr(solvers, "_pair", _inline_pair)
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, opts)
        assert str(err.value) == want

    def test_concurrent_solves_share_the_worker(self):
        # four callers of different sizes and schemes against the one worker,
        # with a short switch interval: each gets its own solution back
        cases = [(1, 11), (2, 11), (1, 16), (2, 16)]
        instances = [_kron_instance(builtin.example(w).instance, k) for w, k in cases]
        want = [solvers.solve(P).solution_X for P in instances]
        got = [None] * len(cases)

        def run(i):
            got[i] = solvers.solve(instances[i]).solution_X

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for X, Y in zip(got, want):
            assert X is not None and X.shape == Y.shape
            assert np.linalg.norm(X - Y, 2) <= 1e-12 * np.linalg.norm(Y, 2)

    def test_worker_lane_runs_in_the_callers_errstate(self):
        # numpy keeps errstate in a context variable, which a thread of its
        # own would not see
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                solvers._pair(32, lambda: None, lambda: np.float64(1e300) * 1e300)

    def test_forked_child_solves(self):
        # a child forked after a paired solve inherits the worker's executor
        # but not its thread; it must make its own instead of waiting forever
        if not hasattr(os, "fork"):
            pytest.skip("no os.fork on this platform")
        code = (
            "import os, signal, numpy as np, nmeq\n"
            "from nmeq import solvers\n"
            "solvers._usable_cpus = lambda: 2\n"
            "d = lambda v: np.diag(np.tile(v, 32))\n"
            "P = nmeq.ProblemInstance(d((2.1, 2.3)), d((0.1, 0.15)), d((7.5, 8.5)), 1, 2, 1)\n"
            "assert P.n == 64 and nmeq.solve(P).converged and solvers._lane is not None\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    ok = nmeq.solve(P).converged and solvers._lane is not None\n"
            "    os._exit(0 if ok else 1)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status))\n"
        )
        res = _run_python(code, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0"

    def test_small_problems_start_no_thread(self):
        # the bundled examples are 3 x 3: both run inline, so neither the
        # executor module nor a second thread is ever loaded or started
        code = (
            "import sys, threading, nmeq\n"
            "assert nmeq.solve(nmeq.example(1).instance).converged\n"
            "assert nmeq.solve(nmeq.example(2).instance).converged\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        res = _run_python(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False 1"
