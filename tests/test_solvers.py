"""The two iteration schemes, their precondition checks, and the scalar
oracle of ``support``.

Frozen reference scalars were recomputed independently before being asserted
here; diagonal matrix instances are cross-checked entrywise against the
sign-change-bisection scalar oracle, which shares no code with the library.
"""

import dataclasses
import decimal
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from nmeq import analysis, builtin, solvers
from nmeq import matcore as mc

from support import (
    ScalarInstance,
    agrees,
    assert_reference_matches,
    loewner_leq,
    near_singular_coupled_problem,
    random_unitary,
    reference_iterates,
    scalar_oracle,
)


def scalar_instance(q, a, b, s=1.0, t=1.0, p=1.0):
    return analysis.ProblemInstance(
        np.array([[a]]), np.array([[b]]), np.array([[q]]), s, t, p
    )


def diag_instance(qd, ad, bd, s, t, p):
    return analysis.ProblemInstance(np.diag(ad), np.diag(bd), np.diag(qd), s, t, p)


def assert_names_failed_verdicts(solve, P, opts, check, failed):
    """solve(P, opts) raises a PreconditionError naming each failed verdict of
    check with its two sides, and no verdict that holds."""
    with pytest.raises(solvers.PreconditionError) as info:
        solve(P, opts)
    message = str(info.value)
    verdicts = {
        f.name: getattr(check, f.name)
        for f in dataclasses.fields(check)
        if isinstance(getattr(check, f.name), analysis.Verdict)
    }
    assert {name for name, v in verdicts.items() if not v.holds} == failed
    for name, v in verdicts.items():
        named = f"{name} fails: {v.lhs:.6g} vs {v.rhs:.6g}" in message
        assert named == (name in failed), (name, message)


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
        for bad in (0, -3, 2.5, 3.0, math.inf, math.nan, True, "10", None):
            with pytest.raises(ValueError, match="max_iter"):
                solvers.SolveOptions(max_iter=bad)


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
            lambda P, X: mc.herm_eig(X),
            lambda P, X: analysis.factorization_from_solution(P, X),
        ],
        ids=["residual", "herm_power", "herm_eig", "factorization_from_solution"],
    )
    def test_public_entry_rejects_non_hermitian(self, call):
        bp = builtin.example(1)
        X = bp.solution_X.copy()
        X[0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            call(bp.instance, X)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: mc.herm_power(np.eye(2), math.nan), "exponent must be finite, got nan"),
            (lambda: mc.as_matrix(np.zeros((0, 0)), "M"), "M: dimension must be at least 1"),
            (lambda: builtin.example(3), "unknown builtin problem 3; choose 1 or 2"),
        ],
        ids=["herm_power-nan", "as_matrix-empty", "example-3"],
    )
    def test_public_entry_rejects_bad_argument(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


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
        assert check.feasibility.holds
        assert check.feasibility.lhs < 2.0

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
        assert check.feasibility.lhs == pytest.approx(1.0619115756200548, rel=1e-12)
        assert check.beta == pytest.approx(1.946624597494776, rel=1e-12)
        assert check.contraction.lhs == pytest.approx(0.07160121494970163, rel=1e-12)
        assert check.contraction.rhs == pytest.approx(5.839873792484328, rel=1e-12)
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
            assert loewner_leq(Y0, Y1, tol)
        for Y in seq:
            assert loewner_leq(Y, bp.instance.Q, tol)

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
            assert np.linalg.norm(Y - Yf) <= d**n / (1.0 - d) * anchor + 10 * tol

    def test_one_decomposition_per_iterate(self, monkeypatch):
        # Y_1 .. Y_N get one eigh each, and the last one feeds both the lift
        # and the residual certificate; Y_0 = alpha I gets none.  The
        # precheck reads beta from the eigh of Y_1, the step norms are
        # Frobenius norms, and the residual's norm is the one eigvalsh.
        # At n = 3, below solvers._FREEZE_MIN_N, this pins the loop that never
        # freezes its eigenbasis (TestFrozenBasis counts the frozen one).
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
        assert counts == {"eigh": rep.iterations, "eigvalsh": 1}

    def test_precheck_is_the_public_check(self):
        # the solve reads beta from the eigh of Y_1 that starts its loop; the
        # public check reads it from the same decomposition, to the last bit
        dense = _dense_instance(np.random.default_rng(5), 64, "fixed-point")
        for P in (builtin.example(1).instance, dense):
            rep = solvers.solve_fixed_point(P)
            assert rep.precheck == solvers.fixed_point_check(P, rep.precheck.alpha)

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
        step = np.linalg.norm(Y1 - alpha * eye, "fro")
        assert rep.history[0].step_error_X == pytest.approx(step, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_forced_nonpositive_alpha_loses_positivity(self, alpha):
        # a start that is not finite and positive is rejected with the options
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            solvers.SolveOptions(alpha=alpha, force=True)

    def test_infeasible_alpha_raises(self):
        with pytest.raises(solvers.PreconditionError, match="feasibility fails"):
            solvers.solve_fixed_point(
                builtin.example(1).instance, solvers.SolveOptions(alpha=1e-9)
            )

    def test_failure_message_names_every_failed_verdict(self):
        P = builtin.example(1).instance
        check = solvers.fixed_point_check(P, 1e-9)
        assert_names_failed_verdicts(
            solvers.solve_fixed_point, P, solvers.SolveOptions(alpha=1e-9), check,
            {"feasibility", "contraction"},
        )

    def test_force_runs_with_unknown_extremality(self):
        # alpha = 1.99 pushes the feasibility lhs just past lambda_min(Q) = 2
        # while the iteration itself still stays positive definite
        check = solvers.fixed_point_check(builtin.example(1).instance, 1.99)
        assert not check.feasibility.holds
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
        assert loewner_leq(lo, rep.solution_Y, tol)
        assert loewner_leq(rep.solution_Y, hi, tol)
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
            assert loewner_leq(X0, X1, tol)
            assert loewner_leq(Y1, Y0, tol)
        for Xn, Yn in pairs:
            assert loewner_leq(Xn, Yn, tol)

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
            err = max(np.linalg.norm(Xn - Xf), np.linalg.norm(Yn - Yf))
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

    def test_failure_message_names_every_failed_verdict(self):
        P = builtin.example(2).instance
        check = solvers.coupled_check(P, 0.4)
        assert_names_failed_verdicts(
            solvers.solve_coupled, P, solvers.SolveOptions(b_upper=0.4), check,
            {"separation", "domination"},
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

    def test_b_search_forms_few_domination_matrices(self, monkeypatch):
        # example 2's grid: 13 coupled_check calls; the Rayleigh pretest decides
        # all but 4 of the domination verdicts the matrix rule decided (10)
        formed = []
        original = solvers._loewner_verdict

        def counting(*args):
            formed.append(args)
            return original(*args)

        monkeypatch.setattr(solvers, "_loewner_verdict", counting)
        assert solvers.b_search(builtin.example(2).instance) == pytest.approx(1.048096973706478)
        assert len(formed) == 4

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
        # each iteration after the first decomposes X_n and Y_n (two eigh; the
        # start pair a I, b I is known exactly) and every iteration inverts both
        # half-steps' matrices through Cholesky; the limit gets one more eigh.
        # At n = 3, below solvers._FREEZE_MIN_N, this pins the loop that never
        # freezes its eigenbasis (TestFrozenBasis counts the frozen one).
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
        assert counts == {"eigh": 2 * rep.iterations - 1, "cholesky": 2 * rep.iterations}

    def test_degenerate_tie_cannot_start(self):
        # q=2, a2=b2=0.25, s=t=p=1: X_0 = (a2/q) I makes B* X_0^-1 B equal Q
        # exactly, so the upper update's inner matrix is -b < 0 for every b;
        # no starting scalar exists and a forced run aborts honestly
        P = scalar_instance(2.0, 0.5, 0.5)
        assert solvers.b_search(P) is None
        with pytest.raises(solvers.PositivityError):
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=1.0, force=True))
        # the minimal root the iteration would target exists nonetheless
        roots = scalar_oracle(ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert roots.min_root == pytest.approx(0.2928932188134525, rel=1e-12)

    def test_diagonal_matches_scalar_oracle(self):
        qd, ad, bd = (7.5, 8.5), (2.1, 2.3), (0.1, 0.15)
        for s, t, p in ((1.0, 2.0, 1.0), (3.0, 4.0, 1.0)):
            P = diag_instance(qd, ad, bd, s, t, p)
            b = solvers.b_search(P)
            assert b is not None
            rep = solvers.solve_coupled(P, solvers.SolveOptions(b_upper=b))
            for i in range(2):
                S = ScalarInstance(qd[i], ad[i] ** 2, bd[i] ** 2, s, t, p)
                want = scalar_oracle(S).min_root
                assert rep.solution_X[i, i].real == pytest.approx(want, abs=1e-10)


def _exact_half_step(inner, adj_a, it):
    """A inner^-1 A* from a fresh coupled lane, whose first half-step is exact."""
    return solvers._Inverses(adj_a).at(inner, it)


class TestInverseCongruence:
    """A inner^-1 A* of the coupled half-step: the Cholesky path agrees with
    the eigh inversion, and the exact half-step raises exactly when the
    PD_TOL verdict on eigh(inner) fails, with the same message."""

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
        got = _exact_half_step(inner, adj_a, 1)
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
                assert np.all(np.isfinite(_exact_half_step(inner, adj_a, 7)))
                continue
            raised += 1
            with pytest.raises(solvers.PositivityError) as err:
                _exact_half_step(inner, adj_a, 7)
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
        assert loewner_leq(lo.solution_X, hi.solution_X, tol)
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
        roots = scalar_oracle(ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert len(roots.roots) == 2
        assert roots.min_root == pytest.approx(0.2928932188134525, rel=1e-12)
        assert roots.max_root == pytest.approx(1.7071067811865475, rel=1e-12)

    def test_empty_when_no_solution(self):
        roots = scalar_oracle(ScalarInstance(1.0, 0.25, 0.25, 1, 1, 1))
        assert roots.roots == ()
        assert roots.max_root is None and roots.min_root is None

    def test_self_consistency(self):
        S = ScalarInstance(2.0, 0.01, 0.04, 3, 2, 1)
        roots = scalar_oracle(S)
        assert roots.roots
        for x in roots.roots:
            assert abs(S.f(x)) <= 1e-12

    def test_roots_sorted(self):
        roots = scalar_oracle(ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
        assert list(roots.roots) == sorted(roots.roots)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ScalarInstance(-1.0, 0.1, 0.1, 1, 1, 1)
        with pytest.raises(ValueError, match="exponent"):
            ScalarInstance(1.0, 0.1, 0.1, 0.5, 1, 1)

    def test_agrees_with_fixed_point_on_scalar(self):
        # dispatcher solves the 1x1 instance; oracle max root is the
        # maximal solution
        P = scalar_instance(2.0, 0.5, 0.5)
        rep = solvers.solve(P)
        roots = scalar_oracle(ScalarInstance(2.0, 0.25, 0.25, 1, 1, 1))
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


    def test_tiny_theta_fails_the_first_contraction(self):
        # a = 5.96e-18 > 0 is rounding noise and theta = sigma_min(A)^2 / b = 4.0e-24
        # at b = 1, so the first contraction fails and delta is finite but huge
        P = analysis.ProblemInstance(*near_singular_coupled_problem(seed=2))
        a = solvers._coupled_a(P)
        assert a > 0.0
        sigma_min = np.linalg.svd(P.A, compute_uv=False)[-1]
        check = solvers.coupled_check(P, 1.0)
        assert check.theta == analysis._monomial(1.0, (sigma_min, 2.0), (1.0, -1.0))
        with decimal.localcontext(decimal.Context(prec=50)):
            s, t, p, theta, a = map(D, (P.s, P.t, P.p, check.theta, a))
            norm_a2, norm_b2 = D(P._norm_a) ** 2, D(P._norm_b) ** 2
            delta = 2 * max(
                s / t * norm_a2 * theta**-2 * a ** (s / t - 1),
                p / t * norm_a2 * norm_b2 * theta**-2 * a ** (-p / t - 1),
            )
        assert agrees(check.delta, delta)
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


class TestTheta:
    @pytest.mark.parametrize("cplx", [False, True])
    def test_theta_is_accurate_across_conditioning(self, cplx):
        # theta = sigma_min(A)^2 / b is read from the SVD that validated A; the
        # eigenvalues of the formed A* A lose it once cond(A)^2 eps nears 1
        n = 6
        for e in range(2, 12):
            cond = 10.0**e
            for seed in range(3):
                rng = np.random.default_rng([seed, e])
                U, V = ((random_unitary if cplx else _orthogonal)(rng, n) for _ in "UV")
                A = U @ np.diag(np.geomspace(2.0, 2.0 / cond, n)) @ V
                P = analysis.ProblemInstance(A, 0.1 * np.eye(n), 8.0 * np.eye(n), 1.0, 2.0, 1.0)
                for b in (0.5, 3.0):
                    theta = solvers.coupled_check(P, b).theta
                    expected = (2.0 / cond) ** 2 / b
                    assert math.isclose(theta, expected, rel_tol=1e-5), (cond, seed, theta)


D = decimal.Decimal


def _decimal_coupled_check(al, be, q, s, t, p, b):
    """The four verdicts and delta of coupled_check for A = al I, B = be I,
    Q = q I, from the formulas of CoupledCheck in 50-digit decimals: a = al^2/q,
    theta = al^2/b, domination Q >= b^-1 A* A + b^(s/t) I + a^(-p/t) B* B up to
    -1e-10 max(||Q||, 1)."""
    with decimal.localcontext(decimal.Context(prec=50)):
        al, be, q, s, t, p, b = map(D, (al, be, q, s, t, p, b))
        a, theta = al**2 / q, al**2 / b
        gap = q - (al**2 / b + b ** (s / t) + a ** (-p / t) * be**2)
        verdicts = (
            b > a,
            gap >= D("-1e-10") * max(q, D(1)),
            s * al**2 < D("0.5") * t * theta**2 * a ** (1 - s / t),
            p * be**2 < s * a ** ((p + s) / t),
        )
        delta = 2 * max(
            s / t * al**2 * theta**-2 * a ** (s / t - 1),
            p / t * al**2 * be**2 * theta**-2 * a ** (-p / t - 1),
        )
    return verdicts, delta


class TestScalarRange:
    """Tiny and huge scalars in the scheme prechecks: every scalar power
    reads an overflow as its limit, products never pass through an
    intermediate overflow or underflow, and nothing raises."""

    TINY = (1e-150 * np.eye(3), 1e-151 * np.eye(3), np.eye(3), 3.0, 4.0, 1.0)

    def test_coupled_check_matches_decimal_evaluation(self):
        cases = 0
        for al, ratio, q, (s, t, p), b in itertools.product(
            (1e-150, 1e-20, 0.5, 1e20, 1e100),
            (0.1, 1e-100),
            (1e-3, 1.0, 1e200),
            ((3, 4, 1), (1, 4, 4), (2, 5, 3), (5, 4, 2)),
            (1e-300, 1e-100, 1.0, 1e100),
        ):
            be, a = al * ratio, al * al / q
            # A* A / b, B* B and A Q^-1 A* are matrices here: keep them in
            # range, and b off the separation tie b = a
            in_range = 1e-300 < min(a, be * be) and max(a, al * al / b) < 1e300
            if not in_range or 0.5 < b / a < 2.0:
                continue
            I3 = np.eye(3)
            P = analysis.ProblemInstance(al * I3, be * I3, q * I3, s, t, p)
            check = solvers.coupled_check(P, b)
            verdicts, delta = _decimal_coupled_check(al, be, q, s, t, p, b)
            got = tuple(
                v.holds
                for v in (check.separation, check.domination, check.contraction_a, check.contraction_b)
            )
            assert got == verdicts, (al, be, q, s, t, p, b)
            assert agrees(check.delta, delta), (al, be, q, s, t, p, b, check.delta, delta)
            cases += 1
        assert cases >= 300

    def test_tiny_coefficients_reach_the_minimal_root(self):
        # x^3 + 1e-300 x^-4 + 1e-302 x^-1 = 1 has its smallest root at x ~ 1e-75
        P = analysis.ProblemInstance(*self.TINY)
        far = solvers.coupled_check(P, 1.0)
        assert far.delta == math.inf and not far.ok
        b = solvers.b_search(P)
        assert b == pytest.approx(1.000001e-300, rel=1e-12)
        rep = solvers.solve(P)
        assert rep.scheme is solvers.Scheme.COUPLED
        assert rep.converged and rep.iterations == 1
        assert rep.extremality is solvers.Extremality.MINIMAL
        assert rep.residual <= 1e-15
        np.testing.assert_allclose(rep.solution_X, 1e-75 * np.eye(3), rtol=1e-12, atol=0.0)

    def test_fixed_point_check_overflow_is_a_verdict(self):
        # t/s = 400: alpha^(-t/s) overflows, so Y_1 is unbounded below
        P = analysis.ProblemInstance(0.1 * np.eye(3), 0.05 * np.eye(3), np.eye(3), 1, 400, 1)
        check = solvers.fixed_point_check(P, 0.01)
        assert check.feasibility.lhs == math.inf and check.beta == -math.inf
        assert check.delta == math.inf and not check.ok

    @pytest.mark.parametrize("which", [1, 2])
    def test_alpha_grid_in_range_is_plain_float_arithmetic(self, which):
        # the alpha search picks the same grid point as before on both examples
        P = builtin.example(which).instance
        lmq = float(mc.herm_eig(P.Q)[0][0])
        grid = np.geomspace(1e-8 * lmq, lmq, 500)
        na2, nb2 = mc.spectral_norm(P.A) ** 2, mc.spectral_norm(P.B) ** 2
        for r, norm, square in ((-P.t / P.s, P._norm_a, na2), (-P.p / P.s, P._norm_b, nb2)):
            assert np.array_equal(solvers._grid_weight(grid, r, norm), grid**r * square)
        lhs = grid + grid ** (-P.t / P.s) * na2 + grid ** (-P.p / P.s) * nb2
        idx = np.argmin(lhs)
        assert solvers._best_alpha(P) == (float(grid[idx]), bool(lhs[idx] < lmq))

    def test_alpha_grid_weights_do_not_underflow(self):
        # ||A||^2 = 1e-400 underflows, but alpha^(-2/3) ||A||^2 >= 2e-195 keeps
        # every grid point's feasibility lhs above lambda_min(Q) = 1e-300
        P = analysis.ProblemInstance(
            1e-200 * np.eye(3), 1e-201 * np.eye(3), 1e-300 * np.eye(3), 3, 2, 1
        )
        grid = np.geomspace(1e-308, 1e-300, 500)
        weights = solvers._grid_weight(grid, -2.0 / 3.0, 1e-200)
        with decimal.localcontext(decimal.Context(prec=50)):
            for g, w in zip(grid[::50], weights[::50]):
                assert agrees(float(w), D(g) ** (D(-2) / 3) * D(1e-200) ** 2)
        assert solvers.alpha_search(P) is None
        alpha, feasible = solvers._best_alpha(P)
        assert not feasible and not solvers.fixed_point_check(P, alpha).feasibility.holds
        with pytest.raises(solvers.PreconditionError, match="no feasible starting scalar"):
            solvers.solve(P)

    def test_overflowing_domination_is_a_failed_verdict(self):
        # ||A||^2 / b = 1e340: A* A / b would overflow, and domination fails
        P = analysis.ProblemInstance(1e20 * np.eye(3), 0.1 * np.eye(3), np.eye(3), 3, 4, 1)
        check = solvers.coupled_check(P, 1e-300)
        assert check.domination == analysis.Verdict(False, -math.inf, 0.0)
        assert not check.ok

    def test_domination_pretest_agrees_with_the_matrix_verdict(self, monkeypatch):
        # on the b_search grid of a dense instance, each pretest (the scalar bound
        # ||A||^2 / b and the Rayleigh quotients) only fails domination where the
        # matrix verdict fails it too, and both of them fire
        P = _dense_instance(np.random.default_rng(7), 16, "coupled")
        fired = {"_exceeds_q": [], "_rayleigh_fails": []}
        for name, calls in fired.items():
            monkeypatch.setattr(solvers, name, _recording(getattr(solvers, name), calls))
        for b in _b_grid(P):
            rejections = sum(sum(calls) for calls in fired.values())
            check = solvers.coupled_check(P, b)
            want = _matrix_domination(P, b)
            assert check.domination.holds == want.holds
            if sum(sum(calls) for calls in fired.values()) > rejections:
                assert check.domination == analysis.Verdict(False, -math.inf, 0.0)
            else:
                assert check.domination == want
        assert all(sum(calls) > 0 for calls in fired.values())

    def test_overflowing_rayleigh_bank_never_rejects(self):
        # ||A v||^2 = 1e320 overflows while ||A||^2 / b <= ||Q|| passes
        # _exceeds_q: the pretest does not reject, and the bank raises no warning
        I3 = np.eye(3)
        P = analysis.ProblemInstance(1e160 * I3, 1e150 * I3, 1e300 * I3, 3.0, 4.0, 1.0)
        _, k_a, k_b = P._q_rayleigh
        assert np.all(np.isinf(k_a)) and np.all(np.isfinite(k_b))
        a = solvers._coupled_a(P)
        w_a = analysis._monomial(1.0, (a, -P.p / P.t))
        for b in (1e21, 1e30, 1e100):
            norm_a2_b = analysis._monomial(1.0, (P._norm_a, 2.0), (b, -1.0))
            assert not analysis._exceeds_q(P, norm_a2_b)
            w_b = analysis._monomial(1.0, (b, P.s / P.t))
            assert not solvers._rayleigh_fails(P, b, w_b, w_a, norm_a2_b)

    def test_fixed_point_delta_matches_decimal_evaluation(self):
        # ||A||^2 underflows and beta^(-t/s - 1) overflows: their product is finite
        P = analysis.ProblemInstance(
            1e-200 * np.eye(3), 1e-201 * np.eye(3), 1e-300 * np.eye(3), 3, 2, 1
        )
        check = solvers.fixed_point_check(P, 5e-301)
        assert check.beta > 0.0
        with decimal.localcontext(decimal.Context(prec=50)):
            alpha, beta, na, nb = D(5e-301), D(check.beta), D(1e-200), D(1e-201)
            e_t, e_p = D(2) / 3, D(1) / 3
            feas = alpha + alpha**-e_t * na**2 + alpha**-e_p * nb**2
            contraction = 2 * beta**-e_t * na**2 + beta**-e_p * nb**2
            delta = e_t * na**2 * beta ** (-e_t - 1) + e_p * nb**2 * beta ** (-e_p - 1)
        assert agrees(check.feasibility.lhs, feas)
        assert agrees(check.contraction.lhs, contraction)
        assert agrees(check.delta, delta)
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
    @pytest.mark.parametrize("which", [1, 2, "fixed-point", "coupled"])
    def test_unitary_congruence(self, which, seed):
        # the complex path on the rotated instance pins the real path on the
        # original one; the n = 32 instances run it on the frozen basis
        if isinstance(which, int):
            P = builtin.example(which).instance
        else:
            P = _dense_instance(np.random.default_rng(32), 32, which)
            assert P.n >= solvers._FREEZE_MIN_N
        assert P.Q.dtype == np.float64
        _assert_rotation_commutes(P, solvers.solve, seed)


def _assert_rotation_commutes(P, solve, seed):
    """(U*AU, U*BU, U*QU) is solved by U*XU: solve on P and on its rotation by a
    seeded random unitary U agree, both certified with the same extremality."""
    U = random_unitary(np.random.default_rng(seed), P.n)
    Uh = U.conj().T
    R = analysis.ProblemInstance(Uh @ P.A @ U, Uh @ P.B @ U, Uh @ P.Q @ U, P.s, P.t, P.p)
    assert R.Q.dtype == np.complex128
    plain, rotated = solve(P), solve(R)
    assert plain.converged and rotated.converged
    assert plain.extremality is rotated.extremality
    assert plain.extremality is not solvers.Extremality.UNKNOWN
    gap = mc.spectral_norm(Uh @ plain.solution_X @ U - rotated.solution_X)
    assert gap <= 1e-10 * (1.0 + mc.spectral_norm(P.Q))


def _orthogonal(rng, n, cplx=False):
    if cplx:
        return random_unitary(rng, n)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _scaled(rng, n, norm, lo, cplx=False):
    sigma = rng.uniform(lo, 1.0, n)
    sigma[0] = 1.0
    return norm * (_orthogonal(rng, n, cplx) * sigma) @ _orthogonal(rng, n, cplx).conj().T


def _dense_instance(rng, n, scheme, cplx=False):
    """Instances on which each scheme's preconditions hold: s = 3, t = 2,
    p = 1 with small A for the fixed-point scheme; s = 3, t = 4, p = 1 with
    A a scaled near-orthogonal matrix for the coupled scheme.  Real unless
    cplx, which draws unitary factors instead of orthogonal ones."""
    q_lo, q_hi = (2.0, 4.0) if scheme == "fixed-point" else (6.0, 9.5)
    U = _orthogonal(rng, n, cplx)
    Q = (U * rng.uniform(q_lo, q_hi, n)) @ U.conj().T
    if scheme == "fixed-point":
        A, t = _scaled(rng, n, 0.3, 0.5, cplx), 2.0
    else:
        A, t = _scaled(rng, n, 2.0, 0.98, cplx), 4.0
    B = _scaled(rng, n, 0.1, 0.5, cplx)
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.conj().T), 3.0, t, 1.0)


def _b_grid(P):
    """The 100 grid points b_search walks, as floats."""
    a = solvers._coupled_a(P)
    upper = 10.0 * float(mc.herm_eig(P.Q)[0][-1]) ** (P.t / P.s)
    return [float(b) for b in np.geomspace(a * (1.0 + 1e-6), upper, 100)]


def _matrix_domination(P, b):
    """coupled_check's domination verdict at b, with its matrix always formed."""
    a = solvers._coupled_a(P)
    dom_rhs = mc.hermitian_part(
        P._ata / b + b ** (P.s / P.t) * np.eye(P.n) + a ** (-P.p / P.t) * P._btb
    )
    return analysis._loewner_verdict(dom_rhs, P.Q, P._norm_q)


def _recording(function, calls):
    """function, appending each of its results to calls."""

    def recorded(*args):
        calls.append(function(*args))
        return calls[-1]

    return recorded


def _pretest_instance(seed):
    """A coupled instance (s, t, p) = (3, 4, 1) with Q eigenvalues in [6, 9.5],
    ||A|| in [1.6, 2.4] and ||B|| <= 0.1: n in 2..32, complex for odd seeds, and A
    near-unitary (singular values of A / ||A|| in [0.98, 1]) for seeds 0, 1 mod 4,
    else Gaussian.  Returns the instance and whether A is near-unitary."""
    rng = np.random.default_rng([14, seed])
    cplx, unitary = seed % 2 == 1, seed % 4 < 2
    n = int(rng.integers(2, 33))

    def orthogonal():
        return random_unitary(rng, n) if cplx else _orthogonal(rng, n)

    U = orthogonal()
    Q = (U * rng.uniform(6.0, 9.5, n)) @ U.conj().T
    if unitary:
        A = (orthogonal() * rng.uniform(0.98, 1.0, n)) @ orthogonal().conj().T
    else:
        A = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    A *= rng.uniform(1.6, 2.4) / np.linalg.norm(A, 2)
    B = 0.1 * (orthogonal() * rng.uniform(0.5, 1.0, n)) @ orthogonal().conj().T
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.conj().T), 3.0, 4.0, 1.0), unitary


class TestRayleighPretest:
    """coupled_check fails the domination Q >= A* A / b + b^(s/t) I + a^(-p/t) B* B
    unformed when a Rayleigh quotient at an eigenvector of Q is negative past the
    Loewner tolerance and its rounding allowance.  That must never change a
    verdict, so b_search picks the same b with the pretest or without it."""

    def test_rejections_are_sound_and_b_search_is_unchanged(self, monkeypatch):
        pretest = solvers._rayleigh_fails
        calls = []
        monkeypatch.setattr(solvers, "_rayleigh_fails", _recording(pretest, calls))
        # by near-unitary A: the matrix tests b_search's walks reach, and skip
        reached, skipped = {True: 0, False: 0}, {True: 0, False: 0}
        found = 0
        for seed in range(120):
            P, unitary = _pretest_instance(seed)
            for b in _b_grid(P):
                calls.clear()
                check = solvers.coupled_check(P, b)
                if calls and calls[-1]:
                    assert check.domination == analysis.Verdict(False, -math.inf, 0.0)
                    assert not _matrix_domination(P, b).holds, (seed, b)
            calls.clear()
            chosen = solvers.b_search(P)
            reached[unitary] += len(calls)
            skipped[unitary] += sum(calls)
            monkeypatch.setattr(solvers, "_rayleigh_fails", lambda *args: False)
            assert solvers.b_search(P) == chosen, seed
            monkeypatch.setattr(solvers, "_rayleigh_fails", _recording(pretest, calls))
            found += chosen is not None
        assert found >= 30
        # near-unitary A: about 88% of them skipped; Gaussian A: about 48%
        assert skipped[True] > 0.7 * reached[True]
        assert skipped[False] > 0.3 * reached[False]


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


class TestFrobeniusStep:
    """The step norm is the Frobenius norm.  It grows with n at the rounding
    floor, where the default tol = 1e-14 ||Q|| must still be reached."""

    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_converges_at_default_tol_at_n256(self, scheme):
        P = _dense_instance(np.random.default_rng(256), 256, scheme)
        rep = solvers.solve(P)
        assert rep.scheme.value == scheme and rep.preconditions_held
        assert rep.converged
        assert max(rep.history[-1][1:]) <= 1e-14 * mc.spectral_norm(P.Q)


def _frozen_spy(monkeypatch):
    """Counts, over the solves that follow, of np.linalg.eigh and
    np.linalg.cholesky calls; of the iterates decomposed before their sequence
    first held a base, of frozen steps (on the sequence's own base or on its
    partner's, which it then adopts) and of re-bases (iterates decomposed after
    the first base); and of frozen half-steps of the coupled lanes."""
    counts = dict.fromkeys(
        ("eigh", "cholesky", "before_freeze", "frozen", "adopted", "rebase", "frozen_inverse"), 0
    )
    froze = set()
    eigh, cholesky = np.linalg.eigh, np.linalg.cholesky
    at, first_order = solvers._Powers.at, solvers._Powers._first_order
    inverse_series = solvers._Inverses._series

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def counting_at(self, Y, step, what, eig=None, partner_base=None):
        frozen = counts["frozen"]
        terms = at(self, Y, step, what, eig, partner_base)
        if eig is None and counts["frozen"] == frozen:
            counts["rebase" if id(self) in froze else "before_freeze"] += 1
        if self.base is not None:
            froze.add(id(self))
        return terms

    def counting_first_order(self, Y, base):
        terms = first_order(self, Y, base)
        counts["frozen"] += terms is not None
        counts["adopted"] += terms is not None and base is not self.base
        return terms

    def counting_inverse_series(self, *args):
        X = inverse_series(self, *args)
        counts["frozen_inverse"] += X is not None
        return X

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", cholesky))
    monkeypatch.setattr(solvers._Powers, "at", counting_at)
    monkeypatch.setattr(solvers._Powers, "_first_order", counting_first_order)
    monkeypatch.setattr(solvers._Inverses, "_series", counting_inverse_series)
    return counts


def _drifting_instance(n, seed):
    """A rotated diagonal instance with s = t = p = 1 whose every component
    y -> q - c^2 / y has a repelling root 1 + 1e-10 just above the start
    alpha = 1: the iterates first move by about 1e-10, then ever faster
    downwards, and leave the positive definite cone."""
    U = _orthogonal(np.random.default_rng(seed), n)
    y_hi, y_lo = np.linspace(2.0, 5.0, n), 1.0 + 1e-10
    c2 = y_lo * y_hi

    def rotated(d):
        return (U * d) @ U.T

    Q = rotated(y_lo + y_hi)
    return analysis.ProblemInstance(
        rotated(np.sqrt(0.8 * c2)), rotated(np.sqrt(0.2 * c2)), 0.5 * (Q + Q.T), 1.0, 1.0, 1.0
    )


class TestFrozenBasis:
    """At n >= _FREEZE_MIN_N a settled sequence's powers are updated to first
    order in a frozen eigenbasis.  The solve must stay pinned to the plain
    numpy replay, and every iterate must get one positivity verdict: an eigh
    before the freeze, at each re-base and for the last iterate or limit, the
    Weyl certificate on every frozen step."""

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_matches_reference_with_counted_decompositions(self, scheme, n, cplx, monkeypatch):
        P = _dense_instance(np.random.default_rng([16, n]), n, scheme, cplx)
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.scheme.value == scheme and rep.preconditions_held and rep.converged
        assert counts["frozen"] >= 2
        # the fixed-point Y_1 is decomposed by the precheck, outside the loop
        start = 1 if scheme == "fixed-point" else 0
        assert counts["eigh"] == start + counts["before_freeze"] + counts["rebase"] + 1
        # one verdict per iterate: the fixed-point iterates Y_1 .. Y_N, or the
        # coupled X_1, Y_1 .. X_(N-1), Y_(N-1) and the limit
        verdicts = rep.iterations if scheme == "fixed-point" else 2 * rep.iterations - 1
        assert counts["eigh"] + counts["frozen"] == verdicts
        # one verdict per coupled half-step: a Cholesky factorization or a frozen inverse
        half_steps = 0 if scheme == "fixed-point" else 2 * rep.iterations
        assert counts["cholesky"] + counts["frozen_inverse"] == half_steps
        assert_reference_matches(P, rep, reference_iterates(P, rep))

    def test_small_instances_never_freeze(self, monkeypatch):
        P = _dense_instance(np.random.default_rng(15), solvers._FREEZE_MIN_N - 1, "coupled")
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve(P)
        assert counts["frozen"] == counts["rebase"] == counts["frozen_inverse"] == 0
        assert counts["eigh"] == counts["before_freeze"] + 1 == 2 * rep.iterations - 1
        assert counts["cholesky"] == 2 * rep.iterations

    def test_small_iterates_keep_the_residual_of_a_plain_solve(self, monkeypatch):
        # a drift limit of 1e-8 ||Q|| alone lets the frozen powers' remainder,
        # which grows like (||D||_F / l_min)^2, through: the solve converged
        # with a residual of 1.6e-12 against 1.9e-14 without a freeze
        P = _small_iterate_instance()
        counts = _frozen_spy(monkeypatch)
        frozen = solvers.solve(P)
        monkeypatch.undo()
        assert counts["frozen"] >= 1
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", P.n + 1)
        plain = solvers.solve(P)
        assert frozen.converged and plain.converged
        assert frozen.residual <= 2.0 * plain.residual

    def test_forced_drift_rebases_and_raises_the_eigh_verdict(self, monkeypatch):
        # the first steps are below the freeze limit, the drift from the frozen
        # Y_1 then passes it, and the loss of positivity comes from the eigh
        # of a re-based iterate, worded as on a loop that never freezes
        P = _drifting_instance(16, 0)
        opts = solvers.SolveOptions(alpha=1.0, force=True)
        counts = _frozen_spy(monkeypatch)
        with pytest.raises(solvers.PositivityError) as frozen:
            solvers.solve_fixed_point(P, opts)
        assert counts["before_freeze"] == 0 and counts["frozen"] >= 1 and counts["rebase"] >= 1
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", P.n + 1)
        with pytest.raises(solvers.PositivityError) as plain:
            solvers.solve_fixed_point(P, opts)
        assert str(frozen.value) == str(plain.value) == (
            "iterate 15 is not positive definite (lambda_min = -1.187e+01)"
        )


def _small_iterate_instance():
    """n = 24, s = 1, t = 2, p = 1, real: Q with eigenvalues in [1, 2] but A and
    B of norm 0.02 and 0.005, so the coupled iterates Y = X^2 have eigenvalues
    about 2e-4 to 3.6e-4, far below ||Q||."""
    rng = np.random.default_rng(2)
    n = 24
    U = _orthogonal(rng, n)
    Q = (U * rng.uniform(1.0, 2.0, n)) @ U.T
    A = 0.02 * (_orthogonal(rng, n) * rng.uniform(0.98, 1.0, n)) @ _orthogonal(rng, n).T
    B = 0.005 * (_orthogonal(rng, n) * rng.uniform(0.5, 1.0, n)) @ _orthogonal(rng, n).T
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.T), 1.0, 2.0, 1.0)


def _frozen_inverse_conditions(M_f, M, adj_a):
    """(positivity, remainder): the two conditions of a series half-step at M
    about the exact one at M_f, recomputed from their definitions; the
    remainder bound at the largest order, which passes if any order does."""
    L = np.linalg.cholesky(M_f)
    lam = 1.0 / np.linalg.norm(np.linalg.inv(L)) ** 2
    D = M - M_f
    g = np.linalg.norm(np.linalg.solve(L, np.linalg.solve(L, D).conj().T))  # ||L^-1 D L^-*||_F
    W = np.linalg.solve(L, adj_a)
    positivity = lam * (1.0 - g) > 2.0 * mc.PD_TOL * (np.linalg.norm(M_f) + np.linalg.norm(D))
    bound = np.linalg.norm(W) ** 2 * g ** (solvers._NEUMANN_MAX_ORDER + 1) / (1.0 - g)
    limit = solvers._FREEZE_RTOL**2 * np.linalg.norm(W.conj().T @ W)
    return positivity, bool(g < 1.0 and bound <= limit)


def _near_threshold(drop):
    """diag(l, 1) with lam = 1/||L^-1||_F^2 = 1/(1/l + 1) at (1 + 1e-9) times the
    certificate's threshold 2 PD_TOL ||M_f||_F, and diag(l - drop, 1)."""
    lam = 2.0 * mc.PD_TOL * (1.0 + 1e-9)
    for _ in range(3):
        l_min = 1.0 / (1.0 / lam - 1.0)
        lam = 2.0 * mc.PD_TOL * (1.0 + 1e-9) * math.hypot(l_min, 1.0)
    l_min = 1.0 / (1.0 / lam - 1.0)
    return np.diag([l_min, 1.0]), np.diag([l_min - drop, 1.0]), np.eye(2)


def _rotated_drift(cplx, drift):
    """A well-conditioned M_f (spectrum in [1, 4], n = 16), M_f plus a random
    Hermitian D with ||D||_F = drift, and A* of norm 2."""
    rng = np.random.default_rng([19, cplx])
    n = 16
    U = _orthogonal(rng, n, cplx)
    M_f = mc.hermitian_part((U * rng.uniform(1.0, 4.0, n)) @ U.conj().T)
    E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    D = mc.hermitian_part(E)
    return M_f, M_f + drift / np.linalg.norm(D) * D, _scaled(rng, n, 2.0, 0.5, cplx).conj().T


class TestFrozenInverse:
    """A coupled lane's half-step A M^-1 A* from the Neumann series about its
    last exact Cholesky half-step M_f = L L*: W* (I - G + ... + (-G)^k) W with
    W = L^-1 A*, G = L^-1 D L^-* and D = M - M_f.  It must agree with the exact
    inverse to rounding, and a half-step refused by the positivity certificate
    or by the remainder bound must be the exact half-step, verdict and
    PositivityError text included."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_frozen_half_steps_match_the_exact_inverse(self, n, cplx, monkeypatch):
        P = _dense_instance(np.random.default_rng([18, n]), n, "coupled", cplx)
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        errors = []
        series = solvers._Inverses._series

        def compared(self, inner):
            X = series(self, inner)
            if X is not None:
                exact = _exact_half_step(inner, self.adj_a, 0)
                errors.append(np.linalg.norm(X - exact) / np.linalg.norm(exact))
            return X

        monkeypatch.setattr(solvers._Inverses, "_series", compared)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.preconditions_held and rep.converged
        # 18 of the 26 half-steps take the series, each within 5e-16 of the exact one
        assert len(errors) >= 4 and max(errors) <= 2e-15
        assert_reference_matches(P, rep, reference_iterates(P, rep))

    @staticmethod
    def _after_exact_step(M_f, adj_a, monkeypatch):
        """A freezing lane after its exact half-step at M_f, and the list its
        later Cholesky factorizations are appended to."""
        n = adj_a.shape[0]
        if n < solvers._FREEZE_MIN_N:
            monkeypatch.setattr(solvers, "_FREEZE_MIN_N", n)
        lane = solvers._Inverses(adj_a)
        lane.at(M_f, 1)
        calls, cholesky = [], np.linalg.cholesky

        def counted(M):
            calls.append(M)
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return lane, calls

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_small_drift_freezes(self, cplx, monkeypatch):
        M_f, M, adj_a = _rotated_drift(cplx, 1e-13)
        assert _frozen_inverse_conditions(M_f, M, adj_a) == (True, True)
        lane, calls = self._after_exact_step(M_f, adj_a, monkeypatch)
        X = lane.at(M, 2)
        assert not calls
        exact = _exact_half_step(M, adj_a, 2)
        assert np.linalg.norm(X - exact) <= 2e-15 * np.linalg.norm(exact)

    @pytest.mark.parametrize(
        ("case", "conditions"),
        [
            ("remainder, real", (True, False)),
            ("remainder, complex", (True, False)),
            ("positivity", (False, True)),
            ("remainder before G", (True, False)),
        ],
    )
    def test_refused_half_step_is_the_exact_one(self, case, conditions, monkeypatch):
        if case == "positivity":
            # a drop of 1e-20 takes lam (1 - g) below the threshold, while the
            # remainder bound at order 1, 2.5e-17 ||X_f||_F, still passes
            M_f, M, adj_a = _near_threshold(1e-20)
        elif case == "remainder before G":
            # the lower bound ||D||_F / ||M_f||_F on g already fails
            M_f, M, adj_a = _rotated_drift(False, 1e-2)
        else:
            # g = 1.2e-3 (1.5e-3 complex) fails the bound at every order, while
            # its lower bound 2.8e-4 passes, so G is formed
            M_f, M, adj_a = _rotated_drift(case.endswith("complex"), 3e-3)
        assert _frozen_inverse_conditions(M_f, M, adj_a) == conditions
        lane, calls = self._after_exact_step(M_f, adj_a, monkeypatch)
        orders = self._spy_orders(monkeypatch)
        X = lane.at(M, 2)
        assert len(calls) == 1
        # the order is sought for the lower bound on g, and once more if G is formed
        assert len(orders) == (1 if case == "remainder before G" else 2) and orders[-1][1] is None
        assert np.array_equal(X, _exact_half_step(M, adj_a, 2))

    @staticmethod
    def _spy_orders(monkeypatch):
        """The list that each (g, order) of _Inverses._order is appended to."""
        orders, order = [], solvers._Inverses._order

        def recorded(self, g, drift):
            orders.append((g, order(self, g, drift)))
            return orders[-1][1]

        monkeypatch.setattr(solvers._Inverses, "_order", recorded)
        return orders

    @pytest.mark.parametrize("rtol", [None, 1e-4], ids=["module", "loose"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_accepted_series_is_within_its_bound(self, cplx, rtol, monkeypatch):
        # with the module's _FREEZE_RTOL the bound is below rounding; at 1e-4 it
        # is far above it for many updates, and must still hold
        if rtol is not None:
            monkeypatch.setattr(solvers, "_FREEZE_RTOL", rtol)
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", 1)
        orders = self._spy_orders(monkeypatch)
        rng = np.random.default_rng([21, cplx])
        eps = np.finfo(float).eps
        accepted, refused, above_rounding = Counter(), 0, 0
        for _ in range(150):
            # n in 2..32, M_f with eigenvalues in [1e-2, 10], and M = M_f + D for a
            # random Hermitian D with ||D||_F in [1e-14, 1e-2]
            n = int(rng.integers(2, 33))
            U = _orthogonal(rng, n, cplx)
            M_f = mc.hermitian_part((U * 10.0 ** rng.uniform(-2.0, 1.0, n)) @ U.conj().T)
            A, E = rng.standard_normal((2, n, n))
            if cplx:
                A, E = A + 1j * rng.standard_normal((n, n)), E + 1j * rng.standard_normal((n, n))
            D = mc.hermitian_part(E)
            M, adj_a = M_f + 10.0 ** rng.uniform(-14.0, -2.0) / np.linalg.norm(D) * D, A.conj().T
            lane = solvers._Inverses(adj_a)
            lane.at(M_f, 1)
            X = lane._series(M)
            if X is None:
                refused += 1
                continue
            g, k = orders[-1]
            accepted[k] += 1
            bound = lane.base[4] * g ** (k + 1) / (1.0 - g)  # ||W||_F^2 g^(k+1) / (1 - g)
            exact = _exact_half_step(M, adj_a, 2)
            values = np.linalg.eigvalsh(M)
            # rounding of an inverse: a few eps times cond(M)
            rounding = 4.0 * eps * values[-1] / values[0] * np.linalg.norm(exact)
            err = np.linalg.norm(X - exact)
            assert err <= bound + rounding
            above_rounding += err > 100.0 * rounding
        # every order from 1 to _NEUMANN_MAX_ORDER is taken
        assert refused > 0 and sorted(accepted) == list(range(1, solvers._NEUMANN_MAX_ORDER + 1))
        assert (above_rounding > 10) == (rtol is not None)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_certificate_never_passes_a_failing_spectrum(self, cplx, monkeypatch):
        # with the remainder bound switched off the positivity certificate
        # lam (1 - g) > 2 PD_TOL (||M_f||_F + ||D||_F) decides alone: it may
        # refuse a positive definite M, but never pass one that is not
        monkeypatch.setattr(solvers, "_FREEZE_RTOL", 1e100)
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", 1)
        rng = np.random.default_rng([22, cplx])
        passed = refused_pd = failing = 0
        for _ in range(400):
            n = int(rng.integers(2, 12))
            # lambda_min from well inside the cone to the PD_TOL boundary
            l_min = 10.0 ** rng.uniform(-11.0, -1.0)
            values = np.sort(np.concatenate(([l_min], rng.uniform(l_min, 1.0, n - 1))))
            U = _orthogonal(rng, n, cplx)
            M_f = mc.hermitian_part((U * values) @ U.conj().T)
            # a drop along the smallest eigenvector, of 0.2 to 2 times l_min, and
            # a random Hermitian part of norm up to l_min / 2
            v = U[:, :1]
            E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
            D = mc.hermitian_part(E)
            D *= l_min * rng.uniform(0.0, 0.5) / np.linalg.norm(D)
            D -= l_min * rng.uniform(0.2, 2.0) * (v @ v.conj().T)
            lane = solvers._Inverses(np.eye(n))
            lane.at(M_f, 1)
            assert lane.base is not None
            certified = lane._series(M_f + D) is not None
            exact = mc.is_pd_spectrum(np.linalg.eigvalsh(M_f + D))
            assert exact or not certified
            passed += certified
            refused_pd += exact and not certified
            failing += not exact
        assert passed > 100 and refused_pd > 0 and failing > 5

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("drift", [1e-13, 1e-9])
    def test_order_one_is_the_frechet_update(self, drift, cplx, monkeypatch):
        # X_f - U* D U with U = M_f^-1 A*, the first-order update of the inverse
        M_f, M, adj_a = _rotated_drift(cplx, drift)
        lane, calls = self._after_exact_step(M_f, adj_a, monkeypatch)
        orders = self._spy_orders(monkeypatch)
        X = lane.at(M, 2)
        assert not calls and orders[-1][1] == 1
        U = np.linalg.solve(M_f, adj_a)
        frechet = _exact_half_step(M_f, adj_a, 1) - U.conj().T @ (M - M_f) @ U
        assert np.linalg.norm(X - frechet) <= 4.0 * np.finfo(float).eps * np.linalg.norm(frechet)

    @pytest.mark.parametrize("case", ["near the threshold", "rotated"])
    def test_lost_positivity_raises_the_exact_message(self, case, monkeypatch):
        if case == "near the threshold":
            M_f, M, adj_a = _near_threshold(3e-12)
        else:
            M_f, _, adj_a = _rotated_drift(False, 0.0)
            values, vectors = np.linalg.eigh(M_f)
            v = vectors[:, :1]
            M = mc.hermitian_part(M_f - (values[0] + 0.5) * (v @ v.T))
        lane, calls = self._after_exact_step(M_f, adj_a, monkeypatch)
        with pytest.raises(solvers.PositivityError) as frozen:
            lane.at(M, 7)
        assert len(calls) == 1
        with pytest.raises(solvers.PositivityError) as plain:
            _exact_half_step(M, adj_a, 7)
        lam = np.linalg.eigvalsh(M)[0]
        assert lam < 0.0
        assert str(frozen.value) == str(plain.value) == (
            "inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
            f"definiteness at iteration 7 (lambda_min = {lam:.3e})"
        )


class TestDecompositionBudget:
    """The factorizations of one instance build plus solve, pinned on seeded
    instances: a change that adds an eigh or a Cholesky factorization to the
    solve path fails here and must restate the budget."""

    @pytest.mark.parametrize(
        ("scheme", "n", "eighs", "choleskys"),
        [("coupled", 64, 16, 8), ("fixed-point", 32, 7, 0)],
    )
    def test_factorizations_per_solve(self, scheme, n, eighs, choleskys, monkeypatch):
        counts = _frozen_spy(monkeypatch)
        P = _dense_instance(np.random.default_rng([20, n]), n, scheme)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.scheme.value == scheme and rep.preconditions_held and rep.converged
        # 13 coupled iterations (26 half-steps), 9 fixed-point iterations
        assert rep.iterations == (13 if scheme == "coupled" else 9)
        assert (counts["eigh"], counts["cholesky"]) == (eighs, choleskys)
        # one coupled sequence freezes on the base the other froze first
        assert counts["adopted"] == (scheme == "coupled")


def _exact_divided_difference(li: float, lj: float, r: float) -> decimal.Decimal:
    """(li^r - lj^r) / (li - lj), or r li^(r-1) at li = lj, in 60-digit decimals."""
    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=60, Emax=10**6, Emin=-(10**6))):
        a, b, e = D(li), D(lj), D(r)
        if a == b:
            return e * a ** (e - 1)
        return (a**e - b**e) / (a - b)


class TestDividedDifferences:
    """Gamma_r of the frozen basis against exact decimal arithmetic.  Its
    rounding error grows with |log l|, from the logs and from r - 1, so the
    allowance is a few eps times 1 + |log l_i| + |log l_j|."""

    SPECTRA = {
        "ties": [0.5, 0.5, 2.0, 2.0, 2.0, 7.0],
        "near-ties": [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 3.0, 3.0 * (1.0 + 1e-12)],
        "near-ties far out": [1e-150, 1e-150 * (1.0 + 1e-12), 1e150, 1e150 * (1.0 + 1e-12)],
        "span": list(np.geomspace(1e-150, 1e150, 13)),
    }

    @pytest.mark.parametrize("r", [-1.0, -1.0 / 3.0, 0.25, 0.75])
    @pytest.mark.parametrize("spectrum", list(SPECTRA))
    def test_matches_decimal(self, spectrum, r):
        values = np.array(self.SPECTRA[spectrum])
        with np.errstate(all="raise"):
            gamma = solvers._divided_differences(values, r)
        eps = np.finfo(float).eps
        for (i, li), (j, lj) in itertools.product(enumerate(values), repeat=2):
            exact = _exact_divided_difference(float(li), float(lj), r)
            allowance = 4 * eps * (1.0 + abs(math.log(li)) + abs(math.log(lj)))
            error = abs(decimal.Decimal(float(gamma[i, j])) - exact) / abs(exact)
            assert error <= allowance, (spectrum, r, li, lj)

    def test_overflowing_expm1_takes_the_plain_quotient(self):
        # the ratios 1e-600 and 1e600 leave the double range, so u = log(l_i / l_j)
        # is infinite and the expm1 form is not finite: the quotient decides,
        # (1e300 - 1e-300) / (1e-300 - 1e300) = -1 up to the rounding of 1 / 1e-300
        values = np.array([1e-300, 1e300])
        with np.errstate(all="raise"):
            gamma = solvers._divided_differences(values, -1.0)
        eps = np.finfo(float).eps
        assert abs(gamma[0, 1] + 1.0) <= 2 * eps and abs(gamma[1, 0] + 1.0) <= 2 * eps


class TestWeylCertificate:
    """A frozen step's positivity verdict: the certificate may refuse an
    iterate that is positive definite, but never pass one that is not."""

    @pytest.mark.parametrize("cplx", [False, True])
    def test_never_passes_a_failing_spectrum(self, cplx):
        rng = np.random.default_rng([17, cplx])
        passed = refused_pd = failing = 0
        for _ in range(400):
            n = int(rng.integers(2, 12))
            # lambda_min from well inside the cone to the PD_TOL boundary
            l_min = 10.0 ** rng.uniform(-12.5, -1.0)
            values = np.sort(np.concatenate(([l_min], rng.uniform(l_min, 1.0, n - 1))))
            U = _orthogonal(rng, n, cplx)
            Y_f = mc.hermitian_part((U * values) @ U.conj().T)
            E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
            D = mc.hermitian_part(E)
            D *= l_min * rng.uniform(0.2, 2.0) / np.linalg.norm(D)
            f_values = np.linalg.eigh(Y_f)[0]
            certified = solvers._weyl_certifies(f_values, float(np.linalg.norm(D)))
            exact = mc.is_pd_spectrum(np.linalg.eigvalsh(Y_f + D))
            assert exact or not certified
            passed += certified
            refused_pd += exact and not certified
            failing += not exact
        # about 150 passed, 230 refused although positive definite, 17 failing
        assert passed > 100 and refused_pd > 0 and failing > 5


def _tie_instance(seed):
    """s = t in {1, 2, 3}, p in [1, s], n in 2..8, complex for odd seeds: Q with
    eigenvalues in [2, 4], A of norm in [0.5, 1.5] with singular values within
    10% of each other (near-unitary), and B of norm 0.1."""
    rng = np.random.default_rng([3, seed])
    cplx = seed % 2 == 1
    n = int(rng.integers(2, 9))
    s = float(rng.choice([1.0, 2.0, 3.0]))
    p = float(rng.uniform(1.0, s)) if s > 1.0 else 1.0
    U = _orthogonal(rng, n, cplx)
    Q = (U * rng.uniform(2.0, 4.0, n)) @ U.conj().T
    A = (_orthogonal(rng, n, cplx) * rng.uniform(0.9, 1.0, n)) @ _orthogonal(rng, n, cplx).conj().T
    A *= rng.uniform(0.5, 1.5)
    B = 0.1 * (_orthogonal(rng, n, cplx) * rng.uniform(0.5, 1.0, n)) @ _orthogonal(rng, n, cplx).conj().T
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.conj().T), s, s, p)


class TestSchemesAtTie:
    """At s = t both schemes apply.  Where both prechecks pass, the coupled
    scheme's minimal solution and the fixed-point scheme's maximal one must
    bracket each other, both lie in the paper's brackets, and scan_k's
    uniqueness interval [k c1 I, Q^(1/s)] can hold at most one of them."""

    @staticmethod
    def _draws_where_both_apply():
        """(seed, instance) of the seeded draws on which both prechecks pass."""
        for seed in range(60):
            P = _tie_instance(seed)
            alpha = solvers.alpha_search(P)
            if alpha is None or not solvers.fixed_point_check(P, alpha).ok:
                continue
            if solvers._coupled_a(P) == 0.0 or solvers.b_search(P) is None:
                continue
            yield seed, P

    def test_the_two_schemes_pin_each_other(self):
        both = exclusive = 0
        for seed, P in self._draws_where_both_apply():
            both += 1
            hi, lo = solvers.solve_fixed_point(P), solvers.solve_coupled(P)
            for rep in (hi, lo):
                assert rep.preconditions_held and rep.converged
                assert rep.residual <= 1e-10 * (1.0 + P._norm_q), seed
            X_max, X_min = hi.solution_X, lo.solution_X
            scale = max(mc.spectral_norm(X_max), 1.0)
            assert analysis._loewner_verdict(X_min, X_max, scale).holds, seed
            bounds = analysis.solution_bounds(P)
            eye = np.eye(P.n)
            for X in (X_max, X_min):
                for lower, upper in ((bounds.c * eye, bounds.q_root), (bounds.m * eye, bounds.N)):
                    assert analysis._loewner_verdict(lower, X, scale).holds, seed
                    assert analysis._loewner_verdict(X, upper, scale).holds, seed
            k = analysis.scan_k(P)
            if k is None:
                continue
            floor = k * analysis.derived_scalars(P).c1 * eye
            inside = [
                analysis._loewner_verdict(floor, X, scale).holds
                and analysis._loewner_verdict(X, bounds.q_root, scale).holds
                for X in (X_max, X_min)
            ]
            agree = mc.spectral_norm(X_max - X_min) <= 1e-10 * scale
            assert sum(inside) <= 1 or agree, seed
            exclusive += inside == [True, False]
        # both prechecks pass on about 60% of the draws; on every draw where
        # scan_k finds a k, the maximal solution lies in its interval and the
        # minimal one does not
        assert both >= 30
        assert exclusive >= 10

    def test_unitary_congruence(self):
        # both schemes commute with a unitary congruence at a tie, on draws
        # that are real (even seeds) and complex (odd seeds) before rotation
        both = 0
        for seed, P in self._draws_where_both_apply():
            both += 1
            for solve in (solvers.solve_fixed_point, solvers.solve_coupled):
                _assert_rotation_commutes(P, solve, seed)
        assert both >= 30


def _kron_instance(E, k):
    """k diagonal copies of the instance E: its solutions are kron(I_k, X)
    for E's solutions X, so it is a large twin of a small run."""
    I = np.eye(k)
    return analysis.ProblemInstance(
        np.kron(I, E.A), np.kron(I, E.B), np.kron(I, E.Q), E.s, E.t, E.p
    )


def _run_python(code):
    path = os.environ.get("PYTHONPATH")
    root = str(Path(solvers.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


class TestTwoLanes:
    """The lower and upper sequences of the coupled loop (its two lanes), and
    the two congruences of a fixed-point step, run in sequence on the
    caller's thread: a solve starts no thread, the first error raised is the
    lower sequence's, and concurrent callers do not disturb each other."""

    def test_both_lanes_failing_raise_the_lower_lanes_error(self):
        # k = 33 copies of the scalar run of test_positivity_loss_message: at
        # iteration 1 the lower inner matrix is -2.002 I and the upper one
        # -3.475 I, so both lanes fail; the lower one runs first
        P = _kron_instance(scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0), 33)
        opts = solvers.SolveOptions(b_upper=20.0, force=True)
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, opts)
        assert str(err.value) == (
            "inverted matrix Q - X^(s/t) - B* Y^(-p/t) B lost positive "
            "definiteness at iteration 1 (lambda_min = -2.002e+00)"
        )

    def test_concurrent_solves_are_independent(self):
        # four callers of different sizes and schemes, with a short switch
        # interval: each gets its own solution back, which is the large twin
        # kron(I_k, X) of the 3 x 3 run's solution X
        cases = [(1, 11), (2, 11), (1, 16), (2, 16)]
        instances = [_kron_instance(builtin.example(w).instance, k) for w, k in cases]
        want = [solvers.solve(P).solution_X for P in instances]
        for (w, k), X in zip(cases, want):
            twin = np.kron(np.eye(k), solvers.solve(builtin.example(w).instance).solution_X)
            assert np.linalg.norm(X - twin, 2) <= 1e-12 * np.linalg.norm(twin, 2)
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

    def test_solves_start_no_thread(self):
        # n = 64 solves of both schemes load no executor module and start no
        # second thread
        code = (
            "import sys, threading, numpy as np, nmeq\n"
            "d = lambda v: np.diag(np.tile(v, 32))\n"
            "for s, t in ((2, 2), (1, 2)):\n"
            "    P = nmeq.ProblemInstance(d((2.1, 2.3)), d((0.1, 0.15)), d((7.5, 8.5)), s, t, 1)\n"
            "    assert P.n == 64 and nmeq.solve(P).converged\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        res = _run_python(code)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False 1"
