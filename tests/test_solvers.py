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
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nmeq import analysis, builtin, solvers
from nmeq import matcore as mc

from support import (
    ScalarInstance,
    WEYL_SLACK,
    agrees,
    assert_reference_matches,
    loewner_leq,
    near_singular_coupled_problem,
    random_unitary,
    reference_coupled_solve,
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
        for bad in (
            0, -3, 2.5, 3.0, math.inf, math.nan, True, "10", None,
            np.True_, np.False_, np.float64(5.0), np.int64(0), np.int32(-2),
        ):
            with pytest.raises(ValueError, match="max_iter"):
                solvers.SolveOptions(max_iter=bad)

    @pytest.mark.parametrize("value", ["1e-10", np.float32(1e-10), 3], ids=["str", "float32", "int"])
    def test_keeps_validated_scalars_as_float(self, value):
        opts = solvers.SolveOptions(tol=value, alpha=value, b_upper=value)
        for name in ("tol", "alpha", "b_upper"):
            got = getattr(opts, name)
            assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("which", [1, 2])
    def test_str_tol_solves_as_the_float(self, which):
        P = builtin.example(which).instance
        want = solvers.solve(P, solvers.SolveOptions(tol=1e-10))
        got = solvers.solve(P, solvers.SolveOptions(tol="1e-10"))
        assert got.history == want.history and got.converged
        assert np.array_equal(got.solution_X, want.solution_X)

    @pytest.mark.parametrize("cap", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_integer_types_as_int(self, cap):
        opts = solvers.SolveOptions(max_iter=cap)
        assert type(opts.max_iter) is int and opts.max_iter == 5
        report = solvers.solve(builtin.example(1).instance, opts)
        assert report.iterations == 5 and not report.converged


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
        with pytest.raises(solvers.PositivityError, match="not positive definite"):
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=20.0, force=True))

    def test_positivity_loss_message(self):
        # the inverted matrix of that run is M = -2.002, so the lower lane's
        # N_1 = M / 3^2, congruent to it, is -0.2224 < 0 and its eigh words the verdict
        P = scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0)
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, solvers.SolveOptions(b_upper=20.0, force=True))
        assert str(err.value) == (
            "lower iterate 1 is not positive definite (lambda_min = -2.225e-01)"
        )

    def test_one_eigh_per_lane_iterate(self, monkeypatch):
        # each iteration decomposes both lanes' N_n = X_n^-1 (two eigh; the start
        # pair I / a, I / b is known exactly), and the limit gets one more eigh;
        # the solve inverts A once and no matrix after it.  At n = 3, below
        # solvers._FREEZE_MIN_N, this pins the loop that never freezes its
        # eigenbasis (TestFrozenBasis counts the frozen one).
        # (the b of a first solve, whose domination verdict the precheck reads back,
        # so the one eigvalsh left is the residual's: the lanes form no inner matrix)
        P = builtin.example(2).instance
        opts = solvers.SolveOptions(b_upper=solvers.solve_coupled(P).precheck.b)
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve_coupled(P, opts)
        assert rep.converged and rep.preconditions_held
        assert counts["eigh"] == 2 * rep.iterations + 1
        assert (counts["cholesky"], counts["inv"], counts["eigvalsh"]) == (0, 1, 1)

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


# The freeze budget of a solve at the default tol, 0.1 * 1e-14 ||Q||, for ||Q|| = 1:
# the scale of the well-conditioned lanes below.
_LANE_BUDGET = 1e-15


def _lane(A, budget):
    """The lower coupled lane of an instance with this A, B = 0.1 I, Q = I and
    (s, t, p) = (3, 4, 1), for the given freeze budget and the lower start a = 1.
    It reads A, B and the exponents; Q and a enter only the solve around it."""
    n = A.shape[0]
    P = analysis.ProblemInstance(A, 0.1 * np.eye(n), np.eye(n), 3.0, 4.0, 1.0)
    return solvers._Lane(P, np.linalg.inv(P.A), budget, 1.0, "lower")


def _inverse_variable(inner, A):
    """N = A^-* inner A^-1, the lane's variable for the half-step A inner^-1 A*."""
    a_inv = np.linalg.inv(A)
    return mc.hermitian_part(a_inv.conj().T @ inner @ a_inv)


class TestInverseCongruence:
    """The coupled half-step A M^-1 A* in the inverse variable: a lane that
    decomposes N = A^-* M A^-1 forms X = N^-1 (its refined bracket) equal to the
    plain inversion of M, inverting nothing itself, and raises exactly when the PD_TOL verdict on
    eigvalsh(N) fails: N is congruent to M, so it has M's inertia, and it is decided
    on its own spectrum, with the message of an iterate named for its lane."""

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
        A = adj_a.conj().T
        want = mc.hermitian_part(A @ np.linalg.inv(inner) @ adj_a)
        lane, N = _lane(A, -math.inf), _inverse_variable(inner, A)
        monkeypatch.setattr(np.linalg, "inv", None)
        monkeypatch.setattr(np.linalg, "cholesky", None)
        lane.decide(N, math.inf, 1)
        got = lane.inverse()
        monkeypatch.undo()
        assert got.dtype == want.dtype
        # the rounding of an inverse, eps cond(N), for N and for M's own inversion
        values = np.linalg.eigvalsh(N)
        rounding = 8.0 * n * np.finfo(float).eps * values[-1] / values[0]
        assert np.linalg.norm(got - want, 2) <= rounding * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [5, 32])
    def test_verdict_matches_eigh(self, n, cplx):
        rng = np.random.default_rng(100 + n)
        spectra = [np.geomspace(1.0, 1.0 / cond, n) for cond in np.logspace(2, 14, 13)]
        # M around the PD_TOL threshold, where N's verdict may go either way
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
            A = adj_a.conj().T
            lane, N = _lane(A, -math.inf), _inverse_variable(inner, A)
            mu = np.linalg.eigvalsh(N)
            if mc.is_pd_spectrum(mu):
                lane.decide(N, math.inf, 7)
                assert all(np.all(np.isfinite(term)) for term in lane.terms())
                continue
            with pytest.raises(solvers.PositivityError) as err:
                lane.decide(N, math.inf, 7)
            raised += 1
            # the message reads the lane's own eigh, whose lambda_min can differ from
            # eigvalsh's in the last digits when it is tiny
            lam = np.linalg.eigh(N)[0][0]
            assert str(err.value) == (
                f"lower iterate 7 is not positive definite (lambda_min = {lam:.3e})"
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
        # a = 1.6e-18 > 0 is rounding noise and theta = sigma_min(A)^2 / b = 4.0e-24
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

    def test_tiny_coefficients_twin_measures_its_steps_in_range(self):
        # the n = 24 twin of the instance above has a freeze budget, so its lanes
        # measure their steps in N = X^-1, whose entries are near 1e300: at the
        # power-of-two scale of 1 / a, no squared norm overflows (a RuntimeWarning
        # would fail the test)
        P = _kron_instance(analysis.ProblemInstance(*self.TINY), 8)
        assert solvers._freeze_budget(P, 1e-14 * P._norm_q) > -math.inf
        rep = solvers.solve(P)
        assert rep.converged and rep.iterations == 1 and rep.residual <= 1e-15
        np.testing.assert_allclose(rep.solution_X, 1e-75 * np.eye(24), rtol=1e-12, atol=0.0)

    def test_lower_scalar_at_the_normal_floor_solves(self):
        # a = 1e-308: Q~ = A^-* Q A^-1 has entries near 1 / a, so symmetrizing it
        # as (M + M*) / 2 would overflow in the sum (a RuntimeWarning fails the test)
        P = analysis.ProblemInstance(1e-154 * np.eye(3), 1e-155 * np.eye(3), np.eye(3), 3, 4, 1)
        rep = solvers.solve(P)
        assert rep.converged and rep.iterations == 1
        assert rep.extremality is solvers.Extremality.MINIMAL and rep.residual <= 1e-15
        np.testing.assert_allclose(rep.solution_X, 1e-77 * np.eye(3), rtol=1e-12, atol=0.0)

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
            assert not solvers._exceeds_q(P, norm_a2_b)
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
    upper = 10.0 * float(np.linalg.eigvalsh(P.Q)[-1]) ** (P.t / P.s)
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
    """Counts, over the solves that follow, of np.linalg.eigh, np.linalg.eigvalsh,
    np.linalg.cholesky and np.linalg.inv calls; of the iterates decomposed before
    their sequence first held a base, of frozen steps (on the sequence's own base or
    on its partner's, which it then adopts) and of re-bases (iterates decomposed
    after the first base); and whether the last iterate decided froze."""
    counts = dict.fromkeys(
        ("eigh", "eigvalsh", "cholesky", "inv", "before_freeze", "frozen", "adopted", "rebase",
         "last_frozen"),
        0,
    )
    froze = set()
    decide, freezes = solvers._Powers.decide, solvers._Powers._freezes

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def counting_decide(self, Y, step, it, eig=None, partner_base=None):
        frozen = counts["frozen"]
        decide(self, Y, step, it, eig, partner_base)
        counts["last_frozen"] = counts["frozen"] - frozen
        if eig is None and counts["frozen"] == frozen:
            counts["rebase" if id(self) in froze else "before_freeze"] += 1
        if self.base is not None:
            froze.add(id(self))

    def counting_freezes(self, Y, base):
        own = self.base
        passed = freezes(self, Y, base)
        counts["frozen"] += passed
        counts["adopted"] += passed and base is not own
        return passed

    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(solvers._Powers, "decide", counting_decide)
    monkeypatch.setattr(solvers._Powers, "_freezes", counting_freezes)
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
    before the freeze and at each re-base, the Weyl certificate (for a coupled
    lane, its inner-matrix form) on every frozen step.  The coupled limit takes
    an eigh, and so does a last fixed-point iterate that froze, for the lift."""

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
        decomposed = counts["before_freeze"] + counts["rebase"]
        if scheme == "fixed-point":
            # one verdict per iterate Y_1 .. Y_N, Y_1's from the precheck's eigh; the
            # last is decided in the loop, and when it froze the lift adds an eigh
            last = counts["last_frozen"]
            assert counts["eigh"] == 1 + decomposed + last
            assert counts["eigh"] + counts["frozen"] == rep.iterations + last
        else:
            # one verdict per lane's N_1 .. N_N (each deciding its inner matrix and
            # X = N^-1), and the limit's eigh
            assert counts["eigh"] == decomposed + 1
            assert counts["eigh"] + counts["frozen"] == 2 * rep.iterations + 1
        # no half-step inverts a matrix: the coupled solve inverts A once
        assert counts["cholesky"] == 0
        assert counts["inv"] == (scheme == "coupled")
        assert_reference_matches(P, rep, reference_iterates(P, rep))

    def test_small_instances_never_freeze(self, monkeypatch):
        P = _dense_instance(np.random.default_rng(15), solvers._FREEZE_MIN_N - 1, "coupled")
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve(P)
        assert counts["frozen"] == counts["rebase"] == 0
        assert counts["eigh"] == counts["before_freeze"] + 1 == 2 * rep.iterations + 1
        assert counts["cholesky"] == 0

    def test_small_iterates_keep_the_residual_of_a_plain_solve(self, monkeypatch):
        # the iterates are far smaller than Q, and the frozen powers' remainder
        # grows like (||D||_F / l_min)^2: a drift limit on the scale of ||Q||
        # alone let it through, to a residual of 1.6e-12 against 1.9e-14
        # without a freeze, while the remainder bound keeps it within the budget
        P = _small_iterate_instance()
        counts = _frozen_spy(monkeypatch)
        frozen = solvers.solve(P)
        monkeypatch.undo()
        assert counts["frozen"] >= 1
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", P.n + 1)
        plain = solvers.solve(P)
        assert frozen.converged and plain.converged
        assert frozen.residual <= 2.0 * plain.residual

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_freeze_follows_tol(self, scheme, n, cplx, monkeypatch):
        # the freeze budget is a tenth of tol: over the iterations a solve at a
        # looser tol runs, it takes more frozen steps than a solve at the default
        # tol, and its residual still meets that looser tol
        P = _dense_instance(np.random.default_rng([16, n]), n, scheme, cplx)
        tol = 1e-8 * P._norm_q
        counts = _frozen_spy(monkeypatch)
        loose = solvers.solve(P, solvers.SolveOptions(tol=tol))
        loose_frozen = counts["frozen"]
        counts.update(frozen=0)
        solvers.solve(P, solvers.SolveOptions(max_iter=loose.iterations))
        assert loose.converged and loose.residual <= tol
        assert loose_frozen > counts["frozen"]

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_tol_below_rounding_never_freezes(self, scheme, n, cplx, monkeypatch):
        # at tol = 1e-300 the budget is below the remainder bound of any drift the
        # loop meets (steps stay above rounding, about 1e-16 ||Q||), so 20
        # iterations run as in a loop that never freezes
        P = _dense_instance(np.random.default_rng([16, n]), n, scheme, cplx)
        opts = solvers.SolveOptions(tol=1e-300, max_iter=20)
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve(P, opts)
        assert counts["frozen"] == 0
        monkeypatch.setattr(solvers, "_FREEZE_MIN_N", P.n + 1)
        plain = solvers.solve(P, opts)
        assert not rep.converged and rep.history == plain.history
        _assert_same_report(rep, plain)

    @pytest.mark.parametrize("k", [-66, 66])
    def test_freeze_does_not_depend_on_the_scale(self, k, monkeypatch):
        # with s, t, p = 3, 2, 1 the equation is invariant under Q -> c Q, A -> c^(5/6) A,
        # B -> c^(2/3) B, X -> c^(1/3) X; at c = 2^(6k) near 1e(+-119) the remainder
        # bound, scaled as c with the budget, must neither overflow nor underflow
        rng = np.random.default_rng(23)
        U, V = _orthogonal(rng, 16), _orthogonal(rng, 16)
        Q = mc.hermitian_part((U * np.linspace(2.0, 4.0, 16)) @ U.T)

        def scaled(c5, c4, c6):
            return analysis.ProblemInstance(c5 * 0.3 * V, c4 * 0.2 * V.T, c6 * Q, 3.0, 2.0, 1.0)

        counts = _frozen_spy(monkeypatch)
        plain = solvers.solve(scaled(1.0, 1.0, 1.0))
        frozen = counts["frozen"]
        counts["frozen"] = 0
        rep = solvers.solve(scaled(2.0 ** (5 * k), 2.0 ** (4 * k), 2.0 ** (6 * k)))
        assert frozen >= 2 and counts["frozen"] == frozen
        assert rep.converged and rep.iterations == plain.iterations

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


def _lane_conditions(lane, A, N_f, N):
    """(certificate, remainder): the two conditions of a lane's frozen step at N
    about its base N_f, for the A of its instance, recomputed from their definitions
    with the lane's budget: l_1 - d > PD_TOL (l_n + d) with l_1 > d, and the sum over
    the terms A^* N^(-3/4) A^ and B^* N^(1/4) B^ of
    (1/2) |r (r - 1)| ||M||_2^2 (l_1 - d)^(r - 2) d^2, ||A^|| = 1/sigma_min(A) and
    ||B^|| = 0.1/sigma_min(A), within the budget."""
    sigma = np.linalg.svd(A, compute_uv=False)
    values = np.linalg.eigvalsh(N_f)
    d = np.linalg.norm(N - N_f)
    gap = values[0] - d
    if gap <= 0.0:
        return False, False
    certificate = gap > mc.PD_TOL * (values[-1] + d)
    terms = ((-0.75, 1.0 / sigma[-1]), (0.25, 0.1 / sigma[-1]))
    bound = sum(0.5 * abs(r * (r - 1.0)) * m**2 * gap ** (r - 2.0) * d**2 for r, m in terms)
    return bool(certificate), bool(bound <= lane.budget)


def _near_threshold(drop):
    """diag(l, 1) with l at (1 + 1e-9) times the certificate's threshold PD_TOL l_n,
    diag(l - drop, 1), and A = I."""
    l_min = mc.PD_TOL * (1.0 + 1e-9)
    return np.diag([l_min, 1.0]), np.diag([l_min - drop, 1.0]), np.eye(2)


def _rotated_drift(cplx, drift):
    """A well-conditioned N_f (spectrum in [1, 4], n = 16), N_f plus a random
    Hermitian D with ||D||_F = drift, and A of norm 2."""
    rng = np.random.default_rng([19, cplx])
    n = 16
    U = _orthogonal(rng, n, cplx)
    N_f = mc.hermitian_part((U * rng.uniform(1.0, 4.0, n)) @ U.conj().T)
    E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
    D = mc.hermitian_part(E)
    return N_f, N_f + drift / np.linalg.norm(D) * D, _scaled(rng, n, 2.0, 0.5, cplx)


def _exact_terms(N, A):
    """The terms of a fresh lane at N, which has no base: its exact step."""
    lane = _lane(A, -math.inf)
    lane.decide(N, math.inf, 2)
    return lane.terms()


class TestFrozenInverse:
    """A coupled lane's half-step A M^-1 A* is X = N^-1.  The solve forms it only
    for the refined bracket, from the lane's eigh, or from a fresh eigh of N when
    the lane froze there.  A frozen step itself takes no eigh, X must agree with
    the exact inverse to rounding, and a step refused by the certificate or by the
    remainder bound must be the exact step, verdict and PositivityError text
    included."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_frozen_half_steps_match_the_exact_inverse(self, n, cplx, monkeypatch):
        P = _dense_instance(np.random.default_rng([18, n]), n, "coupled", cplx)
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        errors = []
        freezes = solvers._Lane._freezes

        def compared(self, N, base):
            passed = freezes(self, N, base)
            if passed:
                exact = np.linalg.inv(N)
                errors.append(np.linalg.norm(self.inverse() - exact) / np.linalg.norm(exact))
            return passed

        monkeypatch.setattr(solvers._Lane, "_freezes", compared)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.preconditions_held and rep.converged
        # 13 or 14 of the 26 lane steps are frozen, each X within 8.2 eps of the exact inverse
        assert len(errors) >= 4 and max(errors) <= 16.0 * np.finfo(float).eps
        assert_reference_matches(P, rep, reference_iterates(P, rep))

    @staticmethod
    def _after_exact_step(N_f, A, monkeypatch, budget=_LANE_BUDGET):
        """A lane with this budget after its exact step at N_f, which it keeps as its
        base, and the list its later eigh calls are appended to."""
        lane = _lane(A, budget)
        lane.decide(N_f, 0.0, 1)
        assert lane.base is not None
        calls, eigh = [], np.linalg.eigh

        def counted(M):
            calls.append(M)
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return lane, calls

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_small_drift_freezes(self, cplx, monkeypatch):
        N_f, N, A = _rotated_drift(cplx, 1e-13)
        lane, calls = self._after_exact_step(N_f, A, monkeypatch)
        assert _lane_conditions(lane, A, N_f, N) == (True, True)
        lane.decide(N, 1e-13, 2)
        assert not calls
        X = lane.inverse()
        assert len(calls) == 1 and calls[0] is N
        exact = np.linalg.inv(N)
        assert np.linalg.norm(X - exact) <= 2e-15 * np.linalg.norm(exact)

    @pytest.mark.parametrize(
        ("case", "conditions"),
        [
            ("remainder, real", (True, False)),
            ("remainder, complex", (True, False)),
            ("positivity", (False, True)),
            ("remainder before G", (False, False)),
        ],
    )
    def test_refused_half_step_is_the_exact_one(self, case, conditions, monkeypatch):
        budget = _LANE_BUDGET
        if case == "positivity":
            # a rise of 1e-20 in l_1 keeps N above the threshold, but takes the
            # Weyl bound l_1 - d below it, while the remainder bound, 6.6e-8 near
            # l_1 = 1e-12, is within a budget of 1
            N_f, N, A = _near_threshold(-1e-20)
            budget = 1.0
        elif case == "remainder before G":
            # d = 2 is past l_1 = 1.35 (N stays positive, lambda_min 0.9): the
            # remainder reads inf at gap 0, so the step is refused before any
            # G = Gamma o V* D V is formed
            N_f, N, A = _rotated_drift(False, 2.0)
        else:
            # the bound at d = 3e-3 is 5.8e-6 (1.2e-5 complex), far past the budget
            N_f, N, A = _rotated_drift(case.endswith("complex"), 3e-3)
        lane, calls = self._after_exact_step(N_f, A, monkeypatch, budget)
        assert _lane_conditions(lane, A, N_f, N) == conditions
        lane.decide(N, float(np.linalg.norm(N - N_f)), 2)
        terms = lane.terms()
        assert len(calls) == 1
        for got, want in zip(terms, _exact_terms(N, A)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("budget", [_LANE_BUDGET, 1e-5], ids=["module", "loose"])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_accepted_series_is_within_its_bound(self, cplx, budget):
        # a frozen X = N^-1 is the inverse of N itself, within rounding of
        # np.linalg.inv at any budget: at 1e-5 the first-order X_f - X_f D X_f
        # would be past rounding for many of the accepted steps
        rng = np.random.default_rng([21, cplx])
        eps = np.finfo(float).eps
        accepted = refused = 0
        for _ in range(150):
            # n in 2..32, N_f with eigenvalues in [1e-2, 10], and N = N_f + D for a
            # random Hermitian D with ||D||_F in [1e-14, 1e-2]
            n = int(rng.integers(2, 33))
            U = _orthogonal(rng, n, cplx)
            N_f = mc.hermitian_part((U * 10.0 ** rng.uniform(-2.0, 1.0, n)) @ U.conj().T)
            A, E = rng.standard_normal((2, n, n))
            if cplx:
                A, E = A + 1j * rng.standard_normal((n, n)), E + 1j * rng.standard_normal((n, n))
            D = mc.hermitian_part(E)
            N = N_f + 10.0 ** rng.uniform(-14.0, -2.0) / np.linalg.norm(D) * D
            lane = _lane(A, budget)
            lane.decide(N_f, 0.0, 1)
            if lane.base is None or not lane._freezes(N, lane.base):
                refused += 1
                continue
            accepted += 1
            exact = np.linalg.inv(N)
            values = np.linalg.eigvalsh(N)
            # rounding of an inverse: a few eps times cond(N)
            rounding = 4.0 * eps * values[-1] / values[0] * np.linalg.norm(exact)
            assert np.linalg.norm(lane.inverse() - exact) <= rounding
        # 39-46 of 150 accepted at the default budget and 100-103 at the loose one
        assert refused > 0 and accepted > 30

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_certificate_never_passes_a_failing_spectrum(self, cplx):
        # with an infinite budget the certificate decides a frozen step alone: it
        # may refuse a step whose N passes its verdict, but never pass one where
        # is_pd_spectrum(eigvalsh(N)) fails, for random and near-singular A
        # (cond(A) up to 1e4) and inner matrices
        rng = np.random.default_rng([22, cplx])
        passed = refused_pd = failing = 0
        for _ in range(400):
            n = int(rng.integers(2, 12))
            A = _scaled(rng, n, 1.0, 10.0 ** -rng.choice([0.0, 2.0, 4.0]), cplx)
            # lambda_min from well inside the cone to the PD_TOL boundary
            l_min = 10.0 ** rng.uniform(-11.0, -1.0)
            values = np.sort(np.concatenate(([l_min], rng.uniform(l_min, 1.0, n - 1))))
            U = _orthogonal(rng, n, cplx)
            N_f = mc.hermitian_part((U * values) @ U.conj().T)
            # a drop along the smallest eigenvector, of 0.2 to 2 times l_min, and
            # a random Hermitian part of norm up to l_min / 2
            v = U[:, :1]
            E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
            D = mc.hermitian_part(E)
            D *= l_min * rng.uniform(0.0, 0.5) / np.linalg.norm(D)
            D -= l_min * rng.uniform(0.2, 2.0) * (v @ v.conj().T)
            lane = _lane(A, math.inf)
            lane.decide(N_f, 0.0, 1, np.linalg.eigh(N_f))
            assert lane.base is not None
            N = N_f + D
            certified = lane._freezes(N, lane.base)
            exact = mc.is_pd_spectrum(np.linalg.eigvalsh(N))
            assert exact or not certified
            passed += certified
            refused_pd += exact and not certified
            failing += not exact
        assert passed > 100 and refused_pd > 0 and failing > 5

    @pytest.mark.parametrize("case", ["near the threshold", "rotated"])
    def test_lost_positivity_raises_the_exact_message(self, case, monkeypatch):
        if case == "near the threshold":
            N_f, N, A = _near_threshold(3e-12)
        else:
            N_f, _, A = _rotated_drift(False, 0.0)
            values, vectors = np.linalg.eigh(N_f)
            v = vectors[:, :1]
            N = mc.hermitian_part(N_f - (values[0] + 0.5) * (v @ v.T))
        lane, calls = self._after_exact_step(N_f, A, monkeypatch)
        with pytest.raises(solvers.PositivityError) as frozen:
            lane.decide(N, float(np.linalg.norm(N - N_f)), 7)
        assert len(calls) == 1
        with pytest.raises(solvers.PositivityError) as plain:
            _lane(A, -math.inf).decide(N, math.inf, 7)
        lam = np.linalg.eigh(N)[0][0]
        assert lam < 0.0
        assert str(frozen.value) == str(plain.value) == (
            f"lower iterate 7 is not positive definite (lambda_min = {lam:.3e})"
        )


def _near_scalar_instance(cplx=False):
    """n = 16, (s, t, p) = (3, 4, 1): Q with eigenvalues in [1, 1.001] and A of norm
    0.02 with singular values within 0.1% of each other, so that A Q^-1 A* is nearly
    a I and both lanes' N_1 lie within a few per mille of N_0 = I / a."""
    rng = np.random.default_rng(2)
    n = 16
    U = _orthogonal(rng, n, cplx)
    Q = (U * rng.uniform(1.0, 1.001, n)) @ U.conj().T
    A = 0.02 * (_orthogonal(rng, n, cplx) * rng.uniform(0.999, 1.0, n)) @ _orthogonal(
        rng, n, cplx
    ).conj().T
    B = 0.005 * (_orthogonal(rng, n, cplx) * rng.uniform(0.5, 1.0, n)) @ _orthogonal(
        rng, n, cplx
    ).conj().T
    return analysis.ProblemInstance(A, B, 0.5 * (Q + Q.conj().T), 3.0, 4.0, 1.0)


class TestFrozenAtIterationOne:
    """At a large tol the lower lane freezes on its N_1, and the upper lane adopts
    that base at iteration 1, so its N_1 is not decomposed in the loop.  The
    refined bracket must not rest on that base: the upper lane's Y_1 comes from a
    fresh eigh of its N_1, the lower lane's X_1 from its own, and both match the
    plain pair's to rounding, so the bracket's ends are the exact X_1 and Y_1."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_refined_bracket_from_the_adopted_base(self, cplx, monkeypatch):
        P = _near_scalar_instance(cplx)
        solvers.solve(P, solvers.SolveOptions(max_iter=1))  # fill the instance caches
        counts = _frozen_spy(monkeypatch)
        rep = solvers.solve(P, solvers.SolveOptions(tol=0.1 * P._norm_q))
        monkeypatch.undo()
        assert rep.preconditions_held and rep.converged
        # the lower lane's N_1 and the limit are decomposed in the loop, the upper
        # N_1 only for the refined bracket
        assert (counts["eigh"], counts["frozen"], counts["adopted"]) == (3, 1, 1)
        X_1, Y_1 = reference_iterates(P, rep)[1]
        lo, hi = rep.refined_bracket
        rounding = 16.0 * np.finfo(float).eps * np.linalg.norm(Y_1)
        # measured: up to 5.9 and 7.1 eps ||Y_1||_F
        assert np.linalg.norm(lo - X_1) <= rounding
        assert np.linalg.norm(hi - Y_1) <= rounding


class TestResume:
    """Both schemes run one loop, which stops on the last history row and, called
    again, resumes from it.  So a solve capped at max_iter = m is the full solve's
    first m iterations: its history is the full one's prefix, it converges only at
    the full count, and the coupled refined bracket, read between iteration 1 and
    the rest, is the same.  Drawn at n = 24, where the sequences freeze."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("scheme", ["fixed-point", "coupled"])
    def test_every_cap_is_a_prefix_of_the_full_solve(self, scheme, cplx, monkeypatch):
        P = _dense_instance(np.random.default_rng([26, cplx]), 24, scheme, cplx)
        counts = _frozen_spy(monkeypatch)
        full = solvers.solve(P)
        monkeypatch.undo()
        assert full.converged and counts["frozen"] >= 2
        for m in range(1, full.iterations + 1):
            rep = solvers.solve(P, solvers.SolveOptions(max_iter=m))
            assert rep.history == full.history[:m]
            assert rep.converged == (m == full.iterations)
            assert (rep.refined_bracket is None) == (scheme == "fixed-point")
            for M, W in zip(rep.refined_bracket or (), full.refined_bracket or ()):
                assert M.tobytes() == W.tobytes()


class TestStepBound:
    """A coupled history records ||N' - N||_F / (l_1(N') l_1(N)) for each lane, a
    proven bound on its exact step ||X' - X||_F, and the solve stops on it: every
    entry is at least the plain pair's exact step (tests/support.py), the solve
    runs at least as many iterations as a stop on the exact steps would, and its
    limit ((N_x + N_y) / 2)^-1 lies in the last pair [X_n, Y_n].  Drawn at n <= 8,
    where nothing freezes, and at a seeded n = 24, where the lanes freeze."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8), cplx=st.booleans())
    @example(seed=24, n=24, cplx=False)
    @example(seed=24, n=24, cplx=True)
    def test_bound_is_above_the_exact_step(self, seed, n, cplx):
        P = _dense_instance(np.random.default_rng([25, seed]), n, "coupled", cplx)
        rep = solvers.solve(P)
        assert rep.preconditions_held and rep.converged
        pairs = reference_iterates(P, rep)
        norm_y = np.linalg.norm(rep.solution_Y)
        slack = 4.0 * np.finfo(float).eps * norm_y
        exact = np.array([(np.linalg.norm(X1 - X0), np.linalg.norm(Y1 - Y0))
                          for (X0, Y0), (X1, Y1) in zip(pairs, pairs[1:])])
        assert np.all(np.array([h[1:] for h in rep.history]) >= exact - slack)
        tol = 1e-14 * P._norm_q
        history, _, _ = reference_coupled_solve(P, rep.precheck.a, rep.precheck.b, tol)
        exact_stop = next(it for it, x, y in history if max(x, y) <= tol + slack)
        assert rep.iterations >= exact_stop
        # the last pair is within tol of its limit, so the order holds up to rounding:
        # measured up to 2.3 eps ||Y||_F for the steps and 4.5 eps for the order
        X_n, Y_n = pairs[-1]
        assert loewner_leq(X_n, rep.solution_Y, 4.0 * slack)
        assert loewner_leq(rep.solution_Y, Y_n, 4.0 * slack)


class TestDecompositionBudget:
    """The factorizations of one instance build plus solve, pinned on seeded
    instances: a change that adds an eigh, an eigvalsh, a Cholesky factorization
    or an inverse to the solve path fails here and must restate the budget."""

    # eigvalsh: Q's validation and the residual norm, plus, coupled, the spectrum
    # of A Q^-1 A* and the one domination verdict the b_search pretests leave open,
    # at the accepted b, which the solve's own precheck reuses; the coupled solve
    # inverts A once and no matrix after it
    @pytest.mark.parametrize(
        ("scheme", "n", "eighs", "eigvalshs", "choleskys"),
        [("coupled", 64, 15, 4, 0), ("fixed-point", 32, 5, 2, 0)],
    )
    def test_factorizations_per_solve(self, scheme, n, eighs, eigvalshs, choleskys, monkeypatch):
        counts = _frozen_spy(monkeypatch)
        P = _dense_instance(np.random.default_rng([20, n]), n, scheme)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.scheme.value == scheme and rep.preconditions_held and rep.converged
        # 13 coupled iterations (26 half-steps), 9 fixed-point iterations
        assert rep.iterations == (13 if scheme == "coupled" else 9)
        assert (counts["eigh"], counts["eigvalsh"], counts["cholesky"]) == (
            eighs, eigvalshs, choleskys
        )
        assert counts["inv"] == (scheme == "coupled")
        # one coupled sequence freezes on the base the other froze first
        assert counts["adopted"] == (scheme == "coupled")


def _assert_same_report(got, want):
    """Two solve reports agree bit for bit."""
    for name in ("solution_X", "solution_Y"):
        M, W = getattr(got, name), getattr(want, name)
        assert M.dtype == W.dtype and M.tobytes() == W.tobytes(), name
    assert (got.refined_bracket is None) == (want.refined_bracket is None)
    for M, W in zip(got.refined_bracket or (), want.refined_bracket or ()):
        assert M.tobytes() == W.tobytes()
    for name in ("history", "residual", "delta", "iterations", "precheck", "converged",
                 "extremality", "preconditions_held"):
        assert getattr(got, name) == getattr(want, name), name


class TestSearchedPrecheck:
    """A coupled solve whose b comes from b_search forms the domination matrix
    once, at the b the search accepted: the solve's own precheck at that b reads
    the verdict back."""

    def test_domination_formed_once_at_the_accepted_b(self, monkeypatch):
        P = _dense_instance(np.random.default_rng([20, 64]), 64, "coupled")
        checked, formed = [], []
        coupled_check, loewner_verdict = solvers.coupled_check, solvers._loewner_verdict

        def checking(P, b):
            checked.append(b)
            return coupled_check(P, b)

        def forming(*args):
            formed.append(checked[-1])
            return loewner_verdict(*args)

        monkeypatch.setattr(solvers, "coupled_check", checking)
        monkeypatch.setattr(solvers, "_loewner_verdict", forming)
        rep = solvers.solve(P)
        monkeypatch.undo()
        b = rep.precheck.b
        assert b == pytest.approx(0.7712404692588328, rel=1e-12)
        assert rep.iterations == 13 and rep.converged and rep.preconditions_held
        # b_search's 11 grid points, the last of them accepted, then the solve's check
        assert len(checked) == 12 and checked[-2:] == [b, b]
        assert formed == [b]

        # the same b and report as a solve that keeps nothing between checks, so
        # that it forms the verdict at the accepted b a second time
        formed.clear()
        monkeypatch.setattr(solvers, "_coupled_terms", solvers._CoupledTerms)
        monkeypatch.setattr(solvers, "_loewner_verdict", forming)
        monkeypatch.setattr(solvers, "coupled_check", checking)
        P = _dense_instance(np.random.default_rng([20, 64]), 64, "coupled")
        want = solvers.solve(P)
        assert formed == [b, b]
        _assert_same_report(rep, want)


class TestPrecheckVerdicts:
    """Both prechecks find their verdicts by scanning their fields for Verdict
    values: ok is the scheme applying with every verdict holding, and the
    failure message names the failed verdicts in declaration order."""

    CASES = {
        "fixed-point": (solvers.FixedPointCheck, solvers.Scheme.FIXED_POINT,
                        dict(alpha=1.0, beta=2.0, delta=0.5),
                        ("feasibility", "contraction")),
        "coupled": (solvers.CoupledCheck, solvers.Scheme.COUPLED,
                    dict(b=2.0, a=1.0, theta=0.5, delta=0.5),
                    ("separation", "domination", "contraction_a", "contraction_b")),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_combination_of_verdicts(self, case):
        cls, scheme, scalars, names = self.CASES[case]
        for holds in itertools.product((False, True), repeat=len(names)):
            verdicts = {
                name: analysis.Verdict(h, float(i), float(i + 1))
                for i, (name, h) in enumerate(zip(names, holds))
            }
            for applies in (False, True):
                check = cls(**scalars, **verdicts, scheme_applies=applies)
                assert list(check._verdicts().items()) == list(verdicts.items())
                assert check.ok == (applies and all(holds))
                message = str(solvers._precondition_error(scheme, check))
                failed = [name for name, h in zip(names, holds) if not h]
                assert re.findall(r"(\w+) fails: ", message) == failed, message
                assert ("is not the largest exponent" in message) == (not applies)


class TestQDecomposition:
    """Q is validated by its spectrum alone, and its eigenvectors are formed on
    first use: never by a fixed-point build plus solve, which reads only
    lambda_min(Q) and lambda_max(Q), and once by a coupled one."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize(("scheme", "q_eighs"), [("fixed-point", 0), ("coupled", 1)])
    def test_build_and_solve(self, scheme, q_eighs, cplx, monkeypatch):
        decomposed, eigh = [], np.linalg.eigh

        def kept(M, *args, **kwargs):
            decomposed.append(np.array(M))
            return eigh(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", kept)
        P = _dense_instance(np.random.default_rng([23, cplx]), 24, scheme, cplx)
        rep = solvers.solve(P)
        monkeypatch.undo()
        assert rep.scheme.value == scheme and rep.preconditions_held and rep.converged
        assert sum(np.array_equal(M, P.Q) for M in decomposed) == q_eighs
        assert ("_q_eig" in vars(P)) == (scheme == "coupled")

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_eigenvectors_pair_with_the_validated_spectrum(self, cplx):
        P = _dense_instance(np.random.default_rng([24, cplx]), 24, "coupled", cplx)
        assert "_q_eig" not in vars(P)
        values, vectors = P._q_eig
        assert values is P._q_values and P._q_eig[1] is vectors
        assert (P._lambda_min_q, P._lambda_max_q) == (values[0], values[-1])
        assert np.array_equal(values, np.linalg.eigvalsh(P.Q))
        error = np.linalg.norm(mc.eig_compose(vectors, values) - P.Q, 2)
        assert error <= 1e-13 * np.linalg.norm(P.Q, 2)


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

    # spectra whose ends may be NaN, +-inf, +-0 or subnormal, and drifts in [0, inf]
    VALUES = st.lists(
        st.one_of(
            st.sampled_from(
                [-np.inf, -1e300, -1.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1e-300,
                 1e-12, 1.0, 1e300, np.inf, np.nan]
            ),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        min_size=1,
        max_size=6,
    )
    DRIFTS = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf]),
        st.floats(min_value=0.0, allow_infinity=True),
    )

    @settings(max_examples=300, deadline=None)
    @given(VALUES, DRIFTS)
    def test_last_value_rule_is_the_modulus_rule(self, values, drift):
        # on an ascending spectrum (np.sort puts a NaN last) and a drift >= 0, the
        # certificate read from the last value decides as the one that scales
        # PD_TOL by the largest modulus
        spectrum = np.sort(np.array(values, dtype=np.float64))
        with np.errstate(all="ignore"):
            scale = float(np.max(np.abs(spectrum))) + drift
            modulus_rule = spectrum[0] - drift > mc.PD_TOL * scale
        assert solvers._weyl_certifies(spectrum, drift) is bool(modulus_rule)

    @settings(max_examples=300, deadline=None)
    @given(VALUES, DRIFTS)
    @example([-1.5, -1.0], 0.0)
    def test_one_certificate_for_both_sequences(self, values, drift):
        # the two-test rule low > 0 and low > PD_TOL high: on [low, high] the
        # second test implies the first, so is_pd_spectrum of the two ends decides
        # as both tests do, for the fixed-point Y and a coupled lane's N alike
        spectrum = np.sort(np.array(values, dtype=np.float64))
        low, high = float(spectrum[0]) - drift, float(spectrum[-1]) + drift
        assert solvers._weyl_certifies(spectrum, drift) is (low > 0.0 and low > mc.PD_TOL * high)


class TestFrozenRemainder:
    """_Powers._remainder bounds the first-order error of a frozen term: the
    frozen terms plus the bound enclose the eigh-based M* (Y_f + D)^r M.  The
    bound is attained to a factor (1 - d / l_1)^(2 - r) by D = -d v_1 v_1*, so
    dropping its factor 1/2 or (l_1 - d)^(r-2) fails here."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        cplx=st.booleans(),
        # -t/s and -p/s lie in [-1, 0), s/t in (0, 1]
        r=st.one_of(st.floats(-1.0, 0.0, exclude_max=True), st.floats(0.0, 1.0, exclude_min=True)),
        log_l1=st.floats(-3.0, 2.0),
        log_rel=st.floats(-3.0, math.log10(0.9)),
        with_m=st.booleans(),
        tight=st.booleans(),
    )
    def test_first_order_terms_and_remainder_enclose_the_power(
        self, seed, cplx, r, log_l1, log_rel, with_m, tight
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        # spectrum l_1 .. 100 l_1 in a random basis; d = ||D||_F < l_1
        l_1, d = 10.0**log_l1, 10.0 ** (log_l1 + log_rel)
        values = np.sort(l_1 * 10.0 ** np.r_[0.0, rng.uniform(0.0, 2.0, n - 1)])
        V = _orthogonal(rng, n, cplx)
        Y_f = mc.hermitian_part((V * values) @ V.conj().T)
        M = _scaled(rng, n, 10.0 ** rng.uniform(-1.0, 1.0), 0.1, cplx) if with_m else np.eye(n)
        norm_m = np.linalg.norm(M, 2)
        if tight:  # the direction that attains the bound, along the smallest eigenvector
            D = -(V[:, :1] @ V[:, :1].conj().T)
        else:
            E = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if cplx else 0.0)
            D = mc.hermitian_part(E)
        D *= d / np.linalg.norm(D)
        powers = solvers._Powers(((r, M, norm_m),), math.inf)
        powers.decide(Y_f, 0.0, "base")
        assert powers._freezes(Y_f + D, powers.base)
        (frozen,) = powers.terms()
        bound = powers._remainder(powers.base[1], float(np.linalg.norm(D)))
        w, U = np.linalg.eigh(Y_f + D)
        exact = (U * w**r) @ U.conj().T
        if with_m:
            exact = M.conj().T @ exact @ M
        err = np.linalg.norm(frozen - exact)
        # rounding of the two eigendecompositions and the products: eps times the
        # term's scale norm_m^2 max(l^r), amplified by the spread (l_n + d) / (l_1 - d)
        eps = np.finfo(float).eps
        scale = norm_m**2 * max(values[0] ** r, values[-1] ** r)
        margin = 64 * n * eps * scale * (values[-1] + d) / (values[0] - d)
        assert err <= bound + margin
        if tight and not with_m and log_rel <= math.log10(0.05) and bound > 1e3 * margin:
            # the scalar Taylor remainder at l_1 - d: at least (1 - d / l_1)^(2 - r)
            # > 0.85 of the bound
            assert err >= 0.75 * bound


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
        # iteration 1 the lower lane's N_1 is -0.2224 I and the upper one's
        # -0.3861 I, so both lanes fail; the lower one runs first
        P = _kron_instance(scalar_instance(1.0, 3.0, 0.1, s=1.0, t=2.0, p=1.0), 33)
        opts = solvers.SolveOptions(b_upper=20.0, force=True)
        with pytest.raises(solvers.PositivityError) as err:
            solvers.solve_coupled(P, opts)
        assert str(err.value) == (
            "lower iterate 1 is not positive definite (lambda_min = -2.225e-01)"
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


class TestSameSequence:
    """The coupled solve runs in the inverse variables N = X^-1, but it is the
    paper's pair in X: the plain pair of tests/support.py (np.linalg.inv, nothing
    frozen) stops on the same step bound at the same iteration, with the same
    bounds and solution up to a few eps of the iterates' size.  The twins
    kron(I_k, E) of bundled example 2 (real) and of its rotation by a random
    unitary (complex) run at n = 3, and at n = 24 and 33, where the lanes freeze."""

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [1, 8, 11])
    def test_matches_the_plain_pair(self, k, cplx):
        E = builtin.example(2).instance
        if cplx:
            U = random_unitary(np.random.default_rng(4), E.n)
            Uh = U.conj().T
            E = analysis.ProblemInstance(Uh @ E.A @ U, Uh @ E.B @ U, Uh @ E.Q @ U, E.s, E.t, E.p)
        P = _kron_instance(E, k)
        rep = solvers.solve(P)
        assert rep.scheme is solvers.Scheme.COUPLED and rep.converged
        history, bounds, X = reference_coupled_solve(
            P, rep.precheck.a, rep.precheck.b, 1e-14 * P._norm_q
        )
        assert rep.iterations == len(bounds) == len(history)
        # measured: the bounds within 2.8 eps ||Y||_F at n = 3, and within 9.8e-8 of
        # the bound past 16 eps ||Y||_F (the Weyl slack of a frozen N) at n = 24 and
        # 33; X within 6.6 eps
        eps = np.finfo(float).eps
        got = np.array([row[1:] for row in rep.history])
        want = np.array([row[1:] for row in bounds])
        rounding = 16.0 * eps * np.linalg.norm(rep.solution_Y)
        assert np.all(np.abs(got - want) <= rounding + WEYL_SLACK * want)
        assert np.linalg.norm(rep.solution_X - X) <= 8.0 * eps * np.linalg.norm(X)
