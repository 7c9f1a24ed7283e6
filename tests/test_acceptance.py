"""End-to-end acceptance checks for the shipped solver guarantees.

Each test covers one numbered guarantee and prints a single [PASS]/[FAIL]
verdict line.  Run with

    pytest tests/test_acceptance.py -v -s

to see the verdict lines next to the pytest report.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from support import (
    ScalarInstance,
    assert_reference_matches,
    loewner_leq,
    random_hpd,
    reference_iterates,
    scalar_oracle,
)

from nmeq import analysis, builtin, matcore as mc, probfile, solvers


@contextmanager
def guarantee(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", flush=True)
        raise
    print(f"[PASS] {label}", flush=True)


def rel(value, ref):
    return abs(value - ref) / abs(ref)


def entrywise_gap(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


@pytest.fixture(scope="module")
def run1():
    bp = builtin.example(1)
    t0 = time.perf_counter()
    rep = solvers.solve(bp.instance, solvers.SolveOptions(alpha=bp.alpha, tol=1e-14))
    return bp, rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def run2():
    bp = builtin.example(2)
    t0 = time.perf_counter()
    rep = solvers.solve(bp.instance, solvers.SolveOptions(b_upper=bp.b_upper))
    return bp, rep, time.perf_counter() - t0


def test_01_example_1_reproduction(run1):
    bp, rep, elapsed = run1
    with guarantee("1: example 1 reproduced (<= 12 iterations, 1e-9 entrywise)"):
        assert rep.scheme is solvers.Scheme.FIXED_POINT
        assert rep.converged
        assert rep.iterations <= 12
        last = rep.history[-1]
        assert max(last.step_error_X, last.step_error_Y) <= 1e-14
        assert entrywise_gap(rep.solution_Y, bp.solution_Y) <= 1e-9
        assert entrywise_gap(rep.solution_X, bp.solution_X) <= 1e-9
        assert elapsed < 1.0


def test_02_example_1_precondition_scalars(run1):
    _, rep, _ = run1
    chk = rep.precheck
    with guarantee("2: example 1 precondition scalars (1e-10 relative)"):
        assert rel(chk.feasibility.lhs, 1.06191157562005) <= 1e-10
        assert rel(chk.beta, 1.946624597494775) <= 1e-10
        # third reference value carries an obvious duplicated digit; stored corrected
        assert rel(chk.contraction.lhs, 0.071601214949702) <= 1e-10
        assert rel(chk.contraction.rhs, 5.839873792484324) <= 1e-10


def test_03_example_2_reproduction(run2):
    bp, rep, elapsed = run2
    chk = rep.precheck
    with guarantee("3: example 2 reproduced (<= 25 iterations, 1e-9 entrywise)"):
        assert rep.scheme is solvers.Scheme.COUPLED
        assert rep.converged
        assert rel(chk.a, 0.50754289893569) <= 1e-10
        assert rel(chk.theta, 3.940180790866569) <= 1e-10
        assert rep.iterations <= 25
        assert entrywise_gap(rep.solution_Y, bp.solution_Y) <= 1e-9
        assert entrywise_gap(rep.solution_X, bp.solution_X) <= 1e-9
        assert elapsed < 1.0


def test_04_residual_certificates(run1, run2):
    with guarantee("4: residuals of both solutions <= 1e-12 * ||Q||"):
        for bp, rep, _ in (run1, run2):
            bound = 1e-12 * mc.spectral_norm(bp.instance.Q)
            assert solvers.residual(bp.instance, rep.solution_X) <= bound


@pytest.fixture(scope="module")
def diagonal_suite():
    """50 random diagonal instances whose dispatched preconditions hold.

    20 dispatch to the fixed-point scheme, 20 to the coupled scheme, and 10
    (with s = t) satisfy both schemes' preconditions at once.
    """
    rng = np.random.default_rng(2024)

    def draw_exponents():
        s, t, p = (float(v) for v in rng.integers(1, 6, size=3))
        if t < p:
            t, p = p, t
        return s, t, p

    fixed, coupled = [], []
    attempts = 0
    while (len(fixed) < 20 or len(coupled) < 20) and attempts < 1000:
        attempts += 1
        n = int(rng.integers(1, 5))
        s, t, p = draw_exponents()
        qd = rng.uniform(5.0, 10.0, n)
        if s >= t:
            ad = rng.uniform(0.05, 0.5, n) * rng.choice([-1.0, 1.0], n)
            bd = rng.uniform(0.05, 0.5, n) * rng.choice([-1.0, 1.0], n)
        else:
            ad = rng.uniform(1.5, 2.5, n) * rng.choice([-1.0, 1.0], n)
            bd = rng.uniform(0.05, 0.2, n) * rng.choice([-1.0, 1.0], n)
        P = analysis.ProblemInstance(np.diag(ad), np.diag(bd), np.diag(qd), s, t, p)
        if P.s >= P.t:
            if len(fixed) >= 20:
                continue
            al = solvers.alpha_search(P)
            if al is None or not solvers.fixed_point_check(P, al).ok:
                continue
            fixed.append((P, solvers.solve(P, solvers.SolveOptions(alpha=al))))
        else:
            if len(coupled) >= 20:
                continue
            b = solvers.b_search(P)
            if b is None:
                continue
            coupled.append((P, solvers.solve(P, solvers.SolveOptions(b_upper=b))))
    assert len(fixed) == 20 and len(coupled) == 20

    ties = []
    attempts = 0
    while len(ties) < 10 and attempts < 500:
        attempts += 1
        n = int(rng.integers(1, 5))
        s = float(rng.integers(1, 4))
        p = float(rng.integers(1, int(s) + 1))
        qd = rng.uniform(7.0, 10.0, n)
        ad = rng.uniform(1.8, 2.3, n) * rng.choice([-1.0, 1.0], n)
        bd = rng.uniform(0.05, 0.15, n) * rng.choice([-1.0, 1.0], n)
        P = analysis.ProblemInstance(np.diag(ad), np.diag(bd), np.diag(qd), s, s, p)
        al = solvers.alpha_search(P)
        if al is None or not solvers.fixed_point_check(P, al).ok:
            continue
        b = solvers.b_search(P)
        if b is None:
            continue
        rep_max = solvers.solve(P, solvers.SolveOptions(alpha=al))
        rep_min = solvers.solve_coupled(P, solvers.SolveOptions(b_upper=b))
        ties.append((P, rep_max, rep_min))
    assert len(ties) == 10
    return fixed, coupled, ties


def oracle_root(P, i, which):
    S = ScalarInstance(
        q=P.Q[i, i].real,
        a2=abs(P.A[i, i]) ** 2,
        b2=abs(P.B[i, i]) ** 2,
        s=P.s,
        t=P.t,
        p=P.p,
    )
    roots = scalar_oracle(S)
    root = roots.max_root if which == "max" else roots.min_root
    assert root is not None
    return root


def test_05_diagonal_oracle_equivalence(diagonal_suite):
    fixed, coupled, ties = diagonal_suite
    with guarantee("5: 50 random diagonal instances match the scalar oracle (1e-10)"):
        runs = [(P, rep, "max") for P, rep in fixed]
        runs += [(P, rep, "min") for P, rep in coupled]
        runs += [(P, rep_max, "max") for P, rep_max, _ in ties]
        assert len(runs) == 50
        for P, rep, which in runs:
            assert rep.converged and rep.preconditions_held
            for i in range(P.n):
                want = oracle_root(P, i, which)
                assert abs(rep.solution_X[i, i] - want) <= 1e-10
        # where both schemes apply the two extremal solutions must be ordered
        for P, rep_max, rep_min in ties:
            tol = 1e-10 * mc.spectral_norm(P.Q)
            assert loewner_leq(rep_min.solution_X, rep_max.solution_X, tol)


def assert_monotone(P, rep):
    # the iterates are recomputed independently, pinned to the solver's
    # step norms and solution, and checked for Loewner monotonicity
    seq = reference_iterates(P, rep)
    assert_reference_matches(P, rep, seq)
    tol = 1e-10 * mc.spectral_norm(P.Q)
    if rep.scheme is solvers.Scheme.FIXED_POINT:
        for Y0, Y1 in zip(seq, seq[1:]):
            assert loewner_leq(Y0, Y1, tol)
    else:
        for (X0, Y0), (X1, Y1) in zip(seq, seq[1:]):
            assert loewner_leq(X0, X1, tol)
            assert loewner_leq(Y1, Y0, tol)
        for Xn, Yn in seq:
            assert loewner_leq(Xn, Yn, tol)


def test_06_monotone_iterates(run1, run2, diagonal_suite):
    fixed, coupled, ties = diagonal_suite
    with guarantee("6: iterate sequences are monotone in the Loewner order"):
        assert_monotone(run1[0].instance, run1[1])
        assert_monotone(run2[0].instance, run2[1])
        for P, rep in fixed + coupled:
            assert_monotone(P, rep)
        for P, rep_max, rep_min in ties:
            assert_monotone(P, rep_max)
            assert_monotone(P, rep_min)


def make_solvable(rng, spread=(0.6, 1.8), coef=0.25):
    """Random instance with a known solution: pick X first, then build Q."""
    n = int(rng.integers(2, 5))
    s, t, p = (float(v) for v in rng.integers(1, 6, size=3))
    X = random_hpd(rng, n, lo=spread[0], hi=spread[1])
    A = rng.normal(size=(n, n)) * coef + 1j * rng.normal(size=(n, n)) * coef + 0.5 * np.eye(n)
    B = rng.normal(size=(n, n)) * coef + 1j * rng.normal(size=(n, n)) * coef + 0.5 * np.eye(n)
    Q = mc.hermitian_part(
        mc.herm_power(X, s)
        + A.conj().T @ mc.herm_power(X, -t) @ A
        + B.conj().T @ mc.herm_power(X, -p) @ B
    )
    return analysis.ProblemInstance(A, B, Q, s, t, p), X


def test_07_brackets_and_factorization():
    with guarantee("7: solutions sit in both brackets; factorization roundtrips"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            P, X = make_solvable(rng)
            assert solvers.residual(P, X) <= 1e-10 * mc.spectral_norm(P.Q)
            F = analysis.factorization_from_solution(P, X)
            assert analysis.verify_factorization(P, F)
            sb = analysis.solution_bounds(P)
            eye = np.eye(P.n)
            tol = 1e-10 * max(1.0, mc.spectral_norm(X))
            assert loewner_leq(sb.c * eye, X, tol)
            assert loewner_leq(X, sb.q_root, tol)
            assert loewner_leq(sb.m * eye, X, tol)
            assert loewner_leq(X, sb.N, tol)


def test_08_a_priori_error_bound(run1, run2):
    # the geometric envelope is anchored at max(s1, s2/delta); the anchor
    # equals s1 exactly when the very first step already contracts at delta
    with guarantee("8: history obeys the delta^n/(1-delta) error envelope"):
        for bp, rep, _ in (run1, run2):
            seq = reference_iterates(bp.instance, rep)
            assert_reference_matches(bp.instance, rep, seq)
            d = rep.delta
            assert 0.0 < d < 1.0
            s1 = max(rep.history[0].step_error_X, rep.history[0].step_error_Y)
            s2 = max(rep.history[1].step_error_X, rep.history[1].step_error_Y)
            anchor = max(s1, s2 / d)
            # the step norms are Frobenius norms, and so are the errors
            if rep.scheme is solvers.Scheme.FIXED_POINT:
                final = seq[-1]
                errors = [np.linalg.norm(Y - final) for Y in seq]
            else:
                Xf, Yf = seq[-1]
                errors = [max(np.linalg.norm(X - Xf), np.linalg.norm(Y - Yf)) for X, Y in seq]
            for n, err in enumerate(errors):
                assert err <= d**n / (1.0 - d) * anchor + 1e-12


def test_09_necessary_condition_soundness():
    with guarantee("9: no solvable instance out of 100 fails the necessary check"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            P, _ = make_solvable(rng, spread=(0.4, 2.5), coef=0.3)
            assert analysis.check_necessary(P).holds


def test_10_history_csv_decays_geometrically(run1, run2, tmp_path):
    # convergence plots ship as CSV; past the first recorded pair every
    # step-error column must shrink by at least the contraction factor
    with guarantee("10: exported CSV error columns decay with ratio <= delta"):
        for tag, (_, rep, _) in (("ex1", run1), ("ex2", run2)):
            path = tmp_path / f"{tag}.csv"
            path.write_text(probfile.write_history_csv(rep.history))
            lines = path.read_text().strip().split("\n")
            assert lines[0] == "iteration,step_error_X,step_error_Y"
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == rep.iterations
            for col in (1, 2):
                errs = [float(row[col]) for row in rows]
                for e0, e1 in zip(errs[1:], errs[2:]):
                    assert e1 <= rep.delta * e0
