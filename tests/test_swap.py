"""Metamorphic test of the canonical swap.

The equation is symmetric in (A, t) <-> (B, p), and ProblemInstance stores
one orientation (t >= p).  So an input and its swap must give bit-identical
results from every check, bracket, solve, residual and factorization: only
the recorded swap flags, and the CLI's note line, may differ.  The instances
have t != p; with t == p nothing is swapped, and the coupled scheme's lower
start reads A alone.
"""

import dataclasses

import numpy as np
import pytest

from nmeq import analysis, builtin, cli, probfile, solvers
from nmeq import matcore as mc

from support import random_unitary

SWAP_FLAGS = ("swapped", "swap_applied")


def complexified(P: analysis.ProblemInstance) -> analysis.ProblemInstance:
    """The instance under a complex unitary similarity U* (.) U: it has the
    solutions U* X U, so the preconditions of P carry over."""
    U = random_unitary(np.random.default_rng(3), P.n)

    def similar(M):
        return U.conj().T @ M @ U

    Q = mc.hermitian_part(similar(P.Q))
    return analysis.ProblemInstance(similar(P.A), similar(P.B), Q, P.s, P.t, P.p)


def instance(which: str) -> analysis.ProblemInstance:
    example, field = which.split("-")
    P = builtin.example(int(example)).instance
    return complexified(P) if field == "complex" else P


def swapped_pair(P: analysis.ProblemInstance):
    """(P as given, P with (A, t) and (B, p) exchanged), neither cached yet."""
    assert P.t != P.p
    given = analysis.ProblemInstance(P.A, P.B, P.Q, P.s, P.t, P.p)
    swapped = analysis.ProblemInstance(P.B, P.A, P.Q, P.s, P.p, P.t)
    assert swapped.swapped != given.swapped
    return given, swapped


def assert_identical(a, b):
    """Equal bit for bit, recursively; the swap flags are skipped."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            if f.name not in SWAP_FLAGS:
                assert_identical(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_identical(a[key], b[key])
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    else:
        assert type(a) is type(b) and a == b


INSTANCES = ["1-real", "1-complex", "2-real", "2-complex"]


@pytest.mark.parametrize("which", INSTANCES)
def test_conditions_and_brackets(which):
    given, swapped = swapped_pair(instance(which))
    assert_identical(given, swapped)
    for check in (
        analysis.derived_scalars,
        analysis.check_necessary,
        analysis.check_sufficient,
        analysis.check_uniqueness_interval,
        analysis.scan_k,
        analysis.solution_bounds,
    ):
        assert_identical(check(given), check(swapped))
    for k in (1.5, 3.0, 40.0):
        assert_identical(
            analysis.check_uniqueness_k(given, k), analysis.check_uniqueness_k(swapped, k)
        )


@pytest.mark.parametrize("which", INSTANCES)
def test_solve_residual_and_factorization(which):
    given, swapped = swapped_pair(instance(which))
    report = solvers.solve(given)
    report_swapped = solvers.solve(swapped)
    expected = solvers.Scheme.FIXED_POINT if which[0] == "1" else solvers.Scheme.COUPLED
    assert report.scheme is expected and report.converged
    assert report.swap_applied != report_swapped.swap_applied
    assert_identical(report, report_swapped)
    X = report.solution_X
    assert solvers.residual(given, X) == solvers.residual(swapped, X)
    assert_identical(
        analysis.factorization_from_solution(given, X),
        analysis.factorization_from_solution(swapped, X),
    )


def _cli_outputs(problem_path, tmp_path, capsys):
    """Exit code, stdout and written files of every command on one problem."""
    runs = {}
    sol, hist, fact = tmp_path / "sol.json", tmp_path / "hist.csv", tmp_path / "fact.json"
    for command in (
        ["check"],
        ["bounds"],
        ["solve", "--history", str(hist), "--solution", str(sol)],
        ["verify", str(sol)],
        ["factorize", str(sol), "--output", str(fact)],
    ):
        code = cli.main([command[0], str(problem_path), *command[1:]])
        runs[command[0]] = (code, capsys.readouterr().out)
    files = {path.name: path.read_bytes() for path in (sol, hist, fact)}
    return runs, files


@pytest.mark.parametrize("which", [1, 2])
def test_cli_outputs(which, tmp_path, capsys):
    P = builtin.example(which).instance
    outputs = []
    for name, doc in (
        ("given", probfile.ProblemFile(P.n, P.s, P.t, P.p, P.A, P.B, P.Q)),
        ("swapped", probfile.ProblemFile(P.n, P.s, P.p, P.t, P.B, P.A, P.Q)),
    ):
        work = tmp_path / name
        work.mkdir()
        path = work / "problem.json"
        path.write_text(probfile.write_problem(doc))
        outputs.append(_cli_outputs(path, work, capsys))
    (runs, files), (runs_swapped, files_swapped) = outputs
    assert files == files_swapped
    for command, (code, out) in runs.items():
        code_swapped, out_swapped = runs_swapped[command]
        assert code == code_swapped == 0
        if command == "check":
            note = "note: coefficient pairs swapped to put the larger inverse exponent first\n"
            assert note not in out and note in out_swapped
            out_swapped = out_swapped.replace(note, "")
        assert out == out_swapped
