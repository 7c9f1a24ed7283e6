"""Command-line behavior: exit codes, output determinism, file handling.

Commands run in a subprocess so the tested surface is exactly what a shell
user sees, including the exit-code contract:
0 ok, 2 parse/validation, 3 precondition, 4 non-convergence, 5 verification.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmeq
from nmeq import analysis, builtin, cli, probfile
from nmeq import matcore as mc

from support import near_singular_coupled_problem

# the subprocess imports the same nmeq as the tests, installed or not
NMEQ_ROOT = str(Path(nmeq.__file__).resolve().parent.parent)


def run_cli(*args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": NMEQ_ROOT + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "nmeq.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture()
def example1_file(tmp_path):
    pf = probfile.problem_from_instance(builtin.example(1).instance)
    path = tmp_path / "ex1.json"
    path.write_text(probfile.write_problem(pf))
    return path


@pytest.fixture()
def no_solution_file(tmp_path):
    # 1x1 instance x + 4/x + 0.01/x = 1 has no positive root
    doc = {
        "n": 1, "s": 1.0, "t": 1.0, "p": 1.0,
        "A": [[2.0]], "B": [[0.1]], "Q": [[1.0]],
    }
    path = tmp_path / "nosol.json"
    path.write_text(json.dumps(doc))
    return path


class TestInputSelection:
    def test_example_and_file_conflict(self, example1_file):
        res = run_cli("solve", str(example1_file), "--example", "1")
        assert res.returncode == 2
        assert "exactly one" in res.stderr

    def test_no_input(self):
        res = run_cli("check")
        assert res.returncode == 2

    def test_missing_file(self):
        res = run_cli("check", "/nonexistent/problem.json")
        assert res.returncode == 2

    def test_unknown_example(self):
        res = run_cli("check", "--example", "3")
        assert res.returncode == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "s": 1, "t": 1, "p": 1, "A": [[1, 0]], '
                       '"B": [[1, 0], [0, 1]], "Q": [[2, 0], [0, 2]]}')
        res = run_cli("check", str(bad))
        assert res.returncode == 2
        assert "A:" in res.stderr


class TestSolve:
    def test_example_1(self):
        res = run_cli("solve", "--example", "1")
        assert res.returncode == 0
        assert "scheme: fixed-point" in res.stdout
        assert "iterations: 8" in res.stdout
        assert "extremality: maximal" in res.stdout

    def test_example_2(self):
        res = run_cli("solve", "--example", "2")
        assert res.returncode == 0
        assert "scheme: coupled" in res.stdout
        assert "extremality: minimal" in res.stdout

    def test_solution_matches_printed(self, tmp_path):
        out = tmp_path / "sol.json"
        res = run_cli("solve", "--example", "1", "--solution", str(out))
        assert res.returncode == 0
        sol = probfile.parse_solution(out.read_text())
        assert np.max(np.abs(sol.X - builtin.example(1).solution_X)) <= 1e-9

    def test_file_input_equivalent_to_example(self, example1_file):
        # the file route has no bundled alpha, so pass it explicitly
        res = run_cli("solve", str(example1_file), "--alpha", "1.0")
        assert res.returncode == 0
        assert "iterations: 8" in res.stdout

    def test_wrong_scheme_precondition_exit(self):
        res = run_cli("solve", "--example", "1", "--scheme", "coupled")
        assert res.returncode == 3

    def test_wrong_scheme_forced_runs(self):
        res = run_cli("solve", "--example", "1", "--scheme", "coupled", "--force")
        assert res.returncode in (0, 4)

    def test_non_convergence_exit(self):
        res = run_cli("solve", "--example", "2", "--max-iter", "2")
        assert res.returncode == 4
        assert "converged: false" in res.stdout

    def test_infeasible_alpha_exit(self):
        res = run_cli("solve", "--example", "1", "--alpha", "1e-9")
        assert res.returncode == 3

    @pytest.mark.parametrize("force", [False, True])
    def test_coupled_start_rounding_to_zero_exits_3(self, tmp_path, force):
        # the coupled scheme has no lower start, forced or not
        P = analysis.ProblemInstance(*near_singular_coupled_problem())
        path = tmp_path / "near_singular.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        res = run_cli("solve", str(path), *(["--force"] if force else []))
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert "rounds to 0" in res.stderr
        assert "Traceback" not in res.stderr

    def test_clamped_theta_ends_in_documented_codes(self, tmp_path):
        # lambda_min(A* A) clamps to 0: the coupled preconditions fail (exit
        # 3), and a forced run loses positive definiteness (exit 4)
        P = analysis.ProblemInstance(*near_singular_coupled_problem(seed=2))
        path = tmp_path / "clamped_theta.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        res = run_cli("solve", str(path))
        assert res.returncode == 3
        assert res.stderr.startswith("error: no feasible upper scalar b")
        assert "cannot evaluate" not in res.stderr
        forced = run_cli("solve", str(path), "--force")
        assert forced.returncode == 4
        assert forced.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr + forced.stderr

    def test_history_csv(self, tmp_path):
        out = tmp_path / "hist.csv"
        res = run_cli("solve", "--example", "1", "--history", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "iteration,step_error_X,step_error_Y"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == first[2]

    def test_determinism(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            sol = tmp_path / f"sol_{tag}.json"
            hist = tmp_path / f"hist_{tag}.csv"
            res = run_cli(
                "solve", "--example", "2", "--solution", str(sol), "--history", str(hist)
            )
            assert res.returncode == 0
            files.append((sol.read_bytes(), hist.read_bytes(), res.stdout))
        assert files[0] == files[1]


class TestCheck:
    def test_example_1(self):
        res = run_cli("check", "--example", "1")
        assert res.returncode == 0
        assert "necessary condition (spectral radius bound): holds" in res.stdout
        assert "sufficient condition (norm bound): holds" in res.stdout

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_takes_no_svd_norm(self, which, monkeypatch, capsys):
        # every Loewner verdict scales its tolerance by Hermitian norms
        calls = []
        original = mc.spectral_norm

        def counting(M):
            calls.append(M)
            return original(M)

        monkeypatch.setattr(mc, "spectral_norm", counting)
        assert cli.main(["check", "--example", which]) == 0
        assert calls == []
        assert "uniqueness on the bracket" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "scale, s, t, p",
        [(1e-160, 1.0, 1.0, 1.0), (1e-160, 3.0, 4.0, 1.0), (1e-60, 5.0, 1.0, 1.0)],
        ids=["c^-t-111", "c^-t-341", "kc^(1-s)-511"],
    )
    def test_overflowing_powers_exit_0(self, tmp_path, scale, s, t, p):
        # c^-t (A = B = 1e-160 I) or (k c1)^(1-s) (A = B = 1e-60 I) overflows:
        # the verdicts fail, the check completes
        doc = {
            "n": 2, "s": s, "t": t, "p": p,
            "A": (scale * np.eye(2)).tolist(), "B": (scale * np.eye(2)).tolist(),
            "Q": np.eye(2).tolist(),
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        res = run_cli("check", str(path))
        assert res.returncode == 0, res.stderr
        assert "uniqueness on the bracket (endpoint contraction): fails" in res.stdout
        assert "contraction: inf vs 1 -> fails" in res.stdout
        assert "no admissible parameter on the scan grid" in res.stdout
        assert res.stderr == ""

    def test_verdict_failure_is_not_an_error(self, no_solution_file):
        res = run_cli("check", str(no_solution_file))
        assert res.returncode == 0
        assert "necessary condition (spectral radius bound): fails" in res.stdout

    @pytest.mark.parametrize("transpose", [True, False], ids=["B=A^T", "B=A"])
    def test_rounding_negative_spectrum_exits_0(self, tmp_path, transpose):
        A = near_singular_coupled_problem()[0]
        P = analysis.ProblemInstance(A, A.T if transpose else A, 5.0 * np.eye(3), 3.0, 4.0, 1.0)
        path = tmp_path / "near_singular.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        res = run_cli("check", str(path))
        assert res.returncode == 0, res.stderr
        assert "uniqueness on the bracket (endpoint contraction): fails" in res.stdout
        assert res.stderr == ""

    def test_underflowing_c_power_exits_0(self, tmp_path):
        # c = 1e-200: c^(t+1) underflows, and the contraction verdicts fail
        doc = {
            "n": 2, "s": 1.0, "t": 1.0, "p": 1.0,
            "A": (1e-100 * np.eye(2)).tolist(), "B": (1e-100 * np.eye(2)).tolist(),
            "Q": np.eye(2).tolist(),
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        res = run_cli("check", str(path))
        assert res.returncode == 0, res.stderr
        assert "uniqueness on the bracket (endpoint contraction): fails" in res.stdout
        assert "contraction: inf vs 1 -> fails" in res.stdout
        assert "no admissible parameter on the scan grid" in res.stdout
        assert res.stderr == ""


class TestArithmeticLimits:
    """Inputs that pass validation but overflow or divide by zero in double
    precision end in exit code 3 with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "command, which, changes",
        [
            ("check", 1, {"s": 1e6}),
            ("check", 2, {"s": 1.0, "t": 400.0}),
            ("solve", 2, {"s": 1.0, "t": 400.0}),
            ("check", 1, {"A": (1e150 * np.eye(3)).tolist()}),
        ],
        ids=["check-s1e6", "check-t400", "solve-t400", "check-A1e150"],
    )
    def test_exit_3_without_traceback(self, tmp_path, command, which, changes):
        pf = probfile.problem_from_instance(builtin.example(which).instance)
        doc = json.loads(probfile.write_problem(pf))
        doc.update(changes)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        res = run_cli(command, str(path))
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr


class TestBounds:
    def test_example_1(self):
        res = run_cli("bounds", "--example", "1")
        assert res.returncode == 0
        assert res.stdout.startswith("c: ")
        assert "N:" in res.stdout and "Q^(1/s):" in res.stdout

    def test_undefined_bracket_exit(self, no_solution_file):
        res = run_cli("bounds", str(no_solution_file))
        assert res.returncode == 3
        assert "cannot have" in res.stderr


class TestVerifyFactorize:
    @pytest.fixture()
    def solved(self, tmp_path):
        sol = tmp_path / "sol.json"
        assert run_cli("solve", "--example", "1", "--solution", str(sol)).returncode == 0
        return sol

    def test_verify_passes(self, solved):
        res = run_cli("verify", "--example", "1", str(solved))
        assert res.returncode == 0
        assert "verification: passed" in res.stdout
        assert "in bracket [cI, Q^(1/s)]: true" in res.stdout
        assert "in refined bracket [mI, N]: true" in res.stdout

    def test_verify_validates_x_once(self, solved, monkeypatch, capsys):
        # Q is validated when the example is built and the file's X by the
        # shared acceptance rule (exactly Hermitian, so no drift norms); the
        # residual's norm is an eigvalsh, not an SVD, and the positivity,
        # residual and bracket tests reuse the trusted kernel
        calls = {"check_hermitian": 0, "spectral_norm": 0}
        for name in calls:
            original = getattr(mc, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(mc, name, counting)
        assert cli.main(["verify", "--example", "1", str(solved)]) == 0
        assert calls == {"check_hermitian": 2, "spectral_norm": 0}
        out = capsys.readouterr().out
        assert "in bracket [cI, Q^(1/s)]: true" in out
        assert "in refined bracket [mI, N]: true" in out

    def test_verify_non_hermitian_fails(self, solved, tmp_path):
        doc = json.loads(solved.read_text())
        doc["X"][0][1] += 1e-6
        bad = tmp_path / "skew.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("verify", "--example", "1", str(bad))
        assert res.returncode == 5
        assert "not Hermitian" in res.stdout

    def test_verify_and_factorize_agree_on_nearly_hermitian_x(self, solved, tmp_path):
        # drift 1.5e-12 (1 + ||X||) against the limit 1e-12 (1 + ||X||):
        # every entry point applies the one Hermitian rule and rejects X
        doc = json.loads(solved.read_text())
        X = np.array(doc["X"])
        doc["X"][0][1] += 1.5e-12 * (1.0 + np.linalg.norm(X, 2))
        bad = tmp_path / "drift.json"
        bad.write_text(json.dumps(doc))
        factorize = run_cli("factorize", "--example", "1", str(bad))
        assert factorize.returncode == 2
        assert "X: not Hermitian" in factorize.stderr
        verify = run_cli("verify", "--example", "1", str(bad))
        assert verify.returncode == 5
        assert "not Hermitian" in verify.stdout
        assert "verification: passed" not in verify.stdout

    def test_verify_perturbed_fails(self, solved, tmp_path):
        doc = json.loads(solved.read_text())
        doc["X"][0][0] += 0.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("verify", "--example", "1", str(bad))
        assert res.returncode == 5
        assert "failed" in res.stdout

    def test_verify_indefinite_fails(self, tmp_path):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"X": [[-1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]}))
        res = run_cli("verify", "--example", "1", str(bad))
        assert res.returncode == 5
        assert "not positive definite" in res.stdout

    def test_verify_shape_mismatch(self, tmp_path):
        bad = tmp_path / "small.json"
        bad.write_text(json.dumps({"X": [[1.0]]}))
        res = run_cli("verify", "--example", "1", str(bad))
        assert res.returncode == 2
        res = run_cli("factorize", "--example", "1", str(bad))
        assert res.returncode == 2
        assert "shape" in res.stderr

    def test_factorize_roundtrip(self, solved, tmp_path):
        out = tmp_path / "fact.json"
        res = run_cli("factorize", "--example", "1", str(solved), "--output", str(out))
        assert res.returncode == 0
        assert "factorization verified: true" in res.stdout
        doc = json.loads(out.read_text())
        assert set(doc) == {"U", "Lambda", "N1", "N2"}

    def test_factorize_rejects_non_solution(self, solved, tmp_path):
        doc = json.loads(solved.read_text())
        doc["X"][1][1] += 0.05
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = run_cli("factorize", "--example", "1", str(bad))
        assert res.returncode == 5
        assert "not a solution" in res.stderr


class TestMainEntry:
    def test_importable_main(self):
        from nmeq.cli import main

        assert main(["check", "--example", "1"]) == 0

    def test_bad_flag_returns_two(self):
        from nmeq.cli import main

        assert main(["solve", "--example", "1", "--bogus"]) == 2
