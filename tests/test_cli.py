"""Command-line behavior: exit codes, output determinism, file handling.

Commands run in a subprocess so the tested surface is exactly what a shell
user sees, including the exit-code contract:
0 ok, 2 parse/validation, 3 precondition, 4 non-convergence, 5 verification.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nmeq
from nmeq import analysis, builtin, cli, probfile
from nmeq import matcore as mc

from support import near_singular_coupled_problem, random_hpd, random_unitary

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

    def test_integer_past_the_double_range(self, tmp_path):
        # no double holds 10^400: a parse error of the file, not an exit-3
        # "cannot evaluate in double precision"
        pf = probfile.problem_from_instance(builtin.example(1).instance)
        for key in ("s", "A[0][0]"):
            doc = json.loads(probfile.write_problem(pf))
            if key == "s":
                doc["s"] = "BIG"
            else:
                doc["A"][0][0] = "BIG"
            bad = tmp_path / "big.json"
            bad.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 400))
            res = run_cli("check", str(bad))
            assert res.returncode == 2, res.stderr
            assert res.stderr == f"error: {key}: number must be finite, got inf\n"


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

    def test_forced_indefinite_first_iterate_exits_4(self):
        # Y_1 = Q - alpha^(-t/s) A* A - alpha^(-p/s) B* B is indefinite at alpha = 1e-6
        res = run_cli("solve", "--example", "1", "--alpha", "1e-6", "--force")
        assert res.returncode == 4
        assert res.stdout == ""
        assert res.stderr == "error: iterate 1 is not positive definite (lambda_min = -4.555e+02)\n"

    def test_forced_overflowing_first_weight_exits_3(self):
        # alpha^(-t/s) = 1e400 overflows, so the forced fixed-point run has no Y_1
        res = run_cli(
            "solve", "--example", "2", "--scheme", "fixed-point", "--alpha", "1e-300", "--force"
        )
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "alpha^(-t/s) overflows at alpha = 1e-300, so Y_1 is unbounded" in res.stderr

    @pytest.mark.parametrize("force", [(), ("--force",)], ids=["", "force"])
    @pytest.mark.parametrize("which, flag", [(1, "--alpha"), (2, "--b")])
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_start_scalar_not_finite_and_positive_exits_2(self, capsys, which, flag, value, force):
        # forced or not, a start that is not finite and positive is a usage error
        code = cli.main(["solve", "--example", str(which), f"{flag}={value}", *force])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be finite and positive" in err

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
        # theta = sigma_min(A)^2 / b is tiny: the coupled preconditions fail
        # (exit 3), and a forced run loses positive definiteness (exit 4)
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

    def test_tiny_coefficients_exit_0(self, tmp_path):
        # the coupled prechecks take powers like theta^-2 that overflow far
        # from the start b ~ 1e-300; the verdicts are data, and the solve
        # reaches the minimal root x ~ 1e-75 of x^3 + 1e-300 x^-4 + 1e-302 x^-1 = 1
        eye = np.eye(3)
        P = analysis.ProblemInstance(1e-150 * eye, 1e-151 * eye, eye, 3.0, 4.0, 1.0)
        path = tmp_path / "tiny.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        res = run_cli("solve", str(path))
        assert res.returncode == 0, res.stderr
        assert "extremality: minimal" in res.stdout
        assert "converged: true" in res.stdout

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


CHECK_EXAMPLE_1 = """\
problem: n = 3, s = 3, t = 2, p = 1
necessary condition (spectral radius bound): holds  [branch k>1]
  spectral_radius_A: 0.0217990636772 vs 1.5 -> holds
  spectral_radius_B: 0.00661176239015 vs 1.5 -> holds
sufficient condition (norm bound): holds  [branch k>1]
  norm_sum: 0.0619115756201 vs 0.595275394488 -> holds
uniqueness via free scaling parameter: holds  [branch k=3.35587]
  power_sum: 0.386780455566 vs 1 -> holds
  spread: 0.00172601423226 vs 0.0162255818824 -> holds
  contraction: 0.989240171442 vs 1 -> holds
"""

CHECK_EXAMPLE_2 = """\
problem: n = 3, s = 3, t = 4, p = 1
necessary condition (spectral radius bound): holds  [branch k>1]
  spectral_radius_A: 5.10284824096 vs 90.3087182989 -> holds
  spectral_radius_B: 0.86303261348 vs 90.3087182989 -> holds
sufficient condition (norm bound): fails  [branch k>1]
  norm_sum: 6.65730358004 vs 0.462893376702 -> fails
uniqueness via free scaling parameter: no admissible parameter on the scan grid
"""


class TestCheck:
    @pytest.mark.parametrize("which, expected", [("1", CHECK_EXAMPLE_1), ("2", CHECK_EXAMPLE_2)])
    def test_golden_output(self, which, expected):
        res = run_cli("check", "--example", which)
        assert (res.returncode, res.stdout, res.stderr) == (0, expected, "")

    def test_example_1(self):
        res = run_cli("check", "--example", "1")
        assert res.returncode == 0
        assert "necessary condition (spectral radius bound): holds" in res.stdout
        assert "sufficient condition (norm bound): holds" in res.stdout

    @pytest.mark.parametrize("which", ["1", "2"])
    def test_takes_no_svd_norm(self, which, monkeypatch, capsys):
        # no verdict of check takes an SVD norm
        calls = []
        original = mc.spectral_norm

        def counting(M):
            calls.append(M)
            return original(M)

        monkeypatch.setattr(mc, "spectral_norm", counting)
        assert cli.main(["check", "--example", which]) == 0
        assert calls == []
        out = capsys.readouterr().out
        assert "uniqueness via free scaling parameter" in out
        assert "uniqueness on the bracket" not in out

    @pytest.mark.parametrize(
        "scale, s, t, p",
        [(1e-160, 1.0, 1.0, 1.0), (1e-160, 3.0, 4.0, 1.0), (1e-60, 5.0, 1.0, 1.0)],
        ids=["c^-t-111", "c^-t-341", "kc^(1-s)-511"],
    )
    def test_overflowing_powers_exit_0(self, tmp_path, scale, s, t, p):
        # c^-t (A = B = 1e-160 I) or (k c1)^(1-s) (A = B = 1e-60 I) overflows:
        # the verdicts fail and the check completes
        doc = {
            "n": 2, "s": s, "t": t, "p": p,
            "A": (scale * np.eye(2)).tolist(), "B": (scale * np.eye(2)).tolist(),
            "Q": np.eye(2).tolist(),
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        res = run_cli("check", str(path))
        assert res.returncode == 0, res.stderr
        assert "uniqueness on the bracket" not in res.stdout
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
        assert "uniqueness on the bracket" not in res.stdout
        assert "uniqueness via free scaling parameter" in res.stdout
        assert res.stderr == ""

    def test_underflowing_c_power_exits_0(self, tmp_path):
        # c = c1 = 1e-200: c^(t+1) underflows, and the check completes
        doc = {
            "n": 2, "s": 1.0, "t": 1.0, "p": 1.0,
            "A": (1e-100 * np.eye(2)).tolist(), "B": (1e-100 * np.eye(2)).tolist(),
            "Q": np.eye(2).tolist(),
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        res = run_cli("check", str(path))
        assert res.returncode == 0, res.stderr
        assert "uniqueness on the bracket" not in res.stdout
        assert "no admissible parameter on the scan grid" in res.stdout
        assert res.stderr == ""


class TestArithmeticLimits:
    """Inputs that pass validation but whose scalars leave the double range:
    a check decides every verdict (exit 0, nothing on stderr), and a solve
    whose preconditions then fail ends in exit 3 with one error line, not a
    traceback."""

    @pytest.mark.parametrize(
        "command, which, changes, code, message",
        [
            ("check", 1, {"s": 1e6}, 0, ""),
            ("check", 2, {"s": 1.0, "t": 400.0}, 0, ""),
            ("solve", 2, {"s": 1.0, "t": 400.0}, 3, "no feasible upper scalar b"),
            ("check", 1, {"A": (1e150 * np.eye(3)).tolist()}, 0, ""),
        ],
        ids=["check-s1e6", "check-t400", "solve-t400", "check-A1e150"],
    )
    def test_exit_3_without_traceback(self, tmp_path, command, which, changes, code, message):
        pf = probfile.problem_from_instance(builtin.example(which).instance)
        doc = json.loads(probfile.write_problem(pf))
        doc.update(changes)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        res = run_cli(command, str(path))
        assert res.returncode == code, res.stderr
        if code == 0:
            assert res.stderr == ""
        else:
            assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
            assert message in res.stderr

    def test_seeded_documents_end_in_decided_exit_codes(self, tmp_path, capsys):
        # 300 random problem documents, n <= 3, exponents in [1, 1e6] and entry
        # scales 1e-60 .. 1e60: check always decides (exit 0), bounds ends in 0
        # or 3, solve in 0, 3 or 4, and no scalar is reported as beyond double
        # precision; a RuntimeWarning fails the suite
        rng = np.random.default_rng(20240817)
        path = tmp_path / "problem.json"
        allowed = {"check": {0}, "bounds": {0, 3}, "solve": {0, 3, 4}}
        seen = {command: set() for command in allowed}
        for _ in range(300):
            n = int(rng.integers(1, 4))
            s, t, p = (float(10.0 ** rng.uniform(0.0, 6.0)) for _ in range(3))
            scale_a, scale_b, scale_q = (float(10.0 ** rng.uniform(-60.0, 60.0)) for _ in range(3))
            R = np.linalg.qr(rng.standard_normal((n, n)))[0]
            Q = scale_q * (R * rng.uniform(0.1, 10.0, n)) @ R.T
            doc = {
                "n": n, "s": s, "t": t, "p": p,
                "A": (scale_a * rng.standard_normal((n, n))).tolist(),
                "B": (scale_b * rng.standard_normal((n, n))).tolist(),
                "Q": (0.5 * (Q + Q.T)).tolist(),
            }
            path.write_text(json.dumps(doc))
            for command, codes in allowed.items():
                code = cli.main([command, str(path)])
                err = capsys.readouterr().err
                assert code in codes, (command, doc, err)
                assert "cannot evaluate" not in err, (command, doc)
                seen[command].add(code)
        assert seen == {"check": {0}, "bounds": {0, 3}, "solve": {0, 3}}

    def test_necessary_condition_past_the_double_range_holds(self, tmp_path, capsys):
        # rho(A)^2 = 1e320 and its bound ~1e700 both print as inf, but the
        # verdict compares them in logs: no false "no solution" certificate
        I3 = np.eye(3)
        P = analysis.ProblemInstance(1e160 * I3, 1e150 * I3, 1e300 * I3, 3.0, 4.0, 1.0)
        path = tmp_path / "problem.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        assert cli.main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "necessary condition (spectral radius bound): holds" in out
        assert "spectral_radius_A: inf vs inf -> holds" in out

    @pytest.mark.parametrize(
        "scale, exponents, args, message",
        [
            # ||A||^2 / b = 1e340 overflows: domination fails before A* A / b is formed
            ((1e20, 0.1, 1.0), (3.0, 4.0, 1.0), ("--b", "1e-300"), "domination fails"),
            # ||A||^2 underflows, but alpha^(-2/3) ||A||^2 >= 2e-195 > lambda_min(Q)
            ((1e-200, 1e-201, 1e-300), (3.0, 2.0, 1.0), (), "no feasible starting scalar"),
        ],
        ids=["coupled-b1e-300", "fixed-point-A1e-200"],
    )
    def test_failed_verdict_exits_3(self, tmp_path, scale, exponents, args, message):
        a, b, q = (x * np.eye(3) for x in scale)
        P = analysis.ProblemInstance(a, b, q, *exponents)
        path = tmp_path / "problem.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(P)))
        res = run_cli("solve", str(path), *args)
        assert res.returncode == 3
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert message in res.stderr


class TestBounds:
    def test_example_1(self):
        res = run_cli("bounds", "--example", "1")
        assert res.returncode == 0
        assert res.stdout.startswith("c: ")
        assert "N:" in res.stdout and "Q^(1/s):" in res.stdout

    def test_complex_entries(self, tmp_path):
        # a unitary congruence of example 1 has the same bracket scalars, and its
        # bracket matrices print as re+imj / re-imj entries
        P = builtin.example(1).instance
        U = random_unitary(np.random.default_rng(5), P.n)
        C = analysis.ProblemInstance(
            *(U.conj().T @ M @ U for M in (P.A, P.B, P.Q)), P.s, P.t, P.p
        )
        path = tmp_path / "complex.json"
        path.write_text(probfile.write_problem(probfile.problem_from_instance(C)))
        res = run_cli("bounds", str(path))
        assert res.returncode == 0, res.stderr
        real = run_cli("bounds", "--example", "1")
        c, c_real = (float(out.split()[1]) for out in (res.stdout, real.stdout))
        assert c == pytest.approx(c_real, rel=1e-12)
        entries = re.findall(r"\[(.*)\]", res.stdout)
        assert entries and all(len(row.split()) == P.n for row in entries)
        assert re.search(r"\d[+-]\d[^ \]]*j", res.stdout)

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_rejects_a_tolerance_that_is_not_finite_and_positive(self, tmp_path, tol):
        # X = 2I has residual 6 on example 1: no tolerance may pass it
        doubled = tmp_path / "doubled.json"
        doubled.write_text(json.dumps({"X": (2.0 * np.eye(3)).tolist()}))
        res = run_cli("verify", "--example", "1", str(doubled), f"--tol={tol}")
        assert res.returncode == 2
        assert res.stderr.startswith("error: tol must be finite and positive")
        assert "passed" not in res.stdout

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

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        builds = []
        build = cli._build_parser

        def counting():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counting)
        assert cli.main(["bounds", "--example", "1"]) == 0
        assert cli.main(["solve", "--example", "1", "--bogus"]) == 2
        assert cli.main(["check", "--example", "2"]) == 0
        capsys.readouterr()
        assert len(builds) == 1

    def test_exception_outside_the_exit_table_propagates(self, monkeypatch, capsys):
        # only the documented exceptions map to exit codes; a programming
        # error keeps its traceback instead of posing as a usage error
        def broken(args):
            raise TypeError("broken command")

        monkeypatch.setattr(cli, "cmd_check", broken)
        with pytest.raises(TypeError, match="broken command"):
            cli.main(["check", "--example", "1"])
        assert capsys.readouterr().err == ""


class TestFilesAtScale:
    def test_complex_n64_round_trip(self, tmp_path, monkeypatch, capsys):
        # a fixed-point instance (s = 3, t = 2, p = 1) well inside its conditions
        rng = np.random.default_rng(64)
        n = 64
        Z = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        A, B = (scale * M / np.linalg.norm(M, 2) for scale, M in zip((0.3, 0.2), Z))
        Q = random_hpd(rng, n, lo=2.0, hi=4.0)
        problem = tmp_path / "problem.json"
        pf = probfile.ProblemFile(n, 3.0, 2.0, 1.0, A, B, Q)
        problem.write_text(probfile.write_problem(pf))
        reports = []
        write_solution = probfile.write_solution

        def spy(report):
            reports.append(report)
            return write_solution(report)

        monkeypatch.setattr(probfile, "write_solution", spy)
        sol, hist, fact = (tmp_path / name for name in ("sol.json", "hist.csv", "fact.json"))
        argv = ["solve", str(problem), "--solution", str(sol), "--history", str(hist)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        (report,) = reports
        X = probfile.load_solution(sol).X
        assert np.iscomplexobj(report.solution_X)
        assert np.array_equal(X.view(np.uint64), report.solution_X.view(np.uint64))
        assert len(hist.read_text().splitlines()) == report.iterations + 1
        assert cli.main(["verify", str(problem), str(sol)]) == 0
        assert "verification: passed" in capsys.readouterr().out
        assert cli.main(["factorize", str(problem), str(sol), "--output", str(fact)]) == 0
        assert "factorization verified: true" in capsys.readouterr().out
        doc = json.loads(fact.read_text())
        assert [len(doc[key]) for key in ("U", "Lambda", "N1", "N2")] == [n] * 4
