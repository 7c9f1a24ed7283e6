"""Problem, solution, history, and factorization serialization."""

import json

import numpy as np
import pytest

from nmeq import analysis, builtin, probfile, solvers

VALID = """
{
  "n": 2,
  "s": 2.0,
  "t": 1.0,
  "p": 1.0,
  "A": [[0.1, 0.0], [0.05, 0.2]],
  "B": [[0.2, [0.0, 0.1]], [0.0, 0.3]],
  "Q": [[2.0, 0.0], [0.0, 3.0]]
}
"""


class TestParseProblem:
    def test_valid(self):
        pf = probfile.parse_problem(VALID)
        assert pf.n == 2
        assert pf.s == 2.0
        assert pf.A[1, 0] == 0.05
        assert pf.B[0, 1] == 0.1j

    def test_to_instance(self):
        P = probfile.parse_problem(VALID).to_instance()
        assert isinstance(P, analysis.ProblemInstance)
        assert P.n == 2

    def test_plain_number_file_is_solved_in_real_arithmetic(self):
        doc = json.loads(VALID)
        doc["B"][0][1] = [0.0, 0.0]  # a pair with zero imaginary part is real
        P = probfile.parse_problem(json.dumps(doc)).to_instance()
        assert P.A.dtype == P.B.dtype == P.Q.dtype == np.float64

    def test_complex_entry_makes_the_instance_complex(self):
        P = probfile.parse_problem(VALID).to_instance()
        assert P.A.dtype == P.B.dtype == P.Q.dtype == np.complex128

    def test_invalid_json(self):
        # json reads no integer of more than 4300 digits (Python's int limit)
        for text in ("{not json", VALID.replace("0.05", "1" + "0" * 5000)):
            with pytest.raises(probfile.ProblemFileError, match="invalid JSON"):
                probfile.parse_problem(text)

    def test_not_an_object(self):
        with pytest.raises(probfile.ProblemFileError, match="JSON object"):
            probfile.parse_problem("[1, 2]")

    def test_missing_keys(self):
        with pytest.raises(probfile.ProblemFileError, match="missing required keys: s, B"):
            probfile.parse_problem('{"n": 1, "t": 1, "p": 1, "A": [[1]], "Q": [[1]]}')

    def test_unexpected_key(self):
        doc = json.loads(VALID)
        doc["extra"] = 1
        with pytest.raises(probfile.ProblemFileError, match="unexpected keys: extra"):
            probfile.parse_problem(json.dumps(doc))

    def test_bad_n(self):
        doc = json.loads(VALID)
        doc["n"] = "2"
        with pytest.raises(probfile.ProblemFileError, match="n: expected a positive integer"):
            probfile.parse_problem(json.dumps(doc))
        doc["n"] = 0
        with pytest.raises(probfile.ProblemFileError, match="n: must be at least 1"):
            probfile.parse_problem(json.dumps(doc))
        doc["n"] = True
        with pytest.raises(probfile.ProblemFileError):
            probfile.parse_problem(json.dumps(doc))

    def test_bad_exponent(self):
        doc = json.loads(VALID)
        doc["s"] = "two"
        with pytest.raises(probfile.ProblemFileError, match="s: expected a number"):
            probfile.parse_problem(json.dumps(doc))

    def test_row_count_mismatch(self):
        doc = json.loads(VALID)
        doc["A"] = [[0.1, 0.0]]
        with pytest.raises(probfile.ProblemFileError, match="A: expected 2 rows, got 1"):
            probfile.parse_problem(json.dumps(doc))

    def test_row_length_mismatch(self):
        doc = json.loads(VALID)
        doc["Q"] = [[2.0, 0.0], [0.0]]
        with pytest.raises(probfile.ProblemFileError, match=r"Q\[1\]: expected 2 entries"):
            probfile.parse_problem(json.dumps(doc))

    def test_bad_entry_location(self):
        doc = json.loads(VALID)
        doc["B"] = [[0.2, "x"], [0.0, 0.3]]
        with pytest.raises(probfile.ProblemFileError, match=r"B\[0\]\[1\]"):
            probfile.parse_problem(json.dumps(doc))

    def test_bad_pair_length(self):
        doc = json.loads(VALID)
        doc["A"] = [[[1.0, 2.0, 3.0], 0.0], [0.0, 0.1]]
        with pytest.raises(probfile.ProblemFileError, match=r"A\[0\]\[0\].*pair"):
            probfile.parse_problem(json.dumps(doc))

    def test_nonfinite_entry(self):
        # a float literal past the double range reads as inf, an integer one
        # cannot be converted at all: both are a located parse error
        for literal in ("1e999", "1" + "0" * 400):
            with pytest.raises(probfile.ProblemFileError, match=r"A\[1\]\[0\].*finite"):
                probfile.parse_problem(VALID.replace("0.05", literal))
            with pytest.raises(probfile.ProblemFileError, match=r"X\[0\]\[0\].*finite"):
                probfile.parse_solution('{"X": [[-%s]]}' % literal)


class TestWriteProblem:
    def test_roundtrip_semantic_identity(self):
        pf = probfile.parse_problem(VALID)
        text = probfile.write_problem(pf)
        pf2 = probfile.parse_problem(text)
        assert pf2.n == pf.n
        assert (pf2.s, pf2.t, pf2.p) == (pf.s, pf.t, pf.p)
        for name in ("A", "B", "Q"):
            assert np.array_equal(getattr(pf2, name), getattr(pf, name))

    def test_write_is_deterministic(self):
        pf = probfile.parse_problem(VALID)
        assert probfile.write_problem(pf) == probfile.write_problem(pf)

    def test_real_entries_stay_plain(self):
        pf = probfile.parse_problem(VALID)
        doc = json.loads(probfile.write_problem(pf))
        assert doc["A"][0][0] == 0.1
        assert doc["B"][0][1] == [0.0, 0.1]

    def test_key_order(self):
        pf = probfile.parse_problem(VALID)
        doc = json.loads(probfile.write_problem(pf))
        assert list(doc) == ["n", "s", "t", "p", "A", "B", "Q"]

    def test_from_instance(self):
        P = builtin.example(1).instance
        pf = probfile.problem_from_instance(P)
        P2 = probfile.parse_problem(probfile.write_problem(pf)).to_instance()
        assert np.array_equal(P2.A, P.A)
        assert np.array_equal(P2.Q, P.Q)

    def test_float_roundtrip_exact(self):
        third = 1.0 / 3.0
        pf = probfile.ProblemFile(
            1, 1.0, 1.0, 1.0,
            np.array([[third]]), np.array([[third]]), np.array([[third]]),
        )
        pf2 = probfile.parse_problem(probfile.write_problem(pf))
        assert pf2.A[0, 0].real == third


def _problem_with(key, value) -> str:
    doc = json.loads(VALID)
    doc[key] = value
    return json.dumps(doc)


class TestMatrixStructure:
    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (probfile.parse_problem, _problem_with("A", 3), "A: expected a list of rows, got int"),
            (
                probfile.parse_problem,
                _problem_with("B", [[0.2, 0.0], 5]),
                "B[1]: expected a list of 2 entries, got int",
            ),
            (probfile.parse_solution, '{"X": []}', "X: matrix must be nonempty"),
        ],
        ids=["matrix-not-a-list", "row-not-a-list", "empty-solution"],
    )
    def test_located_error(self, parse, text, message):
        with pytest.raises(probfile.ProblemFileError) as err:
            parse(text)
        assert str(err.value) == message


class TestSolutionFile:
    def _report(self):
        bp = builtin.example(1)
        return solvers.solve(bp.instance, solvers.SolveOptions(alpha=1.0))

    def test_roundtrip(self):
        rep = self._report()
        sol = probfile.parse_solution(probfile.write_solution(rep))
        assert np.array_equal(sol.X, rep.solution_X)
        assert np.array_equal(sol.Y, rep.solution_Y)
        assert sol.meta["scheme"] == "fixed-point"
        assert sol.meta["iterations"] == rep.iterations
        assert sol.meta["extremality"] == "maximal"
        assert sol.meta["converged"] is True

    def test_missing_x(self):
        with pytest.raises(probfile.ProblemFileError, match="missing required key: X"):
            probfile.parse_solution('{"Y": [[1.0]]}')

    def test_bare_x_accepted(self):
        sol = probfile.parse_solution('{"X": [[1.5]]}')
        assert sol.X[0, 0] == 1.5
        assert sol.Y is None
        assert sol.meta == {}

    def test_bad_matrix_location(self):
        with pytest.raises(probfile.ProblemFileError, match=r"X\[0\]\[0\]"):
            probfile.parse_solution('{"X": [["bad"]]}')

    def test_write_deterministic(self):
        rep = self._report()
        assert probfile.write_solution(rep) == probfile.write_solution(rep)


class TestHistoryCsv:
    def test_header_and_rows(self):
        hist = [
            solvers.HistoryEntry(1, 0.5, 0.5),
            solvers.HistoryEntry(2, 0.25, 0.125),
        ]
        text = probfile.write_history_csv(hist)
        lines = text.strip().split("\n")
        assert lines[0] == "iteration,step_error_X,step_error_Y"
        assert lines[1] == "1,0.5,0.5"
        assert lines[2] == "2,0.25,0.125"

    def test_seventeen_digit_roundtrip(self):
        x = 0.9891645225434881
        text = probfile.write_history_csv([solvers.HistoryEntry(1, x, x)])
        cell = text.strip().split("\n")[1].split(",")[1]
        assert float(cell) == x

    def test_empty_history(self):
        assert probfile.write_history_csv([]) == "iteration,step_error_X,step_error_Y\n"


class TestFactorizationDoc:
    def test_keys_and_diagonal(self):
        bp = builtin.example(1)
        F = analysis.factorization_from_solution(bp.instance, bp.solution_X)
        doc = json.loads(probfile.write_factorization(F))
        assert list(doc) == ["U", "Lambda", "N1", "N2"]
        lam = np.array(doc["Lambda"], dtype=float)
        assert np.allclose(lam, np.diag(np.diag(lam)))
        assert np.allclose(np.diag(lam), F.lam)
