"""Problem, solution, history, and factorization serialization."""

import contextlib
import dataclasses
import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmeq import analysis, builtin, cli, probfile, solvers

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


# doubles at the edges of the format: signed zeros, the smallest subnormal, a
# subnormal, the largest finite magnitude
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0,
)
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())  # NaN and +-inf too


@st.composite
def _matrices(draw, n: int) -> np.ndarray:
    """A real n x n matrix, or a complex one whose imaginary parts are a mix of
    zeros (plain entries) and any float (pair entries)."""
    cells = st.lists(_ANY_FLOAT, min_size=n * n, max_size=n * n)
    real = np.array(draw(cells), dtype=np.float64).reshape(n, n)
    if not draw(st.booleans()):
        return real
    imag = draw(st.lists(st.one_of(st.sampled_from((0.0, -0.0)), _ANY_FLOAT),
                         min_size=n * n, max_size=n * n))
    M = np.zeros((n, n), dtype=np.complex128)
    M.real, M.imag = real, np.reshape(imag, (n, n))
    return M


def _entry_rows(M: np.ndarray) -> list:
    """The per-entry encoding rule: a plain real unless the imaginary part is nonzero."""
    return [[z.real if z.imag == 0.0 else [z.real, z.imag] for z in map(complex, row)] for row in M]


@functools.cache
def _solved_example() -> solvers.SolveReport:
    return solvers.solve(builtin.example(1).instance, solvers.SolveOptions(alpha=1.0))


class TestEmitterBytes:
    """The writers emit exactly json.dumps(doc, indent=2) + "\\n" of the per-entry encoding."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_problem_and_factorization(self, data, n):
        A, B, Q, N1, N2 = (data.draw(_matrices(n)) for _ in range(5))
        lam = np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))
        s = data.draw(_ANY_FLOAT)
        pf = probfile.ProblemFile(n, s, 2.0, 1.0, A, B, Q)
        doc = {"n": n, "s": s, "t": 2.0, "p": 1.0,
               "A": _entry_rows(A), "B": _entry_rows(B), "Q": _entry_rows(Q)}
        assert probfile.write_problem(pf) == json.dumps(doc, indent=2) + "\n"
        F = analysis.Factorization(A, lam, N1, N2)
        doc = {"U": _entry_rows(A), "Lambda": _entry_rows(np.diag(lam)),
               "N1": _entry_rows(N1), "N2": _entry_rows(N2)}
        assert probfile.write_factorization(F) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9),
           delta=st.one_of(st.just(math.inf), _ANY_FLOAT))
    def test_solution(self, data, n, delta):
        X, Y = data.draw(_matrices(n)), data.draw(_matrices(n))
        rep = dataclasses.replace(_solved_example(), solution_X=X, solution_Y=Y, delta=delta)
        doc = {
            "scheme": "fixed-point", "iterations": rep.iterations, "converged": True,
            "residual": rep.residual, "delta": delta, "extremality": "maximal",
            "lift_root": rep.lift_root, "X": _entry_rows(X), "Y": _entry_rows(Y),
        }
        assert probfile.write_solution(rep) == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 9))
    def test_printed_matrix(self, data, n):
        M = data.draw(_matrices(n))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._print_matrix("M", M)
        rows = (
            "  [" + "  ".join(
                f"{z.real:.12g}" if z.imag == 0.0 else f"{z.real:.12g}{z.imag:+.12g}j"
                for z in map(complex, row)
            ) + "]\n"
            for row in M
        )
        assert out.getvalue() == "M:\n" + "".join(rows)


# integers that a double cannot hold exactly, or that pass int64 and uint64
_EDGE_INTS = (
    2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1,
    2**64 - 1, 2**64, 2**64 + 1, -(2**64) - 3, 10**308, -(10**308), 0,
)
_NUMBERS = st.one_of(
    st.sampled_from(_EDGE_INTS + _EDGE_FLOATS),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
)
_CELLS = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2), st.just([-0.0, -0.0]))


def _bits(M: np.ndarray) -> np.ndarray:
    """The bit patterns of the real and imaginary parts; tells -0.0 from 0.0."""
    return np.ascontiguousarray(M, dtype=np.complex128).view(np.uint64)


def _decode_error(decode, rows):
    with pytest.raises(probfile.ProblemFileError) as err:
        decode(rows)
    return str(err.value)


class TestBulkDecode:
    """The bulk decode agrees with the per-entry rule, _matrix_by_entry."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_valid_matrices_are_bit_identical(self, data, n):
        rows = data.draw(st.lists(st.lists(_CELLS, min_size=n, max_size=n), min_size=n, max_size=n))
        rows = json.loads(json.dumps(rows))  # what a file holds
        bulk = probfile._bulk_matrix(rows, n)
        assert bulk is not None
        assert np.array_equal(_bits(bulk), _bits(probfile._matrix_by_entry(rows, n, "A")))
        assert np.array_equal(_bits(probfile._matrix(rows, n, "A")), _bits(bulk))

    def test_signed_zero_pairs(self):
        rows = json.loads("[[[-0.0, -0.0], -0.0], [[0.0, -0.0], [-0.0, 0.0]]]")
        M = probfile._matrix(rows, 2, "A")
        assert np.signbit(M.real).tolist() == [[True, True], [False, True]]
        assert np.signbit(M.imag).tolist() == [[True, False], [True, False]]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[true, 0.0], [0.0, 1.0]]", "A[0][0]: expected a number, got True"),
            ("[[0.0, null], [0.0, 1.0]]", "A[0][1]: expected a number, got None"),
            ('[[0.0, 1.0], ["x", 1.0]]', "A[1][0]: expected a number, got 'x'"),
            ("[[0.0, 1.0], [[[1.0], 0.0], 1.0]]", "A[1][0][0]: expected a number, got [1.0]"),
            ("[[0.0, [false, 1.0]], [0.0, 1.0]]", "A[0][1][0]: expected a number, got False"),
            ("[[[1.0], 0.0], [0.0, 1.0]]",
             "A[0][0]: a complex entry must be a [re, im] pair, got 1 elements"),
            ("[[0.0, 1.0], [0.0, [1.0, 2.0, 3.0]]]",
             "A[1][1]: a complex entry must be a [re, im] pair, got 3 elements"),
            ("[[0.0, 1e999], [0.0, 1.0]]", "A[0][1]: number must be finite, got inf"),
            ("[[0.0, 1.0], [[0.0, -1e999], 1.0]]", "A[1][0][1]: number must be finite, got -inf"),
            ("[[0.0, 1.0], [0.0, NaN]]", "A[1][1]: number must be finite, got nan"),
            ("[[0.0, 1%s], [0.0, 1.0]]" % ("0" * 400), "A[0][1]: number must be finite, got inf"),
            ("[[0.0, 1.0], [0.0]]", "A[1]: expected 2 entries, got 1"),
            ("[[0.0, 1.0, 2.0], [0.0, 1.0]]", "A[0]: expected 2 entries, got 3"),
            ("[[0.0, 1.0], 5]", "A[1]: expected a list of 2 entries, got int"),
            # the entry rule reads row by row: row 0's bad entry is named, not the short row
            ("[[0.0, true], [0.0]]", "A[0][1]: expected a number, got True"),
            ("[[0.0, [1.0]], [0.0]]", "A[0][1]: a complex entry must be a [re, im] pair, got 1 elements"),
        ],
        ids=["bool", "null", "string", "nested-list", "bool-in-pair", "1-pair", "3-pair",
             "1e999", "-1e999-in-pair", "nan", "10**400", "short-row", "long-row",
             "row-not-a-list", "bad-entry-before-short-row", "bad-pair-before-short-row"],
    )
    def test_malformed_matrix_keeps_the_entry_rule_message(self, text, message):
        rows = json.loads(text)
        assert probfile._bulk_matrix(rows, 2) is None
        assert _decode_error(lambda r: probfile._matrix_by_entry(r, 2, "A"), rows) == message
        assert _decode_error(lambda r: probfile._matrix(r, 2, "A"), rows) == message
        doc = json.loads(VALID)
        doc["A"] = rows
        assert _decode_error(probfile.parse_problem, json.dumps(doc)) == message
