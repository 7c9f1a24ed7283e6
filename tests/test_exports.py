"""Export guard: every advertised name resolves, and the package API is
exactly the pinned 48 names and matcore's exactly the pinned 16, so a deletion
cannot leave a stale export nor an addition go unnoticed; every
module-level private name is used, so no dead helper stays behind.  The
fields of SolveOptions, SolveReport, the two scheme prechecks, DerivedScalars
and ConditionReport are pinned too, so a new option, a per-iteration field on
the report, a new precheck field or a new derived scalar shows up as a test
change."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import nmeq

MODULES = ("analysis", "builtin", "cli", "matcore", "probfile", "solvers")

PACKAGE_API = {
    "BracketUndefinedError", "BuiltinProblem", "ConditionReport", "DerivedScalars",
    "Extremality", "Factorization", "HistoryEntry", "NotASolutionError",
    "PositivityError", "PreconditionError", "ProblemFile", "ProblemFileError",
    "ProblemInstance", "Scheme", "SolutionBounds", "SolutionFile",
    "SolveOptions", "SolveReport", "Verdict", "alpha_search", "b_search",
    "check_necessary", "check_sufficient", "check_uniqueness_interval",
    "check_uniqueness_k", "coupled_check", "derived_scalars", "example",
    "factorization_from_solution", "fixed_point_check",
    "hermitian_part", "load_problem", "load_solution", "parse_problem",
    "parse_solution", "problem_from_instance", "residual",
    "scan_k", "solution_bounds", "solve", "solve_coupled", "solve_fixed_point",
    "spectral_norm", "spectral_radius", "verify_factorization",
    "write_history_csv", "write_problem", "write_solution",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"nmeq.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_no_module_callable_is_wrapped():
    # the perfbench tracer reads a module-level callable with __wrapped__ as one
    # of its own wrappers left in place, so functools.cache, lru_cache or wraps
    # at module level in nmeq breaks its traced runs
    modules = [nmeq, *(importlib.import_module(f"nmeq.{name}") for name in MODULES)]
    wrapped = [
        f"{module.__name__}.{key}"
        for module in modules
        for key, obj in vars(module).items()
        if callable(obj) and hasattr(obj, "__wrapped__")
    ]
    assert wrapped == []
    assert not hasattr(nmeq.ProblemInstance.__post_init__, "__wrapped__")


def test_every_private_name_is_used():
    # each module-level private function, class or assigned name is loaded,
    # imported or read as an attribute somewhere in the package outside its own
    # definition; the syntax tree, not a text search, since a comment or a
    # docstring may name a helper that nothing calls
    src = Path(nmeq.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    uses: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, set()).add(id(node))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    if not uses.get(name, set()) - inside:
                        unused.append(f"{module}.{name}")
    assert unused == []


def test_history_rows_are_appended_only_in_the_one_loop():
    # both schemes run one loop over iterations, solvers._iterate: a HistoryEntry
    # row is appended, or built inside a loop, nowhere else in the package, so a
    # new start or scheme adds a start or a hook there and not a loop of its own
    src = Path(nmeq.__file__).resolve().parent
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []

    def is_row(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "HistoryEntry"

    def visit(node, where, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, in_loop = f"{where.split('.')[0]}.{node.name}", False
        in_loop = in_loop or isinstance(node, loops)
        appended = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("append", "extend", "insert")
                    and any(is_row(inner) for arg in node.args for inner in ast.walk(arg)))
        if appended or (in_loop and is_row(node)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where, in_loop)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    assert found and set(found) == {"solvers._iterate"}


def test_positivity_errors_are_built_only_in_require_pd():
    # every positivity verdict, of a fixed-point iterate, a coupled lane's N or a
    # limit, is worded by solvers._require_pd: no other function builds a
    # PositivityError and no class derives from it
    src = Path(nmeq.__file__).resolve().parent
    found = []

    def names_error(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "PositivityError"

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.ClassDef) and any(names_error(base) for base in node.bases):
            found.append(where)
        if isinstance(node, ast.Call) and names_error(node.func):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == ["solvers._require_pd"]


def test_benchmark_tracer_self_test_passes():
    # the benchmark's tracer looks its traced names up with getattr and checks
    # that it leaves no wrapper behind, so a removed traced name or a wrapped
    # module callable fails here and not only in a traced benchmark run
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.self_test() == []


def test_package_api_is_pinned():
    assert len(PACKAGE_API) == 48
    assert len(nmeq.__all__) == 48
    assert set(nmeq.__all__) == PACKAGE_API
    for name in nmeq.__all__:
        assert hasattr(nmeq, name)


def test_matcore_api_is_pinned():
    # a new public kernel is a deliberate edit here
    assert nmeq.matcore.__all__ == [
        "ATOL_HERM", "PD_TOL", "as_matrix", "hermitian_part", "check_hermitian",
        "trusted_eigh", "trusted_lambda_min", "eig_compose", "eig_power",
        "checked_eig_power", "congruence", "is_pd_spectrum", "herm_eig", "herm_power",
        "spectral_norm", "spectral_radius",
    ]


def test_solve_fields_are_pinned():
    assert [f.name for f in fields(nmeq.SolveOptions)] == [
        "tol", "max_iter", "alpha", "b_upper", "force",
    ]
    assert [f.name for f in fields(nmeq.SolveReport)] == [
        "solution_X", "solution_Y", "scheme", "iterations", "residual", "history",
        "delta", "extremality", "preconditions_held", "swap_applied", "converged",
        "lift_root", "precheck", "refined_bracket",
    ]


def test_precheck_fields_are_pinned():
    assert [f.name for f in fields(nmeq.solvers.FixedPointCheck)] == [
        "alpha", "beta", "delta", "feasibility", "contraction", "scheme_applies",
    ]
    assert [f.name for f in fields(nmeq.solvers.CoupledCheck)] == [
        "b", "a", "theta", "delta", "separation", "domination", "contraction_a",
        "contraction_b", "scheme_applies",
    ]


def test_condition_fields_are_pinned():
    assert [f.name for f in fields(nmeq.DerivedScalars)] == [
        "k", "k_tilde", "q", "q_tilde", "c", "c1",
    ]
    assert [f.name for f in fields(nmeq.ConditionReport)] == [
        "criterion", "branch", "verdicts", "holds", "bracket",
    ]


def test_no_scipy_dependency():
    # scipy is installed in some environments but is not a declared
    # dependency: importing nmeq and running a coupled solve (which inverts
    # A once) must not load it
    code = (
        "import sys, nmeq\n"
        "rep = nmeq.solve(nmeq.example(2).instance)\n"
        "assert rep.scheme is nmeq.Scheme.COUPLED and rep.converged\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.environ.get("PYTHONPATH")
    root = str(Path(nmeq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": root + (os.pathsep + path if path else "")}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
