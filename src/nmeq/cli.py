"""Command-line front end.

Subcommands: check (solvability and uniqueness conditions), solve (run the
dispatched or requested iteration scheme), bounds (solution enclosure),
factorize (structured decomposition of a known solution), verify (residual
and bracket membership of a candidate).  Problems come from a JSON file or
one of the two bundled instances via --example.

Exit codes: 0 success, 2 parse or validation error, 3 precondition failure
or a condition that double precision cannot evaluate (overflow, division by
zero, a failed LAPACK call), 4 non-convergence, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import builtin, probfile, solvers
from .analysis import (
    BracketUndefinedError,
    ConditionReport,
    NotASolutionError,
    ProblemInstance,
    _accept_candidate,
    _loewner_verdict,
    _residual,
    check_necessary,
    check_sufficient,
    check_uniqueness_interval,
    check_uniqueness_k,
    factorization_from_solution,
    scan_k,
    solution_bounds,
    verify_factorization,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_VERIFICATION = 5


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_entry(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_matrix(name: str, M: np.ndarray) -> None:
    print(f"{name}:")
    for i in range(M.shape[0]):
        print("  [" + "  ".join(_fmt_entry(M[i, j]) for j in range(M.shape[1])) + "]")


def _verdict_word(holds: bool) -> str:
    return "holds" if holds else "fails"


def _print_condition(title: str, rep: ConditionReport) -> None:
    suffix = f"  [branch {rep.branch}]" if rep.branch else ""
    print(f"{title}: {_verdict_word(rep.holds)}{suffix}")
    for name, v in rep.verdicts.items():
        line = f"  {name}: {_fmt(v.lhs)} vs {_fmt(v.rhs)} -> {_verdict_word(v.holds)}"
        if v.note:
            line += f"  ({v.note})"
        print(line)


def _resolve_problem(args) -> tuple[ProblemInstance, builtin.BuiltinProblem | None]:
    has_file = getattr(args, "problem", None) is not None
    has_example = getattr(args, "example", None) is not None
    if has_file == has_example:
        raise probfile.ProblemFileError(
            "give exactly one problem source: a problem file or --example 1|2"
        )
    if has_example:
        bp = builtin.example(args.example)
        return bp.instance, bp
    return probfile.load_problem(args.problem).to_instance(), None


def cmd_check(args) -> int:
    P, _ = _resolve_problem(args)
    print(f"problem: n = {P.n}, s = {_fmt(P.s)}, t = {_fmt(P.t)}, p = {_fmt(P.p)}")
    if P.swapped:
        print("note: coefficient pairs swapped to put the larger inverse exponent first")
    _print_condition("necessary condition (spectral radius bound)", check_necessary(P))
    _print_condition("sufficient condition (norm bound)", check_sufficient(P))
    _print_condition(
        "uniqueness on the bracket (endpoint contraction)", check_uniqueness_interval(P)
    )
    k_star = scan_k(P)
    if k_star is None:
        print("uniqueness via free scaling parameter: no admissible parameter on the scan grid")
    else:
        _print_condition("uniqueness via free scaling parameter", check_uniqueness_k(P, k_star))
    return EXIT_OK


def cmd_solve(args) -> int:
    P, bp = _resolve_problem(args)
    alpha = args.alpha
    b_upper = args.b_upper
    if bp is not None:
        if alpha is None:
            alpha = bp.alpha
        if b_upper is None:
            b_upper = bp.b_upper
    opts = solvers.SolveOptions(
        tol=args.tol,
        max_iter=args.max_iter,
        alpha=alpha,
        b_upper=b_upper,
        force=args.force,
    )
    if args.scheme == "fixed-point":
        report = solvers.solve_fixed_point(P, opts)
    elif args.scheme == "coupled":
        report = solvers.solve_coupled(P, opts)
    else:
        report = solvers.solve(P, opts)
    print(f"scheme: {report.scheme.value}")
    print(f"iterations: {report.iterations}")
    print(f"converged: {'true' if report.converged else 'false'}")
    print(f"residual: {_fmt(report.residual)}")
    print(f"delta: {_fmt(report.delta)}")
    print(f"extremality: {report.extremality.value}")
    print(f"preconditions: {'held' if report.preconditions_held else 'not held'}")
    if args.history is not None:
        with open(args.history, "w", encoding="utf-8") as fh:
            fh.write(probfile.write_history_csv(report.history))
    doc = probfile.write_solution(report)
    if args.solution is not None:
        with open(args.solution, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    if not report.converged:
        print("error: iteration did not converge within max_iter", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_bounds(args) -> int:
    P, _ = _resolve_problem(args)
    bounds = solution_bounds(P)
    print(f"c: {_fmt(bounds.c)}")
    print(f"m: {_fmt(bounds.m)}")
    _print_matrix("N", bounds.N)
    _print_matrix("Q^(1/s)", bounds.q_root)
    return EXIT_OK


def cmd_factorize(args) -> int:
    P, _ = _resolve_problem(args)
    F = factorization_from_solution(P, probfile.load_solution(args.solution).X)
    ok = verify_factorization(P, F)
    print(f"factorization verified: {'true' if ok else 'false'}")
    doc = probfile.write_factorization(F)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    P, _ = _resolve_problem(args)
    sol = probfile.load_solution(args.solution)
    if sol.X.shape != (P.n, P.n):
        raise probfile.ProblemFileError(
            f"X: solution is {sol.X.shape[0]}x{sol.X.shape[1]}, problem is {P.n}x{P.n}"
        )
    # the file's X is validated here, once; everything below trusts it
    try:
        X, values, vectors = _accept_candidate(P, sol.X)
    except ValueError as exc:
        print(f"candidate {exc}")
        return EXIT_VERIFICATION
    resid = _residual(P, values, vectors)
    tol = args.tol if args.tol is not None else P._accept_tol
    print(f"residual: {_fmt(resid)}")
    print(f"tolerance: {_fmt(tol)}")
    if resid > tol:
        print("verification: failed (residual above tolerance)")
        return EXIT_VERIFICATION
    bounds = solution_bounds(P)
    eye = np.eye(P.n)
    # X and Q^(1/s) are positive definite: their norms are their largest eigenvalues
    scale = max(float(values[-1]), P._lambda_max_q ** (1.0 / P.s))

    def leq(L, R) -> bool:
        return _loewner_verdict(L, R, scale).holds

    in_basic = leq(bounds.c * eye, X) and leq(X, bounds.q_root)
    in_refined = leq(bounds.m * eye, X) and leq(X, bounds.N)
    print(f"in bracket [cI, Q^(1/s)]: {'true' if in_basic else 'false'}")
    print(f"in refined bracket [mI, N]: {'true' if in_refined else 'false'}")
    print("verification: passed")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nmeq",
        description=(
            "Hermitian positive definite solutions of "
            "X^s + A* X^-t A + B* X^-p B = Q"
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("problem", nargs="?", help="problem file (JSON)")
        p.add_argument(
            "--example",
            type=int,
            choices=(1, 2),
            help="use a bundled reference problem instead of a file",
        )

    p_check = sub.add_parser("check", help="evaluate solvability and uniqueness conditions")
    add_input(p_check)
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="run an iteration scheme")
    add_input(p_solve)
    p_solve.add_argument(
        "--scheme", choices=("auto", "fixed-point", "coupled"), default="auto"
    )
    p_solve.add_argument("--tol", type=float, help="step-norm stopping tolerance")
    p_solve.add_argument("--max-iter", type=int, default=1000)
    p_solve.add_argument("--alpha", type=float, help="fixed-point starting scalar")
    p_solve.add_argument("--b", dest="b_upper", type=float, help="coupled upper starting scalar")
    p_solve.add_argument("--force", action="store_true", help="iterate even if preconditions fail")
    p_solve.add_argument("--history", metavar="CSV", help="write convergence history CSV")
    p_solve.add_argument("--solution", metavar="JSON", help="write solution file")
    p_solve.set_defaults(func=cmd_solve)

    p_bounds = sub.add_parser("bounds", help="print the solution enclosure")
    add_input(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_fact = sub.add_parser("factorize", help="factor a known solution")
    add_input(p_fact)
    p_fact.add_argument("solution", help="solution file (JSON with X)")
    p_fact.add_argument("--output", metavar="JSON", help="write factorization here instead of stdout")
    p_fact.set_defaults(func=cmd_factorize)

    p_verify = sub.add_parser("verify", help="check a candidate solution")
    add_input(p_verify)
    p_verify.add_argument("solution", help="solution file (JSON with X)")
    p_verify.add_argument("--tol", type=float, help="residual acceptance tolerance")
    p_verify.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except probfile.ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotASolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except BracketUndefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except solvers.PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except solvers.PositivityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, so it must be caught before one
        print(f"error: cannot evaluate in double precision: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
