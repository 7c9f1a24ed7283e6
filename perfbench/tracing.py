"""Span tracing around calls into nmeq, driven entirely from the benchmark.

``Tracer.install`` replaces each traced public function with a timing wrapper
in every nmeq module namespace that binds it: ``cli`` imports the analysis
functions by name, while ``analysis`` and ``solvers`` reach ``matcore``
through the module attribute ``mc.``, and ``nmeq/__init__`` re-exports both.
Instance validation is traced by wrapping ``ProblemInstance.__post_init__``.
No file of the program changes; ``uninstall`` restores the originals.

A span is (name, start, end, parent, op id, value).  ``value`` carries the
one fact a per-layer ratio needs from the call's result: whether a search
found its scalar, the iteration count of a solve, or the bytes a writer
produced.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import nmeq
from nmeq import analysis, builtin, cli, matcore, probfile, solvers


def _found(result) -> int:
    return 0 if result is None else 1


def _iterations(report) -> int:
    return report.iterations


def _utf8_bytes(text) -> int:
    return len(text.encode("utf-8"))


# (module, function, value extractor); the span name is "<module>.<function>".
TRACED = (
    (matcore, "check_hermitian", None),
    (matcore, "herm_eig", None),
    (matcore, "herm_power", None),
    (matcore, "spectral_norm", None),
    (matcore, "spectral_radius", None),
    (analysis, "derived_scalars", None),
    (analysis, "check_necessary", None),
    (analysis, "check_sufficient", None),
    (analysis, "check_uniqueness_interval", None),
    (analysis, "check_uniqueness_k", None),
    (analysis, "scan_k", _found),
    (analysis, "solution_bounds", None),
    (analysis, "factorization_from_solution", None),
    (analysis, "verify_factorization", None),
    (solvers, "alpha_search", _found),
    (solvers, "b_search", _found),
    (solvers, "fixed_point_check", None),
    (solvers, "coupled_check", None),
    (solvers, "solve", None),
    (solvers, "solve_fixed_point", _iterations),
    (solvers, "solve_coupled", _iterations),
    (solvers, "residual", None),
    (probfile, "load_problem", None),
    (probfile, "load_solution", None),
    (probfile, "write_solution", _utf8_bytes),
    (probfile, "write_history_csv", _utf8_bytes),
    (probfile, "write_factorization", _utf8_bytes),
    (builtin, "example", None),
    (cli, "main", None),
)
INSTANCE_SPAN = "analysis.instance"
OP_SPAN = "op"
NAMESPACES = (nmeq, matcore, analysis, solvers, probfile, builtin, cli)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, value]
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op, 0])
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if value is not None:
                spans[idx][5] = value(result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, value in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(f"{_short(module)}.{attr}", original, value)
            for ns in NAMESPACES:
                for key, obj in list(vars(ns).items()):
                    if obj is original:
                        self._patches.append((ns, key, obj))
                        setattr(ns, key, wrapper)
        cls = analysis.ProblemInstance
        self._patches.append((cls, "__post_init__", cls.__post_init__))
        cls.__post_init__ = self._wrap(INSTANCE_SPAN, cls.__post_init__)

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patches):
            setattr(ns, key, obj)
        self._patches.clear()

    def op(self, k: int, fn, arg):
        """Run one op under a root span; returns (result, wall seconds)."""
        self._op = k
        idx = self._enter(OP_SPAN)
        start = time.perf_counter()
        try:
            result = fn(arg)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end
            self._op = -1
        return result, end - start

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op,value\n")
            for name, start, end, parent, op, value in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op},{value}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

_CONDITIONS = {
    "analysis.check_necessary",
    "analysis.check_sufficient",
    "analysis.check_uniqueness_interval",
    "analysis.check_uniqueness_k",
    "analysis.scan_k",
}
_SEARCHES = {"solvers.alpha_search", "solvers.b_search"}
_PRECHECKS = {"solvers.fixed_point_check", "solvers.coupled_check"}
_LOOPS = {"solvers.solve_fixed_point", "solvers.solve_coupled"}
_CERTIFY = {"solvers.residual", "matcore.herm_power"}
_WRITERS = {"probfile.write_solution", "probfile.write_history_csv", "probfile.write_factorization"}
_READERS = {"probfile.load_problem", "probfile.load_solution"}

# name -> (unit, better); every per-layer metric the traced run reports.
PER_LAYER = {
    "analysis.self_ms": ("ms", "lower"),
    "analysis.instance_ms": ("ms", "lower"),
    "analysis.conditions_incl_ms": ("ms", "lower"),
    "analysis.derived_scalars_calls": ("count", "lower"),
    "analysis.scan_k_attempts": ("count", "lower"),
    "analysis.scan_k_yield": ("ratio", "higher"),
    "analysis.bounds_ms": ("ms", "lower"),
    "analysis.factorization_ms": ("ms", "lower"),
    "solvers.self_ms": ("ms", "lower"),
    "solvers.search_incl_ms": ("ms", "lower"),
    "solvers.b_search_attempts": ("count", "lower"),
    "solvers.b_search_yield": ("ratio", "higher"),
    "solvers.precheck_ms": ("ms", "lower"),
    "solvers.iterate_ms": ("ms", "lower"),
    "solvers.per_iteration_ms": ("ms", "lower"),
    "solvers.iterations": ("count", "lower"),
    "solvers.certify_ms": ("ms", "lower"),
    "matcore.self_ms": ("ms", "lower"),
    "matcore.check_hermitian_calls": ("count", "lower"),
    "matcore.check_hermitian_ms": ("ms", "lower"),
    "matcore.spectral_norm_calls": ("count", "lower"),
    "matcore.spectral_norm_ms": ("ms", "lower"),
    "matcore.herm_eig_calls": ("count", "lower"),
    "matcore.herm_eig_ms": ("ms", "lower"),
    "matcore.herm_power_ms": ("ms", "lower"),
    "matcore.spectral_radius_ms": ("ms", "lower"),
    "probfile.self_ms": ("ms", "lower"),
    "probfile.read_ms": ("ms", "lower"),
    "probfile.write_ms": ("ms", "lower"),
    "probfile.bytes_written": ("bytes", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "builtin.example_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}


def _has_ancestor(spans, idx: int, names) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer, scale_of: dict, overhead_ms: float) -> dict[str, float]:
    """Per-op averages over the traced ops (spans outside an op are ignored).

    ``scale_of`` maps each passed op to the factor that takes its wall time
    to nominal machine speed; span times are scaled by their op's factor.
    Times are self times unless the name ends in ``_incl_ms``; ``_calls`` and
    ``_attempts`` are call counts; a yield is the number of searches that
    found their scalar divided by the candidates they tried.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    ops = len(scale_of)
    total = defaultdict(float)  # self seconds by span name
    calls = defaultdict(int)
    incl = defaultdict(float)  # inclusive seconds of selected groups
    counts = defaultdict(int)
    for i, (name, start, end, parent, op, value) in enumerate(spans):
        if op < 0:
            continue
        scale = scale_of[op]
        total[name] += self_s[i] * scale
        calls[name] += 1
        dur = (end - start) * scale
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name in _CONDITIONS and not _has_ancestor(spans, i, _CONDITIONS):
            incl["conditions"] += dur
        if name in _SEARCHES:
            incl["search"] += dur
        if name == "analysis.scan_k":
            counts["scan_found"] += value
        if name == "analysis.check_uniqueness_k" and parent_name == "analysis.scan_k":
            counts["scan_attempts"] += 1
        if name == "solvers.coupled_check" and parent_name == "solvers.b_search":
            counts["b_attempts"] += 1
        if name == "solvers.b_search":
            counts["b_found"] += value
        if name in _LOOPS:
            incl["loops"] += dur
            counts["iterations"] += value
        if parent_name in _LOOPS:
            if name in _SEARCHES or name in _PRECHECKS:
                incl["loop_setup"] += dur
            elif name in _CERTIFY:
                incl["certify"] += dur
        if name in _WRITERS:
            counts["bytes"] += value

    def ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    def layer_self(layer: str) -> float:
        return ms(sum(v for k, v in total.items() if k.startswith(layer + ".")))

    iterations = counts["iterations"]
    loop_body = incl["loops"] - incl["loop_setup"] - incl["certify"]
    return {
        "analysis.self_ms": layer_self("analysis"),
        "analysis.instance_ms": ms(total[INSTANCE_SPAN]),
        "analysis.conditions_incl_ms": ms(incl["conditions"]),
        "analysis.derived_scalars_calls": calls["analysis.derived_scalars"] / ops,
        "analysis.scan_k_attempts": counts["scan_attempts"] / ops,
        "analysis.scan_k_yield": counts["scan_found"] / max(counts["scan_attempts"], 1),
        "analysis.bounds_ms": ms(total["analysis.solution_bounds"]),
        "analysis.factorization_ms": ms(
            total["analysis.factorization_from_solution"] + total["analysis.verify_factorization"]
        ),
        "solvers.self_ms": layer_self("solvers"),
        "solvers.search_incl_ms": ms(incl["search"]),
        "solvers.b_search_attempts": counts["b_attempts"] / ops,
        "solvers.b_search_yield": counts["b_found"] / max(counts["b_attempts"], 1),
        "solvers.precheck_ms": ms(sum(total[k] for k in _PRECHECKS)),
        "solvers.iterate_ms": ms(sum(total[k] for k in _LOOPS)),
        "solvers.per_iteration_ms": 1e3 * loop_body / iterations if iterations else 0.0,
        "solvers.iterations": iterations / ops,
        "solvers.certify_ms": ms(incl["certify"]),
        "matcore.self_ms": layer_self("matcore"),
        "matcore.check_hermitian_calls": calls["matcore.check_hermitian"] / ops,
        "matcore.check_hermitian_ms": ms(total["matcore.check_hermitian"]),
        "matcore.spectral_norm_calls": calls["matcore.spectral_norm"] / ops,
        "matcore.spectral_norm_ms": ms(total["matcore.spectral_norm"]),
        "matcore.herm_eig_calls": calls["matcore.herm_eig"] / ops,
        "matcore.herm_eig_ms": ms(total["matcore.herm_eig"]),
        "matcore.herm_power_ms": ms(total["matcore.herm_power"]),
        "matcore.spectral_radius_ms": ms(total["matcore.spectral_radius"]),
        "probfile.self_ms": layer_self("probfile"),
        "probfile.read_ms": ms(sum(total[k] for k in _READERS)),
        "probfile.write_ms": ms(sum(total[k] for k in _WRITERS)),
        "probfile.bytes_written": counts["bytes"] / ops,
        "cli.self_ms": ms(total["cli.main"]),
        "builtin.example_ms": ms(total["builtin.example"]),
        "trace.overhead_ms": overhead_ms,
    }


def check_accounting(tracer: Tracer, tol_s: float = 1e-6) -> str | None:
    """Every self time is non-negative and each op's self times sum to its wall time."""
    self_s = tracer.self_times()
    per_op = defaultdict(float)
    wall = {}
    for i, span in enumerate(tracer.spans):
        if span[4] < 0:
            continue
        if self_s[i] < -tol_s:
            return f"span {span[0]} of op {span[4]} has negative self time {self_s[i]:.3e} s"
        per_op[span[4]] += self_s[i]
        if span[0] == OP_SPAN:
            wall[span[4]] = span[2] - span[1]
    for op, w in wall.items():
        if abs(per_op[op] - w) > tol_s:
            return f"op {op}: self times sum to {per_op[op]:.6f} s, wall time is {w:.6f} s"
    return None


# ---------------------------------------------------------------------------
# self-test against exact counts of the current program


def self_test() -> list[str]:
    """Trace three known calls and compare their span counts with exact values.

    scan_k on bundled example 2 rejects all 200 grid points; b_search on
    bundled example 1 (a fixed-point instance) rejects all 100; fixed-point
    example 1 started at alpha = 1 converges within 12 iterations.
    """
    errors = []
    tracer = Tracer()
    tracer.install()
    try:
        ex1 = nmeq.example(1).instance
        ex2 = nmeq.example(2).instance
        k, _ = tracer.op(0, nmeq.scan_k, ex2)
        b, _ = tracer.op(1, nmeq.b_search, ex1)
        report, _ = tracer.op(
            2, lambda P: nmeq.solve_fixed_point(P, nmeq.SolveOptions(alpha=1.0)), ex1
        )
    finally:
        tracer.uninstall()

    def children(op: int, name: str) -> int:
        return sum(1 for s in tracer.spans if s[4] == op and s[0] == name)

    got = children(0, "analysis.check_uniqueness_k")
    if k is not None or got != 200:
        errors.append(f"scan_k(example 2): {got} check_uniqueness_k spans, result {k}; expected 200, None")
    got = children(1, "solvers.coupled_check")
    if b is not None or got != 100:
        errors.append(f"b_search(example 1): {got} coupled_check spans, result {b}; expected 100, None")
    iters = [s[5] for s in tracer.spans if s[4] == 2 and s[0] == "solvers.solve_fixed_point"]
    if not (report.converged and iters == [report.iterations] and report.iterations <= 12):
        errors.append(
            f"fixed-point example 1, alpha = 1: converged {report.converged} in "
            f"{report.iterations} iterations (span says {iters}); expected at most 12"
        )
    problem = check_accounting(tracer)
    if problem:
        errors.append(problem)
    leftover = [
        f"{_short(ns)}.{key}"
        for ns in NAMESPACES
        for key, obj in vars(ns).items()
        if callable(obj) and hasattr(obj, "__wrapped__")
    ]
    if hasattr(analysis.ProblemInstance.__post_init__, "__wrapped__"):
        leftover.append(INSTANCE_SPAN)
    if leftover:
        errors.append(f"uninstall left wrappers in place: {', '.join(leftover)}")
    return errors
