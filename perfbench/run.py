"""nmeq benchmark: a single-process, single-client, closed-loop load generator.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  It imports ``nmeq`` from ``src/``
(nothing is installed or built), generates the workload's inputs from
``--seed``, and sends the next op only after the previous one returned.
Every op passes a correctness gate; a run with a failed op prints it and
exits 1.

``--trace 0`` times ops untraced and reports the end-to-end metrics, plus
``setup_s`` from fresh interpreters.  ``--trace 1`` spends half of
``--seconds`` untraced and half with timing wrappers around the public nmeq
functions, and reports the per-layer metrics and the tracing overhead.
Times are scaled to a nominal machine speed (see reference.py); the raw wall
times are printed too.  The last line of standard output is the JSON
result; the lines before it are the environment record and the metrics by
name with their units.
"""

import os

# One BLAS thread: on 2 cores it measured faster and steadier than two.
# Set before numpy is imported, here and in every probe process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters started per --trace 0 run; setup_s is their median.
SETUP_PROBES = 7
# Ops are timed in groups of at least this much op time (whole cycles),
# with a reference sample before and after each group.
GROUP_SECONDS = 0.25
# An untraced run goes on past --seconds until it has this many ops, so that
# at least 10 samples lie beyond op_p90_ms.
MIN_OPS = 100
# At most this many failed ops are printed.
MAX_REPORTED_FAILURES = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="cli-small, fixedpoint-n128, coupled-n64, or all (one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def untraced_call(k, fn, arg):
    start = time.perf_counter()
    result = fn(arg)
    return result, time.perf_counter() - start


@dataclass
class Sample:
    wall: list = field(default_factory=list)  # seconds per passed op
    scaled: list = field(default_factory=list)  # the same at nominal speed
    scale_of: dict = field(default_factory=dict)  # op index -> scale factor
    failures: list = field(default_factory=list)
    next_op: int = 0


def measure(wl, ref, k0: int, seconds: float, call, min_ops: int = 0) -> Sample:
    """Closed loop from op k0 until ``seconds`` have passed, at least
    ``min_ops`` ops were attempted, and a group ended.

    Input generation, the correctness gate and the reference samples run
    outside the timed call.
    """
    out = Sample()
    group, busy, k = [], 0.0, k0
    deadline = time.perf_counter() + seconds
    before = ref.sample()
    while True:
        inp, result = wl.op_input(k), None
        try:
            result, dt = call(k, wl.run_op, inp)
            error = wl.check(inp, result)
        except Exception:  # any exception is a failed op, reported by the caller
            error = traceback.format_exc(limit=3).strip()
        if error is None:
            group.append((k, dt))
            busy += dt
        else:
            out.failures.append(f"{wl.describe(k, inp)}: {error}")
        del inp, result
        k += 1
        if (k - k0) % wl.cycle:
            continue
        done = time.perf_counter() >= deadline and k - k0 >= min_ops
        if busy >= GROUP_SECONDS or done:
            after = ref.sample()
            scale = ref.scale(before, after)
            for j, dt in group:
                out.wall.append(dt)
                out.scaled.append(dt * scale)
                out.scale_of[j] = scale
            group, busy, before = [], 0.0, after
        if done:
            out.next_op = k
            return out


def setup_seconds(ref, workload: str, seed: int) -> tuple[list, list]:
    """import nmeq + first op, each in a fresh interpreter: (wall, scaled)."""
    wall, scaled = [], []
    for i in range(SETUP_PROBES):
        workdir = WORK / f"probe-{os.getpid()}-{i}"
        before = ref.sample()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        after = ref.sample()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if rec["error"] is not None:
            raise RuntimeError(f"setup probe: first op of {workload} failed: {rec['error']}")
        seconds = rec["import_s"] + rec["op_s"]
        wall.append(seconds)
        scaled.append(seconds * ref.scale(before, after))
    return wall, scaled


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3


def timing_metrics(times) -> dict:
    return {
        "op_p50_ms": percentile_ms(times, 50),
        "op_p90_ms": percentile_ms(times, 90),
        "ops_per_s": len(times) / sum(times),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(result: dict, lines: list) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result))


def run(args) -> int:
    if not (SRC / "nmeq" / "__init__.py").is_file():
        print(f"error: {SRC / 'nmeq'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nmeq

    if Path(nmeq.__file__).resolve().parent != SRC / "nmeq":
        print(f"error: imported nmeq from {nmeq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from reference import Reference
    from workloads import WORKLOADS, make_workload

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment(args)
    lines = []
    if args.trace:
        errors = tracing.self_test()
        for e in errors:
            print(f"self-test failed: {e}", file=sys.stderr)
        if errors:
            return 1
        lines.append("self-test: scan_k 200/200 rejected, b_search 100/100 rejected, "
                     "fixed-point example 1 within 12 iterations, self times sum to wall time")

    WORK.mkdir(exist_ok=True)
    wl = ref = None
    try:
        wl = make_workload(args.workload, args.seed, str(WORK / f"{args.workload}-{os.getpid()}"))
        ref = Reference(str(WORK / f"reference-{os.getpid()}.json"), wl.reference_parts)
        ref.sample()
        if not args.trace:
            try:
                setup_wall, setup_scaled = setup_seconds(ref, args.workload, args.seed)
            except RuntimeError as exc:
                print(f"FAILED {exc}", file=sys.stderr)
                return 1
        # warm-up: one cycle, untimed, so lazy imports and BLAS set-up are done
        warm = measure(wl, ref, 0, 0.0, untraced_call)
        failures = warm.failures
        if args.trace:
            plain = measure(wl, ref, warm.next_op, args.seconds / 2, untraced_call)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                main = measure(wl, ref, plain.next_op, args.seconds / 2, tracer.op)
            finally:
                tracer.uninstall()
            failures += plain.failures
        else:
            main = measure(wl, ref, warm.next_op, args.seconds, untraced_call, MIN_OPS)
        failures += main.failures
    finally:
        if wl is not None:
            wl.close()
        if ref is not None:
            ref.close()
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = main.next_op
    env["ops"] = {"attempted": attempted, "warm_up": warm.next_op, "measured": len(main.wall)}
    lines.insert(0, "env: " + json.dumps(env))
    if failures:
        for f in failures[:MAX_REPORTED_FAILURES]:
            print(f"FAILED {f}", file=sys.stderr)
        report({"correct": False, "attempted": attempted, "failed": len(failures), "metrics": {}},
               lines + [f"fail_rate: {len(failures) / attempted:.6g} ratio"])
        return 1

    speed = statistics.median(main.scale_of.values())
    if args.trace:
        problem = tracing.check_accounting(tracer)
        if problem:
            print(f"trace accounting failed: {problem}", file=sys.stderr)
            return 1
        overhead = percentile_ms(main.scaled, 50) - percentile_ms(plain.scaled, 50)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}.csv"
        tracer.dump(str(dump))
        values = tracing.layer_metrics(tracer, main.scale_of, overhead)
        metrics = {name: metric(values[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        lines.append(f"traced ops: {len(main.wall)}, untraced ops: {len(plain.wall)}, "
                     f"spans: {len(tracer.spans)} written to {dump.relative_to(ROOT)}")
        lines.append(f"op_p50_ms untraced {percentile_ms(plain.scaled, 50):.6g} ms, "
                     f"traced {percentile_ms(main.scaled, 50):.6g} ms (scaled)")
    else:
        scaled = timing_metrics(main.scaled)
        metrics = {
            "op_p50_ms": metric(scaled["op_p50_ms"], "ms"),
            "op_p90_ms": metric(scaled["op_p90_ms"], "ms"),
            "ops_per_s": metric(scaled["ops_per_s"], "1/s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup_scaled), "s"),
        }
        beyond = sum(1 for x in main.scaled if x * 1e3 > scaled["op_p90_ms"])
        wall = timing_metrics(main.wall)
        lines.append(f"samples: {len(main.wall)} ops measured, {beyond} beyond p90")
        lines.append("wall, unscaled: " + ", ".join(
            [f"{k} {v:.6g}" for k, v in wall.items()]
            + [f"setup_s {statistics.median(setup_wall):.6g}"]))
        lines.append(f"fail_rate: {0.0:.6g} ratio (0 of {attempted} ops failed)")
    lines.append(f"speed scale: median {speed:.4f} (wall time x scale = time at nominal speed)")
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    report({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}, lines)
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, one after another; one summary line."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
