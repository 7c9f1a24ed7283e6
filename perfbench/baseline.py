"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3 --out perfbench/baseline.json

For each workload, runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once per traced seed, one run at a time, and writes
the median, quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median of each metric, together with the
values of each run, the unscaled wall-clock figures (``wall_unscaled``) and
the environment record of the first run.  A run that fails
its correctness gate stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-small", "fixedpoint-n128", "coupled-n64")
WALL_PREFIX = "wall, unscaled: "


def seed_range(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    env = json.loads(next(ln for ln in lines if ln.startswith("env: "))[5:])
    wall = {}
    for line in lines:
        if line.startswith(WALL_PREFIX):
            for item in line[len(WALL_PREFIX):].split(", "):
                name, value = item.split()
                wall[name] = float(value)
    return json.loads(lines[-1]), env, wall


def summarize(values: list[float], unit: str) -> dict:
    med = statistics.median(values)
    out = {"unit": unit, "median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def collect(workload, seeds, seconds, trace, log) -> tuple[dict, dict | None]:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    walls: dict[str, list[float]] = {}
    env = None
    for seed in seeds:
        result, run_env, wall = run_once(workload, seed, seconds, trace)
        env = env or run_env
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for name, v in wall.items():
            walls.setdefault(name, []).append(v)
        shown = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                          if trace == 0)
        log(f"{workload} seed {seed} trace {trace}: {result['attempted']} ops {shown}")
    out = {name: summarize(v, units[name]) for name, v in values.items()}
    for name, v in walls.items():
        out[name]["wall_unscaled"] = summarize(v, units[name])
    return out, env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="seeds of the untraced runs, e.g. 1-10")
    ap.add_argument("--traced-seeds", default="1-3", help="seeds of the traced runs")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, flush=True)

    doc = {"seconds": args.seconds, "seeds": seed_range(args.seeds),
           "traced_seeds": seed_range(args.traced_seeds), "workloads": {}}
    for w in args.workloads.split(","):
        e2e, env = collect(w, doc["seeds"], args.seconds, 0, log)
        layers, _ = collect(w, doc["traced_seeds"], args.seconds, 1, log)
        doc.setdefault("env", env)
        doc["workloads"][w] = {"end_to_end": e2e, "per_layer": layers}
        for name, s in e2e.items():
            log(f"{w} {name}: median {s['median']:.6g} {s['unit']}, spread {s.get('spread', 0):.4f}")
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
