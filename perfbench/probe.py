"""One cold start: import nmeq, then run a workload's first op.

Run as ``python3 perfbench/probe.py <workload> <seed> <workdir>`` in a fresh
interpreter; prints one JSON line with the import time, the first-op time
and the correctness verdict of that op.  run.py starts several of these and
reports the median of import + first op as ``setup_s``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import nmeq.cli  # noqa: F401  (imports numpy and the whole package)

    t1 = time.perf_counter()
    from workloads import make_workload

    wl = make_workload(workload, seed, workdir)
    try:
        inp = wl.op_input(0)
        t2 = time.perf_counter()
        result = wl.run_op(inp)
        t3 = time.perf_counter()
        error = wl.check(inp, result)
    finally:
        wl.close()
    print(json.dumps({"import_s": t1 - t0, "op_s": t3 - t2, "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
