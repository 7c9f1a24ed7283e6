"""A fixed reference computation, timed next to the ops to track machine speed.

On a shared virtual machine the speed of a core drifts by up to 2x over
seconds to minutes.  The benchmark therefore times fixed work that never
touches nmeq before and after every group of ops, and scales each op's wall
time by the geometric mean, over the reference parts the workload uses, of

    NOMINAL_S[part] / (mean of the two samples of that part around the group)

The parts are matched to the kind of work each workload does, because the
drift slows dense LAPACK calls and interpreted Python by different amounts.
The scaled times are milliseconds at the nominal speed; the raw wall times
are printed next to them.  The nominal constants were measured once on the
machine the baseline was recorded on (2 vCPUs, numpy 2.4.6, OpenBLAS 0.3.31,
one BLAS thread); they set the scale only and must never change, or every
recorded number would shift with them.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

# Nominal seconds of each part; see the module docstring.
NOMINAL_S = {
    "dense_c128": 0.0090,
    "dense_r64": 0.0040,
    "small": 0.0030,
    "python": 0.0025,
}


class Reference:
    """Times the chosen parts of a fixed computation that never calls nmeq.

    Parts: ``dense_c128`` is an eigh + svd of a complex 128x128 Hermitian
    matrix, ``dense_r64`` the same for three real 64x64 symmetric matrices,
    ``small`` is 96 eigh + norm calls on 4x4 matrices, and ``python`` is a
    JSON round trip through ``scratch``, string formatting and an argparse
    parse.  Each workload uses the parts that do its kind of work.
    """

    def __init__(self, scratch: str, parts):
        self._scratch = scratch
        self.parts = tuple(parts)
        rng = np.random.default_rng(1907)
        self._dense_c128 = _hermitian(rng, 128, complex)
        self._dense_r64 = [_hermitian(rng, 64, float) for _ in range(3)]
        small = [rng.standard_normal((4, 4)) for _ in range(8)]
        self._small = [S + S.T for S in small] * 12
        self._doc = {
            "rows": [{"id": i, "name": f"item{i}", "vals": [0.5 * i, 1.5 * i, str(i)]}
                     for i in range(300)]
        }

    def sample(self) -> tuple:
        """Seconds taken by each part, in the order of ``parts``."""
        out = []
        for part in self.parts:
            start = time.perf_counter()
            getattr(self, "_" + part + "_work")()
            out.append(time.perf_counter() - start)
        return tuple(out)

    def _dense_c128_work(self):
        np.linalg.eigh(self._dense_c128)
        np.linalg.svd(self._dense_c128)

    def _dense_r64_work(self):
        for M in self._dense_r64:
            np.linalg.eigh(M)
            np.linalg.svd(M)

    def _small_work(self):
        for S in self._small:
            _, V = np.linalg.eigh(S)
            np.linalg.norm(V @ S, 2)

    def _python_work(self):
        with open(self._scratch, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._doc))
        with open(self._scratch, encoding="utf-8") as fh:
            rows = json.loads(fh.read())["rows"]
        "".join(f"{r['name']}:{r['vals'][0]:.6g};" for r in rows)
        ap = argparse.ArgumentParser()
        sub = ap.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            p = sub.add_parser(name)
            p.add_argument("x", nargs="?")
            p.add_argument("--y", type=float)
        ap.parse_args(["b", "x", "--y", "2"])

    def close(self) -> None:
        if os.path.exists(self._scratch):
            os.remove(self._scratch)

    def scale(self, before, after) -> float:
        """Factor from wall time to time at the nominal speed."""
        ratio = 1.0
        for part, b, a in zip(self.parts, before, after):
            ratio *= NOMINAL_S[part] / (0.5 * (a + b))
        return ratio ** (1.0 / len(self.parts))


def _hermitian(rng, n: int, dtype) -> np.ndarray:
    M = rng.standard_normal((n, n))
    if dtype is complex:
        M = M + 1j * rng.standard_normal((n, n))
    return M + M.conj().T
