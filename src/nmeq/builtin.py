"""Bundled reference problems with known solutions.

Two 3x3 real instances, one per scheme, with the transformed-variable
solution Y, the lifted solution X, and the starting scalar each scheme was
run with.  Solutions are stored to 15 places after the point and reproduce
under the default tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import ProblemInstance

__all__ = ["BuiltinProblem", "example"]


@dataclass(frozen=True)
class BuiltinProblem:
    label: str
    instance: ProblemInstance
    alpha: float | None
    b_upper: float | None
    solution_Y: np.ndarray
    solution_X: np.ndarray
    lift_root: float


def example(which: int) -> BuiltinProblem:
    """Bundled problem 1 (fixed-point scheme) or 2 (coupled scheme)."""
    if which == 1:
        return _example_1()
    if which == 2:
        return _example_2()
    raise ValueError(f"unknown builtin problem {which}; choose 1 or 2")


def _example_1() -> BuiltinProblem:
    # s = 3 dominates: fixed-point scheme, maximal solution, alpha = 1
    A = np.array(
        [
            [0.02, -0.10, -0.02],
            [0.08, -0.10, 0.02],
            [-0.06, -0.12, 0.14],
        ]
    )
    B = np.array(
        [
            [-0.04, 0.010, -0.020],
            [0.05, 0.070, -0.013],
            [0.011, 0.090, 0.060],
        ]
    )
    Q = 2.0 * np.eye(3)
    inst = ProblemInstance(A, B, Q, 3.0, 2.0, 1.0)
    Y = np.array(
        [
            [1.990011507887876, -0.001460413784344, 0.003932548667216],
            [-0.001460413784344, 1.967817699120152, 0.007205717778742],
            [0.003932548667216, 0.007205717778742, 1.983761175394282],
        ]
    )
    X = np.array(
        [
            [1.257819473237711, -0.000309853059784, 0.000829790450201],
            [-0.000309853059784, 1.253124679713870, 0.001525655417243],
            [0.000829790450201, 0.001525655417243, 1.256499440822798],
        ]
    )
    return BuiltinProblem("builtin-1", inst, 1.0, None, Y, X, 3.0)


def _example_2() -> BuiltinProblem:
    # t = 4 dominates: coupled scheme, minimal solution, b = 1
    A = np.array(
        [
            [2.11, 0.01, 0.01],
            [-0.05, 1.98, -0.18],
            [0.10, 0.19, 2.38],
        ]
    )
    B = np.array(
        [
            [-0.09, 0.01, 0.01],
            [-0.01, -0.15, -0.09],
            [0.04, 0.10, -0.94],
        ]
    )
    Q = np.array(
        [
            [7.5, 0.0, 1.0],
            [0.0, 7.5, 1.0],
            [1.0, 1.0, 8.5],
        ]
    )
    inst = ProblemInstance(A, B, Q, 3.0, 4.0, 1.0)
    Y = np.array(
        [
            [0.678793416023482, 0.017053803392642, -0.094857343070291],
            [0.017053803392642, 0.622769611868454, -0.138376527663483],
            [-0.094857343070291, -0.138376527663483, 0.872777116839001],
        ]
    )
    X = np.array(
        [
            [0.906231149966594, 0.003723228318032, -0.028702574652700],
            [0.003723228318032, 0.884927869436603, -0.043501905340609],
            [-0.028702574652700, -0.043501905340609, 0.962538505271393],
        ]
    )
    return BuiltinProblem("builtin-2", inst, None, 1.0, Y, X, 4.0)
