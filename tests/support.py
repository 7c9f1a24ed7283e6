"""Shared oracles and random generators for the test suite.

The eigenvalue oracles here deliberately avoid the library's own
eigendecomposition path: characteristic polynomial coefficients come from the
trace-based Faddeev-LeVerrier recurrence and roots from numpy's
companion-matrix root finder.
"""

from __future__ import annotations

import numpy as np


def char_poly_coeffs(A) -> np.ndarray:
    """Monic characteristic polynomial coefficients of a square matrix.

    Faddeev-LeVerrier recurrence: only matrix products and traces, no
    eigendecomposition.  Returns [1, c1, ..., cn] with
    det(lam*I - A) = lam^n + c1 lam^(n-1) + ... + cn.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def char_poly_roots(A) -> np.ndarray:
    """Eigenvalues of ``A`` as roots of its characteristic polynomial."""
    return np.roots(char_poly_coeffs(A))


def eigvals_oracle(A) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending, via char_poly_roots."""
    roots = char_poly_roots(A)
    return np.sort(roots.real)


def spectral_radius_oracle(A) -> float:
    return float(np.max(np.abs(char_poly_roots(A))))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_hpd(rng: np.random.Generator, n: int, lo: float = 0.1, hi: float = 10.0) -> np.ndarray:
    """Random HPD matrix with eigenvalues log-uniform in [lo, hi]."""
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    U = random_unitary(rng, n)
    M = (U * eigs) @ U.conj().T
    return 0.5 * (M + M.conj().T)


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (Z + Z.conj().T)


def near_singular_coupled_problem(seed: int = 0):
    """Coefficients (A, B, Q, s, t, p) of a coupled-scheme instance whose
    A = U diag(1, 0.5, 2e-12) V passes the nonsingularity check.

    With seed 0, lambda_min(A Q^-1 A*) rounds to a tiny negative number, so
    the lower starting scalar a clamps to 0.  With seed 2, a = 5.96e-18 is
    positive rounding noise while lambda_min(A* A) clamps to 0."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    A = U @ np.diag([1.0, 0.5, 2e-12]) @ V
    return A, 0.1 * np.eye(3), 5.0 * np.eye(3), 3.0, 4.0, 1.0
