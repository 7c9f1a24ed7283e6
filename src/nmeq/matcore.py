"""Dense Hermitian matrix primitives used by the solvers and condition checks.

All routines work on square real or complex ndarrays.  ``as_matrix`` keeps a
matrix real (float64) unless an entry has a nonzero imaginary part, so real
data runs in real arithmetic throughout.  Matrices that are nominally
Hermitian are re-symmetrized before use so that rounding drift from earlier
arithmetic cannot accumulate across a computation; a sum or difference of
re-symmetrized matrices is already exactly Hermitian and is used as it is.

Five public functions validate their input: ``check_hermitian``, ``herm_eig``
and ``herm_power`` (through it), ``spectral_norm`` (finite entries) and
``spectral_radius`` (through ``as_matrix``).  On matrices they built Hermitian
themselves, the library's own callers use the trusted kernel, which checks
nothing, positivity included: ``trusted_eigh``, ``trusted_lambda_min``,
``eig_compose`` (the one ``V diag(w) V*``), ``eig_power`` and ``congruence``
(``M* f(X) M`` from the eigendecomposition of ``X``).  Norms of library-built
matrices are numpy's own.  The one positivity rule, ``is_pd_spectrum``, takes a
spectrum in ascending order, as ``eigh`` and ``eigvalsh`` return it, and reads
only its two ends.  Powers of a spectrum from outside the library go through the
one gate, ``checked_eig_power``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ATOL_HERM",
    "PD_TOL",
    "as_matrix",
    "hermitian_part",
    "check_hermitian",
    "trusted_eigh",
    "trusted_lambda_min",
    "eig_compose",
    "eig_power",
    "checked_eig_power",
    "congruence",
    "is_pd_spectrum",
    "herm_eig",
    "herm_power",
    "spectral_norm",
    "spectral_radius",
]

# Hermiticity drift allowed on inputs, relative to 1 + ||M||.
ATOL_HERM = 1e-12
# Positive definiteness margin, scaled by the largest |eigenvalue|.
PD_TOL = 1e-12


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return ``M`` as a square ndarray: float64 when no entry
    has a nonzero imaginary part, complex128 otherwise."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError(f"{name}: dimension must be at least 1")
    if A.dtype.kind in "biuf":
        A = A.astype(np.float64, copy=False)
    else:
        A = A.astype(np.complex128, copy=False)
        if not np.any(A.imag):
            A = np.ascontiguousarray(A.real)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name}: entries must be finite")
    return A


def hermitian_part(M) -> np.ndarray:
    """Return (M + M*)/2, as M/2 + (M/2)*: halving first (exact unless an entry of
    M/2 is subnormal) keeps the sum in range where M + M* would overflow."""
    H = 0.5 * np.asarray(M)
    return H + H.conj().T


def check_hermitian(M, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is Hermitian up to drift and return it symmetrized."""
    A = as_matrix(M, name)
    D = A - A.conj().T
    # with zero drift the test below cannot fail, so its two SVDs are skipped
    if D.any():
        drift = np.linalg.norm(D, 2)
        if drift > ATOL_HERM * (1.0 + np.linalg.norm(A, 2)):
            raise ValueError(f"{name}: not Hermitian (drift {drift:.3e})")
    return hermitian_part(A)


def trusted_eigh(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a matrix the library built Hermitian itself.

    Symmetrizes and runs one ``eigh``, without the drift check of
    ``check_hermitian``.  Returns ``(values, vectors)``: values real and
    ascending, the matching eigenvectors as the columns of a unitary matrix.
    """
    values, vectors = np.linalg.eigh(hermitian_part(M))
    return values, vectors


def trusted_lambda_min(M) -> float:
    """Smallest eigenvalue of a library-built Hermitian matrix, by one ``eigvalsh``."""
    return float(np.linalg.eigvalsh(hermitian_part(M))[0])


def herm_eig(M) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, vectors)`` of a Hermitian matrix, values ascending."""
    return trusted_eigh(check_hermitian(M))


def is_pd_spectrum(values: np.ndarray) -> bool:
    """True iff ascending Hermitian eigenvalues are positive definite: the
    smallest exceeds PD_TOL times the largest modulus.

    Only the two ends are read.  When the smallest is positive, the largest
    modulus is the last value.  When it is not, the comparison fails either way:
    PD_TOL times the last value is >= 0 when the last value is, and >= the last
    value, so >= the smallest, when it is negative.  A NaN end fails it too."""
    return bool(values[0] > PD_TOL * values[-1])


def herm_power(M, r: float) -> np.ndarray:
    """Principal power ``M^r`` of a Hermitian matrix.

    For non-integer or negative exponents the matrix must be positive
    definite; for nonnegative integer exponents any Hermitian matrix is
    accepted.  The result is Hermitian (re-symmetrized), and positive
    definite whenever the input is.
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError(f"exponent must be finite, got {r}")
    return checked_eig_power(*herm_eig(M), r)


def checked_eig_power(values: np.ndarray, vectors: np.ndarray, r: float) -> np.ndarray:
    """``eig_power`` of a spectrum from outside the library: non-integer and
    negative exponents need values that pass ``is_pd_spectrum``."""
    if not (r.is_integer() and r >= 0) and not is_pd_spectrum(values):
        raise ValueError(
            f"matrix must be positive definite for exponent {r} "
            f"(lambda_min = {values[0]:.3e})"
        )
    return eig_power(values, vectors, r)


def eig_power(values: np.ndarray, vectors: np.ndarray, r: float) -> np.ndarray:
    """``V diag(values^r) V*``, re-symmetrized, from a Hermitian eigendecomposition
    the library has already checked or clamped: trusted, so it checks nothing."""
    return hermitian_part(eig_compose(vectors, values ** float(r)))


def eig_compose(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``V diag(w) V*`` for a unitary ``V``, not re-symmetrized."""
    return (vectors * weights) @ vectors.conj().T


def congruence(vectors: np.ndarray, weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M* V diag(w) V* M`` for a unitary ``V``, not re-symmetrized.

    Computed as ``W* diag(w) W`` with ``W = V* M``: two matrix products
    instead of the three of forming ``V diag(w) V*`` first.  This is how
    ``A* f(X) A`` is built from the eigendecomposition of ``X``.
    """
    W = vectors.conj().T @ M
    return (W.conj().T * weights) @ W


def spectral_norm(M) -> float:
    """Largest singular value."""
    A = np.asarray(M)
    if not np.all(np.isfinite(A)):
        raise ValueError("spectral_norm: entries must be finite")
    return float(np.linalg.norm(A, 2))


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus of a general square matrix."""
    A = as_matrix(M, "spectral_radius")
    return float(np.max(np.abs(np.linalg.eigvals(A))))
