"""Dense complex linear algebra with explicit contract checks.

Thin wrappers around LAPACK (through ``numpy.linalg``) for the small matrix
sizes this library runs at. Every function except ``qr_decompose_stack``,
whose one caller builds its input, validates its input and maps low-level
failures onto the library's exception types.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotHermitianError, ShapeError, SingularMatrixError

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10

#: Diagonal entries of R at or below this magnitude count as rank deficiency.
PIVOT_FLOOR = 1e-300


class EigenDecomposition(NamedTuple):
    """Hermitian eigensystem: ascending eigenvalues, matching unit eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("matrix entries must be finite")
    return arr


def matmul(a, b) -> np.ndarray:
    """Matrix product a @ b with conformability checking."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def qr_decompose(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of a square matrix.

    Returns ``(q, r)`` with ``q`` unitary and ``r`` upper triangular. Raises
    ``SingularMatrixError`` if any diagonal entry of ``r`` underflows the
    pivot floor, i.e. the input is numerically rank deficient.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"QR factorization here expects a square matrix, got {a.shape}")
    q, r = np.linalg.qr(a)
    if np.any(np.abs(np.diagonal(r)) <= PIVOT_FLOOR):
        raise SingularMatrixError("matrix is numerically rank deficient")
    return q, r


def qr_decompose_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR of every matrix in a finite (count, n, n) complex stack.

    The caller builds the stack, so its shape and finiteness are not checked
    again. Unlike ``qr_decompose`` it does not raise on rank deficiency, so
    that one bad matrix does not fail the stack: callers compare the
    diagonals of R with PIVOT_FLOOR themselves.
    """
    return np.linalg.qr(a)


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input must satisfy ``norm(h - h†) <= 1e-10 * norm(h)`` in Frobenius
    norm; the tiny antihermitian residue is symmetrized away before the solve.
    """
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"eigendecomposition expects a square matrix, got {h.shape}")
    # scaled by a power of two to parts below 1, exactly, the test's norms cannot overflow
    peak = max(np.abs(h.real).max(), np.abs(h.imag).max())
    unit = h * 2.0 ** -math.frexp(peak)[1] if peak > 1 else h
    if np.linalg.norm(unit - unit.conj().T) > HERMITICITY_RTOL * np.linalg.norm(unit):
        raise NotHermitianError("matrix is not Hermitian to working tolerance")
    # a huge finite entry may overflow here; the caller rejects non-finite eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (h + h.conj().T) / 2
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigenvalue iteration failed to converge") from exc
    return EigenDecomposition(w, v)

