"""Dense complex linear algebra with explicit contract checks.

Thin wrappers around LAPACK (through ``numpy.linalg``) for the small matrix
sizes this library runs at. Every function validates its input and maps
low-level failures onto the library's exception types.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotHermitianError, ShapeError, SingularMatrixError

#: Dense complex matrix carrier. Functions below coerce their inputs through
#: ``as_complex_matrix`` so the alias's invariants (2-D, finite) hold on entry.
ComplexMatrix = np.ndarray

#: Relative Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-10

#: Diagonal entries of R at or below this magnitude count as rank deficiency.
PIVOT_FLOOR = 1e-300


class EigenDecomposition(NamedTuple):
    """Hermitian eigensystem: ascending eigenvalues, matching unit eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: ComplexMatrix


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("matrix entries must be finite")
    return arr


def matmul(a, b) -> ComplexMatrix:
    """Matrix product a @ b with conformability checking."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def adjoint(a) -> ComplexMatrix:
    """Conjugate transpose, returned as a fresh contiguous array."""
    return np.ascontiguousarray(as_complex_matrix(a).conj().T)


def qr_decompose(a) -> tuple[ComplexMatrix, ComplexMatrix]:
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
    """Householder QR of every matrix in a finite (count, n, n) stack.

    Unlike ``qr_decompose`` it does not raise on rank deficiency, so that one
    bad matrix does not fail the stack: callers compare the diagonals of R
    with PIVOT_FLOOR themselves.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or min(a.shape) < 1:
        raise ShapeError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeError("matrix entries must be finite")
    return np.linalg.qr(a)


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input must satisfy ``norm(h - h†) <= 1e-10 * norm(h)`` in Frobenius
    norm; the tiny antihermitian residue is symmetrized away before the solve.
    """
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"eigendecomposition expects a square matrix, got {h.shape}")
    dag = h.conj().T
    if np.linalg.norm(h - dag) > HERMITICITY_RTOL * np.linalg.norm(h):
        raise NotHermitianError("matrix is not Hermitian to working tolerance")
    try:
        w, v = np.linalg.eigh((h + dag) / 2)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("eigenvalue iteration failed to converge") from exc
    return EigenDecomposition(w, v)

