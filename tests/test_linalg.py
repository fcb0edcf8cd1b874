import numpy as np
import pytest

from bures.errors import NotHermitianError, ShapeError, SingularMatrixError
from bures.linalg import (
    ComplexMatrix,
    adjoint,
    hermitian_eig,
    matmul,
    qr_decompose,
)

from conftest import random_hermitian


def test_complex_matrix_alias_is_an_ndarray():
    assert ComplexMatrix is np.ndarray
    assert isinstance(matmul(np.eye(2), np.eye(2)), ComplexMatrix)


def naive_product(a, b, order):
    """Triple loop oracle; both index orders must agree with the library."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    if order == "ikj":
        for i in range(a.shape[0]):
            for k in range(a.shape[1]):
                for j in range(b.shape[1]):
                    out[i, j] += a[i, k] * b[k, j]
    else:
        for i in range(a.shape[0]):
            for j in range(b.shape[1]):
                for k in range(a.shape[1]):
                    out[i, j] += a[i, k] * b[k, j]
    return out


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), a), a)


def test_matmul_rotation_squares_to_minus_identity():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert matmul(rot, rot) == pytest.approx(-np.eye(2))


@pytest.mark.parametrize("order", ["ikj", "ijk"])
def test_matmul_matches_naive_loop(order):
    rng = np.random.default_rng(42)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert matmul(a, b) == pytest.approx(naive_product(a, b, order), abs=1e-13)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(np.eye(2), np.eye(3))


def test_adjoint_fixed_cases():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(adjoint(sym), sym)
    single = np.array([[0.0, 1j], [0.0, 0.0]])
    assert np.array_equal(adjoint(single), np.array([[0.0, 0.0], [-1j, 0.0]]))


def test_adjoint_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(adjoint(adjoint(a)), a)


def test_adjoint_reverses_products():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert adjoint(matmul(a, b)) == pytest.approx(matmul(adjoint(b), adjoint(a)))


def test_qr_identity():
    q, r = qr_decompose(np.eye(3))
    assert matmul(q, r) == pytest.approx(np.eye(3))
    assert np.abs(np.diagonal(r)) == pytest.approx(np.ones(3))


def test_qr_diagonal_input():
    q, r = qr_decompose(np.diag([2.0, 3.0]))
    assert np.abs(np.diagonal(r)) == pytest.approx([2.0, 3.0])
    assert matmul(q, adjoint(q)) == pytest.approx(np.eye(2), abs=1e-14)


def test_qr_reconstructs_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, r = qr_decompose(a)
        assert matmul(q, r) == pytest.approx(a, abs=1e-12)
        assert matmul(adjoint(q), q) == pytest.approx(np.eye(4), abs=1e-13)
        assert np.tril(r, -1) == pytest.approx(np.zeros((4, 4)), abs=1e-13)


def test_qr_singular_raises():
    a = np.array([[1.0, 0.0], [1.0, 0.0]])  # zero second column after projection
    with pytest.raises(SingularMatrixError):
        qr_decompose(a)


def test_qr_rejects_rectangular():
    with pytest.raises(ShapeError):
        qr_decompose(np.ones((2, 3)))


def test_hermitian_eig_diagonal():
    eig = hermitian_eig(np.diag([0.5, 0.125, 0.375]))
    assert eig.eigenvalues == pytest.approx([0.125, 0.375, 0.5])
    # eigenvectors permute the standard basis
    assert np.abs(eig.eigenvectors) == pytest.approx(
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    )


def test_hermitian_eig_exchange_matrix():
    eig = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert eig.eigenvalues == pytest.approx([-1.0, 1.0])


def test_hermitian_eig_recovers_planted_eigenvalues():
    rng = np.random.default_rng(12)
    planted = np.sort(rng.uniform(-1, 1, size=4))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(g)
    h = (u * planted) @ u.conj().T
    eig = hermitian_eig(h)
    assert eig.eigenvalues == pytest.approx(planted, abs=1e-12)


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h = random_hermitian(rng, 5)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert (v * w) @ v.conj().T == pytest.approx(h, abs=1e-12)
        assert v.conj().T @ v == pytest.approx(np.eye(5), abs=1e-13)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eig_rejects_rectangular():
    with pytest.raises(ShapeError):
        hermitian_eig(np.ones((2, 3)))


def test_trace_is_cyclic_under_matmul():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.trace(matmul(a, b)) == pytest.approx(np.trace(matmul(b, a)))
