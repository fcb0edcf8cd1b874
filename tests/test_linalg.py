import numpy as np
import pytest

from bures.coset import matmul
from bures.errors import NotHermitianError, ShapeError
from bures.measures import hermitian_eig

from conftest import random_hermitian


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


@pytest.mark.parametrize(
    "h",
    [
        np.diag([0.5, 0.5 + 1e308j]),  # ‖h‖ overflows: inf > 1e-10 * inf is False
        np.array([[1e200, 1e200j], [1e200j, 1e200]]),  # ‖h‖ and ‖h - h†‖ both overflow
    ],
    ids=["imaginary-1e308-diagonal", "skew-1e200"],
)
def test_hermitian_eig_rejects_non_hermitian_past_overflow(h):
    with pytest.raises(NotHermitianError):
        hermitian_eig(h)


def test_hermitian_eig_overflow_gives_no_warning():
    # the norms and (h + h†)/2 overflow; the eigenvalues come out non-finite for the caller
    # to reject, without a RuntimeWarning (which the suite's settings turn into an error)
    eig = hermitian_eig(np.array([[0.5, 1e308], [1e308, 0.5]]))
    assert not np.isfinite(eig.eigenvalues).all()


def test_hermitian_eig_rejects_rectangular():
    with pytest.raises(ShapeError):
        hermitian_eig(np.ones((2, 3)))


def test_trace_is_cyclic_under_matmul():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.trace(matmul(a, b)) == pytest.approx(np.trace(matmul(b, a)))
