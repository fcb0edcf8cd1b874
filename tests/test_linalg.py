import numpy as np
import pytest

from bures.errors import NotHermitianError, ShapeError
from bures.measures import hermitian_eig


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
