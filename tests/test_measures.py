import math

import numpy as np
import pytest
from scipy.linalg import sqrtm

from bures.errors import (
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
    RankDeficiencyError,
    ShapeError,
)
from bures.measures import (
    DensityMatrix,
    Spectrum,
    ball_volume,
    bures_quadratic,
    eigenvalue_density,
    fidelity,
    flag_volume,
    flag_volume_sz,
    hermitian_eig,
    lambda_factor,
)
from bures.sampling import RngStream, sample_haar_unitary

from conftest import one_sample_ks, random_hermitian, sample_state_haar


# ------------------------------------------------------------- eigensolver


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


# ------------------------------------------------------------------- spectra


def test_spectrum_sorts_descending():
    s = Spectrum([0.125, 0.5, 0.375])
    assert s.values == pytest.approx([0.5, 0.375, 0.125])
    assert s.values[::-1] == pytest.approx([0.125, 0.375, 0.5])
    assert s.n_levels == 3


def test_spectrum_validates_sum():
    with pytest.raises(InvalidStateError):
        Spectrum([0.6, 0.41])
    Spectrum([0.6, 0.4])  # fine


def test_spectrum_rejects_negative_but_clamps_noise():
    with pytest.raises(InvalidStateError):
        Spectrum([1.5, -0.5])
    s = Spectrum([1.0 + 1e-13, -1e-13])
    assert s.values[1] == 0.0
    assert s.num_zero() == 1


def test_spectrum_num_zero():
    assert Spectrum([0.7, 0.3, 0.0, 0.0]).num_zero() == 2
    assert Spectrum([1.0, 0.0, 0.0]).num_zero() == 2


# ----------------------------------------------------------- density matrices


def test_density_matrix_from_diagonal():
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.375, 0.125]))
    assert rho.spectrum.values == pytest.approx([0.5, 0.375, 0.125])
    assert rho.n_levels == 3


def test_density_matrix_rejects_bad_input():
    with pytest.raises(NotHermitianError):
        DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvalidStateError):
        DensityMatrix.from_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(InvalidStateError):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5]))


def test_density_matrix_from_eigensystem_round_trip():
    rng = np.random.default_rng(31)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u, _ = np.linalg.qr(g)
    s = Spectrum([0.5, 0.375, 0.125])
    rho = DensityMatrix.from_eigensystem(s, u)
    again = DensityMatrix.from_matrix(rho.matrix)
    assert again.spectrum.values == pytest.approx(s.values, abs=1e-13)
    assert (rho.basis * s.values) @ rho.basis.conj().T == pytest.approx(rho.matrix, abs=1e-12)


def test_density_matrix_rejects_non_unitary_basis():
    s = Spectrum([0.5, 0.5])
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2) / 2, s, np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DensityMatrix(np.diag([0.5, 0.5 + 1e308j]), Spectrum([0.5, 0.5]), np.eye(2)),
         NotHermitianError, "not Hermitian"),
        (lambda: DensityMatrix.from_matrix(np.diag([0.5, 0.5 + 1e308j])), NotHermitianError, "not Hermitian"),
        (lambda: DensityMatrix(np.diag([1e308, 1e308]), Spectrum([0.5, 0.5]), np.eye(2)), InvalidStateError, "trace"),
        # basis† basis overflows to inf - inf = NaN, which a plain "> tol" test lets through
        (lambda: DensityMatrix(np.eye(2) / 2, Spectrum([0.5, 0.5]), np.array([[1e200, -1e200], [1e200, 1e200]])),
         InvalidStateError, "eigenbasis is not unitary"),
        (lambda: Spectrum([1e308, 1e308, 0.0]), InvalidStateError, "sum to inf"),
    ],
    ids=["imaginary-1e308-diagonal", "from-matrix-imaginary-1e308", "trace-overflow", "basis-1e200", "spectrum-sum"],
)
def test_per_record_constructors_reject_overflow_without_warning(build, error, message):
    # the suite's settings turn a RuntimeWarning into an error, so each row also asserts none
    with pytest.raises(error, match=message):
        build()


# ------------------------------------------------------------------- volumes


def test_ball_volume_values():
    assert ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-15)
    assert ball_volume(6) == pytest.approx(math.pi**3 / 6, rel=1e-15)


def test_ball_volume_validation():
    with pytest.raises(ValueError):
        ball_volume(0)


def test_flag_volume_values():
    assert flag_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert flag_volume(3) == pytest.approx(math.pi**3 / 2, rel=1e-14)
    assert flag_volume(4) == pytest.approx(math.pi**6 / 12, rel=1e-14)


@pytest.mark.parametrize("n_levels", range(2, 9))
def test_flag_volume_is_product_of_ball_volumes(n_levels):
    product = math.prod(ball_volume(2 * k) for k in range(1, n_levels))
    assert flag_volume(n_levels) == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("n_levels", range(2, 9))
def test_flag_volume_sz_ratio(n_levels):
    ratio = flag_volume_sz(n_levels) / flag_volume(n_levels)
    assert ratio == pytest.approx(2.0 ** (n_levels * (n_levels - 1) / 2), rel=1e-12)


def test_flag_volume_sz_value():
    assert flag_volume_sz(3) == pytest.approx(4 * math.pi**3, rel=1e-14)


def test_flag_volume_validation():
    with pytest.raises(ValueError):
        flag_volume(1)
    with pytest.raises(ValueError):
        flag_volume_sz(1)


# ---------------------------------------------------------- eigenvalue parts


def test_lambda_factor_values():
    assert lambda_factor(0.3, 0.3) == 0.0
    assert lambda_factor(0.375, 0.125) == pytest.approx(0.125)
    assert lambda_factor(1.0, 0.0) == 1.0
    assert lambda_factor(0.0, 1.0) == 1.0


def test_lambda_factor_errors():
    with pytest.raises(DegenerateSpectrumError):
        lambda_factor(0.0, 0.0)
    with pytest.raises(ValueError):
        lambda_factor(-0.1, 0.5)


def test_eigenvalue_density_two_levels():
    s = Spectrum([0.75, 0.25])
    assert eigenvalue_density(s) == pytest.approx(1 / math.sqrt(3), rel=1e-14)


def test_eigenvalue_density_three_levels_term_by_term():
    s = Spectrum([0.5, 0.375, 0.125])
    expected = (
        lambda_factor(0.5, 0.375)
        * lambda_factor(0.5, 0.125)
        * lambda_factor(0.375, 0.125)
        / (2.0 * math.sqrt(0.5 * 0.375 * 0.125))
    )
    assert eigenvalue_density(s) == pytest.approx(expected, rel=1e-14)


def test_eigenvalue_density_vanishes_near_degeneracy():
    eps = 1e-6
    assert eigenvalue_density(Spectrum([0.5 + eps, 0.5 - eps])) < 1e-10


def test_eigenvalue_density_errors():
    # a repeated eigenvalue makes a lambda_factor, and so the density, exactly 0
    assert eigenvalue_density(Spectrum([0.5, 0.5])) == 0.0
    with pytest.raises(DegenerateSpectrumError):
        eigenvalue_density(Spectrum([1.0, 0.0]))


#: Gauss-Legendre rule on [-1, 1]: open nodes, so eigenvalue_density is never
#: asked for a zero or a repeated eigenvalue at a panel end.
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _gauss(f, lo, hi):
    """Integral of f over [lo, hi] by GAUSS_NODES."""
    half = (hi - lo) / 2.0
    return half * sum(w * f(lo + half * (x + 1.0)) for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS))


def _panel_cdf(density, breaks, panels=8):
    """Normalized CDF of ``density`` on [breaks[0], breaks[-1]], smooth between consecutive breaks.

    Each break interval is cut into ``panels`` panels. On a panel the CDF
    integrates the Legendre interpolant of the density through GAUSS_NODES,
    which at the panel end is the Gauss rule itself.
    """
    edges = np.concatenate([np.linspace(a, b, panels + 1)[:-1] for a, b in zip(breaks, breaks[1:])] + [breaks[-1:]])
    antiderivatives, totals = [], [0.0]
    for a, b in zip(edges, edges[1:]):
        half = (b - a) / 2.0
        values = [density(a + half * (x + 1.0)) for x in GAUSS_NODES]
        fit = np.polynomial.legendre.legfit(GAUSS_NODES, values, len(GAUSS_NODES) - 1)
        antiderivatives.append(np.polynomial.legendre.legint(fit, lbnd=-1.0) * half)
        totals.append(totals[-1] + np.polynomial.legendre.legval(1.0, antiderivatives[-1]))

    def cdf(t):
        k = min(max(int(np.searchsorted(edges, t, side="right")) - 1, 0), len(antiderivatives) - 1)
        u = 2.0 * (t - edges[k]) / (edges[k + 1] - edges[k]) - 1.0
        return (totals[k] + np.polynomial.legendre.legval(u, antiderivatives[k])) / totals[-1]

    return cdf


def largest_eigenvalue_cdf(n_levels):
    """CDF of the largest eigenvalue under the normalized ``eigenvalue_density``, N = 2 or 3.

    The smallest eigenvalue is written s^2, which turns its 1/sqrt(lambda_N)
    singularity into a smooth integrand. At N=2 the CDF is integrated in s.
    At N=3 lambda_2 is integrated out in s for each lambda_1; the lambda_1
    range splits at 1/2, where the lower end of the s range leaves zero.
    """
    if n_levels == 2:
        in_s = _panel_cdf(lambda s: eigenvalue_density(Spectrum([1.0 - s * s, s * s])) * 2.0 * s, [0.0, math.sqrt(0.5)])
        return lambda t: 1.0 - in_s(math.sqrt(1.0 - t))

    def marginal(l1):
        def along_s(s):
            return eigenvalue_density(Spectrum([l1, 1.0 - l1 - s * s, s * s])) * 2.0 * s

        return _gauss(along_s, math.sqrt(max(0.0, 1.0 - 2.0 * l1)), math.sqrt((1.0 - l1) / 2.0))

    return _panel_cdf(marginal, [1.0 / 3.0, 0.5, 1.0])


def osz_largest_eigenvalues(n_levels, count):
    """Largest eigenvalues of (1+U)GG†(1+U)†/tr, U Haar and G Ginibre: Bures-distributed states.

    Osipov, Sommers and Zyczkowski, J. Phys. A 43 (2010) 055302. Record i
    draws U, then G, from stream (2010 + N, i).
    """
    largest = []
    for i in range(count):
        rng = RngStream(2010 + n_levels, i)
        u = sample_haar_unitary(n_levels, rng)
        g = rng.complex_normal((n_levels, n_levels))
        a = (np.eye(n_levels) + u) @ g
        rho = a @ a.conj().T
        largest.append(np.linalg.eigvalsh(rho / np.trace(rho).real)[-1])
    return largest


def test_largest_eigenvalue_cdf_two_levels_closed_form():
    # with x = 2 lambda - 1 the density is proportional to x^2 / sqrt(1 - x^2)
    cdf = largest_eigenvalue_cdf(2)
    for t in np.linspace(0.5, 1.0, 101):
        x = 2.0 * t - 1.0
        closed = 2.0 / math.pi * (math.asin(x) - x * math.sqrt(1.0 - x * x))
        assert abs(cdf(t) - closed) <= 1e-6


@pytest.mark.parametrize("n_levels", [2, 3])
def test_eigenvalue_density_matches_bures_states(n_levels):
    # one-sample KS at the 0.1% level against the quadrature-normalized density
    largest = osz_largest_eigenvalues(n_levels, 2000)
    assert one_sample_ks(largest, largest_eigenvalue_cdf(n_levels)) < 1.949 / math.sqrt(2000)


# ------------------------------------------------------------ quadratic form


def paper_like_state():
    return DensityMatrix.from_matrix(np.diag([0.5, 0.375, 0.125]))


def test_bures_quadratic_diagonal_closed_form():
    rho = paper_like_state()
    eps = 1e-3
    drho = np.diag([0.0, eps, -eps])
    # (1/2)(eps^2/(2*3/8) + eps^2/(2*1/8)) = (8/3) eps^2
    assert bures_quadratic(rho, drho) == pytest.approx(8.0 / 3.0 * eps**2, rel=1e-12)


def test_bures_quadratic_off_diagonal_closed_form():
    rho = paper_like_state()
    eps = 1e-3
    drho = np.zeros((3, 3), dtype=complex)
    drho[1, 2] = drho[2, 1] = eps
    assert bures_quadratic(rho, drho) == pytest.approx(eps**2 / 0.5, rel=1e-12)


def test_bures_quadratic_zero_perturbation():
    assert bures_quadratic(paper_like_state(), np.zeros((3, 3))) == 0.0


def test_bures_quadratic_input_validation():
    rho = paper_like_state()
    with pytest.raises(NotHermitianError):
        bures_quadratic(rho, np.triu(np.ones((3, 3)), 1))
    with pytest.raises(ShapeError):
        bures_quadratic(rho, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "lower, expected",
    [(1e300 * (1 + 1e-9), NotHermitianError), (1e300, math.inf)],
    ids=["skew-1e300", "hermitian-1e300"],
)
def test_bures_quadratic_huge_perturbation(lower, expected):
    # ‖drho‖ overflows; neither case may warn, since the suite turns a RuntimeWarning into an error
    rho = DensityMatrix.from_matrix(np.diag([0.5, 0.3, 0.2]))
    drho = np.zeros((3, 3))
    drho[0, 1], drho[1, 0] = 1e300, lower
    if expected is NotHermitianError:
        with pytest.raises(NotHermitianError):
            bures_quadratic(rho, drho)
    else:
        assert bures_quadratic(rho, drho) == expected


def test_bures_quadratic_kernel_terms():
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
    off = np.array([[0.0, 1e-3], [1e-3, 0.0]])
    assert bures_quadratic(rho, off) == pytest.approx(1e-6, rel=1e-12)
    with pytest.raises(RankDeficiencyError):
        bures_quadratic(rho, np.diag([1e-3, -1e-3]))


def test_bures_quadratic_unitary_invariance():
    rng = np.random.default_rng(47)
    rho = paper_like_state()
    h = random_hermitian(rng, 3) * 1e-3
    base = bures_quadratic(rho, h)
    for _ in range(5):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rotated = DensityMatrix.from_matrix(u @ rho.matrix @ u.conj().T)
        assert bures_quadratic(rotated, u @ h @ u.conj().T) == pytest.approx(base, rel=1e-10)


def metric_vs_fidelity_gap(rho, h, eps):
    quad = bures_quadratic(rho, eps * h)
    shifted = DensityMatrix.from_matrix(rho.matrix + eps * h)
    through_fidelity = 2.0 * (1.0 - math.sqrt(fidelity(rho, shifted)))
    return abs(through_fidelity - quad) / quad


def test_bures_quadratic_matches_fidelity_expansion():
    rng = np.random.default_rng(53)
    rho = sample_state_haar(Spectrum([0.5, 0.375, 0.125]), RngStream(9)).rho
    h = random_hermitian(rng, 3)
    h -= np.trace(h).real * np.eye(3) / 3
    h /= np.linalg.norm(h)
    gap = metric_vs_fidelity_gap(rho, h, 1e-4)
    assert gap < 1e-3
    assert metric_vs_fidelity_gap(rho, h, 5e-5) < gap


# ------------------------------------------------------------------ fidelity


def test_fidelity_with_itself():
    rho = paper_like_state()
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure_states():
    a = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
    b = DensityMatrix.from_matrix(np.diag([0.0, 1.0]))
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_commuting_closed_form():
    p, q = 0.7, 0.2
    a = DensityMatrix.from_matrix(np.diag([p, 1 - p]))
    b = DensityMatrix.from_matrix(np.diag([q, 1 - q]))
    expected = (math.sqrt(p * q) + math.sqrt((1 - p) * (1 - q))) ** 2
    assert fidelity(a, b) == pytest.approx(expected, rel=1e-12)


def test_fidelity_against_sqrtm_oracle():
    for seed in range(5):
        a = sample_state_haar(Spectrum([0.5, 0.375, 0.125]), RngStream(seed)).rho
        b = sample_state_haar(Spectrum([0.6, 0.3, 0.1]), RngStream(seed, 1)).rho
        root = sqrtm(a.matrix)
        inner = sqrtm(root @ b.matrix @ root)
        expected = float(np.trace(inner).real) ** 2
        assert fidelity(a, b) == pytest.approx(expected, rel=1e-10)


def test_fidelity_is_symmetric_and_bounded():
    for seed in range(5):
        a = sample_state_haar(Spectrum([0.5, 0.375, 0.125]), RngStream(seed, 2)).rho
        b = sample_state_haar(Spectrum([0.9, 0.1, 0.0]), RngStream(seed, 3)).rho
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0
        # the matrix square root is not Lipschitz at the zero eigenvalue of b,
        # so swapping the arguments agrees only to sqrt(machine eps)
        assert fidelity(b, a) == pytest.approx(f, rel=1e-7)


def test_fidelity_dimension_mismatch():
    a = DensityMatrix.from_matrix(np.diag([1.0, 0.0]))
    b = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(ShapeError):
        fidelity(a, b)
