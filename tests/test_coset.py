import math

import numpy as np
import pytest
from scipy.linalg import expm

from bures.coset import (
    EULER_ANGLE_RANGES,
    BallPoint,
    EulerChart,
    FlagChart,
    _jacobian_matrix,
    b_to_spherical,
    coset_jacobian_det,
    coset_unitary,
    euler_coset_volume,
    euler_density_u3,
    flag_unitary,
)
from bures.errors import BoundaryError, OutOfBallError, ShapeError, UnsupportedPatternError
from bures.measures import Spectrum, ball_volume
from bures.sampling import RngStream, coset_ladder, sample_ball, sample_interior_point, state_from_chart


# ---------------------------------------------------------------- ball points


def test_ball_point_requires_even_dimension():
    with pytest.raises(ShapeError):
        BallPoint(np.array([0.1, 0.2, 0.3]))


def test_ball_point_rejects_outside():
    with pytest.raises(OutOfBallError):
        BallPoint(np.array([1.0, 0.1]))


def test_ball_point_zero_and_pairing():
    p = BallPoint.zero(6)
    assert p.dim == 6
    assert p.radius_sq == 0.0
    q = BallPoint(np.array([0.1, 0.2, 0.3, 0.4]))
    assert q.complex_column() == pytest.approx(np.array([0.1 + 0.2j, 0.3 + 0.4j]))


# -------------------------------------------------------------- coset blocks


def test_coset_unitary_center_is_identity():
    out = coset_unitary(BallPoint.zero(4), 3)
    assert np.array_equal(out, np.eye(3))


def test_coset_unitary_full_rotation():
    # |X| = 1 swings the two levels entirely
    out = coset_unitary(BallPoint(np.array([1.0, 0.0])), 2)
    assert out == pytest.approx(np.array([[0.0, 1.0], [-1.0, 0.0]]), abs=1e-15)


def test_coset_unitary_block_structure():
    r = 0.6
    out = coset_unitary(BallPoint(np.array([r, 0.0, 0.0, 0.0])), 3)
    s = math.sqrt(1 - r * r)
    assert out[0, 2] == pytest.approx(r)
    assert out[2, 0] == pytest.approx(-r)
    assert out[2, 2] == pytest.approx(s)
    assert out[0, 0] == pytest.approx(1 - r * r / (1 + s))
    assert out[1, 1] == 1.0


def test_coset_unitary_embeds_in_larger_space():
    point = BallPoint(np.array([0.3, -0.2]))
    small = coset_unitary(point, 2)
    large = coset_unitary(point, 4)
    assert large[:2, :2] == pytest.approx(small)
    assert np.array_equal(large[2:, 2:], np.eye(2))
    assert np.all(large[2:, :2] == 0) and np.all(large[:2, 2:] == 0)


def test_coset_unitary_is_unitary():
    rng = RngStream(101)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            point = sample_ball(2 * n, rng)
            u = coset_unitary(point, n + 1)
            assert u.conj().T @ u == pytest.approx(np.eye(n + 1), abs=1e-13)


def test_coset_unitary_top_index_must_match_ball():
    # B^4 parametrizes a block on 3 levels, which 2 levels cannot hold
    with pytest.raises(ShapeError):
        coset_unitary(BallPoint.zero(4), 2)


# --------------------------------------------------------------- flag charts


def test_flag_chart_validates_ladder(spectrum3):
    with pytest.raises(ShapeError):
        # a chart without the dim-4 layer is a 2-level chart
        state_from_chart(spectrum3, FlagChart((BallPoint.zero(2),)))
    with pytest.raises(ShapeError):
        FlagChart((BallPoint.zero(2), BallPoint.zero(6)))  # a gap in the ladder
    with pytest.raises(ShapeError):
        FlagChart((BallPoint.zero(4), BallPoint.zero(2)))
    with pytest.raises(ShapeError):
        FlagChart(())
    chart = FlagChart((BallPoint.zero(2), BallPoint.zero(4)))
    assert chart.dims == (2, 4)
    assert chart.n_levels == 3


def test_flag_unitary_center_is_identity():
    chart = FlagChart(tuple(BallPoint.zero(d) for d in (2, 4, 6)))
    assert np.array_equal(flag_unitary(chart), np.eye(4))


def test_flag_unitary_single_layer_matches_coset():
    point = BallPoint(np.array([0.4, 0.1]))
    chart = FlagChart((point,))
    assert np.array_equal(flag_unitary(chart), coset_unitary(point, 2))


def test_flag_unitary_orders_largest_block_leftmost():
    rng = RngStream(55)
    p2 = sample_ball(2, rng)
    p4 = sample_ball(4, rng)
    chart = FlagChart((p2, p4))
    direct = coset_unitary(p4, 3) @ coset_unitary(p2, 3)
    assert flag_unitary(chart) == pytest.approx(direct, abs=1e-15)


def test_flag_unitary_is_unitary():
    rng = RngStream(56)
    for n_levels in (2, 3, 4, 5, 6):
        for _ in range(20):
            layers = tuple(sample_ball(d, rng) for d in range(2, 2 * n_levels, 2))
            u = flag_unitary(FlagChart(layers))
            assert u.conj().T @ u == pytest.approx(np.eye(n_levels), abs=1e-12)


# ----------------------------------------------------- exponential-map radial


def test_b_to_spherical_zero():
    p = b_to_spherical(np.zeros(2, dtype=complex))
    assert np.array_equal(p.coords, np.zeros(4))


def test_b_to_spherical_quarter_turn():
    p = b_to_spherical(np.array([math.pi / 2, 0.0], dtype=complex))
    assert p.coords == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_b_to_spherical_half_turn_returns_to_center():
    p = b_to_spherical(np.array([math.pi], dtype=complex))
    assert p.coords == pytest.approx([0.0, 0.0], abs=1e-15)


def test_b_to_spherical_matches_matrix_exponential():
    # The coset block built from the mapped point equals exp of the
    # antihermitian generator carrying B in its last column.
    rng = np.random.default_rng(202)
    for n in (1, 2, 3):
        for _ in range(10):
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b *= rng.uniform(0, 1.4) / np.linalg.norm(b)
            gen = np.zeros((n + 1, n + 1), dtype=complex)
            gen[:n, n] = b
            gen[n, :n] = -b.conj()
            expected = expm(gen)
            got = coset_unitary(b_to_spherical(b), n + 1)
            assert got == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------------ jacobian


def test_jacobian_det_exact_at_center():
    assert coset_jacobian_det(BallPoint.zero(2)) == 1.0
    assert coset_jacobian_det(BallPoint.zero(6)) == 1.0


def test_jacobian_matrix_radial_form():
    # at (r, 0, 0, 0) the Jacobian is diagonal with entries
    # 1/sqrt(1-r^2), sqrt(1-r^2), 1, 1
    r = 0.5
    jac = _jacobian_matrix(BallPoint(np.array([r, 0.0, 0.0, 0.0])), 1e-5)
    s = math.sqrt(1 - r * r)
    assert np.diagonal(jac) == pytest.approx([1 / s, s, 1.0, 1.0], abs=1e-9)
    off = jac - np.diag(np.diagonal(jac))
    assert np.max(np.abs(off)) < 1e-9
    assert np.linalg.det(jac) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobian_det_is_one_in_the_interior(n):
    rng = RngStream(77, n)
    worst = 0.0
    for _ in range(100):
        point = sample_interior_point(2 * n, rng)
        worst = max(worst, abs(coset_jacobian_det(point) - 1.0))
    assert worst < 1e-5


def test_jacobian_det_rotation_invariant():
    rng = np.random.default_rng(88)
    point = BallPoint(np.array([0.4, -0.2, 0.1, 0.3]))
    base = coset_jacobian_det(point)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = BallPoint(q @ point.coords)
        assert coset_jacobian_det(rotated) == pytest.approx(base, abs=1e-9)


def test_jacobian_det_refuses_boundary():
    r = math.sqrt(1 - 1e-7)
    with pytest.raises(BoundaryError):
        coset_jacobian_det(BallPoint(np.array([r, 0.0])))
    # interior by margin, but the perturbed point would leave the ball
    r = math.sqrt(1 - 5e-6)
    with pytest.raises(BoundaryError):
        coset_jacobian_det(BallPoint(np.array([r, 0.0])), step=1e-5)


def test_jacobian_det_step_validation():
    with pytest.raises(ValueError):
        coset_jacobian_det(BallPoint.zero(2), step=1e-2)
    with pytest.raises(ValueError):
        coset_jacobian_det(BallPoint.zero(2), step=1e-9)


# ------------------------------------------------------- degeneracy ladders


def test_coset_layers_generic():
    # generic spectra, one zero eigenvalue included, use the full ladder
    assert coset_ladder(Spectrum([0.5, 0.375, 0.125])) == (2, 4)
    assert coset_ladder(Spectrum([0.35, 0.25, 0.2, 0.15, 0.05])) == (2, 4, 6, 8)
    assert coset_ladder(Spectrum([0.5, 0.3, 0.2, 0.0])) == (2, 4, 6)


def test_coset_layers_zero_blocks():
    # an m-fold zero eigenvalue, m >= 2, starts the ladder at B^(2m)
    assert coset_ladder(Spectrum([1.0, 0.0, 0.0])) == (4,)
    assert coset_ladder(Spectrum([0.7, 0.3, 0.0, 0.0])) == (4, 6)
    assert coset_ladder(Spectrum([0.6, 0.4, 0.0, 0.0, 0.0])) == (6, 8)


def test_degeneracy_pattern_validation():
    with pytest.raises(ShapeError):
        coset_ladder(Spectrum([1.0]))
    with pytest.raises(UnsupportedPatternError):
        coset_ladder(Spectrum([0.4, 0.4, 0.2]))


def test_generic_ladder_carries_full_flag_dimension():
    for n_levels in range(2, 9):
        values = np.arange(1.0, n_levels + 1)
        dims = coset_ladder(Spectrum(values / values.sum()))
        assert sum(dims) == n_levels * (n_levels - 1)


# ------------------------------------------------------------- euler charts


def test_euler_density_values():
    assert euler_density_u3(0.0, 0.3) == 0.0
    assert euler_density_u3(math.pi / 4, math.pi / 4) == pytest.approx(0.25)


def test_euler_density_nonnegative_on_ranges():
    phi3 = np.linspace(*EULER_ANGLE_RANGES[0], 41)
    phi5 = np.linspace(*EULER_ANGLE_RANGES[2], 41)
    dens = euler_density_u3(phi3[:, None], phi5[None, :])
    assert np.all(dens >= 0)


def test_euler_volume_matches_four_ball():
    vol = euler_coset_volume()
    assert vol == pytest.approx(ball_volume(4), rel=1e-12)
    assert vol == pytest.approx(math.pi**2 / 2, rel=1e-12)


def test_euler_volume_quadrature_converged():
    assert euler_coset_volume(32) == pytest.approx(euler_coset_volume(64), rel=1e-12)


def test_euler_volume_halved_phi6():
    ranges = list(EULER_ANGLE_RANGES)
    ranges[3] = (0.0, math.pi)
    assert euler_coset_volume(64, ranges) == pytest.approx(math.pi**2 / 4, rel=1e-12)


def test_euler_chart_validates_ranges():
    chart = EulerChart(0.3, 1.0, 0.7, 3.0)
    assert chart.density() == pytest.approx(euler_density_u3(0.3, 0.7))
    with pytest.raises(ShapeError):
        EulerChart(2.0, 1.0, 0.7, 3.0)  # phi3 beyond pi/2
