import numpy as np
import pytest

import bures.sampling
from bures.coset import BALL_EDGE_TOL, BallPoint, FlagChart
from bures.errors import NotHermitianError, ShapeError
from bures.measures import Spectrum
from bures.sampling import (
    BLOCK_BYTES,
    RngStream,
    StateBatch,
    _draw_charts,
    batch_sample,
    coset_ladder,
    sample_ball,
    sample_flag_chart,
    sample_haar_unitary,
    sample_interior_point,
    sample_state_coset,
    sample_state_haar,
    state_from_chart,
)
from bures.stats import ks_two_sample

from conftest import one_sample_ks


# -------------------------------------------------------------------- streams


def test_rng_stream_is_reproducible():
    a = RngStream(123, 4).standard_normal(16)
    b = RngStream(123, 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_indices():
    a = RngStream(123, 0).standard_normal(16)
    b = RngStream(123, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_rng_stream_accepts_negative_seed():
    stream = RngStream(-1)
    assert stream.seed == 2**64 - 1
    stream.standard_normal(4)


# ---------------------------------------------------------------- ball draws


def test_sample_ball_rejects_odd_dimension():
    with pytest.raises(ShapeError):
        sample_ball(3, RngStream(0))


def test_sample_ball_stays_inside():
    rng = RngStream(1)
    for _ in range(500):
        assert sample_ball(4, rng).radius_sq <= 1.0


def test_sample_ball_radius_law():
    # |x| has CDF t^dim on the unit ball
    dim = 4
    rng = RngStream(2)
    radii = np.array([np.sqrt(sample_ball(dim, rng).radius_sq) for _ in range(100000)])
    stat = one_sample_ks(radii, lambda t: t**dim)
    assert stat < 0.01


def test_sample_ball_coordinates_are_centered():
    dim = 4
    rng = RngStream(3)
    coords = np.array([sample_ball(dim, rng).coords for _ in range(100000)])
    # E[x_i^2] = 1/(dim + 2), so a 4 sigma band for the mean is tight
    band = 4 * np.sqrt(1.0 / (dim + 2) / coords.shape[0])
    assert np.all(np.abs(coords.mean(axis=0)) < band)


def test_sample_ball_is_deterministic():
    a = sample_ball(6, RngStream(9, 7))
    b = sample_ball(6, RngStream(9, 7))
    assert np.array_equal(a.coords, b.coords)


def test_sample_interior_point_honors_margin():
    rng = RngStream(4)
    for _ in range(500):
        assert sample_interior_point(4, rng).radius_sq <= 1.0 - 1e-2


# --------------------------------------------------------------- Haar draws


def test_haar_unitary_is_unitary():
    rng = RngStream(5)
    for _ in range(1000):
        u = sample_haar_unitary(5, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) < 1e-12


def test_haar_unitary_entry_law():
    # |U_11|^2 follows Beta(1, N-1): CDF 1 - (1-t)^(N-1)
    n = 4
    rng = RngStream(6)
    entries = np.array([abs(sample_haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(10000)])
    stat = one_sample_ks(entries, lambda t: 1.0 - (1.0 - t) ** (n - 1))
    assert stat < 0.02


def test_haar_unitary_left_invariance():
    # multiplying by a fixed unitary must not move the entry distribution
    fixed, _ = np.linalg.qr(
        RngStream(77).complex_normal((4, 4))
    )
    rng_a = RngStream(7)
    rng_b = RngStream(8)
    plain = [sample_haar_unitary(4, rng_a)[0, 0].real for _ in range(1000)]
    pushed = [(fixed @ sample_haar_unitary(4, rng_b))[0, 0].real for _ in range(1000)]
    assert ks_two_sample(plain, pushed).passed


def test_haar_unitary_is_deterministic():
    a = sample_haar_unitary(3, RngStream(11, 2))
    b = sample_haar_unitary(3, RngStream(11, 2))
    assert np.array_equal(a, b)


# -------------------------------------------------------------- state draws


def test_haar_state_preserves_spectrum(spectrum3):
    rng = RngStream(12)
    for _ in range(25):
        record = sample_state_haar(spectrum3, rng)
        eigs = np.linalg.eigvalsh(record.rho.matrix)[::-1]
        assert eigs == pytest.approx(spectrum3.values, abs=1e-12)
        assert abs(np.trace(record.rho.matrix) - 1.0) < 1e-12
        assert record.method == "haar"


def test_coset_state_preserves_spectrum(spectrum4):
    rng = RngStream(13)
    for _ in range(25):
        record = sample_state_coset(spectrum4, rng)
        eigs = np.linalg.eigvalsh(record.rho.matrix)[::-1]
        assert eigs == pytest.approx(spectrum4.values, abs=1e-12)
        assert record.method == "coset"


def test_record_observables_match_matrix(spectrum3):
    record = sample_state_coset(spectrum3, RngStream(14))
    for j in range(1, 4):
        assert record.observables[f"rho_{j}{j}"] == record.rho.matrix[j - 1, j - 1].real


def test_zero_chart_gives_the_diagonal_model(spectrum3):
    chart = FlagChart((BallPoint.zero(2), BallPoint.zero(4)))
    rho = state_from_chart(spectrum3, chart)
    assert np.array_equal(rho.matrix, np.diag(spectrum3.values[::-1]))


def test_methods_agree_on_all_diagonals(spectrum3):
    # same unitary ensemble reached through two very different routes
    haar = batch_sample("haar", spectrum3, 1000, 1000)
    coset = batch_sample("coset", spectrum3, 1000, 1001)
    for j in (1, 2, 3):
        label = f"rho_{j}{j}"
        result = ks_two_sample(haar.diagonals[:, j - 1], coset.diagonals[:, j - 1])
        assert result.passed, f"{label}: D={result.statistic:.4f}"


def test_pure_state_marginal_law():
    # rank-one states from the reduced ladder: (rho)_33 has CDF 1 - (1-t)^2
    s = Spectrum([1.0, 0.0, 0.0])
    records = batch_sample("coset", s, 2000, 23)
    values = records.diagonals[:, 2]
    stat = one_sample_ks(values, lambda t: 1.0 - (1.0 - t) ** 2)
    assert stat < 1.6276 / np.sqrt(len(values))


def test_haar_pure_state_marginal_law():
    # for a rank-one state, (rho)_11 is a squared Haar column entry
    s = Spectrum([1.0, 0.0, 0.0])
    rng = RngStream(31)
    values = np.array(
        [sample_state_haar(s, rng).rho.matrix[0, 0].real for _ in range(1000)]
    )
    stat = one_sample_ks(values, lambda t: 1.0 - (1.0 - t) ** 2)
    assert stat < 1.6276 / np.sqrt(values.size)


# ----------------------------------------------------------------- patterns


def test_pattern_for_spectrum():
    assert coset_ladder(Spectrum([0.5, 0.375, 0.125])) == (2, 4)
    assert coset_ladder(Spectrum([0.7, 0.3, 0.0, 0.0])) == (4, 6)
    assert coset_ladder(Spectrum([1.0, 0.0, 0.0])) == (4,)


def test_sample_flag_chart_follows_pattern():
    chart = sample_flag_chart(Spectrum([0.7, 0.3, 0.0, 0.0]), RngStream(15))
    assert chart.dims == (4, 6)


def test_coset_ladder_of_repeated_eigenvalues():
    # repeated nonzero eigenvalues are charted by the ladder of their zero block
    rng = RngStream(16)
    assert sample_flag_chart(Spectrum([0.4, 0.4, 0.2]), rng).dims == (2, 4)
    assert sample_flag_chart(Spectrum([0.5, 0.5]), rng).dims == (2,)
    assert sample_flag_chart(Spectrum([0.5, 0.5, 0.0, 0.0]), rng).dims == (4, 6)


# ------------------------------------------------------------------ batches


def test_batch_sample_is_reproducible(spectrum3):
    a = batch_sample("coset", spectrum3, 8, 99)
    b = batch_sample("coset", spectrum3, 8, 99)
    for ma, mb in zip(a.matrices, b.matrices):
        assert np.array_equal(ma, mb)
    assert list(a.indices) == list(range(8))


def test_batch_sample_seeds_are_independent(spectrum3):
    a = batch_sample("haar", spectrum3, 2, 101)
    b = batch_sample("haar", spectrum3, 2, 102)
    assert not np.array_equal(a.matrices[0], b.matrices[0])


def test_batch_sample_disjoint_seeds_agree(spectrum3):
    # two fresh coset batches are draws from one distribution
    a = batch_sample("coset", spectrum3, 500, 70)
    b = batch_sample("coset", spectrum3, 500, 71)
    result = ks_two_sample(a.diagonals[:, 2], b.diagonals[:, 2])
    assert result.passed


def test_batch_sample_validation(spectrum3):
    with pytest.raises(ValueError):
        batch_sample("coset", spectrum3, 0, 1)
    with pytest.raises(ValueError):
        batch_sample("bogus", spectrum3, 1, 1)


def _entry(j, k, change, record=1900):
    """Edit of a stack: entry (j, k) of ``record`` becomes change(old entry)."""

    def edit(m):
        m[record, j, k] = change(m[record, j, k])

    return edit


def _both(*edits):
    def edit(m):
        for each in edits:
            each(m)

    return edit


@pytest.mark.parametrize(
    "edit, error",
    [
        (_entry(0, 1, lambda z: complex(np.nan, z.imag)), ShapeError),
        # a mirror pair equal to its conjugate, but infinite
        (_both(_entry(1, 2, lambda z: complex(np.inf, -np.inf)), _entry(2, 1, lambda z: complex(np.inf, np.inf))),
         ShapeError),
        (_entry(2, 2, lambda z: -np.inf), ShapeError),
        (_entry(1, 0, lambda z: complex(np.nextafter(z.real, 1.0), z.imag)), NotHermitianError),
        (_entry(2, 1, lambda z: complex(z.real, 2 * z.imag)), NotHermitianError),
        (_entry(1, 1, lambda z: complex(z.real, 1e-300)), NotHermitianError),
        # in one check block the first failing record wins, not the first failing check
        (_both(_entry(2, 1, lambda z: complex(z.real, 2 * z.imag)), _entry(0, 0, lambda z: np.nan, record=1950)),
         NotHermitianError),
    ],
    ids=[
        "nan", "inf-pair", "minus-inf-diagonal", "mirror-ulp-off", "mirror-im-doubled", "diagonal-im",
        "first-record-wins",
    ],
)
def test_state_batch_rejects_non_finite_or_non_hermitian_stacks(spectrum3, edit, error):
    # 2000 N=3 states: record 1900 lies in the second check block
    batch = batch_sample("haar", spectrum3, 2000, 3)
    matrices = batch.matrices.copy()
    edit(matrices)
    with pytest.raises(error, match="^record 1900: "):
        StateBatch("haar", 3, spectrum3, matrices)


# ------------------------------------------------- batch path vs scalar oracle


@pytest.mark.parametrize("n_levels, zero_block", [(2, 0), (3, 0), (5, 0), (3, 2), (4, 2), (10, 3)])
def test_batch_chart_coords_match_scalar_draws(n_levels, zero_block):
    # distinct nonzero eigenvalues followed by a zero block
    values = np.zeros(n_levels)
    values[: n_levels - zero_block] = np.arange(n_levels - zero_block, 0, -1)
    spectrum = Spectrum(values / values.sum())
    coords = _draw_charts(RngStream(17), coset_ladder(spectrum), 0, 40)
    # every layer of every row is a finite point of its ball
    r2 = np.add.reduceat(coords * coords, np.cumsum((0,) + coset_ladder(spectrum)[:-1]), axis=1)
    assert np.isfinite(coords).all() and (r2 <= 1.0 + BALL_EDGE_TOL).all()
    for i, row in enumerate(coords):
        chart = sample_flag_chart(spectrum, RngStream(17, i))
        assert np.array_equal(row, np.concatenate([layer.coords for layer in chart.layers]))


def test_rekeyed_stream_matches_a_fresh_one():
    rng = RngStream(5, 0)
    rng.standard_normal(3)
    for index in (1, 7, 2**40):
        rng.rekey(index)
        fresh = RngStream(5, index)
        assert rng.stream_index == fresh.stream_index
        assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))
        assert rng.uniform() == fresh.uniform()


def scalar_states(method, spectrum, seed, count):
    out = []
    for i in range(count):
        rng = RngStream(seed, i)
        if method == "haar":
            out.append(sample_state_haar(spectrum, rng).rho.matrix)
        else:
            out.append(sample_state_coset(spectrum, rng).rho.matrix)
    return np.array(out)


@pytest.mark.parametrize("method", ["coset", "haar"])
@pytest.mark.parametrize(
    "values",
    [
        [0.5, 0.375, 0.125],
        [0.35, 0.25, 0.2, 0.15, 0.05],
        [0.7, 0.3, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.4, 0.4, 0.2],
        [0.5, 0.5, 0.0, 0.0],
    ],
)
def test_batch_states_match_scalar_samplers(method, values):
    spectrum = Spectrum(values)
    batch = batch_sample(method, spectrum, 60, 8)
    expected = scalar_states(method, spectrum, 8, 60)
    assert batch.method == method and batch.seed == 8 and len(batch) == 60
    assert np.max(np.abs(batch.matrices - expected)) <= 1e-13
    assert np.array_equal(batch.diagonals, np.diagonal(batch.matrices, axis1=1, axis2=2).real)


@pytest.mark.parametrize("method", ["coset", "haar"])
def test_batch_count_prefix(method, spectrum4):
    short = batch_sample(method, spectrum4, 5, 31)
    long = batch_sample(method, spectrum4, 7, 31)
    assert np.array_equal(long.matrices[:5], short.matrices)
    assert np.array_equal(long.diagonals[:5], short.diagonals)


@pytest.mark.parametrize("method", ["coset", "haar"])
def test_batch_spanning_several_blocks_matches_oracle(method):
    n = 100
    values = np.linspace(2.0, 1.0, n)
    spectrum = Spectrum(values / values.sum())
    per_block = BLOCK_BYTES // (16 * n * n)
    count = 2 * per_block + 2
    batch = batch_sample(method, spectrum, count, 4)
    assert np.max(np.abs(batch.matrices - scalar_states(method, spectrum, 4, count))) <= 1e-13


def test_haar_batch_takes_the_scalar_fallback_on_rank_deficient_qr(spectrum3, monkeypatch):
    real_qr = bures.sampling.qr_decompose_stack
    real_scalar = bures.sampling.sample_haar_unitary
    fallback_streams = []

    def deficient_qr(stack):
        q, r = real_qr(stack)
        r[2, 1, 1] = 0.0
        return q, r

    def spy(n_levels, rng):
        fallback_streams.append(rng.stream_index)
        return real_scalar(n_levels, rng)

    monkeypatch.setattr(bures.sampling, "qr_decompose_stack", deficient_qr)
    monkeypatch.setattr(bures.sampling, "sample_haar_unitary", spy)
    batch = batch_sample("haar", spectrum3, 4, 12)
    assert fallback_streams == [2]
    monkeypatch.undo()
    expected = scalar_states("haar", spectrum3, 12, 4)
    assert np.max(np.abs(batch.matrices - expected)) <= 1e-13
