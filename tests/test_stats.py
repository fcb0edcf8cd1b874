import numpy as np
import pytest
from scipy import stats as scipy_stats

from bures.errors import ShapeError
from bures.stats import KsResult, cumulative_pairs, ks_two_sample


# ----------------------------------------------------------------------- ks


def test_ks_identical_samples():
    x = np.linspace(0, 1, 100)
    result = ks_two_sample(x, x)
    assert result.statistic == 0.0
    assert result.passed


def test_ks_disjoint_samples():
    result = ks_two_sample(np.arange(100.0), np.arange(100.0) + 500.0)
    assert result.statistic == 1.0
    assert not result.passed


def test_ks_detects_squared_uniform():
    # u vs u^2: the true CDF gap peaks at 1/4
    rng = np.random.default_rng(17)
    u = rng.uniform(size=1000)
    v = rng.uniform(size=1000) ** 2
    result = ks_two_sample(u, v)
    assert result.statistic > 0.2
    assert not result.passed


def test_ks_is_symmetric():
    rng = np.random.default_rng(18)
    a = rng.standard_normal(400)
    b = rng.standard_normal(300) + 0.1
    assert ks_two_sample(a, b).statistic == ks_two_sample(b, a).statistic


def test_ks_invariant_under_monotone_maps():
    rng = np.random.default_rng(19)
    a = rng.uniform(size=500)
    b = rng.uniform(size=500)
    before = ks_two_sample(a, b).statistic
    after = ks_two_sample(np.exp(a), np.exp(b)).statistic
    assert before == pytest.approx(after, abs=1e-15)


def test_ks_matches_scipy():
    rng = np.random.default_rng(20)
    for _ in range(10):
        a = rng.standard_normal(rng.integers(50, 400))
        b = rng.standard_normal(rng.integers(50, 400)) * 1.2
        ours = ks_two_sample(a, b).statistic
        ref = scipy_stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_critical_value_at_thousand_samples():
    result = KsResult(0.05, 1000, 1000)
    assert result.critical_001 == pytest.approx(1.628 * np.sqrt(2 / 1000))
    assert result.critical_001 == pytest.approx(0.0728, abs=1e-4)
    assert result.passed
    assert not KsResult(0.08, 1000, 1000).passed


def test_ks_rejects_empty_input():
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


# -------------------------------------------------------------------- pairs


def test_cumulative_pairs_identical():
    x = np.array([0.3, 0.1, 0.2])
    pairs = cumulative_pairs(x, x)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(pairs[:, 0], [0.1, 0.2, 0.3])


def test_cumulative_pairs_scaled():
    pairs = cumulative_pairs([3.0, 1.0, 2.0], [30.0, 10.0, 20.0])
    assert np.array_equal(pairs, [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])


def test_cumulative_pairs_monotone_map_stays_monotone():
    rng = np.random.default_rng(22)
    a = rng.uniform(size=100)
    pairs = cumulative_pairs(a, np.sqrt(a))
    assert np.array_equal(pairs[:, 1], np.sqrt(pairs[:, 0]))


def test_cumulative_pairs_length_mismatch():
    with pytest.raises(ShapeError):
        cumulative_pairs([1.0, 2.0], [1.0])
