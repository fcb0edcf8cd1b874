"""Bulk Philox words and their draws against numpy's own Philox generator.

numpy's Philox4x64-10 is a bijection on the counter for a fixed key, so the
counter whose next block holds chosen words can be found by running the
rounds backwards. A generator set to that counter then draws from exactly
those words, which lets every ziggurat layer and every fallback edge be
checked against numpy itself.
"""

import random

import numpy as np
import pytest

import bures.sampling
from bures._ziggurat import KI, WI
from bures.measures import Spectrum
from bures.philox import _mulhilo, normals, philox_words, uniforms
from bures.sampling import (
    BULK_MAX_NORMALS,
    RngStream,
    _draw_charts,
    batch_sample,
    coset_ladder,
    sample_ball,
)

from conftest import sample_flag_chart

MASK = 2**64 - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
INVERSES = tuple(pow(m, -1, 2**64) for m in MULTIPLIERS)

SEEDS = (0, 7, 12345, 2**63 + 5, 2**64 - 1)

KEY = (2024, 11)

#: Words drawn after a probe word. Non-zero on purpose: a tail draw (layer 0)
#: on words 1 and 2 accepts at once (a small first uniform, a large second),
#: and a rejected-layer draw accepts on word 1. With zero fillers the tail
#: rejects, loops into the next block and ends at buffer position 1, like a
#: draw that took one word.
FILLERS = (1 << 11, MASK, 12345)


def philox_block_inverse(key, words):
    """The counter from which Philox4x64-10 under ``key`` outputs ``words``."""
    keys = []
    k0, k1 = key
    for _ in range(10):
        keys.append((k0, k1))
        k0, k1 = (k0 + KEY_STEPS[0]) & MASK, (k1 + KEY_STEPS[1]) & MASK
    c = list(words)
    for k0, k1 in reversed(keys):
        c0 = (c[3] * INVERSES[0]) & MASK
        c2 = (c[1] * INVERSES[1]) & MASK
        c = [c0, c[0] ^ ((MULTIPLIERS[1] * c2) >> 64) ^ k0, c2, c[2] ^ ((MULTIPLIERS[0] * c0) >> 64) ^ k1]
    return c


def emitting(words, key=KEY):
    """An RngStream whose next four words are ``words``: numpy steps the counter before each block."""
    rng = RngStream(*key)
    counter = sum(c << (64 * i) for i, c in enumerate(philox_block_inverse(key, words)))
    counter = (counter - 1) % 2**256
    rng._generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([(counter >> (64 * i)) & MASK for i in range(4)], dtype=np.uint64),
            "key": np.array(key, dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def normal_word(idx, rabs, sign=0):
    return idx | (sign << 8) | (rabs << 9)


def numpy_normal(word):
    """(numpy's standard_normal from ``word`` then FILLERS, whether it took that one word)."""
    rng = emitting((word, *FILLERS))
    value = rng.standard_normal()
    return value, rng._generator.bit_generator.state["buffer_pos"] == 1


def numpy_words(seed, index, count):
    return np.random.Philox(key=np.array([seed, index], dtype=np.uint64)).random_raw(count)


#: Edge operands of the 128-bit product: limb boundaries, the double mantissa
#: bound, the largest uint64, the largest power of 5 float text takes and the
#: Philox multipliers.
MULHILO_EDGES = (0, 1, 2**32 - 1, 2**32, 2**53 - 1, 2**64 - 1, 5**27, *MULTIPLIERS)


def test_mulhilo_is_the_exact_128_bit_product():
    rng = random.Random(25)
    # half the random pairs are full width, half of random bit widths
    widths = [(64, 64)] * 5_000 + [(rng.randint(1, 64), rng.randint(1, 64)) for _ in range(5_000)]
    pairs = [(rng.getrandbits(w), rng.getrandbits(v)) for w, v in widths]
    pairs += [(m, x) for m in MULHILO_EDGES for x in MULHILO_EDGES]
    # operands past 2^53, where a product that assumed a double's mantissa would wrap
    assert sum(m > 2**53 and x > 2**53 for m, x in pairs) > 4_000
    m, x = (np.array(column, dtype=np.uint64) for column in zip(*pairs))
    hi, lo = _mulhilo(m, x)
    assert [divmod(a * b, 2**64) for a, b in pairs] == list(zip(hi.tolist(), lo.tolist()))
    # a scalar multiplier, as the Philox rounds pass it
    hi, lo = _mulhilo(np.uint64(MULTIPLIERS[0]), x)
    assert [divmod(MULTIPLIERS[0] * b, 2**64) for _, b in pairs] == list(zip(hi.tolist(), lo.tolist()))


def test_inverse_finds_the_counter():
    rng = emitting((1, 2, 3, 4))
    assert rng._generator.bit_generator.random_raw(4).tolist() == [1, 2, 3, 4]


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_words_equal_numpy_streams(seed):
    words = philox_words(seed, 2**40 - 3, 2**40 + 3, 3)
    for row, index in zip(words, range(2**40 - 3, 2**40 + 3)):
        assert np.array_equal(row, numpy_words(seed, index, 12))
    first = philox_words(seed, 0, 5, 1)
    for index in range(5):
        assert np.array_equal(first[index], numpy_words(seed, index, 4))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_and_fast_normals_equal_numpy_draws(seed):
    words = philox_words(seed, 0, 200, 2)
    x, fast = normals(words)
    u = uniforms(words)
    for index in range(200):
        rng = RngStream(seed, index)
        assert np.array_equal(u[index], [rng.uniform() for _ in range(8)])
        taken = 8 if fast[index].all() else int(np.argmin(fast[index]))
        assert np.array_equal(RngStream(seed, index).standard_normal(taken), x[index, :taken])
    assert 0 < (~fast).sum() < 0.05 * fast.size


def test_ziggurat_tables_match_numpy_on_every_layer():
    assert len(WI) == len(KI) == 256
    for idx in range(256):
        value, _ = numpy_normal(normal_word(idx, 1))
        assert value == WI[idx], idx
        if KI[idx] > 0:
            assert numpy_normal(normal_word(idx, KI[idx] - 1))[1], idx
        if KI[idx] < 2**52:
            assert not numpy_normal(normal_word(idx, KI[idx]))[1], idx
    assert KI[0] == 0xEF33D8025EF6A and KI[1] == 0


def _edge_words():
    cases = []
    for sign in (0, 1):
        cases += [
            normal_word(0, KI[0] - 1, sign),  # last fast draw of the base layer
            normal_word(0, KI[0], sign),  # the tail beyond r
            normal_word(0, 2**52 - 1, sign),
            normal_word(1, 0, sign),  # layer 1 is never fast
            normal_word(1, 1, sign),
            normal_word(1, 2**52 - 1, sign),
            normal_word(2, 0, sign),  # a zero draw, on the fast path
            normal_word(2, KI[2] - 1, sign),
            normal_word(2, KI[2], sign),
            normal_word(128, KI[128] - 1, sign),
            normal_word(128, KI[128], sign),
            normal_word(255, KI[255] - 1, sign),
            normal_word(255, KI[255], sign),
        ]
    return cases


@pytest.mark.parametrize("word", _edge_words(), ids=lambda word: f"{word:#x}")
def test_normals_edges_equal_numpy_fed_the_same_word(word):
    (x,), (fast,) = normals(np.array([word], dtype=np.uint64))
    value, one_word = numpy_normal(word)
    assert fast == one_word
    if fast:
        assert np.array_equal(np.array(x).view(np.uint64), np.array(value).view(np.uint64))


def sample_chart_coords_row(seed, index):
    chart = sample_flag_chart(Spectrum([0.5, 0.3, 0.2]), RngStream(seed, index))
    return np.concatenate([layer.coords for layer in chart.layers])


def spy_rekeys(monkeypatch, crafted=None):
    """The stream indices ``RngStream.rekey`` is called with, in order.

    With ``crafted`` = (index, words), a re-key to that index goes on to
    emit ``words`` first, as a stream (seed, index) whose counter was set
    to them.
    """
    calls = []
    real = RngStream.rekey

    def rekey(self, index):
        calls.append(index)
        real(self, index)
        if crafted and index == crafted[0]:
            state = emitting(crafted[1], (self.seed, index))._generator.bit_generator.state
            self._generator.bit_generator.state = state

    monkeypatch.setattr(RngStream, "rekey", rekey)
    return calls


#: A zero B^2 layer: two fast draws of +0.0, then two fast draws numpy redraws the direction from.
ZERO_LAYER = (normal_word(2, 0), normal_word(2, 0), normal_word(3, 7), normal_word(4, 9, 1))


def test_an_all_zero_layer_leaves_the_bulk_path(monkeypatch):
    # N=3 coset records take 8 words: layer B^2 is words 0-2, layer B^4 words 3-7
    dims = (2, 4)
    real = bures.sampling.philox_words(3, 0, 3, 2)
    crafted = real.copy()
    crafted[1, 0:2] = ZERO_LAYER[:2]  # both B^2 normals are +0.0, fast draws
    crafted[2, 4] = normal_word(1, 5)  # a draw off the fast path in layer B^4
    monkeypatch.setattr(bures.sampling, "philox_words", lambda *args: crafted)
    rekeys = spy_rekeys(monkeypatch)
    coords = _draw_charts(RngStream(3), dims, 0, 3)
    # row 2 draws in place on its own stream; the assembly finds row 1's zero
    # layer and sample_ball redoes the row
    assert rekeys == [2, 1]
    monkeypatch.undo()
    for i in range(3):
        assert np.array_equal(coords[i], sample_chart_coords_row(3, i))
    # numpy, fed the zero layer, redraws the direction from the next two words
    point = sample_ball(2, emitting(ZERO_LAYER))
    direction = normals(np.array(ZERO_LAYER[2:], dtype=np.uint64))[0]
    assert np.allclose(point.coords / np.linalg.norm(point.coords), direction / np.linalg.norm(direction))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_a_per_record_row_with_a_zero_layer_is_redone(monkeypatch, seed):
    # N=8 coset records take 56 normals, above the bulk gate: every row draws in place
    spectrum = Spectrum([0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.04])
    dims = coset_ladder(spectrum)
    assert sum(dims) > BULK_MAX_NORMALS
    rekeys = spy_rekeys(monkeypatch, crafted=(1, ZERO_LAYER))
    coords = _draw_charts(RngStream(seed), dims, 0, 3)
    assert rekeys == [0, 1, 2, 1]
    assert np.isfinite(coords).all()
    monkeypatch.undo()
    crafted_chart = sample_flag_chart(spectrum, emitting(ZERO_LAYER, (seed, 1)))
    for i, chart in enumerate([sample_flag_chart(spectrum, RngStream(seed, 0)), crafted_chart,
                               sample_flag_chart(spectrum, RngStream(seed, 2))]):
        assert np.array_equal(coords[i], np.concatenate([layer.coords for layer in chart.layers]))


@pytest.mark.parametrize(
    "values",
    [[0.5, 0.3, 0.2], [0.35, 0.25, 0.2, 0.15, 0.05], [0.6, 0.4, 0.0, 0.0], [0.25, 0.2, 0.15, 0.14, 0.12, 0.1, 0.04]],
)
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_bulk_chart_coords_match_scalar_draws_with_fallbacks(values, seed):
    spectrum = Spectrum(values)
    dims = coset_ladder(spectrum)
    count = 2000
    coords = _draw_charts(RngStream(seed), dims, 0, count)
    _, fast = normals(philox_words(seed, 0, count, 12))
    normal_columns = np.concatenate([np.arange(lo, lo + dim) + layer for layer, (lo, dim) in
                                     enumerate(zip(np.cumsum((0,) + dims[:-1]), dims))])
    fallbacks = (~fast[:, normal_columns]).any(axis=1).sum()
    assert fallbacks >= 0.04 * count
    for i, row in enumerate(coords):
        chart = sample_flag_chart(spectrum, RngStream(seed, i))
        assert np.array_equal(row, np.concatenate([layer.coords for layer in chart.layers]))


@pytest.mark.parametrize("dim", [*range(2, 21), *range(22, 199, 2)])
def test_stacked_layer_norms_equal_ndarray_dot(dim):
    # _draw_charts squares a layer's norm by one stacked matmul over a column
    # slice of the block's rows; sample_ball takes ndarray.dot of the layer alone
    rows = 100_000 if dim <= 20 else 3_000
    words = np.random.default_rng(dim).integers(0, 2**64, size=(rows, dim), dtype=np.uint64)
    direction = normals(words)[0]
    per_row = np.fromiter(map(np.ndarray.dot, direction, direction), float, rows)
    block = np.zeros((rows, dim + 3))
    block[:, 1 : dim + 1] = direction
    for layer in (direction, block[:, 1 : dim + 1]):
        stacked = np.matmul(layer[:, None, :], layer[:, :, None])[:, 0, 0]
        assert stacked.dtype == per_row.dtype and stacked.tobytes() == per_row.tobytes()


# every Haar row draws in place on its own stream: the bit-for-bit check of
# that path at small N, where each row's draws are a single generator call
@pytest.mark.parametrize("n_levels", [2, 3, 4, 10])
@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_bulk_ginibre_stacks_match_scalar_draws(monkeypatch, n_levels, seed):
    stacks = []
    real_qr = bures.sampling.qr_decompose_stack

    def capture(z):
        stacks.append(z.copy())
        return real_qr(z)

    monkeypatch.setattr(bures.sampling, "qr_decompose_stack", capture)
    values = np.arange(n_levels, 0, -1.0)
    batch_sample("haar", Spectrum(values / values.sum()), 2000, seed)
    z = np.concatenate(stacks)
    assert len(z) == 2000
    for i in range(2000):
        assert np.array_equal(z[i], RngStream(seed, i).complex_normal((n_levels, n_levels)))


# coset records take the bulk path up to the gate; Haar records never do,
# under the gate or above it
@pytest.mark.parametrize(
    "method, values, under_gate",
    [
        ("coset", [0.25, 0.2, 0.15, 0.14, 0.12, 0.1, 0.04], True),  # 42 normals
        ("coset", [0.25, 0.2, 0.15, 0.12, 0.1, 0.08, 0.06, 0.04], False),  # 56 normals
        ("haar", [0.4, 0.3, 0.2, 0.1], True),  # 32 normals
        ("haar", [0.35, 0.25, 0.2, 0.15, 0.05], False),  # 50 normals
        ("haar", [0.6, 0.4], True),  # 8 normals
        ("haar", [0.5, 0.3, 0.2], True),  # 18 normals
    ],
)
def test_bulk_path_runs_up_to_the_draw_count_gate(monkeypatch, method, values, under_gate):
    calls = []

    def spy(name):
        real = getattr(bures.sampling, name)

        def call(*args):
            calls.append(name)
            return real(*args)

        return call

    for name in ("philox_words", "normals"):
        monkeypatch.setattr(bures.sampling, name, spy(name))
    batch_sample(method, Spectrum(values), 5, 1)
    n = len(values)
    normals_per_record = 2 * n * n if method == "haar" else n * (n - 1)
    assert (normals_per_record <= BULK_MAX_NORMALS) == under_gate
    bulk = method == "coset" and under_gate
    assert calls == (["philox_words", "normals"] if bulk else [])
