"""numpy's Philox draws for a stack of streams at once.

Philox4x64-10 is a pure function of (key, counter) (Salmon et al., "Random
numbers: as easy as 1, 2, 3", SC'11), so the words a ``np.random.Philox``
keyed (seed, index) produces can be computed for many indices in one pass of
uint64 arithmetic. A fresh stream's block b (words 4b..4b+3) comes from
counter (b+1, 0, 0, 0): numpy increments the counter before each block.

``uniforms`` and ``normals`` turn words into the doubles numpy's Generator
draws from them: ``random()`` uses one word, and ``standard_normal()`` uses
one word as long as the draw stays on its ziggurat's fast path, which
``normals`` reports per draw. A draw off the fast path takes more words, so
everything after it in that stream is no longer computed here.
"""

import numpy as np

from ._ziggurat import KI, WI

_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_KEY_STEPS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_ROUNDS = 10

_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)

_WI = np.array(WI)
_KI = np.array(KI, dtype=np.uint64)


def _mulhilo(m, x):
    """High and low words of the exact 128-bit products m * x of any uint64 operands, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _HALF
    x_lo, x_hi = x & _LOW32, x >> _HALF
    low_low = m_lo * x_lo
    mid = m_hi * x_lo + (low_low >> _HALF)
    cross = m_lo * x_hi + (mid & _LOW32)
    return m_hi * x_hi + (mid >> _HALF) + (cross >> _HALF), (cross << _HALF) | (low_low & _LOW32)


def philox_words(seed: int, start: int, stop: int, blocks: int) -> np.ndarray:
    """(stop - start, 4 * blocks) first words of the Philox streams keyed (seed, i), i in start..stop-1.

    Row i equals ``np.random.Philox(key=[seed, start + i]).random_raw(4 * blocks)``.
    """
    # words broadcast over (record, block): the first rounds, before the key
    # of each record has reached every word, run on smaller arrays
    key0 = np.full((1, 1), seed % 2**64, dtype=np.uint64)
    key1 = np.arange(start, stop, dtype=np.uint64)[:, None]
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    for _ in range(_ROUNDS):
        hi0, lo0 = _mulhilo(_MULTIPLIERS[0], c0)
        hi1, lo1 = _mulhilo(_MULTIPLIERS[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
        key0 = key0 + _KEY_STEPS[0]
        key1 = key1 + _KEY_STEPS[1]
    return np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=2).reshape(stop - start, 4 * blocks)


def uniforms(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each word: its top 53 bits times 2^-53."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normals(words: np.ndarray):
    """(draws, fast): ``Generator.standard_normal()`` of each word, and whether it was that draw.

    A word holds the layer idx in its low 8 bits, then a sign bit, then a
    52-bit rabs; the draw is ±rabs * WI[idx], kept when rabs < KI[idx]. Where
    ``fast`` is False numpy would have taken further words instead, and the
    draw given here is not numpy's.
    """
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64(0xFFFFFFFFFFFFF)
    draws = rabs.astype(np.float64)
    draws *= _WI[layer]
    np.negative(draws, out=draws, where=((words >> np.uint64(8)) & np.uint64(1)).astype(bool))
    return draws, rabs < _KI[layer]
