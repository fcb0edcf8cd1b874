"""The record writers' float text against Python's own formatting.

``bures._floattext.texts`` spells a block of nonnegative doubles as
``float.__repr__`` (JSONL) or ``'%.17g'`` (CSV) would, from integer
arithmetic; every text here must equal Python's, on random bit patterns and
on the values where a spelling changes form: short decimals, powers of 2 and
10, the ulps either side of them, ties and the positional/exponent switch.
"""

import numpy as np
import pytest

from bures._floattext import WIDTH, integer_texts, text_bytes, texts

SPELLINGS = {"repr": (True, float.__repr__), "%.17g": (False, "%.17g".__mod__)}

#: Random bit patterns per spelling, fixed before the test was first run.
RANDOM_COUNT = 200_000
RANDOM_SEED = 20


def _spelled(values: np.ndarray, shortest: bool) -> list:
    """The texts of ``values`` as str, each read up to its first NUL."""
    rows = text_bytes(texts(values, shortest)).reshape(len(values), WIDTH)
    return [row.tobytes().split(b"\0", 1)[0].decode() for row in rows]


def _mismatches(values, shortest: bool, spell) -> list:
    values = np.asarray(values, dtype=np.float64)
    return [(v.hex(), got, spell(v)) for v, got in zip(values.tolist(), _spelled(values, shortest))
            if got != spell(v)]


def _with_neighbours(values) -> np.ndarray:
    """``values`` and the doubles one ulp below and above each."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)))


def _random_doubles() -> np.ndarray:
    """Random mantissas with binary exponents -40 ... 0: [2^-40, 2), past both ends of the vector path."""
    rng = np.random.default_rng(RANDOM_SEED)
    mantissas = rng.integers(0, 2**52, RANDOM_COUNT, dtype=np.uint64)
    exponents = rng.integers(1023 - 40, 1024, RANDOM_COUNT).astype(np.uint64)
    return (mantissas | (exponents << np.uint64(52))).view(np.float64)


SHORT_DECIMALS = [float(f"{digits}e{exponent}") for digits in (1, 2, 5, 7, 25, 123, 999, 4321, 1234567, 9007199)
                  for exponent in range(-20, 1)]
POWERS = [2.0**-i for i in range(0, 60)] + [10.0**-i for i in range(0, 16)]
EDGES = [2.0**-25, 1e-4, float(np.nextafter(1e-4, 0.0)), 1e-5, 1e-10, float(np.nextafter(1e-10, 0.0)),
         1.0, 5e-324, 1e-300, 0.0, 0.5, 0.25, 0.1]


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_random_bit_patterns_match_python(spelling):
    shortest, spell = SPELLINGS[spelling]
    assert _mismatches(_random_doubles(), shortest, spell) == []


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("case", ["short-decimals", "powers"])
def test_short_values_and_their_neighbours_match_python(spelling, case):
    shortest, spell = SPELLINGS[spelling]
    values = _with_neighbours(SHORT_DECIMALS if case == "short-decimals" else POWERS)
    assert _mismatches(values, shortest, spell) == []


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_edge_values_match_python(spelling):
    shortest, spell = SPELLINGS[spelling]
    assert _mismatches(EDGES, shortest, spell) == []


def _exact_ties() -> np.ndarray:
    """Every double in [1e-10, 1) whose 17-digit scaling x 10^k is a whole or half integer.

    These are the doubles m 2^-(k+1) with m 5^k < 2e17 (k = 16 ... 27): every
    tie the vector path can meet at any digit count.
    """
    found = [np.arange(1, 2 * 10**17 // 5**k + 1) / 2.0 ** (k + 1) for k in range(16, 28)]
    values = np.unique(np.concatenate(found))
    return values[(values >= 1e-10) & (values < 1.0)]


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_every_exact_tie_matches_python(spelling):
    shortest, spell = SPELLINGS[spelling]
    assert _mismatches(_exact_ties(), shortest, spell) == []


def test_tie_and_form_switch_spellings():
    # 2^-25 = 2.98023223876953125e-08 exactly: a tie at 17 digits, rounded to even
    assert _spelled(np.array([2.0**-25]), False) == ["2.9802322387695312e-08"]
    below = float(np.nextafter(1e-4, 0.0))
    assert _spelled(np.array([1e-4, below, 1e-5]), True) == ["0.0001", "9.999999999999999e-05", "1e-05"]
    assert _spelled(np.array([1e-4, below, 0.0]), False) == ["0.0001", "9.9999999999999991e-05", "0"]


def test_integer_texts():
    values = np.array([0, 1, 9, 10, 99, 100, 12345678, 10**8 - 1, 10**8, 10**15, 10**16 - 1], dtype=np.uint64)
    rows = text_bytes(integer_texts(values)).reshape(len(values), 16)
    assert [row.tobytes().replace(b"\0", b"").decode() for row in rows] == [str(int(v)) for v in values]
