"""Exact float text for a block of doubles: what ``float.__repr__`` or ``'%.17g'`` would write.

A double x = m 2^q (m < 2^53) times 10^k is m 5^k / 2^s with s = -(q + k),
so its correctly rounded 17 significant digits are the integer quotient
m 5^k >> s, rounded half to even on the remainder. The product is held in two
uint64 words (``philox._mulhilo``, from 32-bit limbs), as in Steele & White,
"How to print floating-point numbers accurately" (PLDI 1990) and Adams, "Ryu:
fast float-to-string conversion" (PLDI 2018). ``'%.17g'`` takes these 17 digits.
``float.__repr__`` takes the fewest digits that read back as x: the
(17 - j)-digit candidate N is the same quotient rounded at 10^j, and it reads
back when it lies inside x's rounding interval, 2 |N 2^s - m 5^k| < 5^k, read
off the exact remainder (the two sides never meet, since 5^k is odd). It
tries j = 1 ... 4, that is 16 down to 13 digits.

The vector path covers 1e-10 <= x < 1, where the product fits 128 bits and
the quotient 64. Python formats, value by value, what it does not prove:
x >= 1, x < 1e-10 (subnormals too), an exact tie at any digit count, a
rounding that carries into an 18th digit, and for ``repr`` exact powers of
two (their rounding interval is lopsided) and a value that reads back at 13
digits (a shorter text may too). Zero is written directly.
``tests/test_floattext.py`` checks both spellings against Python.
"""

import numpy as np

from .philox import _mulhilo

#: Bytes of one text: three little-endian uint64 words, the characters from
#: byte 0 on and NUL after them. No text is longer than 23 characters.
WIDTH = 24

_ONE = np.uint64(1)
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
_MANTISSA = np.uint64((1 << 52) - 1)
_BYTES = np.uint64(0x0101010101010101)
# the place of each of 16 digits, the last written for every value
_PLACES = np.append(_POW10[15:0:-1], np.uint64(0))


def words(text: np.ndarray) -> np.ndarray:
    """Rows of bytes, a multiple of 8 wide, as native uint64 words of the little-endian layout."""
    return np.ascontiguousarray(text, dtype=np.uint8).view("<u8").astype(np.uint64)


def text_bytes(rows: np.ndarray) -> np.ndarray:
    """The bytes of rows of words, NUL included: the inverse of ``words``."""
    return rows.astype("<u8", copy=False).view(np.uint8)


def _exponent_tables():
    """Per decimal exponent -10 ... -1: the characters before the first digit
    (positional) or the point after it (exponent form) as a word, the byte of
    the first digit, and the exponent text ("e-05" ... "e-10") as a word."""
    head = np.zeros((10, 8), np.uint8)
    tail = np.zeros((10, 8), np.uint8)
    first = np.zeros(10, np.uint64)
    for i, exponent in enumerate(range(-10, 0)):
        if exponent >= -4:
            lead = "0." + "0" * (-exponent - 1)
            head[i, : len(lead)] = np.frombuffer(lead.encode(), np.uint8)
            first[i] = len(lead)
        else:
            head[i, 1] = ord(".")
            tail[i, :4] = np.frombuffer(f"e-{-exponent:02d}".encode(), np.uint8)
    return words(head)[:, 0], first, words(tail)[:, 0]


_HEAD, _FIRST, _EXPONENT = _exponent_tables()
_POINT = np.uint64(ord(".") << 8)


def _scaled(m, e, k):
    """x 10^k = quotient + remainder / 2^s for x = m 2^(e - 1075), as (quotient, remainder, s).

    m 5^k is ``philox._mulhilo``'s exact product. Every operand is a uint64
    array: array arithmetic wraps silently where a numpy scalar would warn,
    and mixing in a signed array would turn it to float.
    """
    s = np.uint64(1075) - e - k
    hi, lo = _mulhilo(_POW5[k], m)
    # s is 1..64; two shifts keep each below 64
    quotient = (hi << (np.uint64(64) - s)) | ((lo >> (s - _ONE)) >> _ONE)
    return quotient, lo & (_ALL >> (np.uint64(64) - s)), s


def _eight(v):
    """The digits of the 8-digit numbers ``v``, one per byte, the first in the lowest byte.

    Lanes of one word are split in place (two of 4 digits, four of 2, eight
    of 1); every lane product stays below its lane, so no carry crosses it.
    """
    high = v // _POW10[4]
    v = high | ((v - high * _POW10[4]) << np.uint64(32))
    hundreds = ((v * np.uint64(5243)) >> np.uint64(19)) & np.uint64(0x0000007F0000007F)
    v = hundreds | ((v - hundreds * np.uint64(100)) << np.uint64(16))
    tens = ((v * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return tens | ((v - tens * np.uint64(10)) << np.uint64(8))


def _kept(digits, later):
    """Per byte 1 where ``digits`` has a nonzero digit at or after it, or ``later`` (0 or 1) is set."""
    spread = digits | (later * _BYTES)
    for shift in (8, 16, 32):
        spread |= spread >> np.uint64(shift)
    # every byte is below 16, so adding 0x7F sets its top bit exactly when it is nonzero
    return ((spread + np.uint64(0x7F) * _BYTES) >> np.uint64(7)) & _BYTES


def _digits(n, exponent):
    """(len(n), 3) words of the 17-digit integers ``n`` times 10^(exponent - 16), trailing zeros dropped."""
    lead = n // _POW10[16]
    rest = n - lead * _POW10[16]
    high = rest // _POW10[8]
    second = _eight(rest - high * _POW10[8])
    first = _eight(high)
    kept_second = _kept(second, np.uint64(0))
    kept_first = _kept(first, kept_second & _ONE)
    first = (first + np.uint64(ord("0")) * _BYTES) & (kept_first * np.uint64(0xFF))
    second = (second + np.uint64(ord("0")) * _BYTES) & (kept_second * np.uint64(0xFF))
    index = exponent + 10
    at = _FIRST[index]
    # the 16 digits after the first start 1 byte after it in positional form,
    # 2 (past the point) in exponent form: 2 to 6 bytes into the text
    shift = (at + np.uint64(1) + (at == 0)) * np.uint64(8)
    back = np.uint64(64) - shift
    out = np.empty((len(n), 3), np.uint64)
    out[:, 0] = _HEAD[index] | ((lead + np.uint64(ord("0"))) << (at * np.uint64(8))) | (first << shift)
    out[:, 1] = (first >> back) | (second << shift)
    out[:, 2] = second >> back
    scientific = np.flatnonzero(exponent <= -5)
    if len(scientific):
        # the exponent follows the last kept digit, or the first digit alone
        kept = ((kept_first[scientific] + kept_second[scientific]) * _BYTES) >> np.uint64(56)
        bare = kept == 0
        out[scientific[bare], 0] &= ~_POINT
        _put(out, scientific, _EXPONENT[index[scientific]], np.where(bare, 1, kept + np.uint64(2)))
    return out


def integer_texts(values: np.ndarray) -> np.ndarray:
    """(len(values), 2) words of the texts of the integers 0 <= values < 10^16, leading zeros NUL."""
    values = np.asarray(values, dtype=np.uint64)
    high = values // _POW10[8]
    digits = np.stack((_eight(high), _eight(values - high * _POW10[8])), axis=1)
    # a digit is written once the value reaches its place
    shown = values[:, None] >= _PLACES
    return words(text_bytes(digits + np.uint64(ord("0")) * _BYTES) * shown)


def _put(out, rows, value, at):
    """OR the 4-byte words ``value`` into the texts ``out[rows]`` from byte ``at`` (1 ... 18) on."""
    word = (at // np.uint64(8)).astype(np.intp)
    shift = (at % np.uint64(8)) * np.uint64(8)
    out[rows, word] |= value << shift
    spill = np.flatnonzero(shift > 32)
    out[rows[spill], word[spill] + 1] |= value[spill] >> (np.uint64(64) - shift[spill])


def texts(x: np.ndarray, shortest: bool) -> np.ndarray:
    """(len(x), 3) uint64 words of the texts of the nonnegative doubles ``x`` (see WIDTH).

    The text is ``repr(x)`` if ``shortest``, else ``'%.17g' % x``. Every value
    runs through the vector path, with its decimal exponent held to -10 ... -1
    so that no table index leaves its range; the texts of values it does not
    prove are then replaced.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    zero = x == 0
    bits = x.view(np.uint64)
    e = bits >> np.uint64(52)
    m = (bits & _MANTISSA) | (_ONE << np.uint64(52))
    # log10 guesses the decimal exponent; the floored 17-digit quotient corrects it
    exponent = np.floor(np.log10(np.clip(x, 1e-10, 0.5))).astype(np.intp)
    k = (16 - exponent).astype(np.uint64)
    quotient, remainder, s = _scaled(m, e, k)
    off = (quotient >= _POW10[17]).astype(np.intp) - (quotient < _POW10[16])
    moved = np.flatnonzero(off & ~zero)
    if len(moved):
        exponent[moved] = np.clip(exponent[moved] + off[moved], -10, -1)
        k[moved] = (16 - exponent[moved]).astype(np.uint64)
        quotient[moved], remainder[moved], s[moved] = _scaled(m[moved], e[moved], k[moved])
    half = _ONE << (s - _ONE)
    tie = remainder == half
    n = quotient + ((remainder > half) | (tie & ((quotient & _ONE) == _ONE)))
    proven = (x >= 1e-10) & (x < 1.0)
    if shortest:
        # Rounded at 10^j, with a = quotient mod 10^j, the candidate rounded
        # down lies a 2^s + remainder below x 10^k 2^s and the one rounded up
        # (10^j - a) 2^s - remainder above it; either reads back when that is
        # at most floor(5^k / 2). Reading back is monotone in the digit count,
        # so each round tries only the values whose last candidate read back.
        proven &= (bits & _MANTISSA) != 0
        bound = _POW5[k] >> _ONE
        fits = (bound >= remainder) & ~zero
        below = (bound - remainder) >> s
        above = (bound + remainder) >> s
        alive = np.arange(len(x))
        for power in _POW10[1:5]:
            low = quotient // power * power
            a = quotient - low
            twice = a << _ONE
            midway = twice == power
            tie[alive[midway & (remainder == 0)]] = True
            up = (twice > power) | (midway & (remainder != 0))
            keep = np.flatnonzero(np.where(up, power - a <= above, fits & (a <= below)))
            alive = alive[keep]
            n[alive] = low[keep] + up[keep] * power
            quotient, remainder, fits, below, above = (v[keep] for v in (quotient, remainder, fits, below, above))
        tie[alive] = True
    proven &= ~tie & (n >= _POW10[16]) & (n < _POW10[17])
    out = _digits(n, exponent)
    out[zero] = [ord("0") | (ord(".") << 8) | (ord("0") << 16) if shortest else ord("0"), 0, 0]
    rest = ~(proven | zero)
    if rest.any():
        spell = float.__repr__ if shortest else "%.17g".__mod__
        spelled = np.array(list(map(spell, x[rest].tolist())), dtype=f"S{WIDTH}")
        out[rest] = words(spelled.view(np.uint8)).reshape(-1, 3)
    return out
