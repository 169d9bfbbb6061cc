"""The CSV field `',%.17g' % v` of every element of a float64 array, vectorized.

`'%.17g'` is the one float format of every output; CPython spends most of
its time there in correctly rounded binary-to-decimal conversion (Gay's
dtoa), once per value.  `g17` does the conversion for a whole array:

- the decimal exponent `k = floor(log10|x|)` comes from the binary exponent,
  which leaves two candidates, and one comparison with the least double at
  or above the upper one's power of ten, so it is exact;
- `y = |x| 10^(16-k)`, in `[1e16, 1e17)` but for its rounding, is formed in
  an extended type from a table of `10^p`;
- the 17 digits are `D = trunc(y)`, one more where `frac(y) > 1/2`, a carry
  to `10^17` becoming `10^16` at `k + 1`.

`y` carries two roundings, of the table entry and of the product, so it is
within `y eps` of `|x| 10^(16-k)`, `eps` the extended type's.  The rounding
of `D` is therefore `'%.17g'`'s wherever `|frac(y) - 1/2|` exceeds that
bound: only a half-integer lies between `y` and the exact value otherwise.
Exact ties, which `'%.17g'` rounds half to even, always fall inside the
bound.  An element inside it, with `D` outside `[10^16, 10^17)`, zero,
subnormal or not finite, falls back to `'%.17g' % v`.  Where the extended
type is plain float64 the bound exceeds 1/2 and every element falls back:
slower, never different.

The text follows CPython's `%g`: fixed notation for `-4 <= k < 17`,
otherwise `d.ddde+XX`; trailing zeros go, and so does a point with no digit
after it.  A text is WORDS little-endian 64-bit words whose bytes hold its
characters in order, with NUL bytes wherever its layout holds none, so that
a caller joins texts by dropping every NUL once:

- the comma that leads a CSV field, the sign, the `0.000` of fixed notation
  below 1 and, in the last byte, the first digit;
- the other 16 digits, eight to a word;
- a byte for the digit that the point pushes out of those two words, then
  the exponent.

Every step is a vector operation along the elements, with no per-element
Python and no per-layout branch.  The digit words come from a table of
four-digit groups.  A table indexed by the count of trailing zeros and the
place of the point gives shifts that keep the digits kept and pick the
digits after the point, which move up one byte to make room for it, and
the point itself.  The first and last words come from a table indexed by
`k` and the sign.

The kernel runs on numpy loops that the rest of a sweep runs too: integer
shifts, sums and differences stand in for bit operations, and the binary
exponent for `log10`.  Each loop of its own would page in numpy code: with
`log10`, bitwise and/or/xor and a few mixed-type casts, a `sweep` process
held 320 kB more of numpy's shared library resident.
"""

from __future__ import annotations

import functools

import numpy as np

# the type of y; a module constant, read at call time
_EXT = np.longdouble
WORD = np.dtype("<u8")
WORDS = 4
_ZERO = ord("0")
# the exponents the table covers: 16 - k for k = floor(log10|x|) from -308 to
# 308, x a normal double (|x| from 2.2e-308 to 1.8e308), and a carry above
_P_LO, _P_HI = -293, 324
_K_LO, _K_HI = 16 - _P_HI, 16 - _P_LO
_LOG10_2 = 0.30102999566398120


@functools.cache
def _powers(ext) -> np.ndarray:
    """10^p for p from _P_LO to _P_HI, each correctly rounded in `ext` by the
    C library's decimal parser; capped at the type's largest finite value."""
    table = np.array([f"1e{p}" for p in range(_P_LO, _P_HI + 1)], dtype=ext)
    return np.minimum(table, np.finfo(ext).max)


@functools.cache
def _decades() -> tuple[np.ndarray, np.ndarray]:
    """For each biased binary exponent E of a double, 0 to 2047: k0 =
    floor((E - 1023) log10 2), which is floor(log10|x|) or one less for |x|
    in [2^(E-1023), 2^(E-1022)), and the least double at or above 10^(k0+1),
    which |x| reaches where k is k0 + 1."""
    def below(m, v):  # whether the finite double v = n / d lies below 10^m
        n, d = v.as_integer_ratio()
        return n < 10**m * d if m >= 0 else n * 10**-m < d

    # (E - 1023) log10 2 is never within 1e-4 of an integer but at E = 1023
    k0 = np.floor((np.arange(2048) - 1023) * _LOG10_2).astype(np.int64)
    ms = range(int(k0.min()) + 1, int(k0.max()) + 2)
    tens = np.array([f"1e{m}" for m in ms], dtype=np.float64)
    ups = [v < np.inf and below(m, v) for m, v in zip(ms, tens.tolist())]
    return k0, np.where(ups, np.nextafter(tens, np.inf), tens).take(k0 - (ms.start - 1))


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits `D` (uint64) and decimal exponent `k` (int64)
    of each element of float64 `x`, and whether they are exactly `'%.17g'`'s."""
    ext = _EXT
    a = np.abs(x)
    ok = (a >= np.finfo(np.float64).tiny) & (a < np.inf)  # normal: subnormals fall back
    # the rest stand in as 1.1, whose digits end in no zero: their count of
    # trailing zeros stops at the last group
    a = np.where(ok, a, 1.1)
    exponent = a.view(np.int64) >> 52  # the biased binary exponent: a is positive
    k0, tens = _decades()
    k = k0.take(exponent)
    k = np.where(a >= tens.take(exponent), k + 1, k)
    # y lies in [1e16, 1e17) but for its rounding, and below 2^57
    y = a.astype(ext) * _powers(ext).take((16 - _P_LO) - k)
    digits = y.astype(np.uint64)  # trunc(y)
    # exact: y - trunc(y) is a multiple of ulp(y) below 1; the bound y eps,
    # taken on trunc(y), is widened by 2^-20 for its own float64 roundings
    frac = (y - digits.astype(ext)).astype(np.float64)
    ok &= np.abs(frac - 0.5) > digits.astype(np.float64) * float(np.finfo(ext).eps * (1 + 2.0**-20))
    digits += (frac + 0.5).astype(np.uint64)  # rounded half up
    carry = digits == 10**17
    digits[carry] = 10**16
    k[carry] += 1
    ok &= digits - np.uint64(10**16) < np.uint64(9 * 10**16)  # D in [1e16, 1e17)
    return digits, k, ok


@functools.cache
def _quads() -> np.ndarray:
    """A word for each of 0..9999: its four ASCII digits in the low half and
    the count of their trailing zeros, 4 for 0000, in the top byte."""
    n = np.arange(10_000)
    words = np.zeros((10_000, 8), dtype=np.uint8)
    zeros = np.zeros(10_000, dtype=np.intp)
    for j, unit in enumerate((1000, 100, 10, 1)):
        digit = n // unit % 10
        words[:, j] = digit + _ZERO
        zeros = np.where(digit == 0, zeros + 1, 0)  # a nonzero digit ends the run
    words[:, 7] = zeros
    return words.view(WORD).ravel()


def _point_code(k: int) -> int:
    """The digit the point follows, 0 to 16 (the units digit in fixed notation,
    the first in exponent notation), or 17 for the `0.000` below 1."""
    return (k if k >= 0 else 17) if -4 <= k < 17 else 0


# the point code of each k from _K_LO to _K_HI
_CODES = np.array([_point_code(k) for k in range(_K_LO, _K_HI + 1)], dtype=np.intp)


@functools.cache
def _layouts() -> np.ndarray:
    """The shifts and the point of the two digit words of a text, a (6, 306)
    array, one row for each word, in column 18 z + c for z trailing zeros
    and point code c: the shift left and back right that keeps the digits
    kept; the shift right and back left that keeps the digits after the point
    (64 for none); and the point."""
    def width(places):  # the bits of the first `places` bytes of a word
        return 8 * max(0, min(places, 8))

    columns = []
    for z in range(17):
        for c in range(18):
            kept = 17 - z if c == 17 else max(17 - z, c + 1)
            stream = kept - 1  # of the 16 digits in the digit words
            after, point = [64, 64], [0, 0]
            if c < 17 and kept > c + 1:  # the point, before stream place c
                after = [width(c), width(c - 8)]
                point[c // 8] = ord(".") << 8 * (c % 8)
            columns.append([[64 - width(stream), 64 - width(stream - 8)], after, point])
    return np.array(columns, dtype=WORD).reshape(-1, 6).T.copy()


@functools.cache
def _affixes() -> np.ndarray:
    """The first and the last word of a text, a (2, 1238) array with one
    column for each k from _K_LO to _K_HI and each sign, at 2 (k - _K_LO) +
    negative: the comma, the sign and the `0.000` of fixed notation below 1,
    with a NUL last byte for the first digit; and a NUL byte for the digit
    the point pushes out, then the exponent."""
    records = []
    for k in range(_K_LO, _K_HI + 1):
        fixed = -4 <= k < 17
        below = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        exponent = b"" if fixed else b"e%+03d" % k
        for sign in (b"", b"-"):
            records.append((b"," + sign + below).ljust(8, b"\0") + (b"\0" + exponent).ljust(8, b"\0"))
    return np.frombuffer(b"".join(records), dtype=WORD).reshape(-1, 2).T.copy()


def g17(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The CSV field of each element of float64 `x`, written to `out`, a
    (*x.shape, WORDS) array of WORD: the bytes of `out[i]` are a comma and the
    ASCII bytes of `'%.17g' % x[i]`, in order, and NUL bytes."""
    x = np.asarray(x, dtype=np.float64)
    if not x.size:
        return out
    shape = x.shape
    x = x.ravel()
    digits, k, ok = _digits(x)
    first = digits // 10**16
    rest = (digits - first * 10**16).view(np.int64)  # below 10^16: indices
    halves = np.empty((2, x.size), dtype=np.int64)
    halves[0] = rest // 10**8
    halves[1] = rest - halves[0] * 10**8
    # the other 16 digits in groups of four, one row each: 1-4, ..., 13-16
    quads = np.empty((4, x.size), dtype=np.int64)
    quads[0::2] = halves // 10**4
    quads[1::2] = halves - quads[0::2] * 10**4
    groups = _quads()
    text = np.empty((WORDS, x.size), dtype=WORD)
    # the two digit words, eight digits each; the top byte of a group's word
    # is its count of trailing zeros, which the shift drops
    digit_words = text[1:3]
    digit_words[:] = groups.take(quads[1::2])
    # the trailing zero digits, 0 to 16: a group adds its own where every later
    # group is 0000, which few elements reach
    zeros = (digit_words[1] >> np.uint64(56)).view(np.int64)
    more = np.flatnonzero(zeros == 4)
    for quad in quads[2::-1] if more.size else ():
        step = (groups.take(quad[more]) >> np.uint64(56)).view(np.int64)
        zeros[more] += step
        more = more[step == 4]
    digit_words <<= np.uint64(32)
    low = groups.take(quads[0::2])
    low <<= np.uint64(32)
    low >>= np.uint64(32)
    digit_words += low
    place = k - _K_LO  # k's place in the tables, which start at _K_LO
    layout = 18 * zeros + _CODES[place]
    kept, after, point = _layouts().take(layout, axis=1).reshape(3, 2, -1)
    # masks as shifts, and or as the sum of disjoint bytes
    digit_words <<= kept
    digit_words >>= kept
    # the digits after the point move up a byte; the top byte of a word moves
    # into the next
    high = digit_words >> after
    high <<= after
    digit_words -= high
    digit_words += point
    digit_words[1] += high[0] >> np.uint64(56)
    text[3] = high[1] >> np.uint64(56)
    high <<= np.uint64(8)
    digit_words += high
    place += place
    affixes = _affixes().take(np.where(x < 0, place + 1, place), axis=1)  # -0.0 falls back
    text[0] = affixes[0] + ((first + np.uint64(_ZERO)) << np.uint64(56))
    text[3] += affixes[1]
    bad = np.flatnonzero(~ok)
    if bad.size:
        values = x[bad].tolist()
        # one format for all: '%-31.17g' pads with spaces, which '%.17g' never writes
        texts = (f",%-{8 * WORDS - 1}.17g" * len(values) % tuple(values)).encode()
        text[:, bad] = np.frombuffer(texts.replace(b" ", b"\0"), dtype=WORD).reshape(-1, WORDS).T
    for j, word in enumerate(text):
        out[..., j] = word.reshape(shape)
    return out

