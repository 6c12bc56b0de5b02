"""CPython's ``'%.17g'`` text of float64 arrays, exact and vectorized.

``Fields(n)`` formats n values at a time: it returns one row of bytes per
value, the text that ``'%.17g' % value`` gives, NUL-padded to ``WIDTH``
bytes.  A finite ``x`` with ``10**-11 < |x| < 10**16`` is converted by
fixed-width integer arithmetic (D. M. Gay, "Correctly rounded binary-decimal
and decimal-binary conversions", 1990; U. Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019):

* ``|x| = f * 2**e`` with a 53-bit ``f``; ``X = floor(log10 |x|)`` is read
  from the binary exponent and one comparison with the least double at or
  above the power of ten inside that binade, if there is one;
* ``|x| * 10**s = f * 5**s * 2**(e + s)`` with ``s = 16 - X <= 27``, where
  ``f * 5**s < 2**116`` is formed exactly in two uint64 limbs;
* the 17-digit ``D`` is that product shifted right by ``-(e + s)`` bits and
  rounded half to even on the exact discarded bits.  It never rounds up to
  ``10**17``: the largest double below each power of ten of the domain lies
  more than a half unit of the 17th digit (``5e-18`` relative) below it;
* the digits are laid out by ``%g``'s rules, from a table indexed by the
  sign, the count of significant digits and ``X``: trailing zeros dropped,
  positional for ``-4 <= X < 17`` and ``d.ddde-XX`` below.

Zeros are laid out directly.  Every other value (subnormal, at most
``1e-11`` in magnitude, at least ``1e16``, nan, inf) goes through Python's
own ``'%.17g'`` in one batched ``%`` call.  The double ``1e-11`` itself lies
below ``10**-11`` and so takes that path.  A field is built as three
little-endian uint64 words, byte ``j`` of the text in bits ``8j..8j+7``.
Every intermediate array is made once per ``Fields``, so that a call makes
no array of n values: numpy's temporaries for a level would otherwise grow
the heap by about 1 MB at N=1024, which glibc gives back to the system and
faults in again on every call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["WIDTH", "Fields"]

# The longest '%.17g' text of a double, e.g. -1.2345678901234567e-300.
WIDTH = 24

_U = np.uint64
_LOW_X, _HIGH_X = -11, 15  # the decimal exponents the integer path takes
_XS = range(_LOW_X, _HIGH_X + 1)


def _ratio(base: int, exponent: int) -> tuple[int, int]:
    """base**exponent as an integer ratio."""
    return (base**exponent, 1) if exponent >= 0 else (1, base**-exponent)


def _at_least(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether the ratio a is at least the ratio b."""
    return a[0] * b[1] >= b[0] * a[1]


def _least_at_or_above(j: int) -> float:
    """The least double >= 10**j, so that a double x >= 10**j iff x >= it."""
    num, den = _ratio(10, j)
    d = num / den  # correctly rounded
    return d if _at_least(d.as_integer_ratio(), (num, den)) else math.nextafter(d, math.inf)


# Per biased binary exponent: X - _LOW_X at the bottom of the binade, and
# the least double at which X grows by one (inf if not within the binade).
# Other binades hold no value of the integer path.
_XI = np.zeros(2048, dtype=np.int64)
_XI_STEP = np.full(2048, math.inf)
for _p in range(-37, 54):
    _x = math.floor(_p * math.log10(2))
    _x += _at_least(_ratio(2, _p), _ratio(10, _x + 1))
    _x -= not _at_least(_ratio(2, _p), _ratio(10, _x))
    _XI[_p + 1023] = _x - _LOW_X
    if not _at_least(_ratio(10, _x + 1), _ratio(2, _p + 1)):
        _XI_STEP[_p + 1023] = _least_at_or_above(_x + 1)
# With xi = X - _LOW_X: the right shift k = 1075 - biased - s, s = 16 - X,
# is _K_BASE[biased] + xi; 5**s whole and in 32-bit halves (5**27 < 2**63).
_K_BASE = 1059 + _LOW_X - np.arange(2048, dtype=np.int64)
_POW5 = np.array([5 ** (16 - x) for x in _XS], dtype=_U)
_POW5_LO, _POW5_HI = _POW5 & _U(0xFFFFFFFF), _POW5 >> _U(32)

# Four digits 0000..9999 as four ASCII bytes, the leading digit lowest, and
# the same bytes in a word's upper half.
_QUAD = np.arange(10000, dtype=_U)
_DIGITS4 = sum(((_QUAD // _U(10**j) % _U(10) + _U(48)) << _U(8 * (3 - j))) for j in range(4))
_DIGITS4_HIGH = _DIGITS4 << _U(32)
# For digits 0000..9999 at places p+1..p+4 of the 17, the place of the last
# nonzero one (0 for 0000); and for the 17th digit, 17 unless it is 0.
_TRAILING = sum((_QUAD % _U(10**j) == 0).astype(np.int64) for j in (1, 2, 3))
_LAST = [np.where(_QUAD > 0, place + 4 - _TRAILING, 0) for place in (0, 4, 8, 12)]
_LAST_DIGIT = np.array([0] + [17] * 9, dtype=np.int64)


def _words_of(text: bytes) -> list[int]:
    value = int.from_bytes(text, "little")
    return [(value >> (64 * w)) & 0xFFFFFFFFFFFFFFFF for w in range(3)]


def _layout(negative: bool, significant: int, x: int) -> list[int]:
    """How %g lays out 17 digits with ``significant`` significant ones and
    decimal exponent x: the prefix's length in bits, then, as three words
    each, the bytes the digits take once shifted past the prefix, the bytes
    they take once shifted one byte further (past the point), and the
    constant bytes (sign, "0.00", point and "e-XX")."""
    prefix, suffix, keep = b"-" if negative else b"", b"", max(significant, x + 1)
    if -4 <= x < 0:
        prefix += b"0." + b"0" * (-x - 1)
        point = keep
    else:
        point = 1 if x < -4 else x + 1  # before this digit, if any follows
        suffix = b"e-%02d" % -x if x < -4 else b""
    t, q = len(prefix), min(point, keep)
    dot = b"." if q < keep else b""
    ones = lambda lo, hi: _words_of(b"\0" * lo + b"\xff" * max(hi - lo, 0))
    after = ones(t + q + 1, t + keep + 1) if dot else ones(0, 0)
    fixed = _words_of(prefix + b"\0" * q + dot + b"\0" * (keep - q) + suffix)
    return [8 * t] + ones(t, t + q) + after + fixed


# Column (negative * 18 + significant) * len(_XS) + X - _LOW_X of each part.
_LAYOUT = np.array([_layout(negative, significant, x) for negative in (False, True)
                    for significant in range(18) for x in _XS], dtype=_U).T.copy()
_SHIFT, _BEFORE, _AFTER, _FIXED = _LAYOUT[0], _LAYOUT[1:4], _LAYOUT[4:7], _LAYOUT[7:10]
_ZERO = np.array([list(b"0".ljust(WIDTH, b"\0")), list(b"-0".ljust(WIDTH, b"\0"))],
                 dtype=np.uint8)


class Fields:
    """The ``'%.17g'`` fields of n values at a time.

    Called with n float64 values, it returns an (n, WIDTH) uint8 array
    whose row i holds ``('%.17g' % values[i]).encode()`` followed by NUL
    bytes.  The array is its own, overwritten by the next call.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._a, self._step = np.empty(n), np.empty(n)
        self._mask, self._negative = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        self._ints = np.empty((4, n), dtype=np.int64)
        self._sig = np.empty((5, n), dtype=np.int64)
        self._scalars = np.empty((8, n), dtype=_U)
        self._groups = np.empty((3, 2, n), dtype=_U)
        self._words = np.empty((4, 3, n), dtype=_U)
        self._out = np.empty((n, 3), dtype="<u8")

    def __call__(self, values: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(values, dtype=np.float64).ravel()
        if v.size != self.n:
            raise ValueError(f"expected {self.n} values, got {v.size}")
        a, step, mask, negative = self._a, self._step, self._mask, self._negative
        biased, xi, k, row = self._ints
        t0, t1, t2, t3, f, lo, hi, d = self._scalars
        eights, high4, low4 = self._groups
        digits, before, after, part = self._words
        take = lambda table, index, out: table.take(index, out=out, mode="clip")

        np.abs(v, out=a)
        np.greater(a, 1e-11, out=mask)
        mask &= np.less(a, 1e16, out=negative)
        special = np.logical_not(mask, out=mask).nonzero()[0]
        a[special] = 1.0
        np.signbit(v, out=negative)

        # X from the binary exponent; then |v| = f * 2**e and
        # |v| * 10**s = f * 5**s * 2**(e + s) = (hi, lo) / 2**k.
        np.right_shift(a.view(np.int64), 52, out=biased)
        take(_XI, biased, xi)
        take(_XI_STEP, biased, step)
        xi += np.greater_equal(a, step, out=mask)
        take(_K_BASE, biased, k)
        k += xi
        np.bitwise_and(a.view(_U), _U(0xFFFFFFFFFFFFF), out=f)
        f |= _U(1 << 52)
        np.bitwise_and(f, _U(0xFFFFFFFF), out=t0)  # f's halves and 5**s's:
        np.right_shift(f, _U(32), out=t1)  # t0 * t2, t0 * t3, t1 * t2, t1 * t3
        take(_POW5_LO, xi, t2)
        take(_POW5_HI, xi, t3)
        np.multiply(t1, t3, out=hi)
        t3 *= t0
        t0 *= t2
        t2 *= t1
        t0 >>= _U(32)
        t3 += t2
        t3 += t0  # < 2**63 + 2**53 + 2**32
        t3 >>= _U(32)
        hi += t3
        take(_POW5, xi, lo)
        lo *= f

        # Round half to even on the k discarded bits, moved to the top of a
        # word.  k >= 1 but where |v| >= 2**51, whose product needs a left
        # shift.  A shift by 64 or more gives 0.
        ku = k.view(_U)
        np.subtract(_U(64), ku, out=t0)
        np.right_shift(lo, ku, out=d)
        d |= np.left_shift(hi, t0, out=t1)
        np.left_shift(lo, t0, out=t1)
        t1 += np.bitwise_and(d, _U(1), out=t2)
        d += np.greater(t1, _U(1 << 63), out=mask)
        left = np.less(k, 1, out=mask).nonzero()[0]
        if left.size:
            d[left] = lo[left] << (-k[left]).astype(_U)

        # The 17 digits: d = (a1 a2)(b1 b2) c, in groups of four.
        np.floor_divide(d, _U(10**9), out=eights[0])
        np.subtract(d, np.multiply(eights[0], _U(10**9), out=t0), out=t0)
        np.floor_divide(t0, _U(10), out=eights[1])
        np.subtract(t0, np.multiply(eights[1], _U(10), out=t1), out=t1)  # c
        np.floor_divide(eights, _U(10000), out=high4)
        np.subtract(eights, np.multiply(high4, _U(10000), out=low4), out=low4)
        quads_high, quads_low = high4.view(np.int64), low4.view(np.int64)
        take(_DIGITS4, quads_high, digits[:2])
        digits[:2] |= take(_DIGITS4_HIGH, quads_low, before[:2])
        np.add(t1, _U(ord("0")), out=digits[2])
        sig = self._sig
        for j, (table, quads) in enumerate(zip(_LAST, (quads_high[0], quads_low[0],
                                                       quads_high[1], quads_low[1]))):
            take(table, quads, sig[j])
        take(_LAST_DIGIT, t1.view(np.int64), sig[4])
        np.maximum.reduce(sig, axis=0, out=row)

        # Shift the digits past the prefix, and once more past the point;
        # keep the bytes the layout gives each, and or in its constant bytes.
        row *= len(_XS)
        row += xi
        row += np.multiply(negative, 18 * len(_XS), out=k)
        take(_SHIFT, row, t0)
        np.subtract(_U(64), t0, out=t1)
        for shifted, spill in ((before, after), (after, part)):
            np.left_shift(digits, t0, out=shifted)
            shifted[1:] |= np.right_shift(digits[:2], t1, out=spill[:2])
            t0 += _U(8)
            t1 -= _U(8)
        before &= _BEFORE.take(row, axis=1, out=part, mode="clip")
        after &= _AFTER.take(row, axis=1, out=part, mode="clip")
        before |= after
        before |= _FIXED.take(row, axis=1, out=part, mode="clip")
        out = self._out
        out[...] = before.T
        text = out.view(np.uint8).reshape(self.n, WIDTH)

        zero = v[special] == 0
        text[special[zero]] = _ZERO[negative[special[zero]].astype(np.int64)]
        other = special[~zero]
        if other.size:
            rows = np.frombuffer(
                ("%-24.17g" * other.size % tuple(v[other].tolist())).encode(), dtype=np.uint8)
            text[other] = np.where(rows == ord(" "), 0, rows).reshape(other.size, WIDTH)
        return text
