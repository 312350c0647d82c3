"""The "%.17g" text of float64 arrays, byte for byte, for the CSV writers.

17 significant digits survive a float64 round trip, and the pinned CSV
contracts are "%.17g" text. CPython gives that text one value at a time
through a bignum conversion; g17_bytes gives the same bytes for a whole
array. Each a = |x| is scaled by 10**(16 - E), E = floor(log10 a), with the
power held as a double-double hi + lo (hi correctly rounded, lo the
correctly rounded rest) and a*hi split into p + e exactly by Dekker's
product (numpy has no FMA). y = a*10**(16 - E) is then p + r, r = e + a*lo,
to within 2**-48 (2**53 <= p < 2**57 is an integer, |r| < 9), so
N = p + rint(r) is y correctly rounded unless r is within _TIE of a
half-integer. Where log10 was one off, E is moved by one and y taken again;
N = 10**17 carries to 10**16 and E + 1. Near-ties, and values outside
[_MIN, _MAX] (0 aside), are formatted by "%" and spliced into their slots.
A value takes a 32-byte slot of four little-endian words, NUL where no
byte is shown: sign, "0.000" prefix, d0, point slot | d1, point slot, d2,
point slot, d3-d6 | d7-d14 | d15, d16, exponent, separator. A point after
d0, d1 or d2 takes its slot; a point after d3..d15 (fixed notation from
1000 up) moves the digits before it one byte down, into d2's point slot.
One translate drops the NULs.

The CLI imports this module on its first CSV, so it costs nothing at
start-up, and the lookup tables are built on the first call.
"""
from __future__ import annotations

import functools

import numpy as np

_MIN, _MAX = 1e-280, 1e280
_K = (16 - 281, 16 + 282)  # the powers 10**k a value in range can need
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TIE = 2.0**-30  # far above the 2**-48 error bound of r
_SLOT = 32


@functools.cache
def tables() -> dict:
    """The power and text tables of g17_bytes, built on first use."""
    k0, k1 = _K
    hi, lo = [0.0] * (k1 - k0 + 1), [0.0] * (k1 - k0 + 1)
    power = 1
    for k in range(k1 + 1):
        h = float(power)
        hi[k - k0], lo[k - k0] = h, float(power - int(h))
        power *= 10
    power = 1
    for k in range(-1, k0 - 1, -1):
        power *= 10
        h = 1 / power  # int / int rounds correctly
        num, den = h.as_integer_ratio()  # den = 2**s; the rest, scaled by 2**-s exactly
        hi[k - k0], lo[k - k0] = h, (den - num * power) / power * 2.0 ** (1 - den.bit_length())
    hi = np.array(hi)
    split = hi * _SPLIT

    # a pair of digits in ASCII, the first in the low byte, and its count of
    # trailing zeros (2 for 00); a chunk of four digits and its count (4 for
    # 0000) by its two pairs. By // alone: % would page in one more int64
    # loop for the tables only.
    tens = np.arange(100) // 10
    ones = np.arange(100) - tens * 10
    pair = (0x3030 + tens + ones * 256).astype(np.uint32)
    pair_zeros = ((ones == 0) * (1 + (tens == 0))).astype(np.int8)
    dense = (pair[:, None] + (pair << 16)).ravel()
    trailing = (pair_zeros + (pair_zeros == 2) * pair_zeros[:, None]).ravel()
    # by E + 300: the point's class (0, 1, 2 after that digit, 3 none or
    # after d3..d15, 3 + n after the n + 1 bytes "0.0..." of E = -n), the
    # integer digits E of fixed notation (else 0), the bytes 2-6 of the last
    # word: "e", sign and two or three digits (a NUL for the third) of the
    # exponent, NUL in fixed notation
    E = np.arange(-300, 301)
    m = np.maximum(E, -E)
    fixed = (E >= -4) & (E < 17)
    point, integer = np.where(E < 0, 3 - E, np.minimum(E, 3)) * fixed, np.maximum(E, 0) * fixed
    exponent = np.zeros((601, 8), np.uint8)
    exponent[:, 2], exponent[:, 3] = 101, 43 + 2 * (E < 0)
    exponent[:, 4], exponent[:, 5:7] = (48 + m // 100) * (m >= 100), pair[m - m // 100 * 100, None].view(np.uint8)[:, :2]
    exponent[fixed] = 0
    # the byte masks of the words, (8, 17, 4) by key = 17 * class + shown,
    # shown the index of the last digit shown: a byte is kept where it holds
    # no digit (at = -1), a digit up to shown, or the class's point before a
    # shown digit (after: the digit it follows)
    at = np.array([-1] * 6 + [0, 17, 1, 17, 2, 17] + list(range(3, 17)) + [-1] * 6)
    after = np.array([17] * 7 + [0, 17, 1, 17, 2] + [17] * 20)
    cls, shown = np.arange(8)[:, None, None], np.arange(17)[:, None]
    keep = (((at <= shown) | ((after == cls) & (after < shown))) * 255).astype(np.uint8).view(np.uint64)
    # the first word by key, sign and d0: sign, prefix, d0 and point
    text = np.zeros((8, 2, 10, 8), np.uint8)
    text[:, 1, :, 0], text[..., 6], text[..., 7] = 45, 48 + np.arange(10), 46
    prefixes = b"".join(b"0.000"[:n].ljust(5, b"\0") for n in range(2, 6))
    text[4:, :, :, 1:6] = np.frombuffer(prefixes, np.uint8).reshape(4, 1, 1, 5)
    head = text.view(np.uint64)[..., 0][:, None] & keep[:, :, None, None, 0]
    # the 192-bit mask of the digits d3..dE that a point after dE moves
    # down, and that point, as three words by E
    shift = [(((1 << 8 * (k - 2)) - 1) << 32 if k >= 3 else 0, 46 << 8 * (k + 1)) for k in range(16)]
    shift = np.array([[[v >> 64 * j & 2**64 - 1 for j in range(3)] for v in vs] for vs in shift], np.uint64)
    return {
        "hi": hi, "hi_head": split - (split - hi), "lo": np.array(lo),
        "pair": pair, "dense": dense, "pair_zeros": pair_zeros, "trailing": trailing,
        "spread": (0x2E302E30 + tens + ones * 2**16).astype(np.uint32),  # d1 ".", d2 "." for keep to clear
        "class": (17 * point).astype(np.int16), "integer": integer.astype(np.int8),
        "moved": np.where(integer >= 3, integer, 16).astype(np.int8),  # the digit a moved point follows
        "exponent": exponent.view(np.uint64).ravel(),
        "head": head.ravel(), "keep": keep.reshape(136, 4).T.copy(),
        "move": shift[:, 0].T.copy(), "dot": shift[:, 1].T.copy(),
    }


def _rounded(a: np.ndarray, E: np.ndarray, tabs: dict):
    """(N, low, tie) for y = a * 10**(16 - E): N = rint(y) as int64, low
    where y < 10**16, tie where y is within _TIE of a half-integer."""
    i = 16 - _K[0] - E
    hi, hi_head = tabs["hi"][i], tabs["hi_head"][i]
    p = a * hi
    split = a * _SPLIT
    a_head = split - (split - a)
    a_tail = a - a_head
    hi_tail = hi - hi_head
    r = ((a_head * hi_head - p) + a_head * hi_tail + a_tail * hi_head) + a_tail * hi_tail
    r += a * tabs["lo"][i]
    rounded = np.rint(r)
    N = p.astype(np.int64) + rounded.astype(np.int64)
    return N, (p < 1e16) | ((p == 1e16) & (r < 0.0)), np.abs(r - rounded) > 0.5 - _TIE


def decimal(x: np.ndarray, tabs: dict):
    """(N, E, certified) for a 1-D float64 x: x rounded to 17 significant
    digits is N * 10**(E - 16), 10**16 <= N < 10**17, where certified;
    elsewhere x is 0, out of range or too close to a tie."""
    a = np.abs(x)
    certified = (a >= _MIN) & (a <= _MAX)
    a[~certified] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    N, low, tie = _rounded(a, E, tabs)
    # where log10 was one off, y is below 10**16 or rounds past 10**17
    off = np.flatnonzero(low | (N > 10**17))
    if off.size:
        E[off] += np.where(low[off], -1, 1)
        N[off], low[off], tie[off] = _rounded(a[off], E[off], tabs)
        tie[off] |= low[off] | (N[off] > 10**17)
    carry = N == 10**17
    N[carry] = 10**16
    E[carry] += 1
    certified &= ~tie
    return N, E, certified


def _slots(x: np.ndarray, N: np.ndarray, E: np.ndarray, tabs: dict) -> bytearray:
    """The _SLOT-byte slot of each value x = N * 10**(E - 16) (N = 0 for a
    zero), its separator byte left NUL."""
    # N = d0 p1 q1 q2 q3 p8 (p pairs, q 4-digit chunks), split in place to bound memory
    q1 = N // 10**10
    p8 = N - q1 * 10**10
    p1, q3 = q1 // 10**4, p8 // 100
    q1 -= p1 * 10**4
    p8 -= q3 * 100
    d0, q2 = p1 // 100, q3 // 10**4
    p1 -= d0 * 100
    q3 -= q2 * 10**4
    t, t2 = tabs["trailing"], tabs["pair_zeros"]
    last = 16 - (t2[p8] + (p8 == 0) * (t[q3] + (q3 == 0) * (t[q2] + (q2 == 0) * (t[q1] + (q1 == 0) * t2[p1]))))
    e = E + 300
    # %g: fixed notation for -4 <= E < 17, the integer digits always shown
    shown = np.maximum(last, tabs["integer"][e])
    key = tabs["class"][e] + shown
    keep, dense = tabs["keep"], tabs["dense"]
    # the slots live in a bytearray, which translates without a copy to bytes
    buffer = bytearray(x.size * _SLOT)
    words = np.frombuffer(buffer, np.uint64).reshape(x.size, 4)
    words[:, 0] = tabs["head"][(key * 2 + (x.view(np.int64) < 0)) * 10 + d0]
    words[:, 1] = (tabs["spread"][p1] | np.left_shift(dense[q1], 32, dtype=np.uint64)) & keep[1][key]
    words[:, 2] = (dense[q2] | np.left_shift(dense[q3], 32, dtype=np.uint64)) & keep[2][key]
    words[:, 3] = (tabs["pair"][p8] | tabs["exponent"][e]) & keep[3][key]
    # a point after d3..d15 (fixed notation, 1000 up): d3..dE move one byte
    # down into d2's point slot, a 192-bit shift of words 1-3
    at = np.flatnonzero(last > tabs["moved"][e])
    if at.size:
        flat, k, at = words.reshape(-1), E[at], at * 4
        y = [flat[at + j] & tabs["move"][j - 1][k] for j in (1, 2, 3)] + [0]
        for j in (1, 2, 3):
            flat[at + j] ^= y[j - 1] ^ y[j - 1] >> 8 ^ y[j] << 56 ^ tabs["dot"][j - 1][k]
    return buffer


def g17_bytes(values: np.ndarray, seps: np.ndarray) -> bytearray:
    """The bytes of "%.17g" % x followed by its separator byte, for every x
    of values in C order; seps is broadcast to the shape of values."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    tabs = tables()
    N, E, certified = decimal(x, tabs)
    N[~certified] = E[~certified] = 0
    buffer = _slots(x, N, E, tabs)
    np.frombuffer(buffer, np.uint64).reshape(*np.shape(values), 4)[..., 3] |= np.asarray(seps, np.uint64) << 56
    text = np.frombuffer(buffer, np.uint8).reshape(x.size, _SLOT)
    for i in np.flatnonzero(~certified & (x != 0.0)).tolist():
        exact = b"%.17g" % x[i]
        text[i, :-1] = 0
        text[i, : len(exact)] = np.frombuffer(exact, np.uint8)
    return buffer.translate(None, b"\0")
