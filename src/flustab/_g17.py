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
A value takes a 48-byte slot of NUL-padded text: sign, "0.000" prefix, the
leading digit, the other 16 digits with a point slot before each, exponent
and separator; one translate drops the NULs.

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
_SLOT = 48


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
        num, den = h.as_integer_ratio()  # den = 2**s
        hi[k - k0], lo[k - k0] = h, (den - num * power) / (power << den.bit_length() - 1)
    hi = np.array(hi)
    split = hi * _SPLIT

    # the slot's first word, its little-endian bytes by (prefix length, sign,
    # leading digit): sign, "0.000" prefix, NUL, digit
    head = [
        int.from_bytes((b"-" if sign else b"\0") + prefix.ljust(6, b"\0") + bytes([48 + d]), "little")
        for prefix in (b"", b"0.", b"0.0", b"0.00", b"0.000")
        for sign in (0, 1)
        for d in range(10)
    ]

    def digit(v: np.ndarray, n: int) -> np.ndarray:
        # by // alone: % would page in one more int64 loop for the tables only
        return v // 10**n - v // 10 ** (n + 1) * 10

    # a chunk of four digits, each after a NUL point slot, and its count of
    # trailing zeros (4 for 0000), both by its two pairs of digits
    pair = np.arange(100)
    pair_zeros = (digit(pair, 0) == 0) + (pair == 0) * 1
    pair = (48 + digit(pair, 1)) * 256 + (48 + digit(pair, 0)) * 256**3
    quad = (pair[:, None] + pair * 2**32).ravel()
    trailing = (pair_zeros + (pair_zeros == 2) * pair_zeros[:, None]).ravel()
    # "e", sign and two or three digits (a NUL for the third) of E + 300
    E = np.arange(-300, 301)
    m = np.maximum(E, -E)
    exponent = (101 + (43 + 2 * (E < 0)) * 256 + (48 + digit(m, 2)) * (m >= 100) * 256**2
                + (48 + digit(m, 1)) * 256**3 + (48 + digit(m, 0)) * 256**4)
    # chunk c keeps clip(shown - 4c, 0, 4) of its digits, shown the index of
    # the value's last digit shown
    mask = [(1 << 16 * n) - 1 for n in range(4)] + [-1]
    return {
        "hi": hi, "hi_head": split - (split - hi), "lo": np.array(lo),
        "head": np.array(head),
        "quad": quad,
        "keep": np.array([[mask[min(max(s - 4 * c, 0), 4)] for s in range(17)] for c in range(4)]),
        "trailing": trailing,
        # the last word is the empty exponent of fixed notation
        "exponent": np.append(exponent, 0),
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
    # N = d0 c1 c2 c3 c4, c the 4-digit chunks
    upper = N // 10**8
    d0 = upper // 10**8
    c2 = upper - d0 * 10**8
    c1 = c2 // 10**4
    c2 -= c1 * 10**4
    c4 = N - upper * 10**8
    c3 = c4 // 10**4
    c4 -= c3 * 10**4
    t = tabs["trailing"]
    last = 16 - (t[c4] + (c4 == 0) * (t[c3] + (c3 == 0) * (t[c2] + (c2 == 0) * t[c1])))
    # %g: fixed notation for -4 <= E < 17, the integer digits always shown
    fixed = (E >= -4) & (E < 17)
    shown = np.where(fixed, np.maximum(last, E), last)
    prefix = np.where(fixed & (E < 0), -E, 0)
    # the slots live in a bytearray, which translates without a copy to bytes
    buffer = bytearray(x.size * _SLOT)
    slots = np.frombuffer(buffer, np.int64).reshape(x.size, 6)
    slots[:, 0] = tabs["head"][(2 * prefix + (x.view(np.int64) < 0)) * 10 + d0]
    for c, chunk in enumerate((c1, c2, c3, c4)):
        slots[:, 1 + c] = tabs["quad"][chunk] & tabs["keep"][c][shown]
    slots[:, 5] = tabs["exponent"][np.where(fixed, 601, E + 300)]
    # the point follows digit E in fixed notation, else the leading digit
    point = np.where(fixed, E, 0)
    at = np.flatnonzero((last > point) & (point >= 0))
    np.frombuffer(buffer, np.uint8)[at * _SLOT + 8 + 2 * point[at]] = 46
    return buffer


def g17_bytes(values: np.ndarray, seps: np.ndarray) -> bytearray:
    """The bytes of "%.17g" % x followed by its separator byte, for every x
    of values in C order; seps is broadcast to the shape of values."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    tabs = tables()
    N, E, certified = decimal(x, tabs)
    N[~certified] = 0
    E[~certified] = 0
    buffer = _slots(x, N, E, tabs)
    text = np.frombuffer(buffer, np.uint8).reshape(x.size, _SLOT)
    text[:, -1] = np.broadcast_to(seps, np.shape(values)).ravel()
    for i in np.flatnonzero(~certified & (x != 0.0)).tolist():
        exact = b"%.17g" % x[i]
        text[i, :-1] = 0
        text[i, : len(exact)] = np.frombuffer(exact, np.uint8)
    return buffer.translate(None, b"\0")
