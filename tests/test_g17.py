import math
import os
import subprocess
import sys
import timeit
from decimal import Decimal

import numpy as np
import pytest

from flustab import _g17
from flustab._g17 import g17_bytes
from flustab.model import FieldCoefficients, ModelParams, StateVector
from flustab.surface import trace_surface


def g17_oracle(values, seps) -> bytes:
    return b"".join(b"%.17g" % v + bytes([c]) for v, c in zip(values.tolist(), seps.tolist()))


def assert_g17_matches(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    seps = np.resize(np.frombuffer(b",,\n,\t", np.uint8), values.size)
    for start in range(0, values.size, 4096):
        block, block_seps = values[start : start + 4096], seps[start : start + 4096]
        got, want = bytes(g17_bytes(block, block_seps)), g17_oracle(block, block_seps)
        if got != want:
            cells = zip(block.tolist(), got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
            bad = [cell for cell in cells if cell[1] != cell[2]][:5]
            pytest.fail(f"text differs from %.17g: {bad}")


def g17_fallbacks(values) -> int:
    """How many of values g17_bytes hands to "%": nonzero and not certified."""
    x = np.asarray(values, dtype=np.float64).ravel()
    certified = _g17.decimal(x, _g17.tables())[2]
    return int(np.count_nonzero(~certified & (x != 0.0)))


def text_layout(text: bytes) -> tuple:
    """(scientific, E, index of the last digit shown) of a "%.17g" text."""
    mantissa, _, exponent = text.lstrip(b"-").partition(b"e")
    whole, _, fraction = mantissa.partition(b".")
    if exponent:
        E = int(exponent)
    elif whole == b"0":
        E = len(fraction.lstrip(b"0")) - len(fraction) - 1
    else:
        E = len(whole) - 1
    return bool(exponent), E, len((whole + fraction).lstrip(b"0")) - 1


def values_of_every_layout() -> dict:
    """A value of each text layout, both signs: scientific notation with no
    fraction, a short one and 17 digits, at 2- and 3-digit exponents of
    either sign; fixed notation for every E from -4 to 16, its last digit
    shown at E, at E + 1 and at d16 (d0 and d1 below 1)."""
    rng = np.random.default_rng(29)
    layouts = [(True, E, last) for E in (-99, -100, -300, 17, 100, 280) for last in (0, 3, 16)]
    layouts += [(False, E, last) for E in range(-4, 17) for last in sorted({max(E, 0), max(E, 0) + 1, 16}) if last <= 16]
    found = {}
    for layout in layouts:
        _, E, last = layout
        for _ in range(400):  # decimal strings of last + 1 digits, the last nonzero
            digits = [rng.integers(1, 10)] + list(rng.integers(0, 10, last))
            digits[-1] = digits[-1] or 1
            x = float(f"{digits[0]}.{''.join(map(str, digits[1:]))}e{E}")
            if text_layout(b"%.17g" % x) == layout:
                found[layout] = [x, -x]
                break
    return found


class TestG17Kernel:
    """g17_bytes gives the bytes of "%.17g" % x and its separator, value
    for value, against CPython's own conversion."""

    def test_every_text_layout_in_every_place(self):
        # a point after d0, d1, d2 in its slot, after d3..d15 by the shift,
        # none, the "0.000" prefixes, 2- and 3-digit exponents, the longest
        # text; each before ",", a separator from 128 up and a row's newline
        found = values_of_every_layout()
        assert len(found) == 18 + 60  # every layout drawn: 18 scientific, 60 fixed
        assert all((False, E, last) in found for E in range(3, 16) for last in (E + 1, 16))
        values = np.concatenate(list(found.values()))
        assert max(len(b"%.17g" % x) for x in values) == 24
        seps = np.frombuffer(b",\xc8\n", np.uint8)
        values = np.resize(values, (-(-values.size // 3), 3))
        for shift in range(3):
            table = np.roll(values, shift)
            assert bytes(g17_bytes(table, seps)) == g17_oracle(table.ravel(), np.tile(seps, len(table)))

    def test_random_bit_patterns(self):
        # both signs, every exponent, NaN payloads and subnormals among them
        bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
        assert_g17_matches(bits.view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
        around = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0.0)]
        assert_g17_matches(np.concatenate(around + [-p for p in around]))

    def test_zeros_subnormals_extremes_and_non_finite(self):
        tiny = np.finfo(np.float64).tiny
        huge = np.finfo(np.float64).max
        values = [0.0, 5e-324, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0), 1e-280,
                  np.nextafter(1e-280, 0.0), 1e280, np.nextafter(1e280, np.inf), huge, np.inf, np.nan]
        values += list(np.random.default_rng(21).uniform(0.0, tiny, 100))
        values = np.array(values)
        assert_g17_matches(np.concatenate([values, -values]))

    def test_integers_from_2_53_to_2_60(self):
        rng = np.random.default_rng(22)
        near_powers = [2**e + d for e in range(53, 61) for d in range(-40, 41)]
        assert_g17_matches(np.array(near_powers + list(rng.integers(2**53, 2**60, 50_000)), dtype=np.float64))

    def test_eighteenth_significant_digit_five(self):
        # exact ties: x = m / 2**(k+1), m odd, scales by 10**k to a
        # half-integer in [10**16, 10**17), the 18th digit 5 and no more
        rng = np.random.default_rng(23)
        ties = []
        for k in range(1, 25):
            lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
            ties += [math.ldexp(int(m) | 1, -k - 1) for m in rng.integers(lo, hi, 40)]
        assert all(Decimal(t).normalize().as_tuple().digits[17:] == (5,) for t in ties)
        # inexact ones: the 18th digit of the exact value is 5, then more digits
        texts = [f"{d}.{rng.integers(10**15, 10**16)}5{rng.integers(10**5)}e{e}"
                 for d, e in zip(rng.integers(1, 10, 4000), rng.integers(-300, 300, 4000))]
        fives = [x for x in map(float, texts) if Decimal(x).as_tuple().digits[17:18] == (5,)]
        assert len(fives) > 200
        assert_g17_matches(np.array(ties + fives))
        assert g17_fallbacks(ties) == len(ties)  # a tie is left to %

    def test_fallback_values_keep_their_place(self):
        tie = math.ldexp(2**52 + 1, -2)
        values = np.array([[1.5, np.nan, -2.0], [1e-300, 0.125, np.inf], [tie, -0.0, 5e-324], [3.0, tie, 7.0]])
        assert g17_fallbacks(values) == 6
        seps = np.frombuffer(b",;\n", np.uint8)
        assert g17_bytes(values, seps) == g17_oracle(values.ravel(), np.tile(seps, 4))

    def test_workload_values_take_no_fallback(self):
        # the fallback is for ties and extreme magnitudes; benchmark-like
        # tables never meet it
        assert g17_fallbacks(np.random.default_rng(24).normal(0.0, 1e3, 100_000)) == 0
        params = ModelParams(beta=1.3, p=0.8, c=1.1, n_E=1, n_I=3, tau_E=0.9, tau_I=1.7,
                             D_PCF=0.2, v_a=0.4, a=0.3)
        coeffs = FieldCoefficients(r=(0.7, 1.3, 0.9, 1.6, 1.2, 1.0), psi=0.05)
        s0 = StateVector.for_params(params, [1.2, 0.004, 0.007, 0.002, 0.009, 0.03, 0.02])
        grid = trace_surface(params, coeffs, s0, 0.8, (0.0, 3.0), 0.05, 0.02)
        nx, nt = grid.x_nodes.size, grid.t_nodes.size
        table = np.column_stack([np.repeat(grid.x_nodes, nt), np.tile(grid.t_nodes, nx),
                                 grid.states.reshape(nx * nt, -1), grid.mismatch.ravel()])
        assert table.shape == (17 * 151, 10)
        assert g17_fallbacks(table) == 0
        assert_g17_matches(table)

    def test_nothing_is_built_before_first_use(self):
        # the CLI imports the kernel on its first CSV, and the kernel builds
        # its tables on its first call, in about 1 ms
        code = (
            "import sys, flustab, flustab.cli; loaded = 'flustab._g17' in sys.modules; "
            "import flustab._g17 as g; print(loaded, g.tables.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == ["False", "0"]
        assert min(timeit.repeat(_g17.tables.__wrapped__, number=1, repeat=9)) <= 2e-3
