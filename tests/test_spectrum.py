import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab import spectrum
from flustab.charpoly import charpoly, coefficient_matrix
from flustab.model import InvalidParamsError, ModelParams
from flustab.spectrum import (
    analyze,
    classify,
    eigenvector,
    full_spectrum_numeric,
    geometric_multiplicity,
    perron_root,
    predicted_sign_pattern,
    real_roots,
    sign_class,
)
from flustab.spectrum import (
    _certified_roots,
    _critical_factors,
    _critical_points,
    _exact_charpoly_ratio,
    _exact_critical_ratio,
    _log_f,
    _log_perron_f,
    _log_perron_slope,
    _critical_level,
    _viral_pressure,
)
from flustab.validation import _finite_difference_multiplicity, cell_params, sample_params


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def make_params(**overrides):
    base = dict(beta=1.0, p=2.0, c=3.0, n_I=2, tau_I=1.0, n_E=0, tau_E=None,
                D_PCF=0.0, v_a=0.5, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(*factors):
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = poly_add(prod, [])
    return out


def poly_pow(a, n):
    return poly_mul(*([a] * n))


def poly_deriv(a):
    return poly_add([i * x for i, x in enumerate(a)][1:] or [Fraction(0)], [])


def poly_eval(a, x):
    value = Fraction(0)
    for coeff in reversed(a):
        value = value * x + coeff
    return value


def exact_charpoly(params: ModelParams, T: float, x) -> Fraction:
    """P(x) in rational arithmetic from the float inputs."""
    c, c_E, c_I, q, x = map(Fraction, (params.c, params.c_E, params.c_I, params.beta * T * params.p, x))
    n_E, n_I = params.n_E, params.n_I
    return (c_E + x) ** n_E * (c_I + x) ** n_I * (c + x) * x + q * c_E**n_E * (c_I**n_I - (c_I + x) ** n_I)


def uncertified(params: ModelParams, T: float, roots) -> list[float]:
    """The reported (value, algebraic multiplicity) pairs whose window
    x(1 +- 1e-8) does not show an exact sign change of P exactly when the
    multiplicities reported inside it add up to an odd number: a simple
    root must carry a sign change, a double root must not."""
    bad = []
    for x, _ in roots:
        if x == 0.0:
            continue  # the structural zero, exact by construction
        lo, hi = sorted((x * (1 - 1e-8), x * (1 + 1e-8)))
        odd = sum(m for y, m in roots if lo <= y <= hi) % 2 == 1
        if ((exact_charpoly(params, T, lo) > 0) != (exact_charpoly(params, T, hi) > 0)) != odd:
            bad.append(x)
    return bad


class TestClassify:
    def test_three_regimes(self):
        params = make_params()  # T* = 1.5
        assert classify(params, 1.0) == "Definite"
        assert classify(params, 1.5) == "Critical"
        assert classify(params, 2.0) == "Indefinite"
        assert analyze(params, 1.0).T_star == pytest.approx(1.5)

    def test_infinite_pressure_lands_in_the_indefinite_cell(self):
        # beta*T*p overflows at T = 1e308; no window may swallow an infinite gap
        params = make_params()
        for T in (1e308, math.inf):
            assert classify(params, T) == "Indefinite"
            pattern = predicted_sign_pattern(params, T)
            assert (pattern.clearance_vs_pressure, pattern.quadratic_at_minus_cI) == ("<", "<")

    def test_float_and_array_rows_agree_on_edge_inputs(self):
        # one body serves both forms: each T's cell from a float call equals
        # its entry of the array call, on the exact "=" cells, T = 0 and
        # -0.0, a pressure that overflows to inf, an infinite T and NaN
        cells = [(n_I, row, col) for n_I in (2, 5) for row in "<=>" for col in "<=>"]
        for n_I, row, col in cells:
            assert spectrum._regime_rows(*cell_params(n_I, row, col)) == ("<=>".index(row), "<=>".index(col))
        for params, T in [cell_params(*cell) for cell in cells] + [(make_params(), 1.5)]:
            Ts = [T, 0.0, -0.0, 1e308, math.inf, math.nan, T * (1 + 1e-12), T * (1 - 1e-8)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore"):  # beta*T*p overflows at 1e308
                    rows, cols = spectrum._regime_rows(params, np.array(Ts))
                    floats = [spectrum._regime_rows(params, x) for x in Ts]
            assert [(int(r), int(c)) for r, c in zip(rows, cols)] == floats
            assert all(type(r) is int and type(c) is int for r, c in floats)
            assert floats[5] == (0, 0)  # NaN lands in "<"

    def test_critical_window_is_relative(self):
        params = make_params()
        assert classify(params, 1.5 * (1 + 1e-12)) == "Critical"
        assert classify(params, 1.5 * (1 + 1e-8)) == "Indefinite"

    def test_zero_infection_rate_is_definite(self):
        params = make_params(beta=0.0)
        assert classify(params, 5.0) == "Definite"
        assert math.isinf(analyze(params, 5.0).T_star)

    def test_T_star_is_the_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            params, T = sample_params(rng)
            assert analyze(params, T).T_star == params.T_star

    def test_pressure_order(self):
        params = make_params(beta=0.7, p=1.3, tau_I=2.0)
        assert _viral_pressure(params, 1.1) == 0.7 * 1.1 * 1.3 * 2.0


def exact_phi_psi(params: ModelParams, T: float, x) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Phi, Psi and their derivatives in rational arithmetic from the float
    inputs: Phi = x (c+x) (1+x/c_E)^n_E / q and Psi = 1 - (c_I/(c_I+x))^n_I."""
    c, c_E, c_I, q, x = map(Fraction, (params.c, params.c_E, params.c_I, params.beta * T * params.p, x))
    n_E, n_I = params.n_E, params.n_I
    e = 1 + x / c_E if n_E else Fraction(1)
    de = Fraction(n_E) / c_E * e ** (n_E - 1) if n_E else Fraction(0)
    phi = x * (c + x) * e**n_E / q
    dphi = ((c + 2 * x) * e**n_E + x * (c + x) * de) / q
    psi = 1 - (c_I / (c_I + x)) ** n_I
    dpsi = n_I * c_I**n_I / (c_I + x) ** (n_I + 1)
    return phi, psi, dphi, dpsi


def _dyadic_params(rng, n_E: int, n_I: int) -> ModelParams:
    """Rates whose floats are exact: c a multiple of 1/16, c_E and c_I powers
    of 2, so that n/(n/c) gives them back exactly."""
    c = Fraction(int(rng.integers(1, 64)), 16)
    c_E, c_I = (Fraction(2) ** int(rng.integers(-3, 4)) for _ in range(2))
    params = make_params(c=float(c), n_E=n_E, tau_E=float(n_E / c_E) if n_E else None, n_I=n_I,
                         tau_I=float(n_I / c_I), beta=1.0, p=1.0)
    assert params.c_I == c_I and params.c_E == (c_E if n_E else 0.0)
    return params


class TestDerivative:
    """E = Phi - Psi carries P's real roots; its critical points solve one
    concave equation, prod (1 + lam/w)^k = R0, over _critical_factors."""

    def test_quadratic_coefficients(self):
        # n_E = 0: (c/2, 1) and (c_I, n_I + 1); n_E = 2, c = 2, c_E = 1:
        # 4 lam^2 + 8 lam + 2 has roots -1 -+ 1/sqrt(2), each w simple, and
        # (c_E, n_E - 1) = (1, 1)
        params = make_params(c=3.0, n_I=2, tau_I=2.0, beta=1.0, p=1.0)  # c_I = 1
        assert _critical_factors(params.c, params.c_E, 0, params.c_I, 2) == [(1.0, 3), (1.5, 1)]
        factors = _critical_factors(2.0, 1.0, 2, 4.0, 3)
        assert [k for _, k in factors] == [1, 1, 1, 4]
        assert [w for w, _ in factors] == pytest.approx([1 - 2**-0.5, 1.0, 1 + 2**-0.5, 4.0], rel=1e-15)

    def test_critical_points_frozen(self):
        # c = 3, c_I = 1, n_I = 2, q = 1: E' = 0 where (1 + 2 lam/3)(1 + lam)^3 = R0 = 2/3;
        # below -m = -1 only the outer piece left of -1.5 holds one, where E' changes sign
        params = make_params(c=3.0, n_I=2, tau_I=2.0, beta=1.0, p=1.0)
        factors = _critical_factors(3.0, 0.0, 0, 1.0, 2)
        x, = _critical_points(factors, math.log(2.0 / 3.0), -10.0, -1.0, 1.0)
        assert -10.0 < x < -1.5
        assert (1 + 2 * x / 3) * (1 + x) ** 3 == pytest.approx(2.0 / 3.0, rel=1e-14)
        slopes = [exact_phi_psi(params, 1.0, y)[2] - exact_phi_psi(params, 1.0, y)[3]
                  for y in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))]
        assert (slopes[0] > 0) != (slopes[1] > 0)

    def test_against_finite_differences(self):
        # the critical level over R0, minus 1, is E'/Psi' - 1: its sign is
        # that of central differences of E = P/(q c_E^n_E (c_I + lam)^n_I)
        rng = np.random.default_rng(5)
        for _ in range(40):
            params, T = sample_params(rng)
            c, c_E, c_I, n_E, n_I = params.c, params.c_E, params.c_I, params.n_E, params.n_I
            q = params.beta * T * params.p
            lam = float(rng.uniform(-2.0, 1.0) * (c_I + c))
            h = 1e-6 * max(1.0, abs(lam))
            E = lambda x: charpoly(params, T, x) / (q * c_E**n_E * (c_I + x) ** n_I)
            fd = (E(lam + h) - E(lam - h)) / (2 * h)
            level = math.prod((1 + lam / w) ** k for w, k in _critical_factors(c, c_E, n_E, c_I, n_I)) / (q * n_I / (c * c_I))
            assert abs(level) == pytest.approx(math.exp(_critical_level(_critical_factors(c, c_E, n_E, c_I, n_I), lam)[0])
                                               / (q * n_I / (c * c_I)), rel=1e-12)
            psi_slope = n_I * c_I**n_I / (c_I + lam) ** (n_I + 1)
            assert fd == pytest.approx(psi_slope * (level - 1.0), rel=1e-5, abs=1e-8 * abs(psi_slope * level))

    def test_slope_identities_hold_exactly(self):
        """In rational arithmetic at dyadic rates and random points:
        P = q c_E^n_E (c_I+lam)^n_I (Phi - Psi); _exact_charpoly_ratio is
        1 - Psi/Phi and _exact_critical_ratio is Phi'/Psi' - 1, each rounded
        once; and, as facts about P for README's bound of 7 real roots,
        P' = (c_I+lam)^(n_I-1) H, H' = (c_E+lam)^(n_E-2) K with the cubics
        R = (2 lam + c) u w + lam (c + lam)(n_E w + n_I u) and
        K = (n_E - 1) R + u R' (u = c_E + lam, w = c_I + lam)."""
        rng = np.random.default_rng(21)
        for n_E, n_I in [(0, 1), (0, 4), (1, 3), (2, 2), (3, 5), (5, 1), (4, 9)]:
            for _ in range(4):
                params = _dyadic_params(rng, n_E, n_I)
                c, c_E, c_I = map(Fraction, (params.c, params.c_E, params.c_I))
                T = float(Fraction(int(rng.integers(1, 200)), 8))
                q = Fraction(params.beta * T * params.p)
                u, w, lam = [c_E, 1], [c_I, 1], [0, 1]
                P = poly_add(poly_mul(poly_pow(u, n_E), poly_pow(w, n_I), [c, 1], lam),
                             poly_mul([q * c_E**n_E], poly_add([c_I**n_I], poly_mul([-1], poly_pow(w, n_I)))))
                r = poly_add(poly_mul([c, 2], u, w), poly_mul(lam, [c, 1], poly_add([n_E * c_I, n_E], [n_I * c_E, n_I])))
                k = poly_add(poly_mul([n_E - 1], r), poly_mul(u, poly_deriv(r)))
                for x in (Fraction(float(Fraction(int(rng.integers(-400, 400)), int(rng.integers(1, 50))))) for _ in range(5)):
                    if x in (0, -c, -c_I) or n_E and x == -c_E:
                        continue
                    phi, psi, dphi, dpsi = exact_phi_psi(params, T, x)
                    assert poly_eval(P, x) == q * c_E**n_E * (c_I + x) ** n_I * (phi - psi)
                    args = (params.c, params.c_I, float(q), n_I, float(x), params.c_E, n_E)
                    assert (_exact_charpoly_ratio(*args), _exact_critical_ratio(*args)) == (float(1 - psi / phi), float(dphi / dpsi - 1))
                    if n_E:
                        H = poly_add(poly_mul(poly_pow(u, n_E - 1), r), [-q * c_E**n_E * n_I])
                        assert poly_eval(poly_deriv(P), x) == (c_I + x) ** (n_I - 1) * poly_eval(H, x)
                        assert poly_eval(poly_deriv(H), x) == (c_E + x) ** (n_E - 2) * poly_eval(k, x)

    def test_slope_is_the_quadratic_without_eclipse_stages(self):
        # at n_E = 0, c_E = 0 makes the quadratic's roots -c/2 and 0, and the
        # 0 cancels (c_E, -1): the critical level is (1 + 2 lam/c)(1 + lam/c_I)^(n_I + 1)
        rng = np.random.default_rng(22)
        for _ in range(50):
            params, _ = sample_params(rng, n_E_choices=(0,))
            factors = _critical_factors(params.c, params.c_E, 0, params.c_I, params.n_I)
            assert sorted(factors) == sorted([(params.c / 2.0, 1), (params.c_I, params.n_I + 1)])

    def test_quadratic_roots_are_real_and_negative(self):
        # every w of the family is positive and finite over a grid of rates
        # 1e-300 to 1e300, and -w1, -w2 are roots of the quadratic to rounding
        for c in (10.0**k for k in range(-300, 301, 50)):
            for c_E in (10.0**k for k in range(-300, 301, 50)):
                for n_E in (1, 2, 5):
                    factors = _critical_factors(c, c_E, n_E, 1.0, 3)
                    assert all(0.0 < w < math.inf and k > 0 for w, k in factors), (c, c_E, n_E)
                    for w, _ in factors:
                        if w in (c_E, 1.0):
                            continue
                        x = -Fraction(w)
                        Q = (2 + n_E) * x * x + (2 * Fraction(c_E) + (1 + n_E) * Fraction(c)) * x + Fraction(c_E) * Fraction(c)
                        scale = (2 + n_E) * x * x + (2 * Fraction(c_E) + (1 + n_E) * Fraction(c)) * -x + Fraction(c_E) * Fraction(c)
                        assert abs(Q) <= Fraction(1, 10**14) * scale, (c, c_E, n_E, w)


class TestRealRoots:
    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            params, T = sample_params(rng, n_E_choices=(0,))
            A = coefficient_matrix(params, T)
            ztol = 1e-8 * max(np.linalg.norm(A, np.inf), 1.0)
            numeric = sorted(z.real for z in full_spectrum_numeric(params, T)
                             if abs(z.imag) <= ztol)
            mine = sorted(real_roots(params, T))
            assert len(mine) == len(numeric)
            for a, b in zip(mine, numeric):
                assert a == pytest.approx(b, abs=1e-7 * max(1.0, np.linalg.norm(A, np.inf)))

    def test_exact_ratio_matches_rational_arithmetic(self):
        """P over its cascade term (c_I + lam)^n_I (c + lam) lam, rounded once,
        on both sides of -c_I, at n_I = 1, a deep cascade and a subnormal lam;
        NaN at the pole, at -c and past the float range."""
        for c, c_I, q, n_I, lam in [(1.3, 13 / 1.7, 0.77, 13, 0.875), (2.0, 3.0, 4.0, 2, -3.5),
                                    (2.0, 3.0, 4.0, 5, -7.25), (0.4, 2.5, 1.1, 1, -0.3),
                                    (1e3, 3e-3, 1e-3, 200, -1e-2), (0.5, 2.0, 1e-300, 3, 1e-310),
                                    (1e3, 999e3, 5e-324, 999, -1478631.1780471362), (1.3, 2.1, 5e-324, 40, 0.25),
                                    (2.0, 3.0, 1e-310, 7, -3.0000001), (0.5, 2.0, 5e-324, 3, 1e-310)]:
            C, CI, Q, X = map(Fraction, (c, c_I, q, lam))
            cascade = (CI + X) ** n_I * (C + X) * X
            assert _exact_charpoly_ratio(c, c_I, q, n_I, lam) == float((cascade + Q * (CI**n_I - (CI + X) ** n_I)) / cascade)
        assert math.isnan(_exact_charpoly_ratio(2.0, 3.0, 4.0, 5, -3.0))
        assert math.isnan(_exact_charpoly_ratio(2.0, 3.0, 4.0, 5, -2.0))
        assert math.isnan(_exact_charpoly_ratio(1e-300, 1.0, 1e300, 1, 1e-300))

    def test_exact_ratio_integers_do_not_grow_with_a_tiny_q(self):
        """q has its own power of two, so a subnormal q at n_I = 999 keeps the
        integers short: under 100 KB at the peak, where all four inputs over
        the one denominator of 5e-324 peaked at 876 KB."""
        args = (1e3, 999e3, 5e-324, 999, -1478631.1780471362)
        _exact_charpoly_ratio(*args)
        tracemalloc.start()
        try:
            _exact_charpoly_ratio(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("seed", range(6))
    def test_roots_are_within_an_ulp_of_the_exact_roots(self, seed):
        """Against a bisection by the exact sign of P (rational arithmetic
        from the float inputs) down to adjacent floats, on sampled sets and
        on deeper ones (n_I up to 40, rates 1e+-2)."""
        rng = np.random.default_rng(seed)
        sets = [sample_params(rng, n_E_choices=(0,)) for _ in range(25)]
        for _ in range(10):
            params = ModelParams(beta=loguniform(rng, 1e-2, 1e2), p=loguniform(rng, 1e-2, 1e2),
                                 c=loguniform(rng, 1e-2, 1e2), n_E=0, tau_E=None,
                                 n_I=int(rng.integers(1, 41)), tau_I=loguniform(rng, 1e-2, 1e2))
            sets.append((params, float(rng.uniform(0.0, 2.0 * params.T_star))))
        for params, T in sets:
            C, CI, Q = Fraction(params.c), Fraction(params.c_I), Fraction(params.beta * T * params.p)
            P = lambda x: (CI + x) ** params.n_I * (C + x) * x + Q * (CI**params.n_I - (CI + x) ** params.n_I)
            for root in real_roots(params, T):
                if root == 0.0:
                    continue
                lo, hi = root - 64 * math.ulp(root), root + 64 * math.ulp(root)
                negative_lo = P(Fraction(lo)) < 0
                assert negative_lo != (P(Fraction(hi)) < 0), (params, T, root)
                while math.nextafter(lo, hi) != hi:
                    mid = 0.5 * (lo + hi)
                    if (P(Fraction(mid)) < 0) == negative_lo:
                        lo = mid
                    else:
                        hi = mid
                assert root in (lo, hi), (params, T, root, lo, hi)

    @pytest.mark.parametrize("T, root", [(1e72, 1.414213562373095e36), (1e74, 1.414213562373095e37),
                                         (1e200, 1.414213562373095e100)])
    def test_roots_far_above_threshold_are_certified(self, T, root):
        # beta*T*p = 2T puts the outer roots at about +-sqrt(2T); a bracket
        # of the size of beta*T*p once left them uncertified after 200 steps
        params = make_params()
        roots = real_roots(params, T)
        assert roots == [-root, -4.0, 0.0, root]
        C, CI, Q = Fraction(params.c), Fraction(params.c_I), Fraction(params.beta * T * params.p)
        P = lambda x: (CI + x) ** 2 * (C + x) * x + Q * (CI**2 - (CI + x) ** 2)
        for r in (-root, -4.0, root):
            lo, hi = math.nextafter(r, -math.inf), math.nextafter(r, math.inf)
            assert (P(Fraction(lo)) < 0) != (P(Fraction(hi)) < 0), r

    def test_outer_bracket_holds_the_root_past_a_large_clearance(self):
        # P = lam ((1 + lam)(c + lam) - 1) has a root just below -c - 1; the
        # bracket |c| + 2|q|^(1/2) + 1 once rounded to 1e44 and left it out.
        # The other root is ~1e-44 above the pole -c_I = -1, where P = 1: it
        # lies on the float beside the pole
        params = make_params(c=1e44, n_I=1, tau_I=1.0, beta=1.0, p=1.0)
        roots = real_roots(params, 1.0)
        assert roots == [-1e44, math.nextafter(-1.0, 0.0), 0.0]
        assert exact_charpoly(params, 1.0, -1.0) > 0 > exact_charpoly(params, 1.0, roots[1])
        assert uncertified(params, 1.0, [(r, 1) for r in roots]) == []

    def test_a_root_left_uncertified_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_ROOT_STEPS", 3)
        with pytest.raises(ArithmeticError, match="not certified in 3 steps"):
            real_roots(make_params(), 0.75)

    @pytest.mark.parametrize("T", [0.75, 3.0])
    def test_a_flat_stretch_is_not_taken_for_a_root(self, monkeypatch, T):
        # P, wrapped to keep its sign but sit at 1e-300 on a stretch of 2e-11
        # around the first iterate of the first bracket searched: a Newton
        # step there is tiny, and only P's sign change tells it from a root
        params = make_params()
        honest, log_f, seen = real_roots(params, T), spectrum._log_f, []
        monkeypatch.setattr(spectrum, "_log_f", lambda *args: seen.append(args[4]) or log_f(*args))
        real_roots(params, T)
        # the Perron root's search starts at 0; its next point is a Newton iterate
        first = next(lam for lam in seen if lam != 0.0)

        def flat(c, c_I, q, n_I, lam, *eclipse):
            g, value, slope = log_f(c, c_I, q, n_I, lam, *eclipse)
            if abs(lam - first) <= 1e-11:
                return math.copysign(1e-300, g), math.copysign(1e-300, value), slope
            return g, value, slope

        monkeypatch.setattr(spectrum, "_log_f", flat)
        assert all(abs(r - first) > 1e-3 for r in honest)
        assert real_roots(params, T) == pytest.approx(honest, rel=1e-15, abs=1e-15)

    def test_critical_points_do_not_overflow(self):
        # the derivative quadratic's discriminant, 64T here, once passed the
        # float range at T = 2.9e306, long before the pressure does, and
        # raised; the critical level is a sum of logs, up to the largest
        # finite pressure
        params = make_params()
        for T in (2.8e306, 2.9e306, 8.9e307):
            roots = real_roots(params, T)
            assert len(roots) == 4 and roots[1] == -4.0
            assert uncertified(params, T, [(r, 1) for r in roots]) == []

    def test_zero_is_exact(self):
        params = make_params()
        for T in (0.5, 1.5, 2.5):
            assert 0.0 in real_roots(params, T)

    def test_far_root_with_skewed_rates(self):
        # a fast cascade pushes one root below -(c + c_I + beta*T*p + 1);
        # the outer bracket must still enclose it
        params = make_params(n_I=3, tau_I=3.0 / 100.0, c=1.0, beta=1.0, p=1.0, v_a=1.0)
        T = 1.0  # feedback weight beta*T*p = 1
        roots = real_roots(params, T)
        A = coefficient_matrix(params, T)
        ztol = 1e-8 * max(np.linalg.norm(A, np.inf), 1.0)
        numeric = sorted(z.real for z in full_spectrum_numeric(params, T)
                         if abs(z.imag) <= ztol)
        assert sorted(roots) == pytest.approx(numeric, abs=1e-7 * np.linalg.norm(A, np.inf))
        assert min(roots) < -(params.c + params.c_I + 1.0 + 1.0)

    def test_double_zero_at_threshold(self):
        params, T = cell_params(2, "=", "<")
        assert 0.0 in real_roots(params, T)
        assert dict(_certified_roots(params, T))[0.0] == 2


def _reported(params, T):
    """(value, algebraic, geometric) for every real root analyze reports,
    and the count of real entries in its numeric spectrum."""
    report = analyze(params, T)
    ztol = 1e-8 * max(np.linalg.norm(coefficient_matrix(params, T), np.inf), 1.0)
    roots = [(r.value, r.algebraic_multiplicity, r.geometric_multiplicity) for r in report.real_eigenvalues]
    return roots, sum(1 for z in report.numeric_spectrum if abs(z.imag) <= ztol)


def _two_roots(lam1, lam2):
    """n_I = 2, c_I = 1 parameters (beta = q, T = p = 1) whose polynomial
    vanishes at lam1 and lam2, or has a double root there when they are
    equal. P(lam) = (1+lam)^2 (c+lam) lam + q (1 - (1+lam)^2) and its
    derivative factor Q(lam) = 4 lam^2 + (3c + 2) lam + c - 2q are linear in
    (c, q)."""
    rows, rhs = [], []
    for lam in (lam1, lam2):
        a = (1.0 + lam) ** 2
        rows.append([a * lam, 1.0 - a])
        rhs.append(-a * lam * lam)
    if lam1 == lam2:
        rows[1], rhs[1] = [3.0 * lam1 + 1.0, -2.0], -(4.0 * lam1 * lam1 + 2.0 * lam1)
    c, q = np.linalg.solve(rows, rhs)
    assert c > 0 and q > 0
    return ModelParams(beta=q, p=1.0, c=c, n_I=2, tau_I=2.0, v_a=1.0), 1.0


class TestAlgebraicMultiplicity:
    def test_cascade_root_at_zero_infection(self):
        # T = 0: P = lam (c + lam) (c_I + lam)^n_I, the cascade's root is n_I-fold
        params = make_params(n_I=5, tau_I=1.0, c=3.0, D_PCF=0.1)
        roots, n_real = _reported(params, 0.0)
        assert roots == [(-5.0, 5, 1), (-3.0, 1, 1), (0.0, 1, 1)]
        assert sum(m for _, m, _ in roots) == n_real

    def test_cascade_root_meets_clearance(self):
        # c_I = c = 3: (3 + lam)^5 lam
        params = make_params(n_I=4, tau_I=4.0 / 3.0, c=3.0, D_PCF=0.1)
        roots, n_real = _reported(params, 0.0)
        assert roots == [(-3.0, 5, 1), (0.0, 1, 1)]
        assert sum(m for _, m, _ in roots) == n_real

    @pytest.mark.parametrize("r", [-1.25, -1.5, -1.75])
    def test_nonzero_double_root(self, r):
        params, T = _two_roots(r, r)
        roots, _ = _reported(params, T)
        assert [(m, g) for value, m, g in roots if value == r] == [(2, 1)]
        assert sum(m for _, m, _ in roots) == 4

    @pytest.mark.parametrize("r", [-1.25, -1.5, -1.75])
    def test_split_pair_is_two_simple_roots(self, r):
        lo, hi = r * (1 + 5e-5), r * (1 - 5e-5)
        params, T = _two_roots(lo, hi)
        roots, _ = _reported(params, T)
        assert len(roots) == 4 and all(m == 1 and g == 1 for _, m, g in roots)
        near = [value for value, _, _ in roots if abs(value - r) <= 1e-4 * abs(r)]
        assert near == pytest.approx([lo, hi], rel=1e-9)

    def test_zero_doubles_inside_the_critical_window(self):
        params = make_params()  # T* = 1.5
        for T, multiplicity in ((1.5 * (1 + 1e-12), 2), (1.5 * (1 + 1e-8), 1)):
            roots, _ = _reported(params, T)
            assert [(m, g) for value, m, g in roots if value == 0.0] == [(multiplicity, 1)]

    def test_agrees_with_finite_differences(self):
        rng = np.random.default_rng(13)
        cases = [sample_params(rng, n_E_choices=(0,)) for _ in range(40)]
        cases += [cell_params(n_I, row, col) for n_I in (1, 2, 3, 6) for row in "<=>" for col in "<=>"]
        for params, T in cases:
            for r in analyze(params, T).real_eigenvalues:
                assert r.algebraic_multiplicity == _finite_difference_multiplicity(params, T, r.value), (params, T)


def _eclipse_sample(rng, n_E_range, n_I_range):
    """One n_E > 0 set: counts uniform in the ranges, rates log-uniform in
    [0.1, 10], T uniform in [0, 2 T*], or in [0, 1e-3 T*] for one set in four."""
    n_E, n_I = (int(rng.integers(lo, hi + 1)) for lo, hi in (n_E_range, n_I_range))
    rates = {k: loguniform(rng, 0.1, 10.0) for k in ("beta", "p", "c", "tau_E", "tau_I", "v_a")}
    params = ModelParams(n_E=n_E, n_I=n_I, D_PCF=0.1, a=0.2, **rates)
    return params, float(rng.uniform(0.0, (2.0 if rng.random() < 0.75 else 1e-3) * params.T_star))


class TestEclipseRoots:
    """Real roots of n_E > 0 cascades, each certified by an exact sign
    change of P, with multiplicities that fill the degree."""

    def test_pinned_deep_set(self):
        # dense eigenvalues, clustered, once reported -277.5926377641322 here
        params = ModelParams(beta=9.794912639021726, p=3.8487866582892636, c=1.75532872096134, n_E=13,
                             tau_E=0.26953638321405765, n_I=40, tau_I=0.20913372245936446, v_a=1.679110233738963)
        T = 0.01956680333550516
        report = analyze(params, T)
        values = [r.value for r in report.real_eigenvalues]
        true_root = Fraction("-277.591456603904473")
        lo, = (x for x in values if abs(x + 277.59) < 1e-2)
        assert abs(Fraction(lo) - true_root) <= Fraction(math.ulp(lo))
        assert uncertified(params, T, [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]) == []

    @pytest.mark.parametrize("seed, n_E_range, n_I_range, n_sets", [(0, (5, 30), (5, 40), 100), (1, (1, 5), (1, 12), 200)])
    def test_samples_are_certified(self, seed, n_E_range, n_I_range, n_sets):
        rng = np.random.default_rng(seed)
        for _ in range(n_sets):
            params, T = _eclipse_sample(rng, n_E_range, n_I_range)
            report = analyze(params, T)
            roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
            assert uncertified(params, T, roots) == [], (params, T)
            assert sum(m for _, m in roots) + 2 * report.complex_pair_count == params.state_dim - 1
            positive = [r.value for r in report.real_eigenvalues if r.sign_class == "positive"]
            if positive:
                assert positive == pytest.approx([perron_root(params, T)], rel=1e-12)

    def test_critical_points_far_below_c_I_are_not_roots(self):
        # c_E = 1e-31 and |lam| far below c_I = 1e18: c_I^n_I and
        # (c_I + lam)^n_I cancel to ~1e-48 of either, which the log form
        # takes by expm1, so they are no scale for P's rounding; as one, they
        # once and the critical point -c_E/2 (double) pass for roots. The
        # root beside -c_I = -1e18 lies within an ulp of it, on the float below
        params = ModelParams(beta=1.0, p=1.0, c=1e-56, n_E=2, tau_E=2e31, n_I=9, tau_I=9e-18, v_a=1.0)
        report = analyze(params, 8e-42)
        roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
        assert roots == [(math.nextafter(-1e18, -math.inf), 1), (-9.928e-57, 1), (0.0, 1)]
        assert exact_charpoly(params, 8e-42, roots[0][0]) < 0 < exact_charpoly(params, 8e-42, -1e18)
        assert uncertified(params, 8e-42, roots) == [] and report.complex_pair_count == 5

    def test_roots_beside_zero_near_the_threshold(self):
        """T = T*(1 +- 10^u), u in [-9.9, -5], c log-uniform in 1e+-6: the
        root beside 0 is ~1e-10 of the scale, where P's rounding moves it by
        ~1e-6 of itself, so only the exact polish certifies it. Once 279 of
        3,000 such reports carried a value off by that much."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            n_E, n_I = int(rng.integers(0, 3)), int(rng.integers(1, 6))
            params = make_params(c=10.0 ** rng.uniform(-6, 6), n_E=n_E, tau_E=1.0 if n_E else None, n_I=n_I,
                                 tau_I=1.0, beta=1.0, p=1.0, v_a=1.0)
            T = params.T_star * (1 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.9, -5))
            report = analyze(params, T)
            roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
            assert uncertified(params, T, roots) == [], (params, T)

    def test_band_beside_the_critical_window(self):
        """T = T*(1 +- 10^u), u in [-10, -9]: H's terms cancel to the regime
        gap near 0, yet the root beside 0 is bracketed, so it is simple. A
        second 1e-10 window on H once called it double, and the report then
        failed its parity check (exit 3) on ~30% of these sets."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_E, n_I = int(rng.integers(1, 4)), int(rng.integers(1, 7))
            rates = {k: loguniform(rng, 0.1, 10.0) for k in ("beta", "p", "c", "tau_E", "tau_I", "v_a")}
            params = ModelParams(n_E=n_E, n_I=n_I, **rates)
            T = params.T_star * (1 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -9))
            report = analyze(params, T)
            roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
            assert uncertified(params, T, roots) == [], (params, T)
            assert sum(m for _, m in roots) + 2 * report.complex_pair_count == params.state_dim - 1

    @pytest.mark.parametrize("c_E, c_I, c", [(2.0, 1.5, 1.5), (2.0, 2.0, 1.5), (1.5, 1.5, 1.5), (0.75, 2.5, 1.5)],
                             ids=["c=c_I", "c_E=c_I", "all-equal", "distinct"])
    def test_zero_infection_grid(self, c_E, c_I, c):
        # T = 0: P = (c_E + lam)^n_E (c_I + lam)^n_I (c + lam) lam, so the
        # report is its factors' roots, equal ones merged, and no complex
        # pair; with c = c_I the search once reported (-2, 1), (0, 1) and a
        # pair at n_E = n_I = 1, or raised
        for n_E in range(5):
            for n_I in range(1, 7):
                params = make_params(n_E=n_E, tau_E=n_E / c_E if n_E else None, n_I=n_I, tau_I=n_I / c_I, c=c)
                assert params.c_I == c_I and params.c_E == (c_E if n_E else 0.0)
                factors = {}
                for root, m in ((-c_E, n_E), (-c_I, n_I), (-c, 1), (0.0, 1)):
                    if m:
                        factors[root] = factors.get(root, 0) + m
                report = analyze(params, 0.0)
                roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
                assert roots == sorted(factors.items()), (n_E, n_I)
                assert report.complex_pair_count == 0

    def test_double_root_at_minus_c_E(self):
        # n_E = 1, c_E = 2 c_I, n_I = 2 and q = R(-c_E)/(c_E n_I) = 1/2:
        # P = (2 + lam)^2 lam (lam^2 + 3 lam + 1). K = (c_E + lam) R' vanishes
        # at -c_E, the end two pieces share: it counts once, and against the
        # order -1 of H' there, so H's root is simple and P's double
        params = ModelParams(beta=0.5, p=1.0, c=3.0, n_E=1, tau_E=0.5, n_I=2, tau_I=2.0, v_a=1.0)
        roots, n_real = _reported(params, 1.0)
        assert [(value, m) for value, m, _ in roots] == [
            (pytest.approx(-(3 + 5**0.5) / 2, rel=1e-15), 1), (-2.0, 2),
            (pytest.approx(-(3 - 5**0.5) / 2, rel=1e-15), 1), (0.0, 1)]
        assert n_real == 5

    @pytest.mark.parametrize("n_E, n_I, scale", [(1, 7, 1e-64), (1, 5, 1e51), (3, 1, 1e-70), (5, 1, 1e-20)])
    def test_poles_at_the_least_subnormal_T(self, n_E, n_I, scale):
        # q = 5e-324: P is nonzero at -c_I (q c_E^n_E c_I^n_I) and changes
        # sign between it and the float beside it, once at odd n_I; once more
        # within an ulp of -c and of -c_E (odd n_E), and the rest of the
        # structural orders n_I and n_E are complex pairs. Each reported root
        # has exact P changing sign across the floats next to it
        params = ModelParams(beta=1.0, p=1.0, c=1.5 * scale, n_E=n_E, tau_E=n_E / (0.75 * scale), n_I=n_I,
                             tau_I=n_I / (2.5 * scale), v_a=1.0)
        report = analyze(params, 5e-324)
        roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
        beside = roots[0][0]
        assert beside != -params.c_I and abs(beside + params.c_I) == math.ulp(params.c_I)
        assert exact_charpoly(params, 5e-324, -params.c_I) > 0 > exact_charpoly(params, 5e-324, beside)
        assert roots == [(beside, 1), (-params.c, 1), (-params.c_E, 1), (0.0, 1)]
        for x, _ in roots[:-1]:
            below, above = (exact_charpoly(params, 5e-324, math.nextafter(x, side)) for side in (-math.inf, math.inf))
            assert (below > 0) != (above > 0), x
        assert report.complex_pair_count == (n_E + n_I - 2) // 2

    @pytest.mark.parametrize("n_E, n_I", [(1, 1), (1, 4), (2, 3), (5, 2), (13, 40)])
    def test_zero_infection(self, n_E, n_I):
        # T = 0: P = (c_E + lam)^n_E (c_I + lam)^n_I (c + lam) lam
        params = make_params(n_E=n_E, tau_E=n_E / 0.75, n_I=n_I, tau_I=n_I / 2.5, c=1.5)
        report = analyze(params, 0.0)
        roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
        assert roots == [(-2.5, n_I), (-1.5, 1), (-0.75, n_E), (0.0, 1)]
        assert report.complex_pair_count == 0

    @pytest.mark.parametrize("n_E, n_I", [(1, 1), (2, 3), (4, 4)])
    def test_equal_cascade_rates(self, n_E, n_I):
        # c_E = c_I = 2: at T = 0 one root of multiplicity n_E + n_I
        params = make_params(n_E=n_E, tau_E=n_E / 2.0, n_I=n_I, tau_I=n_I / 2.0, c=1.5)
        assert params.c_E == params.c_I == 2.0
        roots = [(r.value, r.algebraic_multiplicity) for r in analyze(params, 0.0).real_eigenvalues]
        assert roots == [(-2.0, n_E + n_I), (-1.5, 1), (0.0, 1)]
        for T in (0.1, 1.0, 3.0):
            report = analyze(params, T)
            roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
            assert uncertified(params, T, roots) == [], T
            assert sum(m for _, m in roots) + 2 * report.complex_pair_count == n_E + n_I + 2


class TestSignClass:
    def test_buckets(self):
        c_I = 2.0
        assert sign_class(-3.0, c_I) == "neg_below_cI"
        assert sign_class(-1.0, c_I) == "neg_in_cI_0"
        assert sign_class(0.0, c_I) == "zero"
        assert sign_class(4.0, c_I) == "positive"

    def test_only_an_exact_zero_is_zero(self):
        # a certified root is zero only when it is 0.0; no window holds others
        assert sign_class(-0.0, 2.0) == "zero"
        assert sign_class(5e-324, 2.0) == "positive"
        assert sign_class(-5e-324, 2.0) == "neg_in_cI_0"


class TestPredictedPattern:
    def test_even_cells(self):
        params, T = cell_params(2, "<", "<")
        pattern = predicted_sign_pattern(params, T)
        assert pattern.n_I_parity == "even"
        assert sorted(pattern.mandatory) == ["positive", "zero"]
        assert pattern.optional_pairs == (("neg_below_cI", "neg_below_cI"),)
        params, T = cell_params(4, ">", ">")
        pattern = predicted_sign_pattern(params, T)
        assert sorted(pattern.mandatory) == ["neg_in_cI_0", "zero"]
        assert pattern.optional_pairs == ()

    def test_odd_cells_identical_across_columns(self):
        patterns = [predicted_sign_pattern(*cell_params(3, ">", col)) for col in ("<", "=", ">")]
        mandatories = {tuple(sorted(p.mandatory)) for p in patterns}
        assert mandatories == {("neg_below_cI", "neg_in_cI_0", "zero")}
        assert all(p.optional_pairs == () for p in patterns)

    def test_stated_for_n_E_0_only(self):
        # the paper states its 3x3 grid without eclipse stages
        with pytest.raises(InvalidParamsError):
            predicted_sign_pattern(make_params(n_E=1, tau_E=1.0), 1.0)

    def test_double_zero_only_on_equality_row(self):
        assert predicted_sign_pattern(*cell_params(2, "=", ">")).zero_algebraic_multiplicity == 2
        assert predicted_sign_pattern(*cell_params(2, "<", ">")).zero_algebraic_multiplicity == 1
        assert predicted_sign_pattern(*cell_params(3, "=", "<")).zero_algebraic_multiplicity == 2


class TestEigenvectors:
    def test_formula_satisfies_eigen_equation(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            params, T = sample_params(rng, n_E_choices=(0,))
            A = coefficient_matrix(params, T)
            for lam in real_roots(params, T):
                if abs(lam + params.c_I) <= 1e-9 * params.c_I:
                    continue  # formula pole
                v = eigenvector(params, T, lam)
                resid = np.max(np.abs(A @ v - lam * v))
                assert resid <= 1e-8 * np.max(np.abs(v))

    def test_zero_mode_closed_form(self):
        params = make_params(beta=1.0, p=2.0, c=3.0, n_I=2, tau_I=1.0, v_a=0.5)
        T = 1.0  # pressure 2*2 = 4... clearance 3: off threshold
        v = eigenvector(params, T, 0.0)
        c_I = 2.0
        np.testing.assert_allclose(v[:2], [1.0 * 1.0 / c_I] * 2)
        assert v[2] == 1.0
        # W balances the V row: p*sum(I) - c*V + v_a*W = 0
        assert v[3] == pytest.approx((3.0 - 1.0 * T * 2.0 * 1.0) * 1.0 / 0.5)

    def test_decaying_mode_has_no_gradient_component(self):
        params = make_params()
        roots = [r for r in real_roots(params, 1.0) if r != 0.0]
        for lam in roots:
            v = eigenvector(params, 1.0, lam)
            assert v[-1] == 0.0

    def test_zero_advection_branches(self):
        params, T = cell_params(2, "=", ">")
        params_flat = dataclasses.replace(params, v_a=0.0)
        v = eigenvector(params_flat, T, 0.0)
        assert v[-1] == 0.0  # balanced production needs no gradient term
        off = eigenvector(params_flat, 0.5 * T, 0.0)
        assert off[-1] != 0.0 and np.allclose(off[:-1], 0.0)  # pure gradient direction

    @pytest.mark.parametrize("rel", [5e-13, 5e-11, -5e-11])
    def test_zero_advection_critical_window_is_classify_s(self, rel):
        # T* = 1.5; within classify's 1e-10 window of it the zero is double
        # and its eigenvector is the V family, balanced with W = 0
        params = make_params(v_a=0.0)
        T = 1.5 * (1 + rel)
        assert classify(params, T) == "Critical"
        zero, = (r for r in analyze(params, T).real_eigenvalues if r.value == 0.0)
        assert zero.algebraic_multiplicity == 2
        np.testing.assert_array_equal(eigenvector(params, T, 0.0), [T / 2.0, T / 2.0, 1.0, 0.0])
        # past the window the zero is simple and its eigenvector is the pure W direction
        for off in (1.5 * (1 + 1e-8), 1.5 * (1 - 1e-8)):
            assert classify(params, off) != "Critical"
            np.testing.assert_array_equal(eigenvector(params, off, 0.0), [0.0, 0.0, 0.0, 1.0])

    def test_multiplicities(self):
        params = make_params()
        A = coefficient_matrix(params, 1.0)
        for r in analyze(params, 1.0).real_eigenvalues:
            assert geometric_multiplicity(A, r.value) == 1
            assert r.algebraic_multiplicity == 1
        with pytest.raises(ValueError):
            geometric_multiplicity(A, 123.45)  # not an eigenvalue

    def test_threshold_zero_is_defective(self):
        # algebraic multiplicity two, geometric one: a genuine Jordan block
        params, T = cell_params(3, "=", "="); A = coefficient_matrix(params, T)
        zero, = (r for r in analyze(params, T).real_eigenvalues if r.value == 0.0)
        assert (zero.algebraic_multiplicity, zero.geometric_multiplicity) == (2, 1)
        assert geometric_multiplicity(A, 0.0) == 1


class TestAnalyze:
    def test_analytic_report(self):
        report = analyze(make_params(), 1.0)
        assert report.classification == "Definite"
        assert report.predicted_pattern is not None
        doc = report.to_json_dict()
        assert doc["analytic"] is True and doc["notice"] is None
        classes = [r.sign_class for r in report.real_eigenvalues]
        assert "zero" in classes and "positive" not in classes

    def test_indefinite_has_single_positive(self):
        report = analyze(make_params(), 2.0)
        assert [r.sign_class for r in report.real_eigenvalues].count("positive") == 1

    def test_dimension_bookkeeping(self):
        # real roots counted with their algebraic multiplicity plus the
        # complex pairs fill the (E, I, V, W) block
        rng = np.random.default_rng(31)
        for _ in range(15):
            params, T = sample_params(rng)
            report = analyze(params, T)
            total = sum(r.algebraic_multiplicity for r in report.real_eigenvalues)
            assert total + 2 * report.complex_pair_count == params.state_dim - 1

    def test_signs_track_regime(self):
        for params in (make_params(), make_params(n_E=2, tau_E=0.7)):  # T* = 1.5
            for T, n_positive in ((1.0, 0), (2.0, 1)):
                classes = [r.sign_class for r in analyze(params, T).real_eigenvalues]
                assert classes.count("positive") == n_positive

    def test_eclipse_stages_are_analytic(self):
        params, T = make_params(n_E=2, tau_E=1.0), 1.0
        report = analyze(params, T)
        doc = report.to_json_dict()
        assert doc["analytic"] is True and doc["notice"] is None
        assert report.predicted_pattern is None  # the 3x3 regime table is stated at n_E = 0
        assert len(report.numeric_spectrum) == 6
        A = coefficient_matrix(params, T)
        for r in report.real_eigenvalues:
            v = np.array(r.eigenvector)
            assert v.shape == (6,) and v[-2] == 1.0
            assert np.max(np.abs(A @ v - r.value * v)) <= 1e-12 * np.max(np.abs(v))
            assert r.geometric_multiplicity == 1
        total = sum(r.algebraic_multiplicity for r in report.real_eigenvalues)
        assert total + 2 * report.complex_pair_count == 6

    def test_json_shape(self):
        # the key order is part of the byte contract
        doc = analyze(make_params(), 1.0).to_json_dict()
        assert list(doc) == [
            "analytic", "classification", "T_star", "regime", "real_eigenvalues",
            "complex_pair_count", "numeric_spectrum", "predicted_pattern", "notice",
        ]
        assert doc["classification"] == "Definite"
        assert list(doc["regime"]) == ["n_I_parity", "quadratic_at_minus_cI", "clearance_vs_pressure"]
        assert doc["real_eigenvalues"]
        for entry in doc["real_eigenvalues"]:
            assert list(entry) == [
                "value", "sign_class", "algebraic_multiplicity",
                "geometric_multiplicity", "eigenvector",
            ]
        assert list(doc["predicted_pattern"]) == [
            "n_I_parity", "clearance_vs_pressure", "quadratic_at_minus_cI",
            "mandatory", "optional_pairs", "zero_algebraic_multiplicity",
        ]


def _threshold_sample(rng):
    """One n_E = 0 set next to its threshold: n_I uniform in [1, 40], beta,
    p, c and tau_I log-uniform in [1e-2, 1e2], v_a = 0 in 30% of sets, at
    T = T*(1 +- 10^u) with u uniform in [-13, -3]."""
    params = ModelParams(
        beta=loguniform(rng, 1e-2, 1e2), p=loguniform(rng, 1e-2, 1e2), c=loguniform(rng, 1e-2, 1e2),
        n_E=0, n_I=int(rng.integers(1, 41)), tau_I=loguniform(rng, 1e-2, 1e2), D_PCF=0.1,
        v_a=0.0 if rng.random() < 0.3 else loguniform(rng, 1e-2, 1e2), a=0.2,
    )
    return params, params.T_star * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13, -3))


class TestNearThreshold:
    """Next to T* the regime row alone decides the zero and the sign of the
    root beside it: one zero, double exactly on the Critical row, and one
    positive root, the Perron root, exactly on the Indefinite row."""

    def test_reports_follow_the_row(self):
        rng = np.random.default_rng(20)
        for _ in range(1000):
            params, T = _threshold_sample(rng)
            report = analyze(params, T)
            kind, roots = report.classification, report.real_eigenvalues
            zeros = [r for r in roots if r.sign_class == "zero"]
            assert [r.value for r in zeros] == [0.0], (params, T)
            assert (zeros[0].algebraic_multiplicity == 2) == (kind == "Critical"), (params, T)
            positive = [r.value for r in roots if r.sign_class == "positive"]
            assert len(positive) == (1 if kind == "Indefinite" else 0), (params, T)
            if positive:
                scale = max(np.linalg.norm(coefficient_matrix(params, T), np.inf), 1.0)
                assert abs(positive[0] - perron_root(params, T)) <= 1e-13 * scale, (params, T)
            assert all(r.geometric_multiplicity <= r.algebraic_multiplicity for r in roots), (params, T)

    @pytest.mark.parametrize("v_a", [0.0, 0.5])
    @pytest.mark.parametrize("side, label", [(1.0, "positive"), (-1.0, "neg_in_cI_0")])
    def test_root_beside_zero_is_the_perron_root(self, v_a, side, label):
        # the root is ~9.23e-9 from 0; the critical point halfway between
        # them is no root, though P there is ~1e-17 of its scale
        params = make_params(v_a=v_a)  # T* = 1.5
        T = 1.5 * (1 + side * 1e-8)
        report = analyze(params, T)
        beside, = (r for r in report.real_eigenvalues if r.value != 0.0)
        scale = max(np.linalg.norm(coefficient_matrix(params, T), np.inf), 1.0)
        assert abs(beside.value - perron_root(params, T)) <= 1e-13 * scale
        assert (beside.sign_class, beside.algebraic_multiplicity, beside.geometric_multiplicity) == (label, 1, 1)
        zero, = (r for r in report.real_eigenvalues if r.value == 0.0)
        assert (zero.sign_class, zero.algebraic_multiplicity, zero.geometric_multiplicity) == ("zero", 1, 1)

    @pytest.mark.parametrize("v_a, geometric", [(0.0, 2), (0.5, 1)])
    def test_critical_row_reports_only_the_double_zero(self, v_a, geometric):
        params = make_params(v_a=v_a)
        T = 1.5 * (1 + 1e-11)
        assert real_roots(params, T) == [0.0]
        roots = [(r.value, r.sign_class, r.algebraic_multiplicity, r.geometric_multiplicity)
                 for r in analyze(params, T).real_eigenvalues]
        assert roots == [(0.0, "zero", 2, geometric)]

    @pytest.mark.parametrize("T", [1e9, 1e17])
    def test_large_T_roots_keep_their_classes(self, T):
        # a zero window of 1e-8 ||A||_inf ~ 2e-8 T would hold -4 and, at
        # 1e17, every root; an SVD rank cut gives -4 and 0 multiplicity 3
        report = analyze(make_params(v_a=0.5), T)
        roots = [(r.sign_class, r.geometric_multiplicity) for r in report.real_eigenvalues]
        assert roots == [("neg_below_cI", 1), ("neg_below_cI", 1), ("zero", 1), ("positive", 1)]


@given(
    n_E=st.integers(0, 3),
    n_I=st.integers(1, 6),
    c=st.floats(0.1, 10.0),
    tau_I=st.floats(0.1, 10.0),
    T=st.floats(0.0, 3.0),
)
@settings(deadline=None, max_examples=80)
def test_spectrum_always_contains_zero(n_E, n_I, c, tau_I, T):
    params = ModelParams(beta=1.0, p=1.0, c=c, n_I=n_I, tau_I=tau_I, n_E=n_E,
                         tau_E=1.0 if n_E else None, D_PCF=0.0, v_a=0.3, a=0.0)
    A = coefficient_matrix(params, T)
    eigs = full_spectrum_numeric(params, T)
    assert np.min(np.abs(eigs)) <= 1e-9 * max(np.linalg.norm(A, np.inf), 1.0)


def _floor_rate(params: ModelParams) -> float:
    rates = [params.c_I, params.c] + ([params.c_E] if params.n_E > 0 else [])
    return min(rates)


class TestPerronRoot:
    @pytest.mark.parametrize("n_E", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_I", [1, 2, 5, 13, 30, 60])
    def test_matches_dense_block_spectrum(self, n_E, n_I):
        rng = np.random.default_rng([n_E, n_I])
        for _ in range(3):
            params, _ = sample_params(rng, n_E_choices=(n_E,), n_I_choices=(n_I,))
            T_star = params.T_star
            Ts = np.append(np.linspace(0.0, 2.0 * T_star, 9), T_star)
            roots = perron_root(params, Ts)
            for T, root in zip(Ts.tolist(), roots.tolist()):
                A = coefficient_matrix(params, T)
                scale = max(np.linalg.norm(A, np.inf), 1.0)
                ztol = 1e-8 * scale
                block = A[:-1, :-1]  # the W row and column carry the structural zero
                if T == 0.0:
                    # triangular: the dense solver scatters around the defective
                    # Jordan blocks, the diagonal is exact
                    assert root == -_floor_rate(params) == np.max(np.diag(block))
                    continue
                w = np.linalg.eigvals(block)
                reals = [z.real for z in w if abs(z.imag) <= ztol]
                assert abs(root - max(reals)) <= 1e-12 * scale, (params, T)
                assert (1 if root > ztol else 0) == sum(1 for v in reals if v > ztol)

    def test_scalar_and_array_forms_agree(self):
        params = make_params(n_E=2, tau_E=0.7, n_I=5)
        Ts = np.linspace(0.0, 3.0, 7)
        roots = perron_root(params, Ts)
        assert roots.shape == Ts.shape
        for T, root in zip(Ts.tolist(), roots.tolist()):
            single = perron_root(params, T)
            assert type(single) is float and single == root

    def test_sign_follows_the_threshold(self):
        params = make_params()  # T* = 1.5
        below, above = perron_root(params, [1.4, 1.6])
        assert below < 0.0 < above
        assert abs(perron_root(params, 1.5)) <= 1e-14

    def test_rejects_negative_T(self):
        with pytest.raises(ValueError):
            perron_root(make_params(), -1.0)

    def test_no_overflow_up_to_the_largest_finite_pressure(self):
        # beta*T*p = 2T; the bracket's q*n_I passes the float range past
        # T = 4.5e307, where the root once came back as 0.0
        Ts = np.array([1e72, 4.6e307, 8.9e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = perron_root(make_params(), Ts)
        np.testing.assert_allclose(roots, np.sqrt(2.0) * np.sqrt(Ts), rtol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_deep_cascades_stay_bracketed(self, seed):
        """n_I up to 200 and rates log-uniform in 1e+-3: the root is finite,
        inside (-m, sqrt(beta*T*p*n_I)], F - 1 changes sign across it, and it
        grows with T."""
        rng = np.random.default_rng(seed)
        for _ in range(25):
            params = _deep_params(rng)
            m = _floor_rate(params)
            Ts = np.sort(rng.uniform(0.0, 2.0 * params.T_star, 40))
            Ts = Ts[Ts > 0.0]
            roots = perron_root(params, Ts)
            assert np.all(np.isfinite(roots))
            q = params.beta * Ts * params.p
            assert np.all(roots > -m) and np.all(roots <= np.sqrt(q * params.n_I))
            assert np.all(np.diff(roots) >= 0.0)
            step = 1e-12 * np.maximum(m, np.abs(roots))
            below, above = roots - step, roots + step
            inside = below > -m  # F is +inf at -m itself
            assert np.all(_log_perron_f(params, q[inside], below[inside]) > 0.0)
            assert np.all(_log_perron_f(params, q, above) < 0.0)


def _exactly_above_one(params: ModelParams, q: float, lam: float) -> bool:
    """F(lam) > 1, decided in rational arithmetic from the float inputs, with
    S(lam) = (1 - (c_I/(c_I + lam))^n_I)/lam (n_I/c_I at 0)."""
    lam, c_I = Fraction(lam), Fraction(params.c_I)
    S = Fraction(params.n_I) / c_I if lam == 0 else (1 - (c_I / (c_I + lam)) ** params.n_I) / lam
    F = Fraction(q) * S / (Fraction(params.c) + lam)
    if params.n_E > 0:
        c_E = Fraction(params.c_E)
        F *= (c_E / (c_E + lam)) ** params.n_E
    return F > 1


def _bisected_perron_root(params: ModelParams, q: float) -> float:
    """Plain bisection of F = 1 on (-m, sqrt(q*n_I)] by the exact sign of
    F - 1, to a bracket of 2*eps*max(m, |lo|, |hi|) or adjacent floats."""
    lo, hi = -_floor_rate(params), math.sqrt(q * params.n_I)
    while hi - lo > 2.0 * np.finfo(float).eps * max(_floor_rate(params), -lo, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _exactly_above_one(params, q, mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _deep_params(rng) -> ModelParams:
    """n_E in 0-3, n_I in [1, 200] and rates log-uniform in [1e-3, 1e3]."""
    n_E = int(rng.integers(0, 4))
    return ModelParams(
        beta=loguniform(rng, 1e-3, 1e3), p=loguniform(rng, 1e-3, 1e3),
        c=loguniform(rng, 1e-3, 1e3), n_E=n_E,
        tau_E=loguniform(rng, 1e-3, 1e3) if n_E else None,
        n_I=int(rng.integers(1, 201)), tau_I=loguniform(rng, 1e-3, 1e3),
        v_a=loguniform(rng, 1e-3, 1e3),
    )


class TestPerronRootOracles:
    @pytest.mark.parametrize("n_E", [0, 1, 2, 3])
    def test_is_the_spectral_abscissa_of_sampled_sets(self, n_E):
        """The largest real part of the dense (E, I, V) block spectrum, with
        the W row's structural zero set aside."""
        rng = np.random.default_rng(100 + n_E)
        for _ in range(40):
            params, T = sample_params(rng, n_E_choices=(n_E,))
            A = coefficient_matrix(params, T)
            abscissa = np.linalg.eigvals(A[:-1, :-1]).real.max()
            assert abs(perron_root(params, T) - abscissa) <= 1e-12 * max(np.linalg.norm(A, np.inf), 1.0), (params, T)

    @pytest.mark.parametrize("n_E, n_I", [(0, 1), (0, 7), (2, 40), (3, 200)])
    def test_slope_is_the_derivative_of_log_f(self, n_E, n_I):
        """Against S'/S - 1/(c+lam) - n_E/(c_E+lam) from the sums
        S = sum_j c_I^j/(c_I+lam)^(j+1) and S' = -sum_j (j+1) c_I^j/(c_I+lam)^(j+2),
        whose terms share one sign, on both sides of the near-0 series switch,
        and the closed form -(n_I+1)/(2 c_I) - 1/c - n_E/c_E at 0."""
        params = make_params(n_E=n_E, tau_E=0.8 if n_E else None, n_I=n_I, tau_I=1.3)
        m, c_I = _floor_rate(params), params.c_I
        switch = 1e-4 * c_I / n_I  # |n_I*log1p(lam/c_I)| ~ 1e-4 there
        lam = np.concatenate([np.linspace(-0.5 * m, 3.0, 37), switch * np.array([-1.01, -0.99, 0.5, 0.99, 1.01])])
        j = np.arange(n_I)[:, None]
        rho_j = (c_I / (c_I + lam)) ** j  # c_I^j/(c_I+lam)^(j+1) = rho^j/(c_I+lam)
        want = -((j + 1) * rho_j).sum(0) / (c_I + lam) / rho_j.sum(0) - 1.0 / (params.c + lam)
        if n_E:
            want -= n_E / (params.c_E + lam)
        np.testing.assert_allclose(_log_perron_slope(params, lam), want, rtol=1e-11)
        at_zero = -(n_I + 1) / (2.0 * c_I) - 1.0 / params.c - (n_E / params.c_E if n_E else 0.0)
        assert _log_perron_slope(params, np.array([0.0]))[0] == pytest.approx(at_zero, rel=1e-15)

    def test_scalar_log_form_matches_log_perron_f(self):
        """On (-m, inf) _log_f's log F is _log_perron_f's to a few eps of the
        forms' own conditioning: 1 + lam/w loses eps |lam/w|/|1 + lam/w|
        near -w, which the scalar form keeps by forming w + lam."""
        rng, eps = np.random.default_rng(1), np.finfo(float).eps
        for _ in range(100):
            params, T = sample_params(rng, n_I_choices=tuple(range(1, 41)))
            q, m = params.beta * T * params.p, _floor_rate(params)
            lams = np.concatenate([-m * (1 - 10.0 ** -np.arange(1, 16)), m * np.linspace(-0.9, 3, 40),
                                   10.0 ** -np.arange(1, 300, 7), -(10.0 ** -np.arange(1, 300, 7))])
            lams = lams[lams > -m]
            want = _log_perron_f(params, np.full(lams.shape, q), lams)
            for lam, w in zip(lams.tolist(), want.tolist()):
                g = _log_f(params.c, params.c_I, q, params.n_I, lam, params.c_E, params.n_E)[0]
                kappa = sum(n * abs(lam / r) / abs(1 + lam / r) for n, r in ((params.n_I, params.c_I), (params.n_E, params.c_E)) if n)
                assert abs(g - w) <= 4 * eps * (1 + abs(w) + kappa), (params, T, lam)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_an_exact_bisection(self, seed):
        """Within 4*eps*max(m, |root|) of a bisection by the exact sign of
        F - 1, on sampled sets at n_E 0-3 and deep ones (n_I <= 200, rates
        1e+-3), at T = 0, tiny beta*T, within 1e-9 of T* and at random T."""
        rng = np.random.default_rng(seed)
        sets = [sample_params(rng, n_E_choices=(n_E,))[0] for n_E in range(4)]
        sets += [_deep_params(rng) for _ in range(3)]
        for params in sets:
            T_star, m = params.T_star, _floor_rate(params)
            Ts = np.array([0.0, 1e-300, 1e-12 * T_star, (1 - 1e-9) * T_star, T_star, (1 + 1e-9) * T_star,
                           *rng.uniform(0.0, 2.0 * T_star, 2)])
            roots = perron_root(params, Ts)
            assert roots[0] == -m
            for T, root in zip(Ts[1:].tolist(), roots[1:].tolist()):
                q = params.beta * T * params.p
                want = _bisected_perron_root(params, q) if q > 0.0 else -m
                assert abs(root - want) <= 4.0 * np.finfo(float).eps * max(m, abs(want)), (params, T)


def _sweep_shape_params(rng, n_E: int, n_I: int, steps: int) -> tuple[ModelParams, np.ndarray]:
    """A set shaped like a benchmark sweep: rates log-uniform in [0.3, 3],
    and a T grid from 0.3-0.7 T* to 1.3-2 T* with T* halfway between two
    nodes."""
    params = ModelParams(
        beta=loguniform(rng, 0.3, 3.0), p=loguniform(rng, 0.3, 3.0), c=loguniform(rng, 0.3, 3.0),
        n_E=n_E, tau_E=loguniform(rng, 0.5, 3.0) if n_E else None, n_I=n_I, tau_I=loguniform(rng, 0.5, 3.0),
    )
    T_star = params.T_star
    lo, hi = rng.uniform(0.3, 0.7) * T_star, rng.uniform(1.3, 2.0) * T_star
    dT = (hi - lo) / (steps - 1)
    lo = T_star - (math.floor((T_star - lo) / dT) + 0.5) * dT
    return params, lo + dT * np.arange(steps)


def _counting(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(spectrum, name)
    monkeypatch.setattr(spectrum, name, lambda *args: calls.append(1) or inner(*args))
    return calls


class TestWorkCounts:
    """Evaluations counted by wrapping the private functions, not timed."""

    @pytest.mark.parametrize("n_E, n_I, steps", [(0, 60, 201), (3, 12, 401), (1, 30, 301), (2, 3, 1001)])
    def test_perron_root_sweeps_take_few_evaluations(self, monkeypatch, n_E, n_I, steps):
        calls = _counting(monkeypatch, "_log_perron_f")
        for seed in range(3):
            params, Ts = _sweep_shape_params(np.random.default_rng([n_E, n_I, seed]), n_E, n_I, steps)
            calls.clear()
            perron_root(params, Ts)
            assert len(calls) <= 12

    def test_analyze_decides_the_regime_cell_once(self, monkeypatch):
        # the report, its root search and its zero eigenvector share one
        # decision: with and without advection, on and off the Critical row,
        # at T = 0, with eclipse stages, and in every constructed cell
        calls = _counting(monkeypatch, "_regime_rows")
        cells = [cell_params(n_I, row, col) for n_I in (1, 2, 5) for row in "<=>" for col in "<=>"]
        cases = cells + [(dataclasses.replace(params, v_a=0.0), T) for params, T in cells]
        cases += [(make_params(v_a=0.0), T) for T in (0.0, 1.0, 1.5, 2.0)]
        rng = np.random.default_rng(5)
        cases += [sample_params(rng) for _ in range(20)]
        for params, T in cases:
            calls.clear()
            analyze(params, T)
            assert len(calls) == 1, (params, T)

    def test_real_roots_take_few_evaluations_per_root(self, monkeypatch):
        # evaluations of the log form, the search's one evaluation of P
        calls = _counting(monkeypatch, "_log_f")
        rng = np.random.default_rng(0)
        for n_E_choices in ((0,), (1, 2, 3)):
            calls.clear()
            roots = sum(len(real_roots(*sample_params(rng, n_E_choices=n_E_choices))) for _ in range(500))
            assert len(calls) <= 15 * roots

    def test_critical_level_takes_few_evaluations_per_set(self, monkeypatch):
        calls = _counting(monkeypatch, "_critical_level")
        rng = np.random.default_rng(0)
        for _ in range(500):
            params, T = sample_params(rng, n_I_choices=tuple(range(1, 13)))
            calls.clear()
            real_roots(params, T)
            assert len(calls) <= 64, (params, T)  # up to four critical points and two maxima


class TestDeepCascadeRoots:
    """beta=1, p=2, c=3, tau_I=1, T=0.75 at depth: no spurious root passes the
    endpoint test, every reported root has a residual-checked eigenvector, and
    odd n_I keeps its root below -c_I."""

    @pytest.mark.parametrize("n_I", [31, 40, 60])
    def test_analyze_succeeds(self, n_I):
        params = make_params(n_I=n_I)
        report = analyze(params, 0.75)
        A = coefficient_matrix(params, 0.75)
        values = [r.value for r in report.real_eigenvalues]
        assert 0.0 in values
        for r in report.real_eigenvalues:
            assert r.geometric_multiplicity == 1
            if r.eigenvector is None:
                continue
            v = np.array(r.eigenvector)
            resid = float(np.max(np.abs(A @ v - r.value * v)))
            assert resid <= 1e-8 * float(np.max(np.abs(v)))
        below = [x for x in values if x < -params.c_I]
        assert len(below) == (1 if n_I % 2 else 0)


def deep_sample(rng):
    """One n_E = 0 set drawn like sample_params but at depth: n_I uniform in
    [1, 200], rates log-uniform in [1e-3, 1e3], T uniform in [0, 2 T*]."""
    rng.choice((0,))  # the n_E draw, kept so the stream matches sample_params'
    n_I = int(rng.choice(tuple(range(1, 201))))
    params = ModelParams(
        beta=loguniform(rng, 1e-3, 1e3), p=loguniform(rng, 1e-3, 1e3),
        c=loguniform(rng, 1e-3, 1e3), n_E=0, tau_E=None, n_I=n_I,
        tau_I=loguniform(rng, 1e-3, 1e3), D_PCF=loguniform(rng, 1e-3, 1e3),
        v_a=loguniform(rng, 1e-3, 1e3), a=float(rng.uniform(-2, 2)),
    )
    return params, float(rng.uniform(0, 2 * params.T_star))


class TestScaledCharpoly:
    """P in its scaled log form: _log_f's log|F| and a value with P's sign."""

    def test_matches_charpoly_over_its_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            params, T = sample_params(rng, n_I_choices=tuple(range(1, 13)))
            c, c_E, c_I, n_E, n_I = params.c, params.c_E, params.c_I, params.n_E, params.n_I
            q = params.beta * T * params.p
            lam = float(rng.uniform(-3.0, 1.0) * (c_I + c))
            g, value, _ = _log_f(c, c_I, q, n_I, lam, c_E, n_E)
            P = exact_charpoly(params, T, lam)
            assert (value > 0) == (P > 0) and (value < 0) == (P < 0)
            phi, psi, _, _ = exact_phi_psi(params, T, lam)
            if psi:
                assert g == pytest.approx(math.log(abs(float(psi / phi))), abs=1e-12)

    @pytest.mark.parametrize("n_I", [1, 2, 7, 150])
    def test_exact_at_zero_and_minus_cI(self, n_I):
        # P(0) = 0 and F(0) = R0; P(-c_I) = q c_I^n_I > 0
        params = make_params(n_I=n_I)
        q = params.beta * 0.75 * params.p
        g, value, _ = _log_f(params.c, params.c_I, q, n_I, 0.0)
        assert value == 0.0 and g == pytest.approx(math.log(q * n_I / (params.c_I * params.c)), abs=1e-15)
        assert _log_f(params.c, params.c_I, q, n_I, -params.c_I)[1] == 1.0


class TestDeepDomain:
    def test_sample_roots_are_complete_and_true(self):
        """ROADMAP item 1's sample at seed 0: no overflow, a root count with
        the degree's parity, the Perron root on top, and residual-checked
        eigenvectors, all without a dense eigensolve."""
        rng = np.random.default_rng(0)
        for _ in range(300):
            params, T = deep_sample(rng)
            certified = _certified_roots(params, T)
            roots = [r for r, _ in certified]
            multiplicity = sum(m for _, m in certified)
            assert multiplicity % 2 == (params.n_I + 2) % 2, (params, T)
            nonzero = [r for r in roots if r != 0.0]
            perron = perron_root(params, T)
            assert abs(max(nonzero) - perron) <= 1e-9 * abs(perron), (params, T)
            A = coefficient_matrix(params, T)
            for lam in nonzero:
                if lam == -params.c_I:
                    continue  # formula pole, a root only at beta*T = 0
                v = eigenvector(params, T, lam)
                resid = np.max(np.abs(A @ v - lam * v))
                assert resid <= 1e-12 * np.linalg.norm(A, np.inf) * np.max(np.abs(v)), (params, T, lam)


def _exact_sign(params: ModelParams, T: float, x: float) -> int:
    """The sign of P(x), exact in integers from the float inputs as
    _exact_charpoly_ratio forms them: c, c_I, x and c_E over one 2^k, q over 2^e."""
    ratios = [v.as_integer_ratio() for v in (params.c, params.c_I, x, params.c_E)]
    k = max(den for _, den in ratios).bit_length() - 1
    C, CI, X, CE = (num << (k - den.bit_length() + 1) for num, den in ratios)
    Q, Qd = (params.beta * T * params.p).as_integer_ratio()
    e = Qd.bit_length() - 1
    U = (CI + X) ** params.n_I
    value = (((CE + X) ** params.n_E * U * (C + X) * X) << e) + ((Q * CE**params.n_E * (CI**params.n_I - U)) << (2 * k))
    return (value > 0) - (value < 0)


def _on_the_float_grid(params: ModelParams, T: float, x: float) -> bool:
    """Exact P changes sign between the floats on either side of x."""
    return _exact_sign(params, T, math.nextafter(x, -math.inf)) != _exact_sign(params, T, math.nextafter(x, math.inf))


def _misplaced(params: ModelParams, T: float, roots) -> list[float]:
    """The reported nonzero roots whose windows x(1 +- 1e-12), merged where
    they overlap, do not show exact P changing sign exactly when the
    multiplicities inside add up to an odd number."""
    windows = []
    for x, m in sorted(r for r in roots if r[0] != 0.0):
        lo, hi = sorted((x * (1 - 1e-12), x * (1 + 1e-12)))
        if windows and lo <= windows[-1][1]:
            windows[-1][1:] = [max(hi, windows[-1][1]), windows[-1][2] + m, windows[-1][3] + [x]]
        else:
            windows.append([lo, hi, m, [x]])
    return [x for lo, hi, m, xs in windows if (_exact_sign(params, T, lo) != _exact_sign(params, T, hi)) != (m % 2 == 1)
            for x in xs]


def _extreme_sample(rng, w: float):
    """Every rate 10^(w u), u uniform in [-1, 1], n_E in 0-5, n_I in 1-40 and
    T = T* 10^(3u); None where the parameters are rejected or
    beta T p tau_I is not finite."""
    beta, p, c, tau_E, tau_I = (10.0 ** (w * u) for u in rng.uniform(-1, 1, 5))
    n_E, n_I, u_T = int(rng.integers(0, 6)), int(rng.integers(1, 41)), rng.uniform(-3, 3)
    try:
        params = ModelParams(beta=beta, p=p, c=c, n_E=n_E, tau_E=tau_E if n_E else None, n_I=n_I, tau_I=tau_I, v_a=1.0)
    except InvalidParamsError:
        return None
    T = params.T_star * 10.0**u_T
    return (params, T) if math.isfinite(T) and math.isfinite(params.beta * T * params.p * params.tau_I) else None


class TestExtremeRates:
    """Rates far outside [0.1, 10], every root checked by the exact sign of P."""

    def test_tiny_rates_keep_the_root_beside_minus_c(self):
        # (c + lam) lam once underflowed to 0.0 in the scaled P, so the
        # critical point -c/2 passed for a double root and -1.18e-192 was lost
        params = ModelParams(beta=1.0, p=1.0, c=1.28e-192, n_I=10, tau_I=10 / 1.64e-6, v_a=1.0)
        roots = _certified_roots(params, 1.62e-200)
        assert [m for _, m in roots] == [1, 1] and roots[1][0] == 0.0
        assert roots[0][0] == pytest.approx(-1.18e-192, rel=1e-2) and _on_the_float_grid(params, 1.62e-200, roots[0][0])

    def test_rates_past_1e100_do_not_raise(self):
        # the slope cubics R and K once passed the float range at the outer
        # bracket here, and the search raised (exit 3)
        params = ModelParams(beta=23.146092659921123, p=1.1199680213232238e16, c=4.467710566890254e148, n_I=40,
                             tau_I=4.5057680624150286e36, n_E=2, tau_E=6.288915567856962e87, v_a=1.0)
        T = 7.490056222479602e92
        roots = _certified_roots(params, T)
        assert [m for _, m in roots] == [1] * 6 and roots[-1] == (0.0, 1)
        assert all(_on_the_float_grid(params, T, x) for x, _ in roots[:-1])
        assert roots[-2][0] == perron_root(params, T)

    def test_two_real_roots_beside_the_pole(self):
        # P = lam ((2 + lam)(1.5 + lam)^2 - 2q), q = 2.25e-100: real roots
        # -1.5 +- ~3e-50 on either side of the pole -c_I = -1.5, where P > 0,
        # once reported as a complex pair; each lies on the float beside it
        params = ModelParams(beta=1.0, p=1.0, c=1.5, n_E=1, tau_E=0.5, n_I=1, tau_I=1 / 1.5, v_a=1.0)
        T = 1e-100 * params.T_star
        report = analyze(params, T)
        roots = [(r.value, r.algebraic_multiplicity) for r in report.real_eigenvalues]
        assert roots == [(-2.0, 1), (math.nextafter(-1.5, -2.0), 1), (math.nextafter(-1.5, 0.0), 1), (0.0, 1)]
        assert report.complex_pair_count == 0
        assert _exact_sign(params, T, -1.5) == 1 and all(_exact_sign(params, T, x) == -1 for x, _ in roots[1:3])
        assert [r.sign_class for r in report.real_eigenvalues][1:3] == ["neg_below_cI", "neg_in_cI_0"]

    @pytest.mark.parametrize("w", [100, 150, 300])
    def test_probe(self, w):
        """60 draws of _extreme_sample: no root that exact P shows beside
        perron_root's value is missed, the top root is perron_root's, the
        multiplicities have the degree's parity and, up to 1e150, every root
        is where exact P shows it."""
        rng = np.random.default_rng([7, w])
        for params, T in filter(None, (_extreme_sample(rng, w) for _ in range(60))):
            roots = _certified_roots(params, T)
            assert sum(m for _, m in roots) % 2 == (params.n_E + params.n_I) % 2, (params, T)
            rho = perron_root(params, T)
            lo, hi = sorted((rho * (1 - 1e-9), rho * (1 + 1e-9)))
            if _exact_sign(params, T, lo) != _exact_sign(params, T, hi):
                assert any(abs(x - rho) <= 1e-9 * abs(rho) for x, _ in roots), (params, T)
            nonzero = [x for x, _ in roots if x != 0.0]
            if classify(params, T) != "Critical" and math.isfinite(rho):
                assert abs(max(nonzero) - rho) <= 1e-9 * abs(rho), (params, T)
            if w <= 150:
                assert _misplaced(params, T, roots) == [], (params, T)
