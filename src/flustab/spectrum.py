"""Eigenvalue analysis of the frozen-T system.

Every real root of the characteristic polynomial P is found one way, for
any n_E. With q = beta*T*p > 0, P = q c_E^n_E (c_I+lam)^n_I (Phi - Psi),
Phi = lam (c+lam)(1+lam/c_E)^n_E / q and Psi = 1 - (c_I/(c_I+lam))^n_I,
and P(-c_I) > 0, so P's real roots are those of E = Phi - Psi. E' = 0
exactly where prod (1 + lam/w)^k = R0 over a closed-form family of (w, k),
a log that is strictly concave between its poles and monotone outside, so
each piece holds at most two critical points. Between them and the pole
-c_I, E is strictly monotone: each sign change, read from log|Phi| and
log|Psi|, is a simple root, and a critical point where E is 0 within
rounding a double one; exact Newton steps put each root on a float next
to the exact one. The roots sort into four sign classes; at n_E = 0 the
class patterns form a 3x3 grid indexed by the sign of c - beta*T*p*tau_I
(clearance versus viral pressure) and of c_I^2 - c*c_I - beta*T*p,
decided for every caller by one helper. The largest real eigenvalue,
whose sign is the stability answer, is the Perron root of the (E, I, V)
block and solves one monotone scalar equation. A dense eigensolver gives
the oracle spectrum, which no decision here reads.

Sign-class labels used throughout:
    "neg_below_cI"   real root < -c_I
    "neg_in_cI_0"    real root in (-c_I, 0)
    "zero"           the structural zero eigenvalue
    "positive"       real root > 0
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .charpoly import coefficient_matrix
from .model import InvalidParamsError, ModelParams, _threshold

# One fixed value per numeric decision; none of them is a parameter.
_CLASS_REL = 1e-10  # the regime cell's "=" window, relative to the larger term
_RANK_REL = 1e-7  # the SVD rank cut, relative to the largest singular value
_ROOT_TOL = 1e-12  # how far an exact polishing step may move a root or critical point, relative to it
_ROOT_STEPS = 2200  # more than the bisections from a bracket of 2 * 1.8e308 to a subnormal
_POLE_REL = 1e-9  # a root this close to -c_I or -c_E, relative to the rate, gets no formula eigenvector
_ZERO_LOG = 1e-13  # |log F| at a critical point below which it is a double root
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


def _viral_pressure(params: ModelParams, T: float) -> float:
    # Canonical evaluation order; the Critical/equality tests in this module
    # and in the validation suites compare against exactly this expression.
    return params.beta * T * params.p * params.tau_I


def _regime_rows(params: ModelParams, T) -> tuple:
    """The regime cell (row, column) of each T (a float or an array), each
    an index 0, 1, 2 into "<=>". Row: the sign of c - beta*T*p*tau_I.
    Column: the sign of c_I^2 - c*c_I - beta*T*p, where -c_I falls against
    the roots of the quadratic factor. Each is "=" inside a relative window
    of _CLASS_REL of its largest term; a NaN or infinite value lands in
    "<", as an overflowing viral pressure does. By the next-generation
    theorem the row alone says whether an eigenvalue is positive ("<"), the
    zero is double ("=") or neither (">"); every caller takes it from here.
    Its operators act on floats and arrays alike: a float T costs floats."""
    c, c_I = params.c, params.c_I
    q = params.beta * T * params.p
    pressure = q * params.tau_I  # _viral_pressure's evaluation order

    def three_way(value, a, b):
        # "=" where |value| <= r*max(a, b) (exact split: r > 0 scales monotonely) and value is finite
        gap, pos = abs(value), 2 * (value > 0)
        return pos + ((gap < math.inf) & ((gap <= _CLASS_REL * a) | (gap <= _CLASS_REL * b))) * (1 - pos)

    row = three_way(c - pressure, abs(c), abs(pressure))
    return row, three_way(c_I * c_I - c * c_I - q, max(c_I * c_I, abs(c) * c_I, 1e-300), abs(q))


_KIND_BY_ROW = {"<": "Indefinite", "=": "Critical", ">": "Definite"}


def classify(params: ModelParams, T: float) -> str:
    """Regime of the frozen-T system: "Definite", "Indefinite" or "Critical".

    Definite when clearance c exceeds the viral pressure beta*T*p*tau_I
    (no positive eigenvalue), Indefinite when it falls short (exactly one),
    Critical inside a relative window around equality. Exact equality is
    measure-zero, hence the window.
    """
    return _KIND_BY_ROW["<=>"[_regime_rows(params, T)[0]]]


def _log_ratio(w: float, x: float) -> float:
    """log|1 + x/w| for w > 0, -inf at x = -w. Off (-w/2, w), w + x is formed
    directly, exact within a factor 2 of -w, where 1 + x/w loses the digits
    that set x apart from -w."""
    if -0.5 * w < x < w:
        return math.log1p(x / w)
    u = abs(w + x)
    r = u / w
    if _TINY <= r < math.inf:
        return math.log(r)
    return math.log(u) - math.log(w) if u else -math.inf


def _log_f(c: float, c_I: float, q: float, n_I: int, lam: float,
           c_E: float = 0.0, n_E: int = 0) -> tuple[float, float, float]:
    """(log|F|, a value with the sign of P, d/dlam log|F|) at a real lam,
    q > 0, where F = Psi/Phi and P = q c_E^n_E (c_I+lam)^n_I (Phi - Psi).
    The value is -s log|F| where Phi and Psi share a sign, s being that of
    (c_I+lam)^n_I Phi, +-inf where they do not, 0.0 where both are 0 and 1.0
    at -c_I. log F and its slope are _log_perron_f's and _log_perron_slope's
    forms at any lam; S = Psi/lam is n_I/c_I where |lam/c_I| < 1e-290."""
    u, w, v = c_I + lam, c + lam, c_E + lam
    if u == 0.0:
        return math.nan, 1.0, math.nan
    flip = u < 0.0 and n_I % 2 == 1  # (c_I/u)^n_I < 0, so Psi = 1 + |c_I/u|^n_I
    t = lam / c_I
    x = -n_I * (math.log1p(t) if -0.5 < t < 1.0 else _log_ratio(c_I, lam))
    if -1e-290 < t < 1e-290:
        s, log_s = n_I / c_I, math.log(n_I) - math.log(c_I)
    elif x <= 0.5:
        psi = 1.0 + math.exp(x) if flip else -math.expm1(x)
        s, log_s = psi / lam, (math.log(abs(psi)) if psi else -math.inf) - math.log(abs(lam))
    else:  # |Psi| = e^x (1 -+ e^-x), positive only below -c_I at odd n_I
        s = math.copysign(math.inf, lam if flip else -lam)
        log_s = x + math.log1p(math.exp(-x) if flip else -math.exp(-x)) - math.log(abs(lam))
    ratio = abs(q * s / w) if w else math.inf
    g = math.log(ratio) if _TINY <= ratio <= _HUGE else math.log(q) + log_s - (math.log(abs(w)) if w else -math.inf)
    if n_E:
        g -= n_E * _log_ratio(c_E, lam)
    s_lam, s_u = (lam > 0.0) - (lam < 0.0), -1 if flip else 1  # signs of lam and (c_I+lam)^n_I
    s_psi = s_lam * ((s > 0.0) - (s < 0.0))
    s_phi = s_lam * ((w > 0.0) - (w < 0.0)) * (((v > 0.0) - (v < 0.0)) ** n_E if n_E else 1)
    value = (-g * s_phi * s_u if s_phi else 0.0) if s_phi == s_psi else math.copysign(math.inf, s_u * (s_phi or -s_psi))
    try:
        if u > 0.0 and -_SLOPE_SERIES_Y < x < _SLOPE_SERIES_Y:
            slope = (-(n_I + 1) / 2.0 + t * ((n_I + 1) * (n_I + 5) / 12.0 - t * ((n_I + 1) * (n_I + 3) / 8.0))) / c_I
        else:  # (log|Psi|)' = n_I / (u ((c_I/u)^-n_I - 1)), past e^700 below rounding
            e = -x if x > -700.0 else 700.0
            slope = n_I / (u * (-math.exp(e) - 1.0 if flip else math.expm1(e))) - 1.0 / lam
        slope -= 1.0 / w + n_E / v if n_E else 1.0 / w
    except ZeroDivisionError:
        slope = math.nan
    return g, value, slope


def _dyadic(c: float, c_I: float, q: float, lam: float, c_E: float) -> tuple[int, ...]:
    """(C, C_I, Q, Lam, C_E, k, e): c, c_I, lam and c_E as integers over one
    2^k, and q as Q/2^e, so that a tiny q does not lengthen the rest."""
    ratios = [v.as_integer_ratio() for v in (c, c_I, lam, c_E)]
    k = max(den for _, den in ratios).bit_length() - 1
    C, CI, X, CE = (num << (k - den.bit_length() + 1) for num, den in ratios)
    Q, Qd = q.as_integer_ratio()
    return C, CI, Q, X, CE, k, Qd.bit_length() - 1


def _exact_charpoly_ratio(c: float, c_I: float, q: float, n_I: int, lam: float,
                          c_E: float = 0.0, n_E: int = 0) -> float:
    """1 - F(lam): P over its cascade term (c_E+lam)^n_E (c_I+lam)^n_I (c+lam)
    lam, exact from the float inputs and rounded once; NaN where the cascade
    term is 0 or the ratio is past the float range."""
    C, CI, Q, X, CE, k, e = _dyadic(c, c_I, q, lam, c_E)
    U = (CI + X) ** n_I
    cascade = ((CE + X) ** n_E * U * (C + X) * X) << e  # P 2^(k(n_E + n_I + 2) + e) = cascade + Q CE^n_E (CI^n_I - U) 2^(2k)
    try:
        return (cascade + ((Q * CE**n_E * (CI**n_I - U)) << (2 * k))) / cascade
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _exact_critical_ratio(c: float, c_I: float, q: float, n_I: int, lam: float,
                          c_E: float = 0.0, n_E: int = 0) -> float:
    """Phi'/Psi' - 1, the critical level over R0 less 1, exact from the float
    inputs as ((c + 2 lam) v + n_E lam (c + lam)) v^n_E (c_I+lam)^(n_I+1) /
    (q n_I c_E^n_E c_I^n_I v) - 1, v = c_E + lam, and rounded once; NaN at
    v = 0 or past the float range."""
    C, CI, Q, X, CE, k, e = _dyadic(c, c_I, q, lam, c_E)
    V = CE + X
    den = (Q * n_I * CE**n_E * CI**n_I * V) << (2 * k)
    try:
        return ((((C + 2 * X) * V + n_E * X * (C + X)) * V**n_E * (CI + X) ** (n_I + 1) << e) - den) / den
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _critical_factors(c: float, c_E: float, n_E: int, c_I: float, n_I: int) -> list[tuple[float, int]]:
    """The (w, k), w ascending, with E' = 0 where prod (1 + lam/w)^k = R0:
    (c_E, n_E - 1), (w1, 1), (w2, 1), (c_I, n_I + 1), equal w merged, k = 0
    dropped. -w1, -w2 are the roots of (2 + n_E) lam^2 + (2 c_E + (1 + n_E) c)
    lam + c_E c, taken over a power of 2 near max(c, c_E), with no product of
    rates; at n_E = 0, c_E = 0 makes them -c/2 and 0, which cancels (c_E, -1)."""
    big = max(c, c_E)
    s = 2.0 ** (math.frexp(big)[1] - 1)
    a2, a1, a0 = 2.0 + n_E, 2.0 * (c_E / s) + (1.0 + n_E) * (c / s), (c_E / s) * (c / s)
    w1 = (a1 + math.sqrt(max(a1 * a1 - 4.0 * a2 * a0, 0.0))) / (2.0 * a2) * s
    merged: dict[float, int] = {}
    for w, k in ((c_E, n_E - 1), (w1, 1), (min(c, c_E) * (big / (a2 * w1)), 1), (c_I, n_I + 1)):
        merged[w] = merged.get(w, 0) + k
    return sorted((w, k) for w, k in merged.items() if k)


def _critical_level(factors: list[tuple[float, int]], lam: float) -> tuple[float, float]:
    """sum k log|1 + lam/w| over _critical_factors' factors, and its slope
    sum k/(w + lam), NaN at a -w."""
    level = slope = 0.0
    for w, k in factors:
        level += k * _log_ratio(w, lam)
        slope = slope + k / (w + lam) if w + lam else math.nan
    return level, slope


def _critical_points(factors: list[tuple[float, int]], log_r0: float, lo: float, hi: float, T: float) -> list[float]:
    """E's critical points in (lo, hi): where the product of the factors is
    positive and its log is log_r0. Each k log|1 + lam/w| is concave on
    either side of -w, so the sum falls left of every -w, rises right of all,
    and between two is strictly concave, its maximum where its slope is 0.
    Each monotone piece crossing the level holds one solution, taken by
    Newton steps in log|lam + w| about the piece's -w."""

    def level(x: float, pole: float) -> tuple[float, float]:
        value, slope = _critical_level(factors, x)
        value, d = value - log_r0, x - pole
        return value, -d * math.expm1(-max(value / (slope * d), -700.0)) if slope * d else math.nan

    def turn(x: float) -> tuple[float, float]:
        slope, curve = _critical_level(factors, x)[1], sum(k / (w + x) / (w + x) for w, k in factors)
        return slope, slope / -curve if 0.0 < curve < math.inf else math.nan

    poles = [-w for w, _ in reversed(factors)]
    edges, sign, found = [-math.inf] + poles + [math.inf], (-1) ** sum(k for _, k in factors), []
    for i in range(len(edges) - 1):  # sign: the product's, negative left of every -w at odd sum k
        a, b = edges[i], edges[i + 1]
        sign *= (-1) ** factors[-i][1] if i else 1
        if sign > 0 and b > lo and a < hi:
            pieces = [a, _rtsafe(turn, a, b, 1.0, T)[0], b] if 0 < i < len(edges) - 2 else [a, b]
            for a, b in zip(pieces, pieces[1:]):  # the level is -inf on a pole
                f = lambda x, pole=a if a in poles else b: level(x, pole)
                a, b = max(a, lo), min(b, hi)
                fa, fb = (-math.inf if x in poles else f(x)[0] for x in (a, b))
                if a < b and (fa > 0) != (fb > 0):
                    x = _rtsafe(f, a, b, fa, T)[0]  # off the poles, none of which is E's
                    found.append(min(max(x, math.nextafter(a, b)), math.nextafter(b, a)))
    return found


def _rtsafe(f, a: float, b: float, fa: float, T: float, x: float | None = None) -> tuple[float, float, float]:
    """The root of f in (a, b), where f changes sign (fa has f's sign at a),
    and its final bracket. f(x) gives (value, Newton step). From the midpoint,
    or x, Newton steps, bisecting where one is not finite, leaves the open
    bracket or does not halve the one before last; one under two ulps probes
    a float past its estimate. It stops once f changes sign between adjacent
    floats, and raises ArithmeticError after _ROOT_STEPS."""
    x = 0.5 * (a + b) if x is None else x
    dx = dx_old = b - a
    for _ in range(_ROOT_STEPS):
        value, step = f(x)
        if value == 0.0:
            break
        if (value > 0) == (fa > 0):
            a = x
        else:
            b = x
        estimate = x - step
        if math.nextafter(a, b) == b:
            x = min(max(estimate, a), b) if estimate == estimate else a
            break
        if 0.0 < abs(step) < 2.0 * math.ulp(x):  # converged: probe across the root
            estimate = math.nextafter(estimate, b if x == a else a)
        if a < estimate < b and abs(2.0 * step) <= abs(dx_old):
            dx_old, dx = dx, step
            x = estimate
        else:
            dx_old, dx = dx, 0.5 * (b - a)
            x = a + dx
    else:
        raise ArithmeticError(f"real root in [{a!r}, {b!r}] not certified in {_ROOT_STEPS} steps at T = {T!r}")
    return x, a, b


def real_roots(params: ModelParams, T: float) -> list[float]:
    """All real roots of the characteristic polynomial, ascending, each
    listed once: _certified_roots' values."""
    return [x for x, _ in _certified_roots(params, T)]


def _certified_roots(params: ModelParams, T: float, row: int | None = None) -> list[tuple[float, int]]:
    """All real roots of the characteristic polynomial, ascending, each with
    its algebraic multiplicity, which the search that finds it decides.

    At q = beta*T*p = 0, the roots of P's factors, equal ones merged.
    Otherwise they are E's (_log_f). With m = min(c, c_I, c_E), on
    (-m, inf) they are the structural 0, double on the Critical row (the
    caller's regime row index), and elsewhere the Perron root, where log F
    = 0 on (0, hi) on the "<" row, on (-m, 0) on ">". Below -m, E is
    monotone between consecutive critical points and the pole -c_I: a sign
    change of P is a simple root, and a critical point where |log F| is
    within _ZERO_LOG of 0 a double root. Newton steps on P taken exactly
    put each on a float next to the exact root."""
    c_E, c_I = params.c_E, params.c_I
    c, n_E, n_I = params.c, params.n_E, params.n_I
    q = params.beta * T * params.p
    if q == 0.0:
        factors: dict[float, int] = {}
        for root, multiplicity in ((-c_E, n_E), (-c_I, n_I), (-c, 1), (0.0, 1)):
            if multiplicity:
                factors[root] = factors.get(root, 0) + multiplicity
        return sorted(factors.items())
    k_row = _regime_rows(params, T)[0] if row is None else row
    m = min(c, c_I, c_E or math.inf)
    # P keeps its sign outside (lo, hi). With s = |c| + 2|q|^(1/2) + 1 and
    # |lam| >= s, |c + lam| |lam| >= 3|q| + 1 beats the feedback
    # q (c_E/(c_E + lam))^n_E (1 - (c_I/(c_I + lam))^n_I): at most |q| above
    # s, and at most 2|q| for complex lam with |lam| >= -lo, where
    # |c_I + lam| >= c_I and |c_E + lam| >= c_E.
    s = abs(c) + 2.0 * math.sqrt(abs(q)) + 1.0
    s += 4.0 * math.ulp(s)  # above the exact sum, whose 1 a large |c| rounds away
    lo, hi = -max(2.0 * c_I, 2.0 * c_E, s), s
    log_f = lambda x: _log_f(c, c_I, q, n_I, x, c_E, n_E)

    def search(x: float) -> tuple[float, float]:  # P's sign, or log F on (-m, inf), and g/g'
        g, value, slope = _log_f(c, c_I, q, n_I, x, c_E, n_E)
        return value if x < -m else g, g / slope if slope and -math.inf < value < math.inf else math.nan

    def polish(x: float, a: float, b: float) -> float:
        # Newton steps on P with D = 1 - F exact: P/P' = D/(D (log cascade)'
        # - (1 - D) (log F)'), until one is under two ulps, three at most.
        # P(-c_I) > 0: a root bracketed beside the pole stays on its side
        y = x = (b if x == a else a) if x == -c_I else x
        slope = log_f(x)[2]
        tol = max(_ROOT_TOL * abs(x), 2.0 * math.ulp(x), 1e-13 / (abs(slope) or math.inf))  # log F's rounding
        for k in range(3):
            D, slope = _exact_charpoly_ratio(c, c_I, q, n_I, y, c_E, n_E), log_f(y)[2] if k else slope
            try:
                step = D / (D * (1.0 / y + 1.0 / (c + y) + n_I / (c_I + y) + (n_E / (c_E + y) if n_E else 0.0))
                            - (1.0 - D) * slope)
            except ZeroDivisionError:
                break
            if not math.isfinite(step):
                break
            y -= step
            if abs(step) <= 2.0 * math.ulp(y):
                break
        return y if a - tol <= y <= b + tol and y != -c_I and (y + c_I > 0.0) == (x + c_I > 0.0) else x

    roots = [(0.0, 2 if k_row == 1 else 1)]
    log_r0 = math.log(q) + math.log(n_I) - math.log(c_I) - math.log(c)
    if k_row != 1:  # from Newton's first step off 0, where log F = log R0
        a, b = (0.0, hi) if k_row == 0 else (-m, 0.0)
        x = log_r0 / ((n_I + 1) / (2.0 * c_I) + 1.0 / c + (n_E / c_E if n_E else 0.0))
        roots.append((polish(*_rtsafe(search, a, b, 1.0, T, x if a < x < b else None)), 1))
    factors = _critical_factors(c, c_E, n_E, c_I, n_I)
    ends = [lo] + sorted({x for x in _critical_points(factors, log_r0, lo, -m, T) + [-c_I] if lo < x < -m}) + [-m]
    # P ~ lam^(n_E + n_I + 2) keeps its sign below lo, and P(-m) > 0
    values = [(-1.0) ** (n_E + n_I)] + [log_f(x)[1] for x in ends[1:-1]] + [1.0]
    for i, x in enumerate(ends):
        if abs(values[i]) <= 1e3 * _ZERO_LOG:  # a double root in question: place the critical point exactly
            ratio, slope = _exact_critical_ratio(c, c_I, q, n_I, x, c_E, n_E), _critical_level(factors, x)[1]
            step = math.log1p(ratio) / slope if ratio > -1.0 and slope else math.nan
            if abs(step) <= _ROOT_TOL * abs(x):
                ends[i], values[i] = x - step, log_f(x - step)[1]
    zero = [abs(v) <= _ZERO_LOG for v in values]
    roots += [(x, 2) for x, z in zip(ends, zero) if z]
    for i in range(len(ends) - 1):
        if not (zero[i] or zero[i + 1]) and (values[i] > 0) != (values[i + 1] > 0):
            roots.append((polish(*_rtsafe(search, ends[i], ends[i + 1], values[i], T)), 1))
    return sorted(roots)


def sign_class(lam: float, c_I: float) -> str:
    """Sign class of a certified real eigenvalue: "zero" only for 0.0."""
    if lam == 0.0:
        return "zero"
    if lam > 0:
        return "positive"
    return "neg_below_cI" if lam < -c_I else "neg_in_cI_0"


@dataclass(frozen=True)
class SignPattern:
    """Predicted multiset of real-eigenvalue sign classes for one regime cell.

    mandatory lists classes that must appear; optional_pairs lists class
    pairs that may appear together or be replaced by a complex-conjugate
    pair (even n_I only); zero_algebraic_multiplicity is 2 exactly on the
    Critical row, where the root at 0 doubles.
    """

    n_I_parity: str  # "even" | "odd"
    clearance_vs_pressure: str  # "<" | "=" | ">", sign of c - beta*T*p*tau_I
    quadratic_at_minus_cI: str  # "<" | "=" | ">", sign of c_I^2 - c*c_I - beta*T*p
    mandatory: tuple[str, ...]
    optional_pairs: tuple[tuple[str, str], ...]
    zero_algebraic_multiplicity: int


def predicted_sign_pattern(params: ModelParams, T: float) -> SignPattern:
    """Select the regime cell and return its predicted pattern.

    Row: sign of c - beta*T*p*tau_I. Column: sign of c_I^2 - c*c_I - beta*T*p
    (equivalently, where -c_I falls against the roots of the quadratic
    factor). For even n_I the cell patterns are

        row <:  zero, positive            (+ optional below-pair in col <)
        row =:  zero                      (+ optional below-pair in col <)
        row >:  neg_in_cI_0, zero         (+ optional below-pair in col <)

    and for odd n_I a root below -c_I is guaranteed instead of optional:

        row <:  neg_below_cI, zero, positive
        row =:  neg_below_cI, zero
        row >:  neg_below_cI, neg_in_cI_0, zero
    """
    if params.n_E != 0:
        raise InvalidParamsError(["the regime table is stated for n_E = 0"])
    row, col = ("<=>"[k] for k in _regime_rows(params, T))
    return _sign_pattern(params.n_I, row, col)


def _sign_pattern(n_I: int, row: str, col: str) -> SignPattern:
    """The pattern of the regime cell (row, col) at depth n_I, as tabled in
    predicted_sign_pattern."""
    even = n_I % 2 == 0
    mandatory = {"<": ("zero", "positive"), "=": ("zero",), ">": ("neg_in_cI_0", "zero")}[row]
    return SignPattern(
        n_I_parity="even" if even else "odd",
        clearance_vs_pressure=row,
        quadratic_at_minus_cI=col,
        mandatory=mandatory if even else ("neg_below_cI",) + mandatory,
        optional_pairs=(("neg_below_cI", "neg_below_cI"),) if even and col == "<" else (),
        zero_algebraic_multiplicity=2 if row == "=" else 1,
    )


def _log_perron_f(params: ModelParams, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log F(lam) for q = beta*T*p > 0, where
    F(lam) = q * (c_E/(c_E+lam))^n_E * S(lam) / (c+lam) and
    S(lam) = sum_{j<n_I} c_I^j/(c_I+lam)^(j+1) = -expm1(x)/lam with
    x = -n_I*log1p(lam/c_I), S(0) = n_I/c_I, taken also where |lam/c_I| < 1e-290.

    Up to x = 0.5, wherever q*S/(c+lam) is a normal float, that product is
    formed and logged once, so the value carries a few eps of absolute
    error however large the logs of its factors are (a sum of those logs
    near lam = 0 cancels ~40-size terms and is off by ~1e-14). Elsewhere
    every power is taken in log form, so deep cascades with extreme rates
    cannot overflow."""
    c_E, c_I, n_I = params.c_E, params.c_I, params.n_I
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = -n_I * np.log1p(lam / c_I)
        near = np.abs(lam / c_I) < 1e-290  # S = S(0) to within lam/c_I, which has lost its digits
        ratio = q * np.where(near, n_I / c_I, np.expm1(x) / -lam) / (params.c + lam)
        # log|expm1(x)|; past x = 0.5 the form x + log(1 - e^-x) cannot overflow
        log_num = np.where(x > 0.5, x + np.log1p(-np.exp(-x)), np.log(np.abs(np.expm1(x))))
        log_S = np.where(near, math.log(n_I) - math.log(c_I), log_num - np.log(np.abs(lam)))
        direct = (x <= 0.5) & (ratio >= np.finfo(float).tiny) & (ratio <= np.finfo(float).max)
        out = np.where(direct, np.log(ratio), np.log(q) + log_S - np.log(params.c + lam))
        if params.n_E > 0:
            out -= params.n_E * np.log1p(lam / c_E)
    return out


# Below this |n_I * log1p(lam/c_I)| the slope of log S is taken from its
# Taylor series, whose cubic remainder and the closed form's cancellation
# error (~eps/|y|) are both ~1e-12 of it there.
_SLOPE_SERIES_Y = 1e-4


def _log_perron_slope(params: ModelParams, lam: np.ndarray) -> np.ndarray:
    """d/dlam of _log_perron_f, which does not depend on q:
    -n_E/(c_E+lam) - 1/(c+lam) + (log S)', with
    (log S)' = n_I/((c_I+lam)*expm1(y)) - 1/lam, y = n_I*log1p(lam/c_I).
    Near lam = 0 the two terms cancel, so for |y| < _SLOPE_SERIES_Y it is
    (-(n_I+1)/2 + (n_I+1)(n_I+5)/12 u - (n_I+1)(n_I+3)/8 u^2)/c_I with
    u = lam/c_I; at 0 the slope is -(n_I+1)/(2c_I) - 1/c - n_E/c_E."""
    c_E, c_I, n = params.c_E, params.c_I, params.n_I
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = lam / c_I
        y = n * np.log1p(u)
        series = (-(n + 1) / 2.0 + u * ((n + 1) * (n + 5) / 12.0 - u * ((n + 1) * (n + 3) / 8.0))) / c_I
        log_S_slope = np.where(np.abs(y) < _SLOPE_SERIES_Y, series, n / ((c_I + lam) * np.expm1(y)) - 1.0 / lam)
        out = log_S_slope - 1.0 / (params.c + lam)
        if params.n_E > 0:
            out -= params.n_E / (c_E + lam)
    return out


def perron_root(params: ModelParams, T):
    """Spectral abscissa of the (E, I, V) block of the frozen-T matrix: the
    largest real eigenvalue once the structural zero of the W row is set
    aside. T is a scalar (a float comes back) or an array of values >= 0.

    The matrix is Metzler and, for beta*T > 0, its (E, I, V) block is
    irreducible, so the abscissa is a simple real eigenvalue (Perron-Frobenius).
    With m = min(c_I, c), and c_E too when n_E > 0, it is the one solution of
    F(lam) = 1 on (-m, sqrt(beta*T*p*n_I)]: F is strictly decreasing there,
    tends to +inf at -m, and F <= beta*T*p*n_I/lam^2 for lam > 0. F(0) is the
    next-generation number beta*T*p*tau_I/c, so the root is positive exactly
    above T*. At beta*T = 0 the block is triangular and the root is -m.

    All T are solved at once by a safeguarded Newton iteration on g = log F
    from lam = 0, with the slope g' in closed form (_log_perron_slope).
    Every factor of F is log-convex ((c_E/(c_E+lam))^n_E, 1/(c+lam), and S
    as a sum of c_I^j/(c_I+lam)^(j+1)), so g is convex and decreasing: a
    Newton step from anywhere lands at or left of the root, and from there
    the iterates rise monotonically to it. Each T keeps the bracket
    (lo, hi) that the signs of g at its iterates give, and a step out of
    that bracket takes its midpoint instead. A T stops when its Newton step
    is within eps*max(m, |lam|), keeping that last step if it stays in the
    bracket, or when its bracket is within 2*eps*max(m, |lo|, |hi|); it is
    then left alone, so a scalar call gives the array call's bits.
    """
    c_E, c_I = params.c_E, params.c_I
    m = min(c_I, params.c, c_E) if params.n_E > 0 else min(c_I, params.c)
    Ts = np.asarray(T, dtype=float)
    q = params.beta * np.atleast_1d(Ts) * params.p
    if not np.all(q >= 0.0):
        raise ValueError("perron_root needs beta*T*p >= 0")
    root = np.full(q.shape, -m)
    live = q > 0.0
    if live.any():
        q_live = q[live]
        lo = np.full(q_live.shape, -m)
        hi = np.sqrt(q_live) * math.sqrt(params.n_I)  # q * n_I may overflow
        x = np.zeros(q_live.shape)
        g = _log_perron_f(params, q_live, x)
        active = np.ones(q_live.shape, dtype=bool)
        eps = np.finfo(float).eps
        while True:
            above = g > 0.0
            lo = np.where(active & above, x, lo)
            hi = np.where(active & ~above, x, hi)
            slope = _log_perron_slope(params, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_new = x - g / slope
            wide = hi - lo > 2.0 * eps * np.maximum(m, np.maximum(-lo, hi))
            converged = np.abs(x_new - x) <= eps * np.maximum(m, np.abs(x))
            done = active & (converged | ~wide)
            # a T that is done keeps its last Newton step if that is in its bracket
            x = np.where(done & converged & (x_new >= lo) & (x_new <= hi), x_new, x)
            active &= ~done
            if not active.any():
                break
            # a step out of the open bracket (or a NaN one) bisects
            inside = (x_new > lo) & (x_new < hi)
            x = np.where(active, np.where(inside, x_new, 0.5 * (lo + hi)), x)
            g = np.where(active, _log_perron_f(params, q_live, x), g)
        root[live] = x
    return float(root[0]) if Ts.ndim == 0 else root


def full_spectrum_numeric(params: ModelParams, T: float) -> np.ndarray:
    """All eigenvalues of the assembled matrix from the dense QR eigensolver.
    Works for any n_E; used as the oracle for the analytic routines."""
    return np.linalg.eigvals(coefficient_matrix(params, T))


def eigenvector(params: ModelParams, T: float, lam: float) -> np.ndarray:
    """Closed-form eigenvector for a real eigenvalue, laid out
    (E_1..E_{n_E}, I_1..I_{n_I}, V, W) with V = 1: E_k = (beta*T/c_E)
    rho_E^k and I_k = (beta*T/c_I) rho_E^n_E rho^k, rho_E = c_E/(c_E + lam),
    rho = c_I/(c_I + lam), and W = 0 for lam != 0; a component that
    overflows raises ArithmeticError. At lam = 0, W balances the V row:
    (beta*T*p*tau_I - c)/(-v_a); without advection that row balances only
    on classify's Critical row, and off it the zero eigenvector is the pure
    W direction. The poles lam = -c_I, -c_E are generically no eigenvalues.
    """
    return _eigenvector(params, T, lam, None)


def _eigenvector(params: ModelParams, T: float, lam: float, row: int | None) -> np.ndarray:
    # eigenvector's body; row is T's regime row index, decided here when None
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    if lam != 0.0 and (abs(c_I + lam) <= 1e-300 or n_E and abs(c_E + lam) <= 1e-300):
        raise ValueError("eigenvector formula has a pole at lam = -c_I or -c_E")
    v = np.zeros(n_E + n_I + 2)
    w = 0.0  # forced for lam != 0; at lam = 0 with a balanced V row any W works, take the simplest
    if lam == 0.0:
        if params.v_a != 0.0:
            w = (_viral_pressure(params, T) - params.c) / (-params.v_a)
        elif (_regime_rows(params, T)[0] if row is None else row) != 1:
            # advection-free and off-critical: the zero eigenvector is the
            # pure W direction instead of the V-scaled family
            v[-1] = 1.0
            return v
    # running products of rho_E, then rho, each 1 at lam = 0: they stay 0.0
    # at beta*T = 0 and form no power of a rate
    x = params.beta * T / (c_E if n_E else c_I)
    for k in range(n_E):
        x *= c_E / (c_E + lam)
        v[k] = x
    if n_E:
        x *= c_E / c_I  # I_1 = E_{n_E} * c_E/(c_I + lam)
    rho = c_I / (c_I + lam)
    for k in range(n_E, n_E + n_I):
        x *= rho
        v[k] = x
    if not (math.isfinite(x) and math.isfinite(w)):  # W = (pressure - c)/(-v_a) overflows at a tiny v_a
        raise ArithmeticError(f"eigenvector at lam = {lam!r} overflows at n_E = {n_E}, n_I = {n_I}")
    v[-2] = 1.0
    v[-1] = w
    return v


def geometric_multiplicity(A: np.ndarray, lam: float | np.ndarray) -> int | np.ndarray:
    """Eigenspace dimension n - rank(A - lam*I) of the square matrix A, rank
    by singular values above _RANK_REL times the largest. Raises ValueError
    if lam is not an eigenvalue within that cut. The validate suites' oracle.
    A 1-D array lam gives an int array, raising at its first value that is
    not an eigenvalue: one SVD call takes the stack of A - lam_k*I, running
    the float call's LAPACK routine on each matrix, so each count is the same."""
    lams = np.asarray(lam, dtype=float)
    sv = np.linalg.svd(A - lams[..., None, None] * np.eye(len(A)), compute_uv=False)
    gm = len(A) - np.count_nonzero(sv > _RANK_REL * sv[..., :1], axis=-1)
    for x, g in zip(np.atleast_1d(lam).tolist(), np.atleast_1d(gm).tolist()):
        if g == 0:
            raise ValueError(f"{x} is not an eigenvalue of the matrix within tolerance")
    return int(gm) if lams.ndim == 0 else gm


@dataclass(frozen=True)
class RootReport:
    value: float
    sign_class: str
    algebraic_multiplicity: int
    geometric_multiplicity: int
    eigenvector: list[float] | None


@dataclass(frozen=True)
class SpectrumReport:
    classification: str  # classify's kind
    T_star: float
    regime: tuple[str, str, str]  # (parity, sign of c_I^2-c*c_I-q, sign of c-pressure)
    real_eigenvalues: list[RootReport]
    complex_pair_count: int
    numeric_spectrum: list[complex]
    predicted_pattern: SignPattern | None

    def to_json_dict(self) -> dict:
        # every real root is certified for every n_E, so "analytic" is always
        # true and "notice" null; the dataclasses' fields print in order
        return {
            "analytic": True,
            "classification": self.classification,
            "T_star": self.T_star,
            "regime": {
                "n_I_parity": self.regime[0],
                "quadratic_at_minus_cI": self.regime[1],
                "clearance_vs_pressure": self.regime[2],
            },
            "real_eigenvalues": [vars(r) for r in self.real_eigenvalues],
            "complex_pair_count": self.complex_pair_count,
            "numeric_spectrum": [[z.real, z.imag] for z in self.numeric_spectrum],
            "predicted_pattern": vars(self.predicted_pattern) if self.predicted_pattern else None,
            "notice": None,
        }


def analyze(params: ModelParams, T: float) -> SpectrumReport:
    """Full spectrum report at one T value, the same way for every n_E. The
    real roots and their algebraic multiplicities are _certified_roots',
    with formula eigenvectors (none within _POLE_REL of the poles -c_I,
    -c_E, where the formula's residual is no longer small). A root is
    "zero" only when it is 0.0; it is geometrically double only on the
    Critical row without advection, when the W direction joins the V
    family. Every other root is geometrically simple. Complex pairs fill the rest
    of the dimension n_E + n_I + 2; an odd or negative rest raises
    ArithmeticError. The dense eigenvalues are reported and decide nothing;
    the predicted pattern is given at n_E = 0, where the regime table holds.
    """
    k_row, k_col = _regime_rows(params, T)  # the report's one regime decision
    row, col = "<=>"[k_row], "<=>"[k_col]
    w = full_spectrum_numeric(params, T)
    c_E, c_I, n_E = params.c_E, params.c_I, params.n_E
    zero_geometric = 2 if row == "=" and params.v_a == 0.0 else 1
    reports: list[RootReport] = []
    for r, multiplicity in _certified_roots(params, T, k_row):
        vec = None
        if abs(c_I + r) > _POLE_REL * c_I and (not n_E or abs(c_E + r) > _POLE_REL * c_E):
            vec = _eigenvector(params, T, r, k_row).tolist()
        reports.append(
            RootReport(
                value=r,
                sign_class=sign_class(r, c_I),
                algebraic_multiplicity=multiplicity,
                geometric_multiplicity=zero_geometric if r == 0.0 else 1,
                eigenvector=vec,
            )
        )
    unpaired = n_E + params.n_I + 2 - sum(r.algebraic_multiplicity for r in reports)
    if unpaired < 0 or unpaired % 2:
        raise ArithmeticError(f"real roots at T = {T!r} leave {unpaired} eigenvalues, not complex pairs")
    return SpectrumReport(
        classification=_KIND_BY_ROW[row],
        T_star=_threshold(params),
        regime=("even" if params.n_I % 2 == 0 else "odd", col, row),
        real_eigenvalues=reports,
        complex_pair_count=unpaired // 2,
        numeric_spectrum=w.astype(complex).tolist(),
        predicted_pattern=_sign_pattern(params.n_I, row, col) if n_E == 0 else None,
    )


__all__ = [
    "SignPattern",
    "RootReport",
    "SpectrumReport",
    "classify",
    "real_roots",
    "sign_class",
    "predicted_sign_pattern",
    "full_spectrum_numeric",
    "perron_root",
    "eigenvector",
    "geometric_multiplicity",
    "analyze",
]
