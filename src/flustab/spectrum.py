"""Eigenvalue analysis of the frozen-T system.

Every real root of the characteristic polynomial P is found one way, for
any n_E: at beta*T*p = 0 from P's linear factors; otherwise bracketed
between consecutive critical points, where P is monotone, and reported
only with a sign change of P across it. The critical points come from
factored derivatives: P' = (c_I+lam)^(n_I-1) H, with H a quadratic at
n_E = 0; for n_E > 0, H' = (c_E+lam)^(n_E-2) K with K a cubic, whose
critical points are closed form. The search that certifies a root also
gives its multiplicity: a bracketed root is simple, one at a critical
point has one plus the order of the derivative's zero there. The roots
sort into four sign classes; at n_E = 0 the class patterns form a 3x3
grid indexed by the sign of c - beta*T*p*tau_I (clearance versus viral
pressure) and the sign of c_I^2 - c*c_I - beta*T*p (where -c_I falls
against the quadratic's roots), decided for every caller by one helper.
The largest real eigenvalue, whose sign is the stability answer, is the
Perron root of the (E, I, V) block and solves one monotone scalar
equation. A dense eigensolver gives the oracle spectrum, which no
decision here reads.

Sign-class labels used throughout:
    "neg_below_cI"   real root < -c_I
    "neg_in_cI_0"    real root in (-c_I, 0)
    "zero"           the structural zero eigenvalue
    "positive"       real root > 0
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import coefficient_matrix
from .model import InvalidParamsError, ModelParams, _threshold

# One fixed value per numeric decision; none of them is a parameter.
_CLASS_REL = 1e-10  # the regime cell's "=" window, relative to the larger term
_RANK_REL = 1e-7  # the SVD rank cut, relative to the largest singular value
_ROOT_TOL = 1e-12  # a root's bracket, relative to the root
_ROOT_STEPS = 2200  # more than the bisections from a bracket of 2 * 1.8e308 to a subnormal
_POLE_REL = 1e-9  # a root this close to -c_I or -c_E, relative to the rate, gets no formula eigenvector


def _viral_pressure(params: ModelParams, T: float) -> float:
    # Canonical evaluation order; the Critical/equality tests in this module
    # and in the validation suites compare against exactly this expression.
    return params.beta * T * params.p * params.tau_I


def _regime_rows(params: ModelParams, T) -> tuple[np.ndarray, np.ndarray]:
    """The regime cell (row, column) of each T (a float or an array), each
    an index 0, 1, 2 into "<=>". Row: the sign of c - beta*T*p*tau_I.
    Column: the sign of c_I^2 - c*c_I - beta*T*p, where -c_I falls against
    the roots of the quadratic factor. Each is "=" inside a relative window
    of _CLASS_REL of its largest term; a NaN or infinite value lands in
    "<", as an overflowing viral pressure does. By the next-generation
    theorem the row alone says whether an eigenvalue is positive ("<"), the
    zero is double ("=") or neither (">"); every caller takes it from here."""
    c, c_I = params.c, params.c_I
    q = params.beta * T * params.p
    pressure = q * params.tau_I  # _viral_pressure's evaluation order

    def three_way(value, scale):
        # only a finite gap can be "=": an infinite one has an infinite window
        return np.where((np.abs(value) <= _CLASS_REL * scale) & np.isfinite(value), 1, 2 * (value > 0))

    row = three_way(c - pressure, np.maximum(abs(c), np.abs(pressure)))
    col_scale = np.maximum(max(c_I * c_I, abs(c) * c_I, 1e-300), np.abs(q))
    return row, three_way(c_I * c_I - c * c_I - q, col_scale)


_KIND_BY_ROW = {"<": "Indefinite", "=": "Critical", ">": "Definite"}


def classify(params: ModelParams, T: float) -> str:
    """Regime of the frozen-T system: "Definite", "Indefinite" or "Critical".

    Definite when clearance c exceeds the viral pressure beta*T*p*tau_I
    (no positive eigenvalue), Indefinite when it falls short (exactly one),
    Critical inside a relative window around equality. Exact equality is
    measure-zero, hence the window.
    """
    return _KIND_BY_ROW["<=>"[int(_regime_rows(params, T)[0])]]


def derivative_quadratic_coeffs(params: ModelParams, T: float) -> tuple[float, float, float]:
    """Coefficients (A2, A1, A0) of the quadratic factor of the polynomial's
    derivative: (n_I + 2) lam^2 + (c (n_I + 1) + 2 c_I) lam + (c c_I - q n_I),
    with q = beta*T*p. The remaining derivative factor is (c_I + lam)^(n_I-1)."""
    c_I = params.c_I
    n_I = params.n_I
    q = params.beta * T * params.p
    return (n_I + 2.0, params.c * (n_I + 1.0) + 2.0 * c_I, params.c * c_I - q * n_I)


def _quadratic_roots(a2: float, a1: float, a0: float) -> list[float]:
    """The real roots of a2 lam^2 + a1 lam + a0 (a2 > 0), subtraction-free: r1
    takes a1's sign, r2 = a0/(a2 r1). An overflow raises ArithmeticError."""
    disc = a1 * a1 - 4.0 * a2 * a0
    if not math.isfinite(disc):
        raise ArithmeticError("critical points of the characteristic polynomial overflow")
    if disc < 0.0:
        return []
    rt = math.sqrt(disc)
    if a1 >= 0:
        r1 = (-a1 - rt) / (2.0 * a2)
    else:
        r1 = (-a1 + rt) / (2.0 * a2)
    return [r1, a0 / (a2 * r1) if r1 != 0.0 else -a1 / a2]


def _slope_cubics(params: ModelParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coefficients, highest first, of the cubics R and K of an n_E > 0
    cascade. With u = c_E + lam, w = c_I + lam and q = beta*T*p,
    P' = w^(n_I - 1) H, H = u^(n_E - 1) R - q c_E^n_E n_I, where
    R = (2 lam + c) u w + lam (c + lam)(n_E w + n_I u), and
    H' = u^(n_E - 2) K with K = (n_E - 1) R + u R'."""
    c, c_E, c_I, n_E, n_I = params.c, params.c_E, params.c_I, params.n_E, params.n_I
    r = (n_E + n_I + 2.0, (2 + n_I) * c_E + (2 + n_E) * c_I + c * (1 + n_E + n_I),
         2.0 * c_E * c_I + c * ((1 + n_I) * c_E + (1 + n_E) * c_I), c * c_E * c_I)
    k = ((n_E + 2) * r[0], (n_E + 1) * r[1] + 3.0 * c_E * r[0], n_E * r[2] + 2.0 * c_E * r[1],
         (n_E - 1) * r[3] + c_E * r[2])
    return r, k


def _cubic(coeffs, x: float) -> tuple[float, float]:
    """The cubic of coeffs, highest first, at x, and the sum of its terms' sizes."""
    a3, a2, a1, a0 = coeffs
    m = abs(x)
    return ((a3 * x + a2) * x + a1) * x + a0, ((abs(a3) * m + abs(a2)) * m + abs(a1)) * m + abs(a0)


def _scaled_charpoly(c: float, c_I: float, q: float, n_I: int, lam: float,
                     c_E: float = 0.0, n_E: int = 0) -> tuple[float, float]:
    """The characteristic polynomial
    P(lam) = (c_E + lam)^n_E (c_I + lam)^n_I (c + lam) lam
             + q c_E^n_E (c_I^n_I - (c_I + lam)^n_I),  q = beta*T*p,
    and the size of its terms, both over M_E^n_E M^n_I with
    M = max(c_I, |c_I + lam|) and M_E = max(c_E, |c_E + lam|). Over M^n_I
    one of the two c_I powers is +-1 and the other is e^(-|L|),
    L = n_I log(|c_I + lam|/c_I), so no depth or rate overflows it; the sign
    (-1)^n_I of the power below -c_I is taken apart, and where it is +1 the
    difference of powers is an expm1 of L. The value is an exact 0.0 at
    lam = 0, and one below ~1e-13 of the size is indistinguishable from 0.
    """
    u = c_I + lam
    if u == 0.0:
        L = -math.inf
    else:
        L = n_I * (math.log1p(lam / c_I) if u > 0.0 else math.log(-u / c_I))
    # |c_I + lam|^n_I and c_I^n_I over M^n_I: the larger is 1, the other e^(-|L|)
    pu, pc = (1.0, math.exp(-L)) if L >= 0.0 else (math.exp(L), 1.0)
    if u < 0.0 and n_I % 2 == 1:  # (c_I + lam)^n_I < 0
        pu, diff = -pu, pc + pu
    else:
        diff = math.expm1(-L) if L >= 0.0 else -math.expm1(L)
    cascade = pu * (c + lam) * lam
    if n_E:  # the eclipse powers over M_E^n_E: powers of ratios in [-1, 1]
        M = max(c_E, abs(c_E + lam))
        cascade, q = cascade * ((c_E + lam) / M) ** n_E, q * (c_E / M) ** n_E
    # above -c_I the difference of powers is good to a few eps of itself,
    # and the powers it cancels overstate its rounding; only eclipse stages
    # put critical points but the one nearest 0 (tested for an exact 0.0)
    # at |lam| far below c_I, so at n_E = 0 the size is their sum
    spread = abs(diff) if n_E and c_I + lam > 0.0 else pc + abs(pu)
    return cascade + q * diff, abs(cascade) + abs(q) * spread


def _scaled_slope(c_E: float, q: float, n_E: int, n_I: int, r, lam: float) -> tuple[float, float]:
    """H(lam) = P'(lam)/(c_I + lam)^(n_I - 1) at n_E > 0 and the size of its
    terms, over M_E^n_E as in _scaled_charpoly; r is _slope_cubics' R."""
    u = c_E + lam
    M = max(c_E, abs(u))
    eu = (u / M) ** (n_E - 1)
    value, size = _cubic(r, lam)
    feedback = q * n_I * c_E * (c_E / M) ** (n_E - 1)
    return (eu * value - feedback) / M, (abs(eu) * size + abs(feedback)) / M


def _exact_charpoly_ratio(c: float, c_I: float, q: float, n_I: int, lam: float,
                          c_E: float = 0.0, n_E: int = 0) -> float:
    """P(lam) / (M_E^n_E (c_I + lam)^(n_I - 1)), with P and M_E as in
    _scaled_charpoly, taken exactly in integers from the float inputs and
    rounded once; NaN at lam = -c_I or where the ratio is past the float
    range."""
    # each float is an integer over a power of 2: c, c_I, lam and c_E over
    # one 2^k, q = Qn / 2^e over its own, so a tiny q does not lengthen the rest
    ratios = [v.as_integer_ratio() for v in (c, c_I, lam, c_E)]
    k = max(den for _, den in ratios).bit_length() - 1
    C, CI, X, CE = (num << (k - den.bit_length() + 1) for num, den in ratios)
    Qn, Qd = q.as_integer_ratio()
    e = Qd.bit_length() - 1
    U = CI + X
    if U == 0:
        return math.nan
    V = U ** (n_I - 1)
    # P * 2^(k(n_E + n_I + 2) + e)
    #   = (CE + X)^n_E U^n_I (C + X) X 2^e + Qn CE^n_E (CI^n_I - U^n_I) 2^(2k)
    num = (((CE + X) ** n_E * V * U * (C + X) * X) << e) + ((Qn * CE**n_E * (CI**n_I - V * U)) << (2 * k))
    try:
        return num / ((V * max(CE, abs(CE + X)) ** n_E) << (3 * k + e))
    except OverflowError:
        return math.nan


def _interior(lo: float, critical: list[tuple[float, int]], hi: float) -> list[tuple[float, int]]:
    """lo, the ascending critical points inside (lo, hi) and hi, each as
    (point, order of the derivative's zero there), 0 at lo and hi; a
    near-duplicate is merged into the point before it, adding its order."""
    endpoints = [(lo, 0)]
    for cp, order in sorted(critical):
        if endpoints[-1][0] + 1e-14 * abs(cp) < cp < hi:
            endpoints.append((cp, order))
        elif lo < cp < hi:
            endpoints[-1] = (endpoints[-1][0], endpoints[-1][1] + order)
    return endpoints + [(hi, 0)]


def _rtsafe(f, newton_step, a: float, b: float, fa: float, T: float) -> tuple[float, float, float]:
    """The root of f in (a, b), where f changes sign (fa is f at a), and the
    final bracket: Newton steps newton_step(x, f(x)[0]) from the midpoint,
    bisecting when a step fails, leaves the bracket or does not halve the
    step before last, until f changes sign across a bracket of _ROOT_TOL
    relative (or two ulps); still wider after _ROOT_STEPS, ArithmeticError."""
    x = 0.5 * (a + b)
    dx = dx_old = b - a
    for _ in range(_ROOT_STEPS):
        value = f(x)[0]
        if value == 0.0:
            break
        if (value > 0) == (fa > 0):
            a = x
        else:
            b = x
        try:
            step = newton_step(x, value)
        except (OverflowError, ZeroDivisionError):
            step = math.nan  # a zero derivative or a step that overflows
        estimate = x - step
        tol = max(_ROOT_TOL * abs(x), 2.0 * math.ulp(x))  # two ulps at 0 and subnormals
        if b - a <= tol:
            x = 0.5 * (a + b) if math.isnan(estimate) else min(max(estimate, a), b)
            break
        if not (a <= estimate <= b) or abs(2.0 * step) > abs(dx_old):
            dx_old, dx = dx, 0.5 * (b - a)
            x = a + dx
        elif abs(step) < 0.5 * tol:
            # converged: probe just past the estimate, across the root
            x = estimate + 0.5 * tol if x == a else estimate - 0.5 * tol
        else:
            dx_old, dx = dx, step
            x = estimate
    else:
        raise ArithmeticError(f"real root in [{a!r}, {b!r}] not certified in {_ROOT_STEPS} steps at T = {T!r}")
    return x, a, b


def _bracketed_roots(f, newton_step, endpoints: list[tuple[float, int]], T: float,
                     near=None, polish=None) -> list[tuple[float, int]]:
    """The roots of f = (value, size of its terms) with their multiplicities,
    f strictly monotone between consecutive endpoints (_interior's pairs) or
    with one root where it changes sign between two nonzero ends. An
    endpoint is a root of multiplicity 1 + its order where the value is
    within 1e-13 of the size (the roundoff floor, so that two roots flanking
    it are not swallowed), and only at an exact 0.0 at the index near. Each
    other sign change is a simple root, solved by _rtsafe. For P itself,
    given with polish, the interval around 0 is not searched (its one root
    is the structural 0) and a bracketed root x in (a, b) becomes
    polish(x, a, b)."""
    vals, scales = zip(*(f(e) for e, _ in endpoints))
    zero_at = [abs(v) <= 1e-13 * s for v, s in zip(vals, scales)]
    if near is not None:
        zero_at[near] = vals[near] == 0.0
    roots = [(e, 1 + order) for (e, order), z in zip(endpoints, zero_at) if z]
    for i in range(len(endpoints) - 1):
        if zero_at[i] or zero_at[i + 1]:
            continue
        (a, _), (b, _), fa = endpoints[i], endpoints[i + 1], vals[i]
        if (fa > 0) == (vals[i + 1] > 0) or polish and a < 0.0 < b:
            continue  # no sign change, or the interval's one root is the structural 0
        x, a, b = _rtsafe(f, newton_step, a, b, fa, T)
        roots.append((polish(x, a, b) if polish else x, 1))
    return roots


def _slope_roots(c_E: float, q: float, n_E: int, n_I: int, cubics, lo: float, hi: float,
                 T: float) -> list[tuple[float, int]]:
    """The real roots of H in (lo, hi) for n_E > 0 (_slope_cubics), with their
    multiplicities. Between -c_E and the roots of K', K is monotone, so
    H' = (c_E + lam)^(n_E - 2) K changes sign at most once: a piece where H
    changes sign holds one root of H, any other is split at K's root. H''s
    zero at -c_E has order n_E - 2 plus K's there (at n_E = 1, K = (c_E +
    lam) R' has a root at -c_E that H' lacks). Coefficients past the float
    range raise."""
    r, k = cubics
    dk = (0.0, 3.0 * k[0], 2.0 * k[1], k[2])  # K'
    if not math.isfinite(_cubic(k, lo)[1] + _cubic(r, lo)[1] + q * n_I * c_E):  # |lo| >= hi
        raise ArithmeticError("critical points of the characteristic polynomial overflow")
    K = lambda x: _cubic(k, x)
    H = lambda x: _scaled_slope(c_E, q, n_E, n_I, r, x)
    pieces = _interior(lo, [(x, 1) for x in _quadratic_roots(*dk[1:])] + [(-c_E, 0)], hi)
    ends = [H(x) for x, _ in pieces]
    turns = {}  # K's roots; one on the end two pieces share is found twice, kept once
    for i, ((fa, sa), (fb, sb)) in enumerate(zip(ends, ends[1:])):
        if (fa > 0) == (fb > 0) or abs(fa) <= 1e-13 * sa or abs(fb) <= 1e-13 * sb:
            turns.update(_bracketed_roots(K, lambda x, value: value / _cubic(dk, x)[0], pieces[i:i + 2], T))

    def h_step(x: float, value: float) -> float:
        # H/H' with H = value M_E^n_E and H' = (c_E + x)^(n_E - 2) K(x)
        M = max(c_E, abs(c_E + x))
        return value / K(x)[0] * M * M * (M / (c_E + x)) ** (n_E - 2)

    critical = [(x, 0) for x, _ in pieces[1:-1]] + [(-c_E, n_E - 2)] + list(turns.items())
    return _bracketed_roots(H, h_step, _interior(lo, critical, hi), T)


def real_roots(params: ModelParams, T: float) -> list[float]:
    """All real roots of the characteristic polynomial, ascending, each
    listed once: _certified_roots' values."""
    return [x for x, _ in _certified_roots(params, T)]


def _certified_roots(params: ModelParams, T: float) -> list[tuple[float, int]]:
    """All real roots of the characteristic polynomial, ascending, each with
    its algebraic multiplicity, which the search that finds the root decides.

    At q = beta*T*p = 0, P = (c_E + lam)^n_E (c_I + lam)^n_I (c + lam) lam:
    its factors' roots, equal ones merged with their multiplicities added.
    Otherwise, between consecutive critical points, -c_I (n_I >= 2) and the
    roots of H = P'/(c_I + lam)^(n_I - 1) (closed form at n_E = 0,
    _slope_roots otherwise), P is strictly monotone, and each sign change is
    a simple root, solved by _rtsafe on P/P'. One more Newton step, on P
    taken exactly from the float inputs (_exact_charpoly_ratio), puts the
    root on one of the two floats around the exact one. A root at a
    critical point has multiplicity 1 + the order of P''s zero there:
    n_I - 1 at -c_I plus H's root's multiplicity. The structural root 0 is
    included exactly, double on the Critical row, and the interval around
    it is not searched. The critical point nearest 0 lies between 0 and its
    partner root: on the Critical row it stands for the double zero and is
    dropped; elsewhere it is a root only where P is exactly 0.0 there.
    Critical points past the float range raise ArithmeticError.
    """
    c_E, c_I = params.c_E, params.c_I
    c, n_E, n_I = params.c, params.n_E, params.n_I
    q = params.beta * T * params.p
    if q == 0.0:
        factors: dict[float, int] = {}
        for root, multiplicity in ((-c_E, n_E), (-c_I, n_I), (-c, 1), (0.0, 1)):
            if multiplicity:
                factors[root] = factors.get(root, 0) + multiplicity
        return sorted(factors.items())
    eclipse = (c_E, n_E) if n_E else ()
    # P keeps its sign outside (lo, hi). With s = |c| + 2|q|^(1/2) + 1 and
    # |lam| >= s, |c + lam| |lam| >= 3|q| + 1 beats the feedback
    # q (c_E/(c_E + lam))^n_E (1 - (c_I/(c_I + lam))^n_I): at most |q| above
    # s, and at most 2|q| for complex lam with |lam| >= -lo, where
    # |c_I + lam| >= c_I and |c_E + lam| >= c_E.
    s = abs(c) + 2.0 * math.sqrt(abs(q)) + 1.0
    s += 4.0 * math.ulp(s)  # above the exact sum, whose 1 a large |c| rounds away
    lo, hi = -max(2.0 * c_I, 2.0 * c_E, s), s
    if n_E:
        cubics = _slope_cubics(params)
        slope = lambda x: _scaled_slope(c_E, q, n_E, n_I, cubics[0], x)[0]  # H over M_E^n_E
        critical = _slope_roots(c_E, q, n_E, n_I, cubics, lo, hi, T)
    else:
        a2, a1, a0 = coeffs = derivative_quadratic_coeffs(params, T)
        slope = lambda x: a2 * x * x + a1 * x + a0
        critical = [(x, 1) for x in _quadratic_roots(*coeffs)]
    endpoints = _interior(lo, critical + ([(-c_I, n_I - 1)] if n_I >= 2 else []), hi)
    near = min(range(1, len(endpoints) - 1), key=lambda i: abs(endpoints[i][0]), default=None)
    critical_row = _regime_rows(params, T)[0] == 1
    if near is not None and critical_row:
        del endpoints[near]  # the double zero: 0 and its partner are one root
        near = None

    def newton_step(x: float, value: float) -> float:
        # P/P' = value M^n_I / ((c_I + x)^(n_I - 1) slope(x)), with
        # M^n_I / |c_I + x|^(n_I - 1) = M (M/|c_I + x|)^(n_I - 1)
        u = abs(c_I + x)
        M = max(c_I, u)
        step = value / slope(x) * M * math.exp((n_I - 1) * math.log(M / u))
        return -step if c_I + x < 0.0 and n_I % 2 == 0 else step  # (c_I + x)^(n_I - 1) < 0

    def polish(x: float, a: float, b: float) -> float:
        # one Newton step on the exact value puts x on a float next to the root;
        # it may leave the bracket by the root's shift under P's rounding
        tol = max(_ROOT_TOL * abs(x), 2.0 * math.ulp(x))
        slope_x = slope(x)  # P' over (c_I + x)^(n_I - 1) M_E^n_E
        if slope_x != 0.0:
            polished = x - _exact_charpoly_ratio(c, c_I, q, n_I, x, *eclipse) / slope_x
            if not a - tol <= polished <= b + tol and math.isfinite(polished):
                try:
                    tol = max(tol, abs(1e-13 * newton_step(x, P(x)[1])))
                except (OverflowError, ZeroDivisionError):
                    pass
            if a - tol <= polished <= b + tol:
                return polished
        return x

    P = lambda lam: _scaled_charpoly(c, c_I, q, n_I, lam, *eclipse)
    return sorted(_bracketed_roots(P, newton_step, endpoints, T, near, polish) + [(0.0, 2 if critical_row else 1)])


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
    row, col = ("<=>"[int(k)] for k in _regime_rows(params, T))
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
    x = -n_I*log1p(lam/c_I), S(0) = n_I/c_I.

    Up to x = 0.5, wherever q*S/(c+lam) is a normal float, that product is
    formed and logged once, so the value carries a few eps of absolute
    error however large the logs of its factors are (a sum of those logs
    near lam = 0 cancels ~40-size terms and is off by ~1e-14). Elsewhere
    every power is taken in log form, so deep cascades with extreme rates
    cannot overflow."""
    c_E, c_I, n_I = params.c_E, params.c_I, params.n_I
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = -n_I * np.log1p(lam / c_I)
        ratio = q * np.where(lam == 0.0, n_I / c_I, np.expm1(x) / -lam) / (params.c + lam)
        # log|expm1(x)|; past x = 0.5 the form x + log(1 - e^-x) cannot overflow
        log_num = np.where(x > 0.5, x + np.log1p(-np.exp(-x)), np.log(np.abs(np.expm1(x))))
        log_S = np.where(lam == 0.0, math.log(n_I / c_I), log_num - np.log(np.abs(lam)))
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
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    if lam != 0.0 and (abs(c_I + lam) <= 1e-300 or n_E and abs(c_E + lam) <= 1e-300):
        raise ValueError("eigenvector formula has a pole at lam = -c_I or -c_E")
    v = np.zeros(n_E + n_I + 2)
    w = 0.0  # forced for lam != 0; at lam = 0 with a balanced V row any W works, take the simplest
    if lam == 0.0:
        if params.v_a != 0.0:
            w = (_viral_pressure(params, T) - params.c) / (-params.v_a)
        elif classify(params, T) != "Critical":
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
    if not math.isfinite(x):
        raise ArithmeticError(f"eigenvector at lam = {lam!r} overflows at n_E = {n_E}, n_I = {n_I}")
    v[-2] = 1.0
    v[-1] = w
    return v


def geometric_multiplicity(A: np.ndarray, lam: float) -> int:
    """Eigenspace dimension n - rank(A - lam*I) of the square matrix A, rank
    by singular values above _RANK_REL times the largest. Raises if lam is
    not an eigenvalue within that cut. The validate suites' oracle."""
    sv = np.linalg.svd(A - lam * np.eye(len(A)), compute_uv=False)
    gm = len(A) - int(np.sum(sv > _RANK_REL * sv[0]))
    if gm == 0:
        raise ValueError(f"{lam} is not an eigenvalue of the matrix within tolerance")
    return gm


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
    row, col = ("<=>"[int(k)] for k in _regime_rows(params, T))
    w = full_spectrum_numeric(params, T)
    c_E, c_I, n_E = params.c_E, params.c_I, params.n_E
    zero_geometric = 2 if row == "=" and params.v_a == 0.0 else 1
    reports: list[RootReport] = []
    for r, multiplicity in _certified_roots(params, T):
        vec = None
        if abs(c_I + r) > _POLE_REL * c_I and (not n_E or abs(c_E + r) > _POLE_REL * c_E):
            vec = [float(x) for x in eigenvector(params, T, r)]
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
        numeric_spectrum=[complex(z) for z in w],
        predicted_pattern=_sign_pattern(params.n_I, row, col) if n_E == 0 else None,
    )


__all__ = [
    "SignPattern",
    "RootReport",
    "SpectrumReport",
    "classify",
    "derivative_quadratic_coeffs",
    "real_roots",
    "sign_class",
    "predicted_sign_pattern",
    "full_spectrum_numeric",
    "perron_root",
    "eigenvector",
    "geometric_multiplicity",
    "analyze",
]
