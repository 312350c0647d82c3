"""Eigenvalue analysis of the frozen-T system.

For n_E = 0 the characteristic polynomial is low-degree and fully analyzable:
its critical points are known in closed form, every real root can be
bracketed between consecutive critical points, the roots sort into four sign
classes, and the possible class patterns form a 3x3 grid indexed by the sign
of c - beta*T*p*tau_I (clearance versus viral pressure) and the sign of
c_I^2 - c*c_I - beta*T*p (where -c_I falls relative to the quadratic's
roots). One helper decides that cell for every caller, and algebraic
multiplicities are read off the factored derivative, not estimated. For
any n_E the largest real eigenvalue, the one whose sign is the
stability answer, is the Perron root of the (E, I, V) block and solves one
monotone scalar equation. A dense nonsymmetric eigensolver provides the
oracle spectrum for any n_E.

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

from .charpoly import SystemMatrix, coefficient_matrix
from .model import InvalidParamsError, ModelParams, _threshold


def _viral_pressure(params: ModelParams, T: float) -> float:
    # Canonical evaluation order; the Critical/equality tests in this module
    # and in the validation suites compare against exactly this expression.
    return params.beta * T * params.p * params.tau_I


@dataclass(frozen=True)
class Classification:
    kind: str  # "Definite" | "Indefinite" | "Critical"
    T_star: float

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "T_star": self.T_star}


def _three_way(value: float, tol: float) -> str:
    if abs(value) <= tol:
        return "="
    return ">" if value > 0 else "<"


def _regime_rows(params: ModelParams, T, tol_class_rel: float) -> np.ndarray:
    """The regime row of each T (a float or an array): the sign of
    c - beta*T*p*tau_I as an index 0, 1, 2 into "<=>", with "=" inside a
    relative window of tol_class_rel. A NaN lands in "<"."""
    pressure = _viral_pressure(params, T)
    value = params.c - pressure
    tol = tol_class_rel * np.maximum(abs(params.c), np.abs(pressure))
    return np.where(np.abs(value) <= tol, 1, 2 * (value > 0))


def _regime_row(params: ModelParams, T: float, tol_class_rel: float) -> str:
    """_regime_rows of one T as "<", "=" or ">"."""
    return "<=>"[int(_regime_rows(params, T, tol_class_rel))]


def _regime_cell(params: ModelParams, T: float, tol_class_rel: float) -> tuple[str, str]:
    """The regime cell (_regime_row, col). Column: sign of
    c_I^2 - c*c_I - beta*T*p, where -c_I falls against the roots of the
    quadratic factor, in the same three-way window."""
    c_I = params.c_I
    q = params.beta * T * params.p
    row = _regime_row(params, T, tol_class_rel)
    col_value = c_I * c_I - params.c * c_I - q
    col_scale = max(c_I * c_I, abs(params.c) * c_I, abs(q), 1e-300)
    return row, _three_way(col_value, tol_class_rel * col_scale)


_KIND_BY_ROW = {"<": "Indefinite", "=": "Critical", ">": "Definite"}


def classify(params: ModelParams, T: float, tol_class_rel: float = 1e-10) -> Classification:
    """Regime of the frozen-T system.

    Definite when clearance c exceeds the viral pressure beta*T*p*tau_I
    (no positive eigenvalue), Indefinite when it falls short (exactly one),
    Critical inside a relative window around equality. Exact equality is
    measure-zero, hence the window.
    """
    row = _regime_row(params, T, tol_class_rel)
    return Classification(kind=_KIND_BY_ROW[row], T_star=_threshold(params))


def _require_nE0(params: ModelParams):
    if params.n_E != 0:
        raise InvalidParamsError(["analytic spectrum routines require n_E = 0"])


def derivative_quadratic_coeffs(params: ModelParams, T: float) -> tuple[float, float, float]:
    """Coefficients (A2, A1, A0) of the quadratic factor of the polynomial's
    derivative: (n_I + 2) lam^2 + (c (n_I + 1) + 2 c_I) lam + (c c_I - q n_I),
    with q = beta*T*p. The remaining derivative factor is (c_I + lam)^(n_I-1)."""
    c_I = params.c_I
    n_I = params.n_I
    q = params.beta * T * params.p
    return (n_I + 2.0, params.c * (n_I + 1.0) + 2.0 * c_I, params.c * c_I - q * n_I)


def _critical_points(c_I: float, n_I: int, coeffs: tuple[float, float, float]) -> list[float]:
    """All real critical points of the characteristic polynomial, ascending.

    These are -c_I (present when n_I >= 2, from the (c_I + lam)^(n_I - 1)
    derivative factor) plus any real roots of the derivative quadratic with
    the coefficients of derivative_quadratic_coeffs; a negative
    discriminant contributes nothing.
    """
    pts = [-c_I] if n_I >= 2 else []
    a2, a1, a0 = coeffs
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc >= 0.0:
        rt = math.sqrt(disc)
        # subtraction-free: r1 adds rt to a1 with a1's sign, and r2 comes
        # from the product of the roots, a0/a2
        if a1 >= 0:
            r1 = (-a1 - rt) / (2.0 * a2)
        else:
            r1 = (-a1 + rt) / (2.0 * a2)
        r2 = a0 / (a2 * r1) if r1 != 0.0 else -a1 / a2
        pts.extend([r1, r2])
    return sorted(pts)


def _scaled_charpoly(c: float, c_I: float, q: float, n_I: int, lam: float) -> tuple[float, float]:
    """The n_E = 0 characteristic polynomial and the sum of its terms'
    magnitudes, both divided by M^n_I with M = max(c_I, |c_I + lam|).

    P(lam) = (c_I + lam)^n_I (c + lam) lam + q (c_I^n_I - (c_I + lam)^n_I)
    with q = beta*T*p. Over M^n_I one of the two powers is +-1 and the other
    is e^(-|L|), L = n_I log(|c_I + lam|/c_I), so nothing can overflow; the
    sign (-1)^n_I of the power below -c_I is taken apart, and where it is +1
    the difference of powers is an expm1 of L. The value is an exact 0.0 at
    lam = 0 and q at lam = -c_I. The division keeps every sign, and a value
    below ~1e-13 of the scale is indistinguishable from a true zero.
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
    return cascade + q * diff, abs(cascade) + abs(q) * (pc + abs(pu))


def _exact_charpoly_ratio(c: float, c_I: float, q: float, n_I: int, lam: float) -> float:
    """P(lam) / (c_I + lam)^(n_I - 1), with P as in _scaled_charpoly, taken
    exactly in integers from the float inputs and rounded once; NaN at
    lam = -c_I or where the ratio is past the float range."""
    # each float is an integer over a power of 2; put all over 2^k
    ratios = [v.as_integer_ratio() for v in (c, c_I, q, lam)]
    k = max(den for _, den in ratios).bit_length() - 1
    C, CI, Q, X = (num << (k - den.bit_length() + 1) for num, den in ratios)
    U = CI + X
    if U == 0:
        return math.nan
    V = U ** (n_I - 1)
    # P * 2^(k(n_I + 2)) = U^n_I (C + X) X + Q (CI^n_I - U^n_I) 2^k
    num = V * U * (C + X) * X + ((Q * (CI**n_I - V * U)) << k)
    try:
        return num / (V << (3 * k))
    except OverflowError:
        return math.nan


_ROOT_TOL = 1e-12


def real_roots(params: ModelParams, T: float) -> list[float]:
    """All real roots of the n_E = 0 characteristic polynomial, ascending.

    Between consecutive critical points the polynomial is strictly monotone,
    so each open interval holds at most one root and a sign change pins it.
    Each such bracket is solved by a safeguarded Newton iteration (rtsafe)
    on the ratio P/P' of the analytic derivative P' = (c_I+lam)^(n_I-1) Q:
    a step that leaves the bracket, or does not halve the step before last,
    bisects instead, and a root is accepted only once P changes sign across
    a bracket no wider than _ROOT_TOL (or two ulps, far out), which a small
    step alone does not show. That leaves the root within the rounding of
    _scaled_charpoly (a few ulps); one more Newton step, on the value taken
    exactly from the float inputs (_exact_charpoly_ratio), puts it on one
    of the two floats around the exact root. Roots sitting exactly on a
    critical point (the double zero at the Critical regime boundary) are
    caught by evaluating the endpoints themselves. The structural root at 0
    is always included exactly, and an interval around 0 is not searched:
    its one root is 0. Every sign is taken from _scaled_charpoly, so no
    cascade depth or rate overflows it.
    """
    _require_nE0(params)
    c_I = params.c_I
    c, n_I = params.c, params.n_I
    q = params.beta * T * params.p
    coeffs = a2, a1, a0 = derivative_quadratic_coeffs(params, T)
    # For odd n_I a root below -c_I always exists and can sit far below the
    # naive -(c + c_I + q + 1) when c_I dominates q; lo makes the polynomial
    # provably single-signed below it for either parity: the magnitude term
    # needs mu - c_I >= c_I * q^(1/n_I) (so the power beats q * c_I^{n_I})
    # and mu(mu - c) - q > 1 (so the quadratic factor is clear of zero),
    # both of which hold at lo by construction.
    lo = -(c + abs(q) + 1.0 + c_I * (1.0 + abs(q) ** (1.0 / n_I)) + 1.0)
    hi = c + c_I + abs(q) + 1.0

    endpoints = [lo]
    for cp in _critical_points(c_I, n_I, coeffs):
        # keep only interior critical points, dedupe collisions
        if endpoints[-1] + 1e-14 * (1 + abs(cp)) < cp < hi:
            endpoints.append(cp)
    endpoints.append(hi)

    P = lambda lam: _scaled_charpoly(c, c_I, q, n_I, lam)[0]
    roots: list[float] = [0.0]

    def push(x: float):
        for r in roots:
            if abs(x - r) <= max(_ROOT_TOL, 1e-9 * max(1.0, abs(x), abs(r))):
                return
        roots.append(x)

    def newton_step(x: float, value: float) -> float:
        # P/P' = value * M^n_I / ((c_I + x)^(n_I - 1) Q(x)), where
        # M^n_I / |c_I + x|^(n_I - 1) = M (M/|c_I + x|)^(n_I - 1); NaN for
        # a zero derivative or a step that overflows
        u = abs(c_I + x)
        M = max(c_I, u)
        try:
            step = value / (a2 * x * x + a1 * x + a0) * M * math.exp((n_I - 1) * math.log(M / u))
        except (OverflowError, ZeroDivisionError):
            return math.nan
        return -step if c_I + x < 0.0 and n_I % 2 == 0 else step  # (c_I + x)^(n_I - 1) < 0

    # Endpoint-as-root detection stays near the roundoff floor (a few eps of
    # the term scale): loose windows would swallow the two distinct roots
    # that flank a critical point just off the Critical boundary, while the
    # exactly-double root at the boundary evaluates to 0.0 and is caught.
    vals, scales = zip(*(_scaled_charpoly(c, c_I, q, n_I, e) for e in endpoints))
    zero_at = [abs(v) <= 1e-13 * s for v, s in zip(vals, scales)]
    for e, z in zip(endpoints, zero_at):
        if z:
            push(e)

    for i in range(len(endpoints) - 1):
        if zero_at[i] or zero_at[i + 1]:
            continue  # monotone interval with a root on its boundary has no interior root
        a, b, fa = endpoints[i], endpoints[i + 1], vals[i]
        if (fa > 0) == (vals[i + 1] > 0) or a < 0.0 < b:
            continue  # no sign change, or the interval's one root is the structural 0
        # rtsafe: Newton from the midpoint, bisecting whenever a step leaves
        # the bracket or does not halve the step before last; a root is
        # accepted only once P changes sign across a bracket of _ROOT_TOL
        x = 0.5 * (a + b)
        dx = dx_old = b - a
        for _ in range(200):
            value = P(x)
            if value == 0.0:
                break
            if (value > 0) == (fa > 0):
                a = x
            else:
                b = x
            step = newton_step(x, value)
            estimate = x - step
            # far out, adjacent floats are wider apart than _ROOT_TOL
            tol = max(_ROOT_TOL, 2.0 * math.ulp(x))
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
        # x is within _scaled_charpoly's rounding of the root; one Newton
        # step on the exact value puts it on a float next to the root
        tol = max(_ROOT_TOL, 2.0 * math.ulp(x))
        slope = a2 * x * x + a1 * x + a0  # P' over (c_I + x)^(n_I - 1)
        if slope != 0.0:
            polished = x - _exact_charpoly_ratio(c, c_I, q, n_I, x) / slope
            if a - tol <= polished <= b + tol:
                x = polished
        push(x)

    return sorted(roots)


def sign_class(lam: float, c_I: float, ztol: float) -> str:
    """Sign class of a real eigenvalue; ztol is the absolute zero window."""
    if abs(lam) <= ztol:
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

    def to_json_dict(self) -> dict:
        return {
            "n_I_parity": self.n_I_parity,
            "clearance_vs_pressure": self.clearance_vs_pressure,
            "quadratic_at_minus_cI": self.quadratic_at_minus_cI,
            "mandatory": list(self.mandatory),
            "optional_pairs": [list(p) for p in self.optional_pairs],
            "zero_algebraic_multiplicity": self.zero_algebraic_multiplicity,
        }


def predicted_sign_pattern(params: ModelParams, T: float, tol_class_rel: float = 1e-10) -> SignPattern:
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
    _require_nE0(params)
    row, col = _regime_cell(params, T, tol_class_rel)
    parity = "even" if params.n_I % 2 == 0 else "odd"

    if parity == "even":
        mandatory = {
            "<": ("zero", "positive"),
            "=": ("zero",),
            ">": ("neg_in_cI_0", "zero"),
        }[row]
        optional = ((("neg_below_cI", "neg_below_cI"),) if col == "<" else ())
    else:
        mandatory = {
            "<": ("neg_below_cI", "zero", "positive"),
            "=": ("neg_below_cI", "zero"),
            ">": ("neg_below_cI", "neg_in_cI_0", "zero"),
        }[row]
        optional = ()

    return SignPattern(
        n_I_parity=parity,
        clearance_vs_pressure=row,
        quadratic_at_minus_cI=col,
        mandatory=mandatory,
        optional_pairs=optional,
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
        hi = np.sqrt(q_live * params.n_I)
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
    A = coefficient_matrix(params, T)
    return np.linalg.eigvals(A.entries)


def eigenvector(params: ModelParams, T: float, lam: float, V_scale: float = 1.0) -> np.ndarray:
    """Closed-form eigenvector for a real eigenvalue, n_E = 0 layout
    (I_1..I_{n_I}, V, W), scaled so the V component equals V_scale.

    For lam != 0 the W component is exactly 0 and
    I_k = (beta*T*V/c_I) * (c_I/(c_I + lam))^k; a component that overflows
    raises ArithmeticError. For lam = 0 every I_k equals
    beta*T*V / c_I and the W component balances the V row:
    W = (beta*T*p*tau_I - c) * V / (-v_a). The formula has a pole at
    lam = -c_I, which is generically not an eigenvalue.
    """
    _require_nE0(params)
    if V_scale == 0:
        raise ValueError("V_scale must be nonzero")
    c_I = params.c_I
    n_I = params.n_I
    if lam != 0.0 and abs(c_I + lam) <= 1e-300:
        raise ValueError("eigenvector formula has a pole at lam = -c_I")
    v = np.zeros(n_I + 2)
    w = 0.0  # forced for lam != 0; at lam = 0 with a balanced V row any W works, take the simplest
    if lam == 0.0:
        pressure = _viral_pressure(params, T)
        if params.v_a != 0.0:
            w = (pressure - params.c) * V_scale / (-params.v_a)
        elif not abs(pressure - params.c) <= 1e-12 * max(abs(pressure), abs(params.c), 1e-300):
            # advection-free and off-critical: the zero eigenvector is the
            # pure W direction instead of the V-scaled family
            v[-1] = V_scale
            return v
    # I_k = (beta*T*V/c_I) * rho^k with rho = c_I/(c_I + lam), 1 at lam = 0, as
    # a running product: it stays 0.0 at beta*T = 0 and forms no power of a rate
    rho = c_I / (c_I + lam)
    x = params.beta * T * V_scale / c_I
    for k in range(n_I):
        x *= rho
        v[k] = x
    if not math.isfinite(x):
        raise ArithmeticError(f"eigenvector at lam = {lam!r} overflows at n_I = {n_I}")
    v[-2] = V_scale
    v[-1] = w
    return v


def geometric_multiplicity(A: SystemMatrix, lam: float, tol_rank: float = 1e-7) -> int:
    """Eigenspace dimension n - rank(A - lam*I), rank by singular values
    above tol_rank times the largest. Raises if lam is not an eigenvalue
    within that tolerance (computed multiplicity zero)."""
    M = A.entries - lam * np.eye(A.n)
    sv = np.linalg.svd(M, compute_uv=False)
    top = sv[0] if sv.size else 0.0
    if top == 0.0:
        return A.n
    rank = int(np.sum(sv > tol_rank * top))
    gm = A.n - rank
    if gm == 0:
        raise ValueError(f"{lam} is not an eigenvalue of the matrix within tolerance")
    return gm


def algebraic_multiplicity(params: ModelParams, T: float, lam: float, tol_class_rel: float = 1e-10) -> int:
    """Algebraic multiplicity of the real root lam: 1 plus its order as a
    zero of P' = (c_I + lam)^(n_I - 1) * Q(lam), Q the quadratic of
    derivative_quadratic_coeffs.

    The cascade factor adds n_I - 1 at lam = -c_I, a root only at
    beta*T*p = 0 (elsewhere P(-c_I) = beta*T*p*c_I^n_I). At lam = 0,
    Q(0) = c*c_I - beta*T*p*n_I is c_I times the Critical row's gap, so the
    Critical window decides it, and Q'(0) > 0. Elsewhere Q(lam) and then
    Q'(lam) count as zero within tol_class_rel of the sum of their terms'
    magnitudes; Q'' is a nonzero constant.
    """
    _require_nE0(params)
    c_I = params.c_I
    if lam == 0.0:
        return 2 if _regime_row(params, T, tol_class_rel) == "=" else 1
    order = params.n_I - 1 if lam == -c_I else 0
    a2, a1, a0 = derivative_quadratic_coeffs(params, T)
    t2, t1 = a2 * lam * lam, a1 * lam
    if abs(t2 + t1 + a0) <= tol_class_rel * (abs(t2) + abs(t1) + abs(a0)):
        order += 1
        d2 = 2.0 * a2 * lam
        if abs(d2 + a1) <= tol_class_rel * (abs(d2) + abs(a1)):
            order += 1
    return 1 + order


@dataclass(frozen=True)
class RootReport:
    value: float
    sign_class: str
    algebraic_multiplicity: int
    geometric_multiplicity: int
    eigenvector: list[float] | None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "sign_class": self.sign_class,
            "algebraic_multiplicity": self.algebraic_multiplicity,
            "geometric_multiplicity": self.geometric_multiplicity,
            "eigenvector": self.eigenvector,
        }


@dataclass(frozen=True)
class SpectrumReport:
    analytic: bool
    classification: Classification
    regime: tuple[str, str, str]  # (parity, sign of c_I^2-c*c_I-q, sign of c-pressure)
    real_eigenvalues: list[RootReport]
    complex_pair_count: int
    numeric_spectrum: list[complex]
    predicted_pattern: SignPattern | None
    notice: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "analytic": self.analytic,
            "classification": self.classification.kind,
            "T_star": self.classification.T_star,
            "regime": {
                "n_I_parity": self.regime[0],
                "quadratic_at_minus_cI": self.regime[1],
                "clearance_vs_pressure": self.regime[2],
            },
            "real_eigenvalues": [r.to_json_dict() for r in self.real_eigenvalues],
            "complex_pair_count": self.complex_pair_count,
            "numeric_spectrum": [[z.real, z.imag] for z in self.numeric_spectrum],
            "predicted_pattern": self.predicted_pattern.to_json_dict() if self.predicted_pattern else None,
            "notice": self.notice,
        }


def analyze(params: ModelParams, T: float, tol_class_rel: float = 1e-10, tol_rank: float = 1e-7) -> SpectrumReport:
    """Full spectrum report at one T value.

    With n_E = 0 the real roots come from the analytic bracketing path and
    carry formula eigenvectors; with n_E > 0 only the numeric oracle is
    available and the report says so.
    """
    classification = classify(params, T, tol_class_rel=tol_class_rel)
    A = coefficient_matrix(params, T)
    w = np.linalg.eigvals(A.entries)
    ztol = 1e-8 * max(A.inf_norm, 1.0)
    c_I = params.c_I
    row, col = _regime_cell(params, T, tol_class_rel)
    regime = ("even" if params.n_I % 2 == 0 else "odd", col, row)
    n_complex = int(np.sum(np.abs(w.imag) > ztol))

    reports: list[RootReport] = []
    if params.n_E == 0:
        pattern = predicted_sign_pattern(params, T, tol_class_rel=tol_class_rel)
        for r in real_roots(params, T):
            vec = None
            if abs(c_I + r) > 1e-9 * c_I:
                vec = [float(x) for x in eigenvector(params, T, r if abs(r) > ztol else 0.0)]
            reports.append(
                RootReport(
                    value=r,
                    sign_class=sign_class(r, c_I, ztol),
                    algebraic_multiplicity=algebraic_multiplicity(params, T, r, tol_class_rel),
                    geometric_multiplicity=geometric_multiplicity(A, r, tol_rank=tol_rank),
                    eigenvector=vec,
                )
            )
        notice = None
    else:
        pattern = None
        reals = sorted(float(z.real) for z in w if abs(z.imag) <= ztol)
        # cluster numeric reals so a double root reports once with count 2
        clusters: list[list[float]] = []
        for x in reals:
            if clusters and abs(x - clusters[-1][-1]) <= max(1e-7, 10 * ztol):
                clusters[-1].append(x)
            else:
                clusters.append([x])
        for cl in clusters:
            value = float(np.mean(cl))
            if abs(value) <= ztol:
                value = 0.0
            reports.append(
                RootReport(
                    value=value,
                    sign_class=sign_class(value, c_I, ztol),
                    algebraic_multiplicity=len(cl),
                    geometric_multiplicity=geometric_multiplicity(A, value, tol_rank=tol_rank),
                    eigenvector=None,
                )
            )
        notice = "n_E > 0: analytic root classification unavailable, numeric oracle only"

    return SpectrumReport(
        analytic=params.n_E == 0,
        classification=classification,
        regime=regime,
        real_eigenvalues=reports,
        complex_pair_count=n_complex // 2,
        numeric_spectrum=[complex(z) for z in w],
        predicted_pattern=pattern,
        notice=notice,
    )


__all__ = [
    "Classification",
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
    "algebraic_multiplicity",
    "analyze",
]
