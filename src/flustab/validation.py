"""Randomized and constructed self-check suites.

These are the oracle cross-checks the command-line `validate` subcommand
runs and the acceptance tests reuse: closed form against determinant,
formula eigenvectors against the matrix, predicted sign patterns against the
numeric spectrum, and the root search's multiplicities against adaptive
central differences of the characteristic polynomial (numdiff, used only
here). Each suite returns a SuiteResult with per-check counts so failures
are countable and reproducible from the seed. LAPACK calls take stacks: the
charpoly suite's determinants of a matrix size, the nine sign-table cells of
an n_I, the multiplicities of a random set's roots or of the three Critical
cells of an n_I.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import numdiff
from .charpoly import _cascade, _closed, _lu_charpoly, _sum_form, charpoly, coefficient_matrix
from .model import ModelParams
from .spectrum import (
    _KIND_BY_ROW,
    _POLE_REL,
    SignPattern,
    _certified_roots,
    _regime_rows,
    classify,
    eigenvector,
    geometric_multiplicity,
    predicted_sign_pattern,
    real_roots,
)


@dataclass
class SuiteResult:
    # vars() of it is one suite of validate --json: the fields in order
    name: str
    checks: int = 0
    failures: int = 0
    failure_examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, detail: str | Callable[[], str] = ""):
        """Count one check. detail may be a callable, so that the text of a
        passing check is never built."""
        self.checks += 1
        if not ok:
            self.failures += 1
            if len(self.failure_examples) < 5:
                self.failure_examples.append(detail() if callable(detail) else detail)

    @property
    def ok(self) -> bool:
        return self.failures == 0


_LOG_LO, _LOG_HI = np.log(0.1), np.log(10.0)  # sample_params' log-uniform rate range


def sample_params(
    rng: np.random.Generator,
    n_E_choices=(0, 1, 2, 3),
    n_I_choices=(1, 2, 3, 4, 5, 6),
) -> tuple[ModelParams, float]:
    """One random parameter set, rates log-uniform in [0.1, 10], and a
    T value uniform in [0, 2 T*].

    Each count is one rng.integers index into its choices, as rng.choice
    draws it; the rates (tau_E only when n_E > 0) and a then come from one
    rng.random vector, mapped as rng.uniform maps a draw, lo + (hi - lo)*u,
    so the generator yields the same sets as one loguniform call per rate
    and a uniform a would. T is 2 T* times one rng.random draw, which is
    rng.uniform(0, 2 T*)'s value from the same draw."""
    n_E = int(n_E_choices[rng.integers(len(n_E_choices))])
    n_I = int(n_I_choices[rng.integers(len(n_I_choices))])
    names = ("beta", "p", "c") + (("tau_E",) if n_E > 0 else ()) + ("tau_I", "D_PCF", "v_a")
    u = rng.random(len(names) + 1)
    rates = np.exp(_LOG_LO + (_LOG_HI - _LOG_LO) * u[:-1]).tolist()
    params = ModelParams(n_E=n_E, n_I=n_I, a=float(-2.0 + 4.0 * u[-1]), **dict(zip(names, rates)))
    return params, 2 * params.T_star * rng.random()


def suite_charpoly_equivalence(
    seed: int = 0,
    n_sets: int = 200,
    n_lambda: int = 20,
    rel_tol: float = 1e-9,
) -> SuiteResult:
    """Closed form and sum form against the LU determinant on random inputs;
    lambda sampled uniformly in +-2(c_E + c_I + c). The sets are drawn
    first; one slogdet call per matrix size and one evaluation of the forms'
    bodies per cascade shape, each set's coefficients a column with its
    powers taken in floats, then give every value a per-set call's bits."""
    rng = np.random.default_rng(seed)
    sets, lams, shapes, sizes = [], np.empty((n_sets, n_lambda)), {}, {}
    for i in range(n_sets):
        params, T = sample_params(rng)
        span = 2.0 * (params.c_E + params.c_I + params.c)
        lams[i] = rng.uniform(-span, span, size=n_lambda)
        sets.append((params, T))
        shapes.setdefault((params.n_E, params.n_I), []).append(i)
        sizes.setdefault(params.n_E + params.n_I, []).append(i)
    direct, closed, summed = np.empty((3, n_sets, n_lambda))
    for rows in sizes.values():
        A = np.array([coefficient_matrix(*sets[i]) for i in rows])
        direct[rows] = _lu_charpoly(A[:, None], lams[rows])
    for (n_E, n_I), rows in shapes.items():
        c_E, c_I, c, q, *c_I_powers = np.array([
            [params.c_E, params.c_I, params.c, params.beta * T * params.c_E**n_E * params.p]
            + [params.c_I**j for j in range(n_I + 1)]
            for params, T in (sets[i] for i in rows)
        ]).T[..., None]
        lam = lams[rows]
        cascade = _cascade(c_E, c_I, c, n_E, n_I, lam)
        closed[rows] = _closed(cascade, q, c_I, c_I_powers[n_I], n_I, lam)
        summed[rows] = _sum_form(cascade, q, c_I, c_I_powers[:n_I], lam)
    tol = rel_tol * (1.0 + np.abs(direct))
    ok = (np.abs(closed - direct) <= tol) & (np.abs(summed - direct) <= tol)
    passing = ok.all(axis=1)
    # a passing set counts n_lambda checks; a failing one is recorded check by check, in draw order
    result = SuiteResult("charpoly_equivalence", checks=n_lambda * int(passing.sum()))
    for i in np.flatnonzero(~passing).tolist():
        (params, T), lam = sets[i], lams[i]
        for k, passed in enumerate(ok[i].tolist()):
            result.record(passed, lambda: f"params={params} T={T} lam={lam[k]} closed={closed[i, k]} sum={summed[i, k]} direct={direct[i, k]}")
    return result


# Exact regime-cell constructions. With tau_I = fl(n_I / (n_I + 1)) the
# derived rate c_I = fl(n_I / tau_I) equals n_I + 1 exactly in float64 (the
# quotient rounds back), which makes both equality tests below exact:
#   row:  c == beta*T*p*tau_I   evaluated left to right, and
#   col:  c_I^2 - c*c_I == beta*T*p
# q is the product beta*T*p realized as beta=q, T=1, p=1.
_CELL_TABLE = {
    ("=", "="): lambda n: (float(n), float(n + 1)),
    ("=", "<"): lambda n: (2.0 * n, 2.0 * (n + 1)),
    ("=", ">"): lambda n: (n / 2.0, (n + 1) / 2.0),
    ("<", "="): lambda n: (1.0, float((n + 1) * n)),
    (">", "="): lambda n: (n + 0.5, (n + 1) / 2.0),
    ("<", ">"): lambda n: (1.0, 2.0),
    ("<", "<"): lambda n: (1.0, 2.0 * (n + 1) ** 2),
    (">", ">"): lambda n: (n + 0.75, (n + 1) / 8.0),
    (">", "<"): lambda n: (2.0 * (n + 1), 1.0),
}


def cell_params(n_I: int, row: str, col: str) -> tuple[ModelParams, float]:
    """Parameters landing exactly in the regime cell (row, col), where row is
    the sign of c - beta*T*p*tau_I and col the sign of c_I^2 - c*c_I - beta*T*p."""
    c, q = _CELL_TABLE[(row, col)](n_I)
    tau_I = n_I / (n_I + 1)
    params = ModelParams(beta=q, p=1.0, c=c, n_E=0, n_I=n_I, tau_I=tau_I, v_a=1.0)
    return params, 1.0


def pattern_matches(
    pattern: SignPattern,
    eigvals: np.ndarray,
    c_I: float,
    ztol: float,
    dim: int,
) -> tuple[bool, str]:
    """Check a numeric spectrum against a predicted cell pattern.

    Zero must appear with exactly the predicted algebraic multiplicity
    (numerically: that many eigenvalues inside the zero window). The other
    real eigenvalues are counted by sign class, and the counts must equal
    the mandatory classes plus, a whole pair at a time, the optional pairs;
    complex conjugate pairs account for the rest of the dimension. A root
    within ztol of -c_I may count on either side of it, so the roots in
    that band are split between the two negative classes.
    """
    values = eigvals.tolist()  # floats, or complex numbers when any value of the stack is complex
    reals = sorted(z.real for z in values if abs(z.imag) <= ztol)
    n_complex = len(values) - len(reals)
    if len(reals) + n_complex != dim:
        return False, f"dimension bookkeeping broke: {len(reals)} reals + {n_complex} complex != {dim}"
    if n_complex % 2 != 0:
        return False, f"odd complex count {n_complex}"

    zeros = [r for r in reals if abs(r) <= ztol]
    if len(zeros) != pattern.zero_algebraic_multiplicity:
        return False, f"zero count {len(zeros)} != predicted {pattern.zero_algebraic_multiplicity} (reals={reals})"

    # a NaN is neither zero nor in a nonzero class, as no window holds it
    positive = sum(r > 0 and abs(r) > ztol for r in reals)
    negative = [r for r in reals if abs(r) > ztol and not r > 0]
    band = sum(abs(r + c_I) <= ztol for r in negative)
    below = sum(r < -c_I and not abs(r + c_I) <= ztol for r in negative)
    required = [cls for cls in pattern.mandatory if cls != "zero"]
    optional = [cls for pair in pattern.optional_pairs for cls in pair]
    for k in range(0, len(optional) + 1, 2):
        want = required + optional[:k]
        # the band roots not counted below -c_I count above it
        if (len(want) == positive + len(negative) and want.count("positive") == positive
                and 0 <= want.count("neg_below_cI") - below <= band):
            return True, ""
    return False, f"no split of reals={reals} fits mandatory={pattern.mandatory} optional={pattern.optional_pairs}"


def suite_sign_tables(
    even_n_I=(2, 4),
    odd_n_I=(3, 5),
    ztol_rel: float = 1e-8,
) -> SuiteResult:
    """All 9 regime cells at each listed n_I: the constructed parameters must
    land in the intended cell and the numeric spectrum must match the cell's
    predicted sign pattern. The nine cell matrices of each n_I go to one
    eigvals call, which runs the same LAPACK routine on each matrix."""
    result = SuiteResult("sign_tables")
    cells = [(row, col) for row in "<=>" for col in "<=>"]
    for n_I in tuple(even_n_I) + tuple(odd_n_I):
        sets = [cell_params(n_I, row, col) for row, col in cells]
        A = np.array([coefficient_matrix(params, T) for params, T in sets])
        ztols = (ztol_rel * np.linalg.norm(A, np.inf, axis=(1, 2))).tolist()
        for (row, col), (params, T), w, ztol in zip(cells, sets, np.linalg.eigvals(A), ztols):
            pattern = predicted_sign_pattern(params, T)
            landed = (pattern.clearance_vs_pressure, pattern.quadratic_at_minus_cI) == (row, col)
            result.record(landed, lambda: f"n_I={n_I} intended ({row},{col}) landed ({pattern.clearance_vs_pressure},{pattern.quadratic_at_minus_cI})")
            if not landed:
                continue
            ok, detail = pattern_matches(pattern, w, params.c_I, ztol, A.shape[-1])
            result.record(ok, lambda: f"n_I={n_I} cell ({row},{col}): {detail}")
            kind = classify(params, T)
            expected_kind = _KIND_BY_ROW[row]
            result.record(kind == expected_kind, lambda: f"n_I={n_I} cell ({row},{col}) classification {kind} != {expected_kind}")
    return result


def suite_eigenvector_residuals(
    seed: int = 0,
    n_sets: int = 50,
    resid_rel: float = 1e-8,
) -> SuiteResult:
    """Formula eigenvectors must satisfy the eigen-relation to resid_rel and
    every real eigenvalue must have a one-dimensional eigenspace. A set's
    multiplicities come from one stacked SVD over its roots."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("eigenvector_residuals")
    for _ in range(n_sets):
        params, T = sample_params(rng, n_E_choices=(0,))
        A = coefficient_matrix(params, T)
        # a root at the formula pole is no eigenvalue generically
        lams = [lam for lam in real_roots(params, T) if abs(params.c_I + lam) > _POLE_REL * params.c_I]
        vectors = []
        try:
            for lam in lams:
                vectors.append(eigenvector(params, T, lam))
        finally:  # on a raise too, so the roots before it are checked first, as a per-root loop would
            gms = geometric_multiplicity(A, np.array(lams[:len(vectors)])).tolist()
        for lam, v, gm in zip(lams, vectors, gms):
            resid = float(np.max(np.abs(A @ v - lam * v)))
            vnorm = float(np.max(np.abs(v)))
            result.record(
                resid <= resid_rel * vnorm,
                lambda: f"params={params} T={T} lam={lam} resid={resid} norm={vnorm}",
            )
            result.record(gm == 1, lambda: f"params={params} T={T} lam={lam} gm={gm}")
    return result


def _finite_difference_multiplicity(params: ModelParams, T: float, lam: float) -> int:
    """Smallest m < n_I + 2 with a nonvanishing m-th derivative of the
    characteristic polynomial at lam, by adaptive-step central differences
    with one Richardson level (numdiff.derivative_is_zero), else n_I + 2.
    The oracle for the root search's counts at the suites' small n_I."""
    max_order = params.n_I + 2
    f = lambda x: charpoly(params, T, x)
    for m in range(1, max_order):
        is_zero, _ = numdiff.derivative_is_zero(f, lam, order=m)
        if not is_zero:
            return m
    return max_order


def suite_multiplicities(seed: int = 0, n_sets: int = 15) -> SuiteResult:
    """Algebraic multiplicity 1 for every real root of random off-critical
    sets; the constructed Critical cells must report the double zero. Every
    count, taken with its root from one _certified_roots call per set, must
    also equal the finite-difference one, on sets of its own stream. The
    three Critical cells of an n_I take their geometric multiplicity of
    zero from one SVD call on their stacked matrices."""
    rng = np.random.default_rng([seed, 1])
    result = SuiteResult("multiplicities")
    for _ in range(n_sets):
        params, T = sample_params(rng, n_E_choices=(0,))
        if (row := _regime_rows(params, T)[0]) == 1:
            continue  # Critical, measure-zero; the constructed cells cover it
        for lam, m in _certified_roots(params, T, row):
            fd = _finite_difference_multiplicity(params, T, lam)
            result.record(m == 1 == fd, lambda: f"params={params} T={T} lam={lam} m={m} finite differences {fd}")
    for n_I in (2, 3, 4, 5):
        cells = [cell_params(n_I, "=", col) for col in "<=>"]
        counts = [(dict(_certified_roots(params, T))[0.0], _finite_difference_multiplicity(params, T, 0.0))
                  for params, T in cells]
        gms = geometric_multiplicity(np.array([coefficient_matrix(params, T) for params, T in cells]), 0.0)
        for col, (m, fd), gm in zip("<=>", counts, gms.tolist()):
            result.record(m == 2 == fd, lambda: f"critical cell n_I={n_I} col={col}: zero multiplicity {m} (finite differences {fd}) != 2")
            result.record(gm == 1, lambda: f"critical cell n_I={n_I} col={col}: gm {gm} != 1")
    return result


def run_all(seed: int = 0) -> list[SuiteResult]:
    """The four suites cmd_validate runs, sized for interactive use."""
    return [
        suite_charpoly_equivalence(seed, n_sets=60),
        suite_eigenvector_residuals(seed, n_sets=20),
        suite_sign_tables(),
        suite_multiplicities(seed),
    ]


__all__ = [
    "SuiteResult",
    "sample_params",
    "cell_params",
    "pattern_matches",
    "suite_charpoly_equivalence",
    "suite_sign_tables",
    "suite_eigenvector_residuals",
    "suite_multiplicities",
    "run_all",
]
