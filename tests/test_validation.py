import itertools
import math
import sys

import numpy as np
import pytest

from flustab import numdiff, spectrum, validation
from flustab.charpoly import charpoly, coefficient_matrix
from flustab.model import ModelParams
from flustab.spectrum import SignPattern, classify, full_spectrum_numeric, predicted_sign_pattern, real_roots
from flustab.validation import (
    SuiteResult,
    cell_params,
    pattern_matches,
    run_all,
    sample_params,
    suite_charpoly_equivalence,
    suite_multiplicities,
)


class TestSuiteResult:
    def test_counting_and_example_cap(self):
        r = SuiteResult("demo")
        for i in range(7):
            r.record(False, f"case {i}")
        r.record(True)
        assert r.checks == 8
        assert r.failures == 7
        assert not r.ok
        # examples are capped so a broken suite cannot flood the report
        assert r.failure_examples == [f"case {i}" for i in range(5)]

    def test_detail_is_built_only_on_failure(self):
        r = SuiteResult("demo")
        built = []
        r.record(True, lambda: built.append("pass") or "pass")
        r.record(False, lambda: built.append("fail") or "fail")
        assert built == ["fail"]
        assert r.failure_examples == ["fail"]

    def test_json_shape(self):
        r = SuiteResult("demo")
        r.record(True)
        d = vars(r)  # validate --json prints this, keys in field order
        assert list(d) == ["name", "checks", "failures", "failure_examples"]
        assert d["name"] == "demo" and d["checks"] == 1 and d["failures"] == 0


class TestSampleParams:
    def test_ranges_and_choices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params, T = sample_params(rng)
            for name in ("beta", "p", "c", "tau_I", "D_PCF", "v_a"):
                assert 0.1 <= getattr(params, name) <= 10.0
            assert -2.0 <= params.a <= 2.0
            assert params.n_E in (0, 1, 2, 3)
            assert params.n_I in (1, 2, 3, 4, 5, 6)
            if params.n_E > 0:
                assert 0.1 <= params.tau_E <= 10.0
            else:
                assert params.tau_E is None
            assert 0.0 <= T <= 2.0 * params.T_star

    def test_choice_restriction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            params, _ = sample_params(rng, n_E_choices=(0,))
            assert params.n_E == 0

    def test_deterministic_from_seed(self):
        a, Ta = sample_params(np.random.default_rng(7))
        b, Tb = sample_params(np.random.default_rng(7))
        assert a == b and Ta == Tb

    @staticmethod
    def per_field(rng, n_E_choices=(0, 1, 2, 3), n_I_choices=(1, 2, 3, 4, 5, 6)):
        """The oracle: one rng.choice per count, one log-uniform draw per
        rate and a uniform a, field by field."""
        loguniform = lambda: float(np.exp(rng.uniform(np.log(0.1), np.log(10))))
        n_E = int(rng.choice(n_E_choices))
        n_I = int(rng.choice(n_I_choices))
        params = ModelParams(
            beta=loguniform(), p=loguniform(), c=loguniform(), n_E=n_E,
            tau_E=loguniform() if n_E > 0 else None, n_I=n_I, tau_I=loguniform(),
            D_PCF=loguniform(), v_a=loguniform(), a=float(rng.uniform(-2, 2)),
        )
        return params, float(rng.uniform(0, 2 * params.T_star))

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("choices", [{}, {"n_E_choices": (0,)}, {"n_E_choices": (2,), "n_I_choices": (13,)}])
    def test_same_sets_and_stream_as_per_field_draws(self, seed, choices):
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(25):
            params, T = sample_params(ours, **choices)
            want, want_T = self.per_field(oracle, **choices)
            assert repr(params) == repr(want) and T == want_T
        assert ours.random() == oracle.random()


class TestCellParams:
    # The cell construction promises the regime-defining comparisons are
    # exact in float64, not merely close.

    @pytest.mark.parametrize("n_I", [2, 3, 4, 5])
    def test_cascade_rate_is_exact(self, n_I):
        params, _ = cell_params(n_I, "=", "=")
        assert params.c_I == n_I + 1

    @pytest.mark.parametrize("n_I", [2, 3, 4, 5])
    @pytest.mark.parametrize("row", ["<", "=", ">"])
    @pytest.mark.parametrize("col", ["<", "=", ">"])
    def test_lands_in_intended_cell(self, n_I, row, col):
        params, T = cell_params(n_I, row, col)
        q = params.beta * T * params.p
        row_lhs = params.c
        row_rhs = q * params.tau_I
        col_lhs = params.c_I * params.c_I - params.c * params.c_I
        if row == "=":
            assert row_lhs == row_rhs
        elif row == "<":
            assert row_lhs < row_rhs
        else:
            assert row_lhs > row_rhs
        if col == "=":
            assert col_lhs == q
        elif col == "<":
            assert col_lhs < q
        else:
            assert col_lhs > q

    def test_row_fixes_classification(self):
        for row, kind in (("<", "Indefinite"), ("=", "Critical"), (">", "Definite")):
            params, T = cell_params(3, row, "=")
            assert classify(params, T) == kind


def one_root_pattern(cls: str) -> SignPattern:
    """A pattern that asks for the zero and one root of class cls."""
    return SignPattern("even", "<", "=", ("zero", cls), (), 1)


class TestClassifyEigenvalue:
    """Each nonzero real eigenvalue counts in one sign class, or, within the
    window of -c_I, in either negative class (pattern_matches)."""

    @staticmethod
    def classes(lam, c_I=2.0, ztol=1e-8):
        spectrum = np.array([0.0, lam])
        classes = ("positive", "neg_in_cI_0", "neg_below_cI")
        return {cls for cls in classes if pattern_matches(one_root_pattern(cls), spectrum, c_I, ztol, 2)[0]}

    def test_plain_classes(self):
        assert self.classes(0.5) == {"positive"}
        assert self.classes(-1.0) == {"neg_in_cI_0"}
        assert self.classes(-3.0) == {"neg_below_cI"}
        # inside the zero window it is a second zero, which no class takes
        assert self.classes(1e-10) == set()

    def test_ambiguous_band_around_minus_cI(self):
        # numerically indistinguishable from -c_I: either side is acceptable
        assert self.classes(-2.0 + 1e-10) == {"neg_below_cI", "neg_in_cI_0"}
        assert self.classes(-2.0 - 1e-10) == {"neg_below_cI", "neg_in_cI_0"}
        # just outside the band only its own side is
        assert self.classes(-2.0 + 2e-8) == {"neg_in_cI_0"}
        assert self.classes(-2.0 - 2e-8) == {"neg_below_cI"}

    def test_band_roots_split_between_the_negative_classes(self):
        # two roots in the band may be one of each, both below, or both above
        band = [-2.0 - 1e-10, -2.0 + 1e-10]
        spectrum = np.array([0.0, *band])
        for want in (("neg_in_cI_0", "neg_below_cI"), ("neg_below_cI",) * 2, ("neg_in_cI_0",) * 2):
            pattern = SignPattern("odd", ">", "=", ("zero", *want), (), 1)
            assert pattern_matches(pattern, spectrum, 2.0, 1e-8, 3)[0]
        # but not one band root and a plain root of the same class twice over
        pattern = SignPattern("odd", ">", "=", ("zero", "neg_in_cI_0", "neg_in_cI_0"), (), 1)
        assert not pattern_matches(pattern, np.array([0.0, -3.0, band[0]]), 2.0, 1e-8, 3)[0]


class TestPatternMatches:
    def _spectrum(self, n_I, row, col):
        params, T = cell_params(n_I, row, col)
        A = coefficient_matrix(params, T)
        w = full_spectrum_numeric(params, T)
        return params, T, A, w

    def test_own_cell_matches(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        ok, detail = pattern_matches(pattern, w, params.c_I, 1e-8 * np.linalg.norm(A, np.inf), len(A))
        assert ok, detail

    def test_foreign_spectrum_rejected(self):
        # the Definite cell's pattern has no positive class, so the
        # Indefinite cell's spectrum cannot satisfy it
        params_def, T_def = cell_params(2, ">", "=")
        pattern = predicted_sign_pattern(params_def, T_def)
        params_ind, T_ind, A_ind, w_ind = self._spectrum(2, "<", "=")
        ok, detail = pattern_matches(
            pattern, w_ind, params_ind.c_I, 1e-8 * np.linalg.norm(A_ind, np.inf), len(A_ind)
        )
        assert not ok
        assert detail

    def test_dimension_bookkeeping_guard(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        ok, detail = pattern_matches(pattern, w, params.c_I, 1e-8 * np.linalg.norm(A, np.inf), len(A) + 1)
        assert not ok
        assert "dimension" in detail

    def test_wrong_zero_count_rejected(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        tampered = np.concatenate([w[np.abs(w) > 1e-6], [0.4 + 0j]])
        ok, detail = pattern_matches(
            pattern, tampered, params.c_I, 1e-8 * np.linalg.norm(A, np.inf), len(A)
        )
        assert not ok


def reference_classes(lam, c_I, ztol):
    """The sign classes one nonzero real eigenvalue may take, two inside
    the window of -c_I: the pattern_matches oracle's classifier."""
    if lam > 0:
        return {"positive"}
    if abs(lam + c_I) <= ztol:
        return {"neg_below_cI", "neg_in_cI_0"}
    return {"neg_below_cI"} if lam < -c_I else {"neg_in_cI_0"}


def reference_cover(required, acceptable):
    """Whether the classes in required match the sets in acceptable one to
    one, by backtracking."""
    if len(required) != len(acceptable):
        return False
    if not required:
        return True
    head, rest = required[0], required[1:]
    return any(head in acc and reference_cover(rest, acceptable[:i] + acceptable[i + 1:])
               for i, acc in enumerate(acceptable))


def reference_pattern_matches(pattern, eigvals, c_I, ztol, dim):
    """The general matcher pattern_matches' class counts replace: every
    choice of the surplus real roots for the optional slots, then a one to
    one cover of the mandatory classes by the rest. Returns (ok, guard),
    guard naming the dimension, odd-complex or zero-count check that
    failed."""
    reals = sorted(float(z.real) for z in eigvals if abs(z.imag) <= ztol)
    n_complex = len(eigvals) - len(reals)
    if len(reals) + n_complex != dim:
        return False, "dimension"
    if n_complex % 2 != 0:
        return False, "odd complex"
    if sum(abs(r) <= ztol for r in reals) != pattern.zero_algebraic_multiplicity:
        return False, "zero count"
    nonzero = [r for r in reals if abs(r) > ztol]
    acceptable = [reference_classes(r, c_I, ztol) for r in nonzero]
    required = [cls for cls in pattern.mandatory if cls != "zero"]
    optional = [cls for pair in pattern.optional_pairs for cls in pair]
    surplus = len(nonzero) - len(required)
    if surplus < 0 or surplus > len(optional) or surplus % 2:
        return False, ""
    for extra in itertools.combinations(range(len(nonzero)), surplus):
        if all(optional[k] in acceptable[i] for k, i in enumerate(extra)):
            rest = [acceptable[i] for i in range(len(nonzero)) if i not in extra]
            if reference_cover(required, rest):
                return True, ""
    return False, ""


def random_spectrum(rng, pattern, c_I, ztol, dim):
    """A spectrum near the pattern: its classes, in random order, with
    values drawn anywhere in a class or on the edges of the zero and -c_I
    windows, and complex pairs for the rest; then, two times in three, one
    value moved to another class, a value added or dropped, or one value
    made real or complex alone."""
    edges = [ztol, -ztol, np.nextafter(ztol, 1.0), -np.nextafter(ztol, 1.0),
             -c_I + ztol, -c_I - ztol, -c_I, np.nextafter(-c_I + ztol, 0.0), np.nextafter(-c_I - ztol, -np.inf)]
    draw = {
        "zero": lambda: rng.uniform(-ztol, ztol),
        "positive": lambda: rng.uniform(ztol, 5.0),
        "neg_in_cI_0": lambda: rng.uniform(-c_I, -ztol),
        "neg_below_cI": lambda: -c_I - rng.uniform(0.0, 5.0),
        "band": lambda: -c_I + rng.uniform(-ztol, ztol),
        "edge": lambda: edges[rng.integers(len(edges))],
    }
    classes = [cls for cls in pattern.mandatory for _ in range(
        pattern.zero_algebraic_multiplicity if cls == "zero" else 1)]
    if pattern.optional_pairs and rng.random() < 0.5:
        classes += list(pattern.optional_pairs[0])
    # some classes drawn from the -c_I band or a window edge instead
    classes = [str(rng.choice(["band", "edge"])) if cls != "zero" and rng.random() < 0.3 else cls
               for cls in classes]
    reals = [complex(draw[cls]()) for cls in classes]
    pairs = []
    while len(reals) + 2 * len(pairs) + 2 <= dim:
        im = ztol * (1.0 + rng.uniform(0.0, 1e3))
        pairs.append(complex(rng.uniform(-3.0, 3.0), im))
    w = reals + [z for pair in pairs for z in (pair, pair.conjugate())]
    w += [complex(draw["edge"]()) for _ in range(dim - len(w))]
    tamper = rng.integers(6)
    if tamper == 1:
        w[rng.integers(len(w))] = complex(draw[str(rng.choice(list(draw)))]())
    elif tamper == 2:
        w.append(complex(draw[str(rng.choice(list(draw)))]()))
    elif tamper == 3 and len(w) > 1:
        w.pop(rng.integers(len(w)))
    elif tamper == 4:
        # a partner whose imaginary part sits on the window edge is a real,
        # and a real moved off the axis is complex: an odd complex count
        k = len(reals) + 1 if pairs else 0
        w[k] = complex(w[k].real, ztol if pairs else 2.0 * ztol)
    return np.array(rng.permutation(w))


@pytest.mark.parametrize("n_I", range(1, 7))
def test_class_counts_agree_with_the_general_matcher(n_I):
    # every regime cell's pattern at this depth, against spectra near it
    rng = np.random.default_rng(n_I)
    verdicts = {True: 0, False: 0}
    guards = set()
    for row, col in itertools.product("<=>", "<=>"):
        params, T = cell_params(n_I, row, col)
        pattern = predicted_sign_pattern(params, T)
        dim = params.state_dim - 1
        # windows of powers of two, so a value on an edge of the -c_I window
        # (c_I is an integer here) is exactly ztol from it
        for ztol in (2.0**-27, 2.0**-10 * params.c_I):
            for _ in range(150):
                w = random_spectrum(rng, pattern, params.c_I, ztol, dim)
                ok, detail = pattern_matches(pattern, w, params.c_I, ztol, dim)
                want, guard = reference_pattern_matches(pattern, w, params.c_I, ztol, dim)
                # a guard's failure keeps its wording ("" is in every detail)
                assert (ok, guard in detail) == (want, True), (pattern, w.tolist(), guard, detail)
                verdicts[ok] += 1
                guards.add(guard)
    # both verdicts and every guard are reached, so the agreement is not vacuous
    assert min(verdicts.values()) >= 300, verdicts
    assert guards >= {"dimension", "odd complex", "zero count"}


@pytest.mark.parametrize("n_I", [2, 3, 4, 5])
def test_stacked_lapack_calls_equal_per_matrix_calls_bit_for_bit(n_I):
    # the sign tables take nine cells' spectra from one eigvals call, and the
    # eigenvector suite a set's multiplicities from one SVD call: LAPACK runs
    # the same routine on each matrix of a stack
    rng = np.random.default_rng(n_I)
    cells = [cell_params(n_I, row, col) for row in "<=>" for col in "<=>"]
    drawn = [sample_params(rng, n_E_choices=(n_I - 2,), n_I_choices=(n_I,)) for _ in range(9)]
    for sets in (cells, drawn):
        A = np.array([coefficient_matrix(params, T) for params, T in sets])
        assert np.linalg.norm(A, np.inf, axis=(1, 2)).tolist() == [np.linalg.norm(M, np.inf) for M in A]
        for (params, T), M, w in zip(sets, A, np.linalg.eigvals(A)):
            single = np.linalg.eigvals(M)
            assert w.astype(complex).tobytes() == single.astype(complex).tobytes()
            # a stack is complex when any of its spectra is; the verdict is not
            pattern = predicted_sign_pattern(params, T) if params.n_E == 0 else None
            for ztol in (1e-8 * np.linalg.norm(M, np.inf), 0.5) if pattern else ():
                assert pattern_matches(pattern, w, params.c_I, ztol, len(M)) == pattern_matches(
                    pattern, single, params.c_I, ztol, len(M))
            lams = np.array(real_roots(params, T))
            stacked = np.linalg.svd(M - lams[:, None, None] * np.eye(len(M)), compute_uv=False)
            for sv, lam in zip(stacked, lams.tolist()):
                assert sv.tobytes() == np.linalg.svd(M - lam * np.eye(len(M)), compute_uv=False).tobytes()
    assert any(not np.isrealobj(np.linalg.eigvals(coefficient_matrix(*s))) for s in cells + drawn)


def numpy_central_diff(f, x, order, h):
    """_central_diff as it was in numpy: weight, offset and value arrays and
    one dot product."""
    w = np.array([(-1) ** k * math.comb(order, k) for k in range(order + 1)])
    offsets = np.array([order / 2.0 - k for k in range(order + 1)])
    vals = np.array([f(x + o * h) for o in offsets], dtype=float)
    return float(w @ vals) / h**order, float(np.max(np.abs(vals)))


@pytest.mark.parametrize("order", range(1, 8))
def test_central_diff_in_floats_matches_the_numpy_form(order):
    # the same terms and the same max; the sum may round differently from
    # numpy's dot product, by a few eps of the sum of |terms| per term
    rng = np.random.default_rng(order)
    for _ in range(40):
        params, T = sample_params(rng)
        f = lambda x: charpoly(params, T, x)
        x, h = float(rng.uniform(-3.0, 3.0)), float(10.0 ** rng.uniform(-4.0, -1.0))
        d, m = numdiff._central_diff(f, x, order, h)
        d_ref, m_ref = numpy_central_diff(f, x, order, h)
        terms = sum(math.comb(order, k) * abs(f(x + (order / 2.0 - k) * h)) for k in range(order + 1))
        assert m == m_ref
        assert abs(d - d_ref) <= 2 * (order + 1) * sys.float_info.epsilon * terms / h**order


def reference_eigenvector_residuals(seed, n_sets, resid_rel=1e-8):
    """suite_eigenvector_residuals as one loop over each set's roots, an
    eigenvector and then a float multiplicity call for each."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("eigenvector_residuals")
    for _ in range(n_sets):
        params, T = sample_params(rng, n_E_choices=(0,))
        A = coefficient_matrix(params, T)
        for lam in validation.real_roots(params, T):
            if abs(params.c_I + lam) <= spectrum._POLE_REL * params.c_I:
                continue
            v = validation.eigenvector(params, T, lam)
            resid = float(np.max(np.abs(A @ v - lam * v)))
            vnorm = float(np.max(np.abs(v)))
            result.record(resid <= resid_rel * vnorm, f"params={params} T={T} lam={lam} resid={resid} norm={vnorm}")
            gm = spectrum.geometric_multiplicity(A, lam)
            result.record(gm == 1, f"params={params} T={T} lam={lam} gm={gm}")
    return result


def outcome(suite, *args):
    try:
        return vars(suite(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_eigenvector_suite_raises_where_one_loop_would(monkeypatch):
    # a root that is no eigenvalue (a multiplicity error) and an eigenvector
    # that overflows, at every pair of places in a set's roots: the stacked
    # suite raises the error a loop of float calls meets first
    roots, eigenvector = spectrum.real_roots, spectrum.eigenvector
    raised = set()
    for bad, overflow in itertools.product(range(4), range(5)):
        def with_bogus_root(params, T):
            found = roots(params, T)
            return found[:bad] + [12345.5] + found[bad:]

        def overflowing(params, T, lam):
            if with_bogus_root(params, T)[overflow:overflow + 1] == [lam]:
                raise ArithmeticError(f"eigenvector at lam = {lam!r} overflows")
            return eigenvector(params, T, lam)

        monkeypatch.setattr(validation, "real_roots", with_bogus_root)
        monkeypatch.setattr(validation, "eigenvector", overflowing)
        want = outcome(reference_eigenvector_residuals, 3, 4)
        assert outcome(validation.suite_eigenvector_residuals, 3, 4) == want
        raised.add(want[0])
    assert raised == {ValueError, ArithmeticError}
    monkeypatch.setattr(validation, "eigenvector", eigenvector)
    for resid_rel in (1e-8, 1e-17):  # and without a raise, the same checks and failure texts
        monkeypatch.setattr(validation, "real_roots", roots)
        want = outcome(reference_eigenvector_residuals, 7, 20, resid_rel)
        assert outcome(validation.suite_eigenvector_residuals, 7, 20, resid_rel) == want
    assert want["failures"] > 0


class TestSuites:
    @pytest.mark.parametrize("seed, checks", [
        (0, [1200, 104, 108, 61]),
        (1, [1200, 100, 108, 57]),
        (5, [1200, 96, 108, 63]),
        (7, [1200, 100, 108, 64]),
        (123, [1200, 100, 108, 63]),
    ])
    def test_check_counts_are_pinned(self, seed, checks):
        # a changed draw, root count or verdict shows here
        results = run_all(seed)
        assert [(r.checks, r.failures) for r in results] == [(n, 0) for n in checks]

    def test_run_all_passes_and_names(self):
        results = run_all(seed=0)
        assert [r.name for r in results] == [
            "charpoly_equivalence",
            "eigenvector_residuals",
            "sign_tables",
            "multiplicities",
        ]
        for r in results:
            assert r.ok, f"{r.name}: {r.failure_examples}"
            assert r.checks > 0

    def test_passing_checks_format_no_parameters(self, monkeypatch):
        def unprintable(self):
            raise AssertionError("a passing check formatted its parameters")

        monkeypatch.setattr(ModelParams, "__repr__", unprintable)
        assert all(r.ok for r in run_all(seed=0))

    def test_multiplicities_check_closed_form_against_finite_differences(self, monkeypatch):
        # the multiplicities come from the root search, one call per set
        certified = validation._certified_roots

        def simple_at_critical(params, T, row=None):
            if classify(params, T) == "Critical":
                return [(lam, 1) for lam, _ in certified(params, T, row)]
            return certified(params, T, row)

        honest = suite_multiplicities(seed=0)
        monkeypatch.setattr(validation, "_certified_roots", simple_at_critical)
        broken = suite_multiplicities(seed=0)
        assert honest.ok and broken.checks == honest.checks
        assert broken.failures == 12  # the zero of every constructed Critical cell
        assert all("finite differences 2" in e for e in broken.failure_examples)
        # and a closed form that is right fails against a disagreeing oracle
        monkeypatch.setattr(validation, "_certified_roots", certified)
        monkeypatch.setattr(validation, "_finite_difference_multiplicity", lambda params, T, lam: 3)
        assert suite_multiplicities(seed=0).failures == honest.checks - 12  # all but the geometric checks

    @pytest.mark.parametrize("seed", [0, 7])
    def test_multiplicities_decide_each_regime_row_once(self, monkeypatch, seed):
        # one decision per random set, passed on to its root search, and one
        # inside the root search of each of the 12 constructed Critical cells
        calls = []
        inner = spectrum._regime_rows
        counting = lambda *args: calls.append(1) or inner(*args)
        monkeypatch.setattr(spectrum, "_regime_rows", counting)
        monkeypatch.setattr(validation, "_regime_rows", counting)
        suite_multiplicities(seed=seed, n_sets=0)
        assert len(calls) == 12
        calls.clear()
        assert suite_multiplicities(seed=seed, n_sets=15).ok
        assert len(calls) == 15 + 12

    def test_impossible_tolerance_fails_honestly(self):
        # a tolerance below roundoff must produce recorded failures,
        # not a silently green suite
        r = suite_charpoly_equivalence(seed=0, n_sets=5, rel_tol=1e-30)
        assert r.failures > 0
        assert not r.ok
        assert r.failure_examples
