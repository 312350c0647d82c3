import numpy as np
import pytest

from flustab import validation
from flustab.charpoly import coefficient_matrix
from flustab.model import ModelParams
from flustab.spectrum import classify, full_spectrum_numeric, predicted_sign_pattern
from flustab.validation import (
    SuiteResult,
    cell_params,
    classify_eigenvalue,
    pattern_matches,
    run_all,
    sample_params,
    suite_charpoly_equivalence,
    suite_multiplicities,
    suite_zero_eigenvalue,
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
        d = r.to_json_dict()
        assert set(d) == {"name", "checks", "failures", "failure_examples"}
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
            assert classify(params, T).kind == kind


class TestClassifyEigenvalue:
    def test_plain_classes(self):
        assert classify_eigenvalue(0.5, 2.0, 1e-8) == {"positive"}
        assert classify_eigenvalue(-1.0, 2.0, 1e-8) == {"neg_in_cI_0"}
        assert classify_eigenvalue(-3.0, 2.0, 1e-8) == {"neg_below_cI"}
        assert classify_eigenvalue(1e-10, 2.0, 1e-8) == {"zero"}

    def test_ambiguous_band_around_minus_cI(self):
        # numerically indistinguishable from -c_I: either side is acceptable
        assert classify_eigenvalue(-2.0 + 1e-10, 2.0, 1e-8) == {
            "neg_below_cI",
            "neg_in_cI_0",
        }
        assert classify_eigenvalue(-2.0 - 1e-10, 2.0, 1e-8) == {
            "neg_below_cI",
            "neg_in_cI_0",
        }


class TestPatternMatches:
    def _spectrum(self, n_I, row, col):
        params, T = cell_params(n_I, row, col)
        A = coefficient_matrix(params, T)
        w = full_spectrum_numeric(params, T)
        return params, T, A, w

    def test_own_cell_matches(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        ok, detail = pattern_matches(pattern, w, params.c_I, 1e-8 * A.inf_norm, A.n)
        assert ok, detail

    def test_foreign_spectrum_rejected(self):
        # the Definite cell's pattern has no positive class, so the
        # Indefinite cell's spectrum cannot satisfy it
        params_def, T_def = cell_params(2, ">", "=")
        pattern = predicted_sign_pattern(params_def, T_def)
        params_ind, T_ind, A_ind, w_ind = self._spectrum(2, "<", "=")
        ok, detail = pattern_matches(
            pattern, w_ind, params_ind.c_I, 1e-8 * A_ind.inf_norm, A_ind.n
        )
        assert not ok
        assert detail

    def test_dimension_bookkeeping_guard(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        ok, detail = pattern_matches(pattern, w, params.c_I, 1e-8 * A.inf_norm, A.n + 1)
        assert not ok
        assert "dimension" in detail

    def test_wrong_zero_count_rejected(self):
        params, T, A, w = self._spectrum(2, ">", "=")
        pattern = predicted_sign_pattern(params, T)
        tampered = np.concatenate([w[np.abs(w) > 1e-6], [0.4 + 0j]])
        ok, detail = pattern_matches(
            pattern, tampered, params.c_I, 1e-8 * A.inf_norm, A.n
        )
        assert not ok


class TestSuites:
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
        closed_form = validation.algebraic_multiplicity

        def simple_at_critical(params, T, lam, *args):
            if classify(params, T).kind == "Critical":
                return 1
            return closed_form(params, T, lam, *args)

        honest = suite_multiplicities(seed=0)
        monkeypatch.setattr(validation, "algebraic_multiplicity", simple_at_critical)
        broken = suite_multiplicities(seed=0)
        assert honest.ok and broken.checks == honest.checks
        assert broken.failures == 12  # the zero of every constructed Critical cell
        assert all("finite differences 2" in e for e in broken.failure_examples)
        # and a closed form that is right fails against a disagreeing oracle
        monkeypatch.setattr(validation, "algebraic_multiplicity", closed_form)
        monkeypatch.setattr(validation, "_finite_difference_multiplicity", lambda params, T, lam: 3)
        assert suite_multiplicities(seed=0).failures == honest.checks - 12  # all but the geometric checks

    def test_zero_eigenvalue_suite(self):
        r = suite_zero_eigenvalue(seed=3, n_sets=40)
        assert r.ok and r.checks == 40

    def test_impossible_tolerance_fails_honestly(self):
        # a tolerance below roundoff must produce recorded failures,
        # not a silently green suite
        r = suite_charpoly_equivalence(seed=0, n_sets=5, rel_tol=1e-30)
        assert r.failures > 0
        assert not r.ok
        assert r.failure_examples
