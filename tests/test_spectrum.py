import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab.charpoly import charpoly, coefficient_inf_norm, coefficient_matrix
from flustab.model import InvalidParamsError, ModelParams
from flustab.spectrum import (
    algebraic_multiplicity,
    analyze,
    charpoly_derivative,
    classify,
    critical_points,
    derivative_quadratic_coeffs,
    eigenspace_decomposition,
    eigenvector,
    full_spectrum_numeric,
    geometric_multiplicity,
    perron_root,
    predicted_sign_pattern,
    quadratic_roots,
    real_roots,
    sign_class,
    viral_pressure,
)
from flustab.spectrum import _log_perron_f
from flustab.validation import cell_params, loguniform, sample_params


def make_params(**overrides):
    base = dict(beta=1.0, p=2.0, c=3.0, n_I=2, tau_I=1.0, n_E=0, tau_E=None,
                D_PCF=0.0, v_a=0.5, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


class TestClassify:
    def test_three_regimes(self):
        params = make_params()  # T* = 1.5
        assert classify(params, 1.0).kind == "Definite"
        assert classify(params, 1.5).kind == "Critical"
        assert classify(params, 2.0).kind == "Indefinite"
        assert classify(params, 1.0).T_star == pytest.approx(1.5)

    def test_critical_window_is_relative(self):
        params = make_params()
        assert classify(params, 1.5 * (1 + 1e-12)).kind == "Critical"
        assert classify(params, 1.5 * (1 + 1e-8)).kind == "Indefinite"

    def test_zero_infection_rate_is_definite(self):
        params = make_params(beta=0.0)
        verdict = classify(params, 5.0)
        assert verdict.kind == "Definite"
        assert math.isinf(verdict.T_star)

    def test_pressure_order(self):
        params = make_params(beta=0.7, p=1.3, tau_I=2.0)
        assert viral_pressure(params, 1.1) == 0.7 * 1.1 * 1.3 * 2.0


class TestQuadraticRoots:
    def test_plain_cases(self):
        # lam^2 + 3 lam - 0: roots -3 and 0
        params = make_params(beta=1.0, p=1.0, c=3.0)
        assert quadratic_roots(params, 0.0) == (-3.0, 0.0)
        # lam^2 + 2 lam - 3: roots -3 and 1
        params = make_params(beta=1.0, p=3.0, c=2.0)
        lo, hi = quadratic_roots(params, 1.0)
        assert (lo, hi) == (-3.0, 1.0)

    def test_no_cancellation_for_small_product(self):
        # lam^2 + c*lam - q with q << c^2: naive (-c + sqrt(c^2+4q))/2 loses digits
        params = make_params(beta=1.0, p=1.0, c=1e8)
        lo, hi = quadratic_roots(params, 1.0)
        assert hi == pytest.approx(1.0 / 1e8, rel=1e-12)
        assert lo == pytest.approx(-1e8, rel=1e-12)
        assert lo * hi == pytest.approx(-1.0, rel=1e-12)

    def test_zero_between_roots(self):
        lo, hi = quadratic_roots(make_params(), 1.0)
        assert lo < 0.0 < hi


class TestDerivative:
    def test_quadratic_coefficients(self):
        params = make_params(c=3.0, n_I=2, tau_I=2.0, beta=1.0, p=1.0)  # c_I = 1
        a2, a1, a0 = derivative_quadratic_coeffs(params, T=1.0)  # q = beta*T*p = 1
        assert (a2, a1, a0) == (4.0, 11.0, 1.0)

    def test_critical_points_frozen(self):
        params = make_params(c=3.0, n_I=2, tau_I=2.0, beta=1.0, p=1.0)
        pts = critical_points(params, T=1.0)
        disc = math.sqrt(105.0)
        expected = sorted([(-11.0 - disc) / 8.0, -1.0, (-11.0 + disc) / 8.0])
        assert pts == pytest.approx(expected)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params, T = sample_params(rng, n_E_choices=(0,))
            lam = rng.uniform(-2.0, 1.0) * (params.c_I + params.c)
            h = 1e-6 * max(1.0, abs(lam))
            fd = (charpoly(params, T, lam + h) - charpoly(params, T, lam - h)) / (2 * h)
            exact = charpoly_derivative(params, T, lam)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6 * max(1.0, abs(fd)))

    def test_needs_no_eclipse_stages(self):
        params = make_params(n_E=1, tau_E=1.0)
        with pytest.raises(InvalidParamsError):
            charpoly_derivative(params, 1.0, 0.5)


class TestRealRoots:
    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            params, T = sample_params(rng, n_E_choices=(0,))
            A = coefficient_matrix(params, T)
            ztol = 1e-8 * max(A.inf_norm, 1.0)
            numeric = sorted(z.real for z in full_spectrum_numeric(params, T)
                             if abs(z.imag) <= ztol)
            mine = sorted(real_roots(params, T))
            assert len(mine) == len(numeric)
            for a, b in zip(mine, numeric):
                assert a == pytest.approx(b, abs=1e-7 * max(1.0, A.inf_norm))

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
        ztol = 1e-8 * max(A.inf_norm, 1.0)
        numeric = sorted(z.real for z in full_spectrum_numeric(params, T)
                         if abs(z.imag) <= ztol)
        assert sorted(roots) == pytest.approx(numeric, abs=1e-7 * A.inf_norm)
        assert min(roots) < -(params.c + params.c_I + 1.0 + 1.0)

    def test_double_zero_at_threshold(self):
        params, T = cell_params(2, "=", "<")
        roots = real_roots(params, T)
        assert 0.0 in roots
        assert algebraic_multiplicity(params, T, 0.0) == 2


class TestSignClass:
    def test_buckets(self):
        c_I, ztol = 2.0, 1e-9
        assert sign_class(-3.0, c_I, ztol) == "neg_below_cI"
        assert sign_class(-1.0, c_I, ztol) == "neg_in_cI_0"
        assert sign_class(0.0, c_I, ztol) == "zero"
        assert sign_class(4.0, c_I, ztol) == "positive"

    def test_boundary_uses_tolerance(self):
        assert sign_class(5e-10, 2.0, 1e-9) == "zero"
        assert sign_class(2e-9, 2.0, 1e-9) == "positive"


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
                resid = np.max(np.abs(A.entries @ v - lam * v))
                assert resid <= 1e-8 * np.max(np.abs(v))

    def test_zero_mode_closed_form(self):
        params = make_params(beta=1.0, p=2.0, c=3.0, n_I=2, tau_I=1.0, v_a=0.5)
        T = 1.0  # pressure 2*2 = 4... clearance 3: off threshold
        v = eigenvector(params, T, 0.0, V_scale=1.0)
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
        params_flat = ModelParams(**{**params.to_json_dict(), "v_a": 0.0})
        v = eigenvector(params_flat, T, 0.0)
        assert v[-1] == 0.0  # balanced production needs no gradient term
        off = eigenvector(params_flat, 0.5 * T, 0.0)
        assert off[-1] != 0.0 and np.allclose(off[:-1], 0.0)  # pure gradient direction

    def test_multiplicities(self):
        params = make_params()
        A = coefficient_matrix(params, 1.0)
        for lam in real_roots(params, 1.0):
            assert geometric_multiplicity(A, lam) == 1
            assert algebraic_multiplicity(params, 1.0, lam) == 1
        with pytest.raises(ValueError):
            geometric_multiplicity(A, 123.45)  # not an eigenvalue

    def test_threshold_zero_is_defective(self):
        # algebraic multiplicity two, geometric one: a genuine Jordan block
        params, T = cell_params(3, "=", "="); A = coefficient_matrix(params, T)
        assert algebraic_multiplicity(params, T, 0.0) == 2
        assert geometric_multiplicity(A, 0.0) == 1


class TestEigenspaceDecomposition:
    def test_dimension_bookkeeping(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            params, T = sample_params(rng)
            dec = eigenspace_decomposition(params, T)
            total = len(dec.negative) + len(dec.positive) + len(dec.zero) + 2 * dec.complex_pair_count
            assert total == params.state_dim - 1
            for lam, vec in dec.negative + dec.positive + dec.zero:
                assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_signs_track_regime(self):
        params = make_params()
        assert eigenspace_decomposition(params, 1.0).positive == []
        assert len(eigenspace_decomposition(params, 2.0).positive) == 1


class TestAnalyze:
    def test_analytic_report(self):
        report = analyze(make_params(), 1.0)
        assert report.analytic
        assert report.classification.kind == "Definite"
        assert report.predicted_pattern is not None
        assert report.notice is None
        classes = [r.sign_class for r in report.real_eigenvalues]
        assert "zero" in classes and "positive" not in classes

    def test_indefinite_has_single_positive(self):
        report = analyze(make_params(), 2.0)
        assert [r.sign_class for r in report.real_eigenvalues].count("positive") == 1

    def test_numeric_only_with_eclipse_stages(self):
        report = analyze(make_params(n_E=2, tau_E=1.0), 1.0)
        assert not report.analytic
        assert report.predicted_pattern is None
        assert report.notice
        assert len(report.numeric_spectrum) == 6

    def test_json_shape(self):
        doc = analyze(make_params(), 1.0).to_json_dict()
        assert set(doc) == {
            "analytic", "classification", "T_star", "regime", "real_eigenvalues",
            "complex_pair_count", "numeric_spectrum", "predicted_pattern", "notice",
        }
        assert doc["classification"] == "Definite"
        assert set(doc["regime"]) == {"n_I_parity", "quadratic_at_minus_cI", "clearance_vs_pressure"}
        for entry in doc["real_eigenvalues"]:
            assert set(entry) == {
                "value", "sign_class", "algebraic_multiplicity",
                "geometric_multiplicity", "eigenvector",
            }


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
    assert np.min(np.abs(eigs)) <= 1e-9 * max(A.inf_norm, 1.0)


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
                scale = max(A.inf_norm, 1.0)
                ztol = 1e-8 * scale
                block = A.entries[:-1, :-1]  # the W row and column carry the structural zero
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

    @pytest.mark.parametrize("seed", range(4))
    def test_deep_cascades_stay_bracketed(self, seed):
        """n_I up to 200 and rates log-uniform in 1e+-3: the root is finite,
        inside (-m, sqrt(beta*T*p*n_I)], F - 1 changes sign across it, and it
        grows with T."""
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n_E = int(rng.integers(0, 4))
            params = ModelParams(
                beta=loguniform(rng, 1e-3, 1e3), p=loguniform(rng, 1e-3, 1e3),
                c=loguniform(rng, 1e-3, 1e3), n_E=n_E,
                tau_E=loguniform(rng, 1e-3, 1e3) if n_E else None,
                n_I=int(rng.integers(1, 201)), tau_I=loguniform(rng, 1e-3, 1e3),
                v_a=loguniform(rng, 1e-3, 1e3),
            )
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


class TestCoefficientInfNorm:
    def test_matches_assembled_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params, T = sample_params(rng, n_I_choices=tuple(range(1, 61)))
            want = coefficient_matrix(params, T).inf_norm
            # the dense norm adds n_I copies of p; the closed form multiplies
            assert coefficient_inf_norm(params, T) == pytest.approx(want, rel=1e-14)
            Ts = np.array([0.0, T, 3.0 * T])
            norms = coefficient_inf_norm(params, Ts)
            assert norms.tolist() == [coefficient_inf_norm(params, float(t)) for t in Ts]


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
            resid = float(np.max(np.abs(A.entries @ v - r.value * v)))
            assert resid <= 1e-8 * float(np.max(np.abs(v)))
        below = [x for x in values if x < -params.c_I]
        assert len(below) == (1 if n_I % 2 else 0)
