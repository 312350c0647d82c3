import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flustab.charpoly import (
    charpoly,
    charpoly_closed,
    charpoly_direct,
    charpoly_sum_form,
    coefficient_matrix,
)
from flustab.model import ModelParams


def make_params(**overrides):
    base = dict(beta=1.0, p=1.0, c=3.0, n_I=1, tau_I=1.0, n_E=0, tau_E=None,
                D_PCF=0.0, v_a=1.0, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


def term_scale(params, T, lam):
    """Zero yardstick for polynomial values: the sum of the magnitudes of
    the summands the closed form adds, with factors |c_x + lam|."""
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    cEn = c_E**n_E if n_E > 0 else 1.0
    cascade = abs(c_E + lam) ** n_E * abs(c_I + lam) ** n_I * abs(params.c + lam) * abs(lam)
    return cascade + abs(params.beta * T) * cEn * params.p * (c_I**n_I + abs(c_I + lam) ** n_I)


class TestMatrixLayout:
    def test_three_by_three(self):
        # n_E = 0, n_I = 1: rows are (I, V, W)
        A = coefficient_matrix(make_params(), T=1.0)
        expected = np.array([
            [-1.0, 1.0, 0.0],
            [1.0, -3.0, 1.0],
            [0.0, 0.0, 0.0],
        ])
        np.testing.assert_array_equal(A, expected)
        assert type(A) is np.ndarray and A.dtype == np.float64
        assert len(A) == 3
        assert np.linalg.norm(A, np.inf) == 5.0

    def test_infection_term_sits_in_first_row(self):
        # the uptake beta*T feeds the first cascade stage from the virus column
        params = make_params(n_E=2, tau_E=1.0, n_I=1, beta=2.0)
        A = coefficient_matrix(params, T=1.5)
        v_col = params.n_E + params.n_I
        assert A[0, v_col] == 3.0
        assert np.all(A[1:, v_col][:-2] == 0.0)

    def test_cascade_handoff(self):
        params = make_params(n_E=1, tau_E=0.5, n_I=2, tau_I=1.0)
        A = coefficient_matrix(params, T=1.0)
        c_E, c_I = 2.0, 2.0
        # eclipse chain, eclipse-to-infectious handoff, infectious chain
        assert A[params.n_E, params.n_E - 1] == c_E
        assert A[params.n_E + 1, params.n_E] == c_I
        assert A[0, 0] == -c_E
        assert A[params.n_E, params.n_E] == -c_I

    def test_production_row_and_advection(self):
        params = make_params(n_I=3, tau_I=1.0, p=2.5, v_a=0.7)
        A = coefficient_matrix(params, T=1.0)
        v_row = params.n_E + params.n_I
        for col in range(params.n_E, params.n_E + params.n_I):
            assert A[v_row, col] == 2.5
        assert A[v_row, v_row] == -3.0
        assert A[v_row, v_row + 1] == 0.7
        np.testing.assert_array_equal(A[-1], 0.0)

    def test_entries_read_only(self):
        A = coefficient_matrix(make_params(), T=1.0)
        with pytest.raises(ValueError):
            A[0, 0] = 99.0


class TestPolynomialRoutes:
    def test_known_value(self):
        # (1+lam)(3+lam)lam + 1*1*(1 - (1+lam)) evaluated at lam = 1
        params = make_params()
        assert charpoly_closed(params, T=1.0, lam=1.0) == pytest.approx(7.0)
        assert charpoly_direct(params, T=1.0, lam=1.0) == pytest.approx(7.0)
        assert charpoly_sum_form(params, T=1.0, lam=1.0) == pytest.approx(7.0)

    def test_sum_form_is_exact_at_zero(self):
        for n_I in (1, 2, 3, 5):
            params = make_params(n_I=n_I)
            assert charpoly_sum_form(params, T=0.7, lam=0.0) == 0.0

    def test_canonical_switch_near_zero(self):
        params = make_params(n_I=2)
        lam = 1e-9
        assert charpoly(params, T=0.7, lam=lam) == charpoly_sum_form(params, T=0.7, lam=lam)
        lam = 1.0
        assert charpoly(params, T=0.7, lam=lam) == charpoly_closed(params, T=0.7, lam=lam)

    @given(
        n_E=st.integers(0, 3),
        n_I=st.integers(1, 5),
        beta=st.floats(0.1, 10.0),
        p=st.floats(0.1, 10.0),
        c=st.floats(0.1, 10.0),
        tau_I=st.floats(0.1, 10.0),
        T=st.floats(0.0, 3.0),
        lam=st.floats(-30.0, 30.0),
    )
    # summands of ~1.9e7 cancel to ~8e-9 here, so the closed form is off
    # by ~1e-9 in absolute terms while still within 1e-16 of its term scale
    @example(n_E=0, n_I=5, beta=1.0, p=1.0, c=1.0, tau_I=0.25, T=3.0, lam=1e-14)
    @settings(deadline=None, max_examples=120)
    def test_three_routes_agree(self, n_E, n_I, beta, p, c, tau_I, T, lam):
        params = make_params(beta=beta, p=p, c=c, n_I=n_I, tau_I=tau_I, n_E=n_E,
                             tau_E=0.8 if n_E else None)
        direct = charpoly_direct(params, T, lam)
        # the zero yardstick bounds the cancellation
        tol = 1e-9 * (1.0 + abs(direct)) + 1e-12 * term_scale(params, T, lam)
        assert abs(charpoly_closed(params, T, lam) - direct) <= tol
        assert abs(charpoly_sum_form(params, T, lam) - direct) <= tol

    @pytest.mark.parametrize(
        "overrides, T",
        [({}, 1.0), ({"n_I": 150, "tau_I": 30.0}, 0.4), ({"n_E": 3, "tau_E": 0.5, "n_I": 4}, 2.5)],
        ids=["n_I=1", "n_I=150", "n_E=3"],
    )
    def test_direct_on_an_array_equals_scalar_calls_bit_for_bit(self, overrides, T):
        params = make_params(**overrides)
        lams = np.concatenate([[0.0, -0.0, -params.c], np.random.default_rng(3).uniform(-9.0, 9.0, 21)])
        stacked = charpoly_direct(params, T, lams)
        assert stacked.shape == lams.shape
        scalar = np.array([charpoly_direct(params, T, float(lam)) for lam in lams])
        assert stacked.tobytes() == scalar.tobytes()
        assert charpoly_direct(params, T, lams.reshape(2, -1)).tobytes() == scalar.tobytes()

    @pytest.mark.parametrize(
        "overrides, T",
        [({}, 1.0), ({"n_I": 150, "tau_I": 30.0}, 0.4), ({"n_E": 3, "tau_E": 0.5, "n_I": 4}, 2.5)],
        ids=["n_I=1", "n_I=150", "n_E=3"],
    )
    def test_closed_and_sum_forms_on_an_array_match_scalar_calls(self, overrides, T):
        # numpy's vector power may round differently from the scalar one, so
        # the match is within a few eps of the terms' magnitudes, not bitwise
        params = make_params(**overrides)
        lams = np.concatenate([[0.0, -params.c], np.random.default_rng(4).uniform(-9.0, 9.0, 22)])
        for form in (charpoly_closed, charpoly_sum_form):
            values = form(params, T, lams)
            assert values.shape == lams.shape
            for lam, value in zip(lams.tolist(), values.tolist()):
                assert abs(value - form(params, T, lam)) <= 1e-14 * term_scale(params, T, lam)

    def test_term_scale_dominates_value(self):
        params = make_params(n_I=4, n_E=2, tau_E=0.6)
        for lam in (-7.0, -0.3, 0.0, 2.0):
            scale = term_scale(params, T=1.3, lam=lam)
            assert scale >= abs(charpoly_closed(params, T=1.3, lam=lam)) - 1e-12
            assert scale > 0
