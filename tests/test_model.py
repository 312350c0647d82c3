import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab.model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
    derived_rates,
    target_cell_threshold,
    validate,
)


def make_params(**overrides):
    base = dict(beta=1.0, p=2.0, c=3.0, n_I=2, tau_I=1.0, n_E=1, tau_E=0.5,
                D_PCF=0.1, v_a=0.4, a=-0.3)
    base.update(overrides)
    return ModelParams(**base)


class TestDerivedRates:
    def test_cascade_rates(self):
        params = make_params()
        c_E, c_I = derived_rates(params)
        assert c_E == 2.0  # n_E / tau_E
        assert c_I == 2.0  # n_I / tau_I

    def test_no_eclipse_convention(self):
        params = make_params(n_E=0, tau_E=None)
        c_E, c_I = derived_rates(params)
        assert c_E == 0.0
        assert c_I == 2.0

    def test_structural_rejects(self):
        with pytest.raises(InvalidParamsError):
            derived_rates(make_params(n_I=0))
        with pytest.raises(InvalidParamsError):
            derived_rates(make_params(tau_I=0.0))
        with pytest.raises(InvalidParamsError):
            derived_rates(make_params(n_E=2, tau_E=None))


class TestThreshold:
    def test_value(self):
        params = make_params(beta=1.0, p=2.0, c=3.0, tau_I=1.0)
        assert target_cell_threshold(params) == pytest.approx(1.5)
        assert params.T_star == pytest.approx(1.5)

    def test_zero_rate_has_no_threshold(self):
        with pytest.raises(InvalidParamsError):
            target_cell_threshold(make_params(beta=0.0))

    def test_raises_with_full_list(self):
        with pytest.raises(InvalidParamsError) as err:
            target_cell_threshold(make_params(beta=0.0, p=0.0))
        assert len(err.value.problems) >= 2

    @given(
        beta=st.floats(0.1, 10.0),
        p=st.floats(0.1, 10.0),
        c=st.floats(0.1, 10.0),
        tau_I=st.floats(0.1, 10.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_defining_relation(self, beta, p, c, tau_I):
        params = make_params(beta=beta, p=p, c=c, tau_I=tau_I)
        # at T = T* the clearance exactly balances the viral pressure
        assert params.T_star * tau_I * p * beta == pytest.approx(c, rel=1e-12)


class TestValidate:
    def test_ok(self):
        assert validate(make_params()) == []

    def test_all_violations_reported(self):
        bad = make_params(beta=0.0, c=-1.0, D_PCF=-2.0)
        problems = validate(bad)
        assert len(problems) >= 3
        joined = " | ".join(problems)
        assert "beta" in joined and "c" in joined and "D_PCF" in joined

    def test_eclipse_duration_rule(self):
        problems = validate(make_params(n_E=2, tau_E=None))
        assert any("tau_E" in p for p in problems)
        # without eclipse stages tau_E is not consulted
        assert validate(make_params(n_E=0, tau_E=None)) == []


class TestJsonRoundTrip:
    def test_exact_key_set(self):
        d = make_params().to_json_dict()
        assert set(d) == {"beta", "p", "c", "n_E", "n_I", "tau_E", "tau_I", "D_PCF", "v_a", "a"}

    def test_round_trip(self):
        params = make_params()
        assert ModelParams.from_json_dict(params.to_json_dict()) == params

    def test_tau_E_optional_only_without_eclipse(self):
        d = make_params(n_E=0, tau_E=None).to_json_dict()
        d.pop("tau_E", None)
        params = ModelParams.from_json_dict(d)
        assert params.n_E == 0 and params.tau_E is None
        d["n_E"] = 1
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)

    def test_unknown_and_missing_keys_rejected(self):
        d = make_params().to_json_dict()
        d["mystery"] = 1.0
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)
        d.pop("mystery")
        d.pop("beta")
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)

    @given(
        beta=st.floats(0.1, 10.0),
        p=st.floats(0.1, 10.0),
        c=st.floats(0.1, 10.0),
        tau_I=st.floats(0.1, 10.0),
        n_E=st.integers(0, 3),
        n_I=st.integers(1, 6),
        v_a=st.floats(0.0, 10.0),
        a=st.floats(-2.0, 2.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_round_trip_bit_exact(self, beta, p, c, tau_I, n_E, n_I, v_a, a):
        params = ModelParams(beta=beta, p=p, c=c, n_I=n_I, tau_I=tau_I, n_E=n_E,
                             tau_E=0.7 if n_E else None, D_PCF=0.2, v_a=v_a, a=a)
        back = ModelParams.from_json_dict(params.to_json_dict())
        assert back == params  # frozen dataclass equality is fieldwise and exact


class TestStateVector:
    def test_layout_round_trip(self):
        s = StateVector(T=0.9, E=(0.1, 0.2), I=(0.3,), V=1.5, W=-0.4)
        flat = s.to_array()
        assert flat.tolist() == [0.9, 0.1, 0.2, 0.3, 1.5, -0.4]
        assert StateVector.from_array(flat, n_E=2, n_I=1) == s

    def test_for_params(self):
        params = make_params()  # n_E=1, n_I=2
        s = StateVector.for_params(params, [1.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert s.E == (0.1,) and s.I == (0.2, 0.3) and s.V == 0.4 and s.W == 0.5

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector.from_array([1.0, 2.0], n_E=1, n_I=1)

    def test_jsonable_is_plain_floats(self):
        s = StateVector(T=1.0, E=(), I=(0.5,), V=np.float64(2.0), W=0.0)
        out = s.to_jsonable()
        assert out == [1.0, 0.5, 2.0, 0.0]
        assert all(type(v) is float for v in out)


class TestFieldCoefficients:
    def test_default_is_all_ones(self):
        params = make_params()
        coeffs = FieldCoefficients.default_for(params)
        assert coeffs.r == (1.0,) * (params.state_dim - 1)
        assert coeffs.psi == 0.0
        assert coeffs.problems_for(params) == []

    def test_rejections(self):
        params = make_params(n_E=0, n_I=1)  # r has length 3
        assert FieldCoefficients(r=(1.0, 1.0)).problems_for(params)
        assert FieldCoefficients(r=(0.0, 1.0, 1.0)).problems_for(params)
        # the V slot is the unit of the x direction and must stay exactly 1
        assert FieldCoefficients(r=(1.0, 1.0, 0.9)).problems_for(params)
        assert FieldCoefficients(r=(1.0, 1.0, 1.0), psi=math.nan).problems_for(params)
