import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab.dynamics import time_rhs
from flustab.model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
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
        assert params.c_E == 2.0  # n_E / tau_E
        assert params.c_I == 2.0  # n_I / tau_I
        # plain n/tau, bit for bit
        deep = make_params(n_E=7, tau_E=0.3, n_I=11, tau_I=1.7)
        assert deep.c_E == 7 / 0.3 and deep.c_I == 11 / 1.7

    def test_no_eclipse_convention(self):
        params = make_params(n_E=0, tau_E=None)
        assert params.c_E == 0.0 and type(params.c_E) is float
        assert params.c_I == 2.0

    def test_rates_are_python_floats_derived_once(self):
        params = make_params(n_E=np.int64(3), tau_E=np.float64(0.7), n_I=5, tau_I=1.3)
        assert type(params.c_E) is float and type(params.c_I) is float
        assert params.c_E == 3 / 0.7 and params.c_I == 5 / 1.3
        # plain attributes beside the fields, not properties that divide per read
        assert vars(params)["c_E"] is params.c_E and vars(params)["c_I"] is params.c_I
        assert params._shape == (3, 5) and all(type(n) is int for n in params._shape)

    def test_replace_derives_new_rates_and_the_field_follows(self):
        params = make_params(n_E=0, tau_E=None, n_I=1, tau_I=1.0)
        coeffs = FieldCoefficients.default_for(params)
        y = [0.8, 0.3, 0.5, 0.1]
        slower = dataclasses.replace(params, tau_I=4.0)
        assert (slower.c_E, slower.c_I) == (0.0, 0.25) and params.c_I == 1.0
        # slot 1 is the I inflow beta*T*V less the outflow c_I*I
        for each in (params, slower):
            assert time_rhs(each, coeffs, y)[1] == each.beta * 0.8 * 0.5 - each.c_I * 0.3
        eclipse = dataclasses.replace(params, n_E=2, tau_E=0.5)
        assert (eclipse.c_E, eclipse._shape) == (4.0, (2, 1))
        coeffs = FieldCoefficients.default_for(eclipse)
        assert time_rhs(eclipse, coeffs, [0.8, 0.3, 0.2, 0.5, 0.1, 0.0])[2] == 4.0 * 0.3 - 4.0 * 0.2

    def test_fields_equality_and_hash_see_only_the_inputs(self):
        names = [f.name for f in dataclasses.fields(ModelParams)]
        assert names == ["beta", "p", "c", "n_I", "tau_I", "n_E", "tau_E", "D_PCF", "v_a", "a"]
        params = make_params()
        same = make_params(n_I=np.int64(2), tau_I=np.float64(1.0))
        assert params == same and hash(params) == hash(same)
        assert hash(params) == hash(tuple(getattr(params, name) for name in names))
        assert params != make_params(tau_I=2.0)
        assert dataclasses.replace(params) == params

    def test_structural_rejects(self):
        with pytest.raises(InvalidParamsError):
            make_params(n_I=0)
        with pytest.raises(InvalidParamsError):
            make_params(tau_I=0.0)
        with pytest.raises(InvalidParamsError):
            make_params(n_E=2, tau_E=None)


class TestValidByConstruction:
    @pytest.mark.parametrize(
        "overrides, problems",
        [
            (dict(n_I=0), ["n_I must be an integer >= 1"]),
            (dict(n_E=-1), ["n_E must be an integer >= 0"]),
            (dict(tau_I=0.0), ["tau_I must be > 0"]),
            (dict(tau_I=math.nan), ["tau_I must be > 0", "tau_I must be finite"]),
            (dict(n_E=2, tau_E=0.0), ["tau_E must be > 0 when n_E > 0"]),
            # one structural problem raises validate()'s whole list, in its order
            (
                dict(n_I=0, tau_I=0.0, n_E=1, tau_E=-1.0, beta=-1.0, D_PCF=-1.0),
                ["n_I must be an integer >= 1", "tau_I must be > 0", "tau_E must be > 0 when n_E > 0",
                 "beta must be > 0", "D_PCF must be >= 0"],
            ),
            (dict(n_I=999, n_E=2, tau_E=-1.0), ["tau_E must be > 0 when n_E > 0", "n_E + n_I must be <= 1000"]),
        ],
    )
    def test_structural_problem_raises_full_list(self, overrides, problems):
        with pytest.raises(InvalidParamsError) as err:
            make_params(**overrides)
        assert err.value.problems == problems

    def test_other_problems_wait_for_validate(self):
        # beta = 0 is a legal reduced model; only validate() rejects it
        params = make_params(beta=0.0, n_I=1000, n_E=1)
        assert validate(params) == ["n_E + n_I must be <= 1000", "beta must be > 0"]

    def test_numpy_counts_become_ints(self):
        params = make_params(n_E=np.int64(2), n_I=np.int64(3))
        assert (params.n_E, params.n_I) == (2, 3)
        assert type(params.n_E) is int and type(params.n_I) is int

    @pytest.mark.parametrize("value", [2.0, 2.5, None])
    @pytest.mark.parametrize("name", ["n_E", "n_I"])
    def test_non_integer_count_raises(self, name, value):
        with pytest.raises(InvalidParamsError) as err:
            make_params(**{name: value})
        assert type(err.value) is InvalidParamsError
        assert err.value.problems[0].startswith(f"{name} must be an integer")


class TestThreshold:
    def test_value(self):
        params = make_params(beta=1.0, p=2.0, c=3.0, tau_I=1.0)
        assert params.T_star == pytest.approx(1.5)

    def test_zero_rate_has_no_threshold(self):
        with pytest.raises(InvalidParamsError):
            make_params(beta=0.0).T_star

    def test_raises_with_full_list(self):
        with pytest.raises(InvalidParamsError) as err:
            make_params(beta=0.0, p=0.0).T_star
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
        with pytest.raises(InvalidParamsError) as err:
            make_params(n_E=2, tau_E=None)
        assert err.value.problems == ["tau_E must be > 0 when n_E > 0"]
        # without eclipse stages tau_E is not consulted
        assert validate(make_params(n_E=0, tau_E=None)) == []


class TestJsonRoundTrip:
    def test_round_trip(self):
        params = make_params()
        assert ModelParams.from_json_dict(dataclasses.asdict(params)) == params

    def test_tau_E_optional_only_without_eclipse(self):
        d = dataclasses.asdict(make_params(n_E=0, tau_E=None))
        d.pop("tau_E", None)
        params = ModelParams.from_json_dict(d)
        assert params.n_E == 0 and params.tau_E is None
        d["n_E"] = 1
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)

    def test_unknown_and_missing_keys_rejected(self):
        d = dataclasses.asdict(make_params())
        d["mystery"] = 1.0
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)
        d.pop("mystery")
        d.pop("beta")
        with pytest.raises(InvalidParamsError):
            ModelParams.from_json_dict(d)

    def test_every_bad_value_is_named(self):
        d = {"beta": "1.0", "p": True, "c": 3.0, "n_E": 1.5, "n_I": None, "tau_I": 1.0, "D_PCF": 0.1,
             "v_a": 0.4, "a": -0.3, "tau_E": [0.5]}
        with pytest.raises(InvalidParamsError) as err:
            ModelParams.from_json_dict(d)
        assert err.value.problems == [
            "beta must be a number", "p must be a number", "n_E must be an integer", "n_I must be an integer",
            "tau_E must be a number",
        ]
        with pytest.raises(InvalidParamsError) as err:
            ModelParams.from_json_dict([d])
        assert err.value.problems == ["params must be an object"]

    def test_integral_counts(self):
        d = dataclasses.asdict(make_params())
        d.update(n_E=1.0, n_I=2.0)
        params = ModelParams.from_json_dict(d)
        assert params == make_params() and type(params.n_E) is type(params.n_I) is int

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
        back = ModelParams.from_json_dict(dataclasses.asdict(params))
        assert back == params  # frozen dataclass equality is fieldwise and exact


class TestStateVector:
    def test_layout_round_trip(self):
        s = StateVector(T=0.9, E=(0.1, 0.2), I=(0.3,), V=1.5, W=-0.4)
        flat = s.to_array()
        assert flat.tolist() == [0.9, 0.1, 0.2, 0.3, 1.5, -0.4]
        assert StateVector.for_params(make_params(n_E=2, n_I=1), flat) == s

    def test_for_params(self):
        params = make_params()  # n_E=1, n_I=2
        s = StateVector.for_params(params, [1.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert s.E == (0.1,) and s.I == (0.2, 0.3) and s.V == 0.4 and s.W == 0.5

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 5 for n_E=1, n_I=1"):
            StateVector.for_params(make_params(n_E=1, n_I=1), [1.0, 2.0])


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
