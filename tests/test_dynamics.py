import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab import dynamics, surface
from flustab.dynamics import time_rhs, x_rhs
from flustab.model import FieldCoefficients, InvalidParamsError, ModelParams, StateVector
from flustab.validation import sample_params
from test_surface import _rk4_float_step


def make_params(**overrides):
    base = dict(beta=2.0, p=1.5, c=3.0, n_I=1, tau_I=0.5, n_E=1, tau_E=0.25,
                D_PCF=0.5, v_a=0.7, a=0.4)
    base.update(overrides)
    return ModelParams(**base)


def test_time_rhs_componentwise():
    # n_E=1, n_I=1: state (T, E1, I1, V, W); c_E = 4, c_I = 2
    params = make_params()
    coeffs = FieldCoefficients.default_for(params)
    y = np.array([0.8, 0.3, 0.5, 1.2, 0.1])
    out = time_rhs(params, coeffs, y)
    uptake = 2.0 * 0.8 * 1.2
    assert out[0] == pytest.approx(-uptake)
    assert out[1] == pytest.approx(uptake - 4.0 * 0.3)
    assert out[2] == pytest.approx(4.0 * 0.3 - 2.0 * 0.5)
    assert out[3] == pytest.approx(1.5 * 0.5 - 3.0 * 1.2 + 0.5 * 0.4 + 0.7 * 0.1)
    assert out[4] == coeffs.psi == 0.0


def test_time_rhs_without_eclipse():
    params = make_params(n_E=0, tau_E=None)
    coeffs = FieldCoefficients.default_for(params)
    y = np.array([0.8, 0.5, 1.2, 0.1])
    out = time_rhs(params, coeffs, y)
    assert out[1] == pytest.approx(2.0 * 0.8 * 1.2 - 2.0 * 0.5)


def test_gradient_rate_enters_last_row():
    params = make_params()  # r has length n_E + n_I + 2 = 4
    coeffs = FieldCoefficients(r=(2.0, 3.0, 4.0, 1.0), psi=-0.9)
    y = np.array([0.8, 0.3, 0.5, 1.2, 0.1])
    assert time_rhs(params, coeffs, y)[4] == -0.9
    out = x_rhs(params, coeffs, y)
    np.testing.assert_allclose(out, [-2.0 * 0.1, 3.0 * 0.1, 4.0 * 0.1, 1.0 * 0.1, 0.4])


def test_x_rhs_block_columns_equal_single_states():
    # a (dim, m) block gives a (dim, m) result; each column has the bits of
    # that column's state alone, as an array and as a list of floats
    params = make_params(n_I=3)
    coeffs = FieldCoefficients(r=(2.0, 0.5, 3.0, 1.5, 0.25, 1.0), psi=0.3)
    block = np.random.default_rng(4).normal(size=(params.state_dim, 7))
    out = x_rhs(params, coeffs, block)
    assert out.shape == block.shape
    for k in range(block.shape[1]):
        assert out[:, k].tolist() == x_rhs(params, coeffs, block[:, k]).tolist()
        assert out[:, k].tolist() == x_rhs(params, coeffs, block[:, k].tolist()).tolist()
    np.testing.assert_array_equal(out[-1], params.a)


def test_dimension_and_coefficient_guards():
    # time_rhs/x_rhs are deliberately unchecked; the StateVector entry points
    # of surface are where shape and coefficient contracts are enforced.
    params = make_params()
    coeffs = FieldCoefficients.default_for(params)
    short = StateVector(T=1.0, E=(), I=(0.5,), V=1.0, W=0.0)
    good = StateVector.for_params(params, [0.8, 0.3, 0.5, 1.2, 0.1])
    for run in (lambda c, s: surface.integrate_time(params, c, s, (0.0, 0.1), 0.05),
                lambda c, s: surface.lie_bracket(params, c, s)):
        with pytest.raises(ValueError, match="state has shape"):
            run(coeffs, short)
        with pytest.raises(InvalidParamsError):
            run(FieldCoefficients(r=(1.0, 1.0)), good)


@given(
    n_E=st.integers(0, 3),
    n_I=st.integers(1, 6),
    beta=st.floats(0.1, 10.0),
    p=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    tau_I=st.floats(0.1, 10.0),
    scale=st.floats(-2.0, 2.0),
)
@settings(deadline=None, max_examples=120)
def test_infection_chain_telescopes(n_E, n_I, beta, p, c, tau_I, scale):
    """Summing d/dt over T and every stage cancels all transfers: what is
    left is exactly the outflow of the last infectious stage."""
    params = ModelParams(beta=beta, p=p, c=c, n_I=n_I, tau_I=tau_I, n_E=n_E,
                         tau_E=0.6 if n_E else None, D_PCF=0.3, v_a=0.2, a=0.1)
    coeffs = FieldCoefficients.default_for(params)
    rng = np.random.default_rng(abs(hash((n_E, n_I, round(beta, 6)))) % 2**32)
    y = rng.normal(size=params.state_dim) * 10.0 ** scale
    out = time_rhs(params, coeffs, y)
    head = 1 + n_E + n_I
    lhs = float(np.sum(out[:head]))
    rhs = -params.c_I * y[head - 1]
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.max(np.abs(out[:head])), abs(rhs))


def same_bits(a, b) -> bool:
    """Equal bit for bit where a is a number, NaN where a is NaN. IEEE 754
    fixes neither the sign nor the payload of a NaN result, and CPython's
    float operations do not pin them either: the same a * b on two NaNs of
    opposite sign gives a NaN of one sign before the interpreter specializes
    the multiply and of the other after. Every NaN is a blow-up to the
    integrators, so only its place matters."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def slot_loop_time_rhs(params, coeffs, y):
    """The time field written as a loop over the slots of an array or a
    block: the reference the generated kernel must match bit for bit."""
    n_E, n_I = params.n_E, params.n_I
    c_E = n_E / params.tau_E if n_E > 0 else 0.0
    c_I = n_I / params.tau_I
    V = y[-2]
    W = y[-1]
    out = np.empty_like(y)
    infection = params.beta * y[0] * V
    out[0] = -infection
    inflow = infection
    for i in range(1, 1 + n_E):
        outflow = c_E * y[i]
        out[i] = inflow - outflow
        inflow = outflow
    I_total = 0.0
    for j in range(1 + n_E, 1 + n_E + n_I):
        outflow = c_I * y[j]
        out[j] = inflow - outflow
        inflow = outflow
        I_total += y[j]
    out[-2] = params.p * I_total - params.c * V + params.D_PCF * params.a + params.v_a * W
    out[-1] = coeffs.psi
    return out


@pytest.mark.parametrize("n_I", [1, 2, 12, 40, 200])
@pytest.mark.parametrize("n_E", [0, 1, 3])
def test_float_kernel_matches_array_path(n_E, n_I):
    # lists, arrays and blocks all go through the generated straight-line
    # kernel; the slot loop does the same operations in the same order
    rng = np.random.default_rng([n_E, n_I])
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    dim = n_E + n_I + 3
    states = [rng.uniform(-2.0, 2.0, dim) * 10.0 ** rng.integers(-3, 4) for _ in range(40)]
    for y in states[20:]:
        y[rng.integers(0, dim, 3)] = rng.choice(special, 3)
    states.append(np.full(dim, -0.0))
    states.append(np.full(dim, 5e-324))
    # -0.0 in every compartment shows whether I_total starts from 0.0: with
    # no forcing and a < 0 it is the sign of the V slot
    states.append(np.array([1.0] + [-0.0] * (n_E + n_I) + [0.0, -0.0]))
    block = np.column_stack(states)
    for forcing in ({}, {"D_PCF": 0.0, "a": -0.4}):
        params = make_params(n_E=n_E, tau_E=0.3 if n_E else None, n_I=n_I, tau_I=1.7, **forcing)
        coeffs = FieldCoefficients(r=tuple(rng.uniform(0.5, 2.0, dim - 1)), psi=0.05)
        with np.errstate(all="ignore"):
            for y in states:
                floats = time_rhs(params, coeffs, y.tolist())
                assert type(floats) is list
                assert all(type(v) is float for v in floats)
                reference = slot_loop_time_rhs(params, coeffs, y)
                assert same_bits(reference, floats)
                assert same_bits(reference, time_rhs(params, coeffs, y))
            out = time_rhs(params, coeffs, block)
            assert out.shape == block.shape
            assert same_bits(slot_loop_time_rhs(params, coeffs, block), out)


def test_float_kernel_is_shared_by_shape(monkeypatch):
    monkeypatch.setattr(dynamics, "_TIME_KERNELS", {})
    slow = make_params(n_I=3, tau_I=0.5)
    fast = make_params(beta=0.7, p=4.0, c=1.1, n_I=3, tau_I=2.5, tau_E=0.9, D_PCF=0.1, v_a=-0.3, a=2.0)
    y = np.array([0.8, 0.3, 0.5, 0.2, 0.1, 1.2, 0.1])
    results = []
    for params, psi in ((slow, 0.0), (fast, 0.25)):
        coeffs = FieldCoefficients(r=(1.0,) * (params.state_dim - 1), psi=psi)
        # an array call builds the kernel as a list call does
        array = time_rhs(params, coeffs, y)
        assert list(dynamics._TIME_KERNELS) == [(1, 3)]
        results.append(time_rhs(params, coeffs, y.tolist()))
        assert same_bits(array, results[-1])
    assert list(dynamics._TIME_KERNELS) == [(1, 3)]
    assert results[0] != results[1]


def test_numpy_counts_reuse_the_int_shape_kernel(monkeypatch):
    monkeypatch.setattr(dynamics, "_TIME_KERNELS", {})
    y = [0.8, 0.3, 0.5, 0.2, 0.1, 1.2, 0.1]
    numpy_counts = make_params(n_E=np.int64(1), n_I=np.int64(3))
    coeffs = FieldCoefficients.default_for(numpy_counts)
    first = time_rhs(numpy_counts, coeffs, y)
    [(shape, kernel)] = dynamics._TIME_KERNELS.items()
    assert shape == (1, 3) and all(type(n) is int for n in shape)
    assert time_rhs(make_params(n_I=3), coeffs, y) == first
    assert list(dynamics._TIME_KERNELS.items()) == [((1, 3), kernel)]


@pytest.mark.parametrize("n_I", [1, 12, 200])
@pytest.mark.parametrize("n_E", [0, 3])
def test_run_kernel_rows_are_float_rk4_steps(n_E, n_I):
    # the run kernel's stages come from the time field's template, the step
    # kernel's from time_rhs calls: the flat rows of both are float RK4
    # steps with time_rhs as the field, special values included, and a psi
    # whose stage sum overflows gives the same infinite W
    rng = np.random.default_rng([n_E, n_I, 4])
    dim = n_E + n_I + 3
    states = [rng.uniform(-2.0, 2.0, dim) * 10.0 ** rng.integers(-3, 4) for _ in range(12)]
    for y in states[6:]:
        y[rng.integers(0, dim, 2)] = rng.choice([-0.0, np.inf, -np.inf, np.nan, 5e-324], 2)
    states.append(np.array([1.0] + [-0.0] * (n_E + n_I) + [0.0, -0.0]))
    params = make_params(n_E=n_E, tau_E=0.3 if n_E else None, n_I=n_I, tau_I=1.7, D_PCF=0.0, a=-0.4)
    r = tuple(rng.uniform(0.5, 2.0, dim - 1))
    for psi in (0.0, -0.0, 0.05, 1e308):
        coeffs = FieldCoefficients(r=r, psi=psi)
        advances = [dynamics._rk4_advancer(params, coeffs, field)(0.01, 3) for field in (None, time_rhs)]
        step = _rk4_float_step(lambda y: time_rhs(params, coeffs, y), 0.01)
        for y in states:
            rows = [y.tolist()]
            for _ in range(3):
                rows.append(step(rows[-1]))
            for advance in advances:
                flat = advance(y.tolist(), 3)
                assert type(flat) is list and len(flat) == 3 * dim
                assert same_bits(np.array(rows[1:]).reshape(-1), np.array(flat)), psi


@pytest.mark.parametrize("n_E,n_I", [(0, 1000), (999, 1)])
def test_kernels_compile_at_the_parser_cap(monkeypatch, n_E, n_I):
    # n_E + n_I = 1000 is the deepest shape a config may ask for: both RK4
    # kernels must compile there (a generated expression that grows with
    # the shape would reach the compiler's depth limit) and give one float
    # RK4 step of time_rhs as their first row
    monkeypatch.setattr(dynamics, "_RK4_KERNELS", {})
    monkeypatch.setattr(dynamics, "_STEP_KERNELS", {})
    params = make_params(n_E=n_E, tau_E=0.3 if n_E else None, n_I=n_I, tau_I=1.7, a=-0.4)
    dim = params.state_dim
    coeffs = FieldCoefficients(r=(1.0,) * (dim - 1), psi=0.05)
    y = np.random.default_rng(n_E).uniform(0.0, 1.0, dim).tolist()
    row = _rk4_float_step(lambda z: time_rhs(params, coeffs, z), 0.01)(y)
    for field in (None, time_rhs):
        assert same_bits(np.array(row), np.array(dynamics._rk4_advancer(params, coeffs, field)(0.01, 1)(y, 1)))
    assert list(dynamics._RK4_KERNELS) == list(dynamics._STEP_KERNELS) == [(n_E, n_I)]


def fields_rank(params, coeffs, s, tol=1e-9):
    """Rank of the two fields at s, from the singular values of the stacked
    2 x n matrix."""
    y = s.to_array()
    both = np.vstack([x_rhs(params, coeffs, y), time_rhs(params, coeffs, y)])
    sv = np.linalg.svd(both, compute_uv=False)
    return int(np.sum(sv > tol * sv[0])) if sv[0] > 0.0 else 0


def test_rank_check():
    params = make_params()
    coeffs = FieldCoefficients.default_for(params)
    generic = StateVector.for_params(params, [0.8, 0.3, 0.5, 1.2, 0.1])
    assert fields_rank(params, coeffs, generic) == 2
    # kill the x direction entirely: no gradient, no curvature
    flat = dataclasses.replace(params, a=0.0)
    stalled = StateVector.for_params(flat, [0.8, 0.3, 0.5, 1.2, 0.0])
    assert fields_rank(flat, coeffs, stalled) == 1


def test_random_states_are_full_rank_generically():
    rng = np.random.default_rng(41)
    for _ in range(20):
        params, _ = sample_params(rng)
        coeffs = FieldCoefficients.default_for(params)
        s = StateVector.for_params(params, rng.uniform(0.2, 1.5, size=params.state_dim))
        assert fields_rank(params, coeffs, s) == 2
