"""The benchmark's reference computations against known closed forms."""
import math

import numpy as np
import pytest

import reference

PARAMS = {"beta": 1.0, "p": 2.0, "c": 3.0, "n_E": 0, "n_I": 1, "tau_I": 1.0, "D_PCF": 0.1, "v_a": 0.5, "a": 0.2}


def test_threshold():
    assert reference.threshold(PARAMS) == 1.5


@pytest.mark.parametrize("T", [0.3, 0.75, 1.4999, 1.5001, 2.0, 3.7])
def test_positive_root_single_stage_closed_form(T):
    # n_E = 0, n_I = 1: the nonzero roots solve (c + lam)(c_I + lam) = q.
    c, c_I, q = PARAMS["c"], 1.0 / PARAMS["tau_I"], PARAMS["beta"] * T * PARAMS["p"]
    root = reference.positive_root(PARAMS, T)
    if T < reference.threshold(PARAMS):
        assert root is None
        return
    b = c + c_I
    expected = (-b + math.sqrt(b * b - 4.0 * (c * c_I - q))) / 2.0
    assert root == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_E,n_I", [(0, 2), (1, 3), (3, 12), (0, 60)])
def test_positive_root_is_an_eigenvalue(n_E, n_I):
    params = dict(PARAMS, n_E=n_E, n_I=n_I, tau_E=0.7)
    T = 1.6 * reference.threshold(params)
    root = reference.positive_root(params, T)
    assert root > 0
    w = np.linalg.eigvals(reference.system_matrix(params, T))
    assert np.min(np.abs(w - root)) <= 1e-8 * root


def test_system_matrix_structure():
    params = dict(PARAMS, n_E=2, n_I=3, tau_E=0.5)
    A = reference.system_matrix(params, 0.8)
    c_E, c_I = reference.cascade_rates(params)
    assert not np.any(A[-1])  # W is constant under the frozen-T map
    assert np.trace(A) == pytest.approx(-(2 * c_E + 3 * c_I + params["c"]))
    assert np.min(np.abs(np.linalg.eigvals(A))) <= 1e-12


def test_rk4_step_on_exponential():
    lam, dt = -1.3, 0.1
    z = lam * dt
    step = reference.rk4_step(lambda Y: lam * Y, np.array([[2.0]]), dt)
    assert step[0, 0] == pytest.approx(2.0 * (1 + z + z * z / 2 + z**3 / 6 + z**4 / 24), rel=1e-15)


def test_x_flow_matches_rk4_on_the_x_field():
    # RK4 integrates the x-field exactly: W is linear in x, the rest quadratic.
    r, a = np.array([0.7, 1.3, 2.0, 1.0]), 0.4
    y0 = np.array([[0.9, 0.01, 0.02, 0.03, 0.05]])

    def x_field(Y):
        out = np.empty_like(Y)
        out[:, :-1] = np.array([-r[0], *r[1:]]) * Y[:, -1:]
        out[:, -1] = a
        return out

    y = y0
    for _ in range(8):
        y = reference.rk4_step(x_field, y, 0.05)
    assert np.allclose(y[0], reference.x_flow(r, a, y0[0], 0.4), rtol=1e-14, atol=1e-15)


def test_time_field_telescopes():
    # T + sum(E) + sum(I) only loses what leaves the last infectious stage.
    params = dict(PARAMS, n_E=2, n_I=3, tau_E=0.5)
    Y = np.random.default_rng(0).uniform(0.0, 1.0, size=(4, 8))
    f = reference.time_field(params, psi=0.05)(Y)
    _, c_I = reference.cascade_rates(params)
    assert np.allclose(f[:, :6].sum(axis=1), -c_I * Y[:, 5], rtol=1e-13, atol=1e-15)
    assert np.all(f[:, -1] == 0.05)
