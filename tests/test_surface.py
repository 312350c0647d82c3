import dataclasses
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from flustab import dynamics, surface
from flustab.charpoly import coefficient_matrix
from flustab.dynamics import time_rhs, x_rhs
from flustab.model import FieldCoefficients, ModelParams, StateVector
from flustab.validation import sample_params
from flustab.surface import (
    BlowUpError,
    Trajectory,
    asymptotics,
    integrate_linearized,
    integrate_time,
    lie_bracket,
    trace_surface,
)


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def make_params(**overrides):
    base = dict(beta=1.0, p=1.0, c=2.0, n_I=1, tau_I=1.0, n_E=0, tau_E=None,
                D_PCF=0.0, v_a=0.2, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


def x_fiber(params, coeffs, y, x_span, h_x):
    """(nodes, states) of the exact x-flow from the state y at the nodes a
    run over x_span takes, as trace_surface evaluates it."""
    nodes, dx = surface._nodes(x_span, h_x)
    return nodes, surface._x_flow(params, coeffs, np.asarray(y, dtype=float), np.arange(nodes.size) * dx)


def fiber_failure(params, coeffs, y, x_span, h_x):
    """The BlowUpError a run along the x-fiber from y stops with, or None:
    at its first node past node 0 that blows up, with the prefix before it."""
    nodes, states = x_fiber(params, coeffs, y, x_span, h_x)
    bad = ~(np.abs(states[1:]).max(axis=1) <= surface.BLOWUP_LIMIT)
    if not bad.any():
        return None
    k = 1 + int(bad.argmax())
    return BlowUpError(nodes[:k], states[:k])


def frozen_field(params, T_frozen, s, psi=0.0):
    """The frozen-T linear field M s + F, the reference for frozen-T runs."""
    M, F, y = surface._frozen_system(params, T_frozen, psi, s)
    return M @ y + F


def frozen_step(M, F, dt):
    """One step of y' = M y + F by its exact step map R y + c, the per-step
    reference for frozen-T runs."""
    R, c = surface._linear_rk4_map(M, F, dt)
    return lambda y: R @ y + c


# _stepwise and _rk4_float_step are the reference RK4 on float lists, one
# stage per field call: the RK4 kernels of dynamics must equal their rows,
# bit for bit, with time_rhs as the field.
def _stepwise(stepper):
    """The advancer of stepper(dt), a map that takes one step of dt: an
    advance call steps it k times and returns the k rows flat, as _run
    takes them."""

    def advancer(dt: float, n: int):
        step = stepper(dt)

        def advance(y, k):
            rows = []
            for _ in range(k):
                rows.extend(y := step(y))
            return rows

        return advance

    return advancer


def _rk4_float_step(f, dt: float):
    half, sixth = 0.5 * dt, dt / 6.0

    def step(y):
        k1 = f(y)
        k2 = f([a + half * b for a, b in zip(y, k1)])
        k3 = f([a + half * b for a, b in zip(y, k2)])
        k4 = f([a + dt * b for a, b in zip(y, k3)])
        return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]

    return step


def float_rk4(f):
    """The _run advancer of classical RK4 on the float-list field f."""
    return _stepwise(lambda dt: _rk4_float_step(f, dt))


def rk4_run(f, y0, span, h):
    """One RK4 run of the float-list field f from the state y0 (dim,), as
    integrate_time runs the time field."""
    return surface._run(float_rk4(f), y0.tolist(), span, h)


def reduction_setup():
    """Uncoupled configuration whose two fields span an involutive plane."""
    params = make_params(beta=0.0, v_a=0.0)
    coeffs = FieldCoefficients(r=(1.0, 1.0, 1.0), psi=0.0)
    s0 = StateVector.for_params(params, [1.0, 1.0, 1.0, 0.5])
    return params, coeffs, s0


class TestTimeIntegration:
    def test_equilibrium_is_fixed(self):
        params = make_params()
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [0.7, 0.0, 0.0, 0.0])
        traj = integrate_time(params, coeffs, s0, (0.0, 2.0), 0.1)
        assert np.all(traj.states == traj.states[0])

    def test_deterministic_and_uniform_grid(self):
        params = make_params()
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.2, 0.3, 0.1])
        a = integrate_time(params, coeffs, s0, (0.0, 1.0), 0.125)
        b = integrate_time(params, coeffs, s0, (0.0, 1.0), 0.125)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.times, 0.125 * np.arange(9))

    def test_scalar_span_starts_at_zero(self):
        params = make_params()
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.2, 0.3, 0.1])
        a = integrate_time(params, coeffs, s0, 1.0, 0.25)
        b = integrate_time(params, coeffs, s0, (0.0, 1.0), 0.25)
        np.testing.assert_array_equal(a.states, b.states)

    def test_fourth_order_convergence(self):
        params = make_params(D_PCF=0.3, a=0.5, v_a=0.4)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.2, 0.5, 0.1])
        ref = integrate_time(params, coeffs, s0, (0.0, 2.0), 0.0125).states[-1]
        e1 = np.max(np.abs(integrate_time(params, coeffs, s0, (0.0, 2.0), 0.1).states[-1] - ref))
        e2 = np.max(np.abs(integrate_time(params, coeffs, s0, (0.0, 2.0), 0.05).states[-1] - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_blow_up_carries_prefix(self):
        params = make_params()
        T_frozen = 3.0 * params.T_star  # strongly unstable frozen system
        with pytest.raises(BlowUpError) as err:
            integrate_linearized(params, T_frozen, [1.0, 1.0, 0.0], (0.0, 200.0), 0.05)
        exc = err.value
        assert 0 < exc.times.size < 4001
        assert exc.t_last == pytest.approx(exc.times[-1])
        assert np.all(np.isfinite(exc.states))

    def test_x_direction_moves_along_gradient(self):
        params = make_params(a=0.7)
        coeffs = FieldCoefficients(r=(2.0, 1.0, 1.0), psi=0.0)
        s0 = StateVector.for_params(params, [1.0, 0.0, 0.0, 0.5])
        fiber = trace_surface(params, coeffs, s0, (0.0, 1.0), 0.0, 0.5, 0.5).states[:, 0]
        # W grows linearly at rate a; T falls at rate r_0 * W; V rises at rate W
        assert fiber[-1, -1] == pytest.approx(0.5 + 0.7)
        assert fiber[-1, 0] < 1.0 and fiber[-1, 2] > 0.0


class TestLinearized:
    def test_field_matches_matrix_action(self):
        params = make_params(D_PCF=0.5, a=1.2, v_a=0.3)
        A = coefficient_matrix(params, 0.8)
        s = np.array([0.4, 1.1, -0.2])
        out = frozen_field(params, 0.8, s, psi=0.25)
        expected = A @ s
        expected[-2] += 0.5 * 1.2
        expected[-1] += 0.25
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_decay_rate_matches_dominant_mode(self):
        params = make_params(n_I=2, tau_I=1.0, p=2.0, c=3.0, v_a=0.5)
        T = 0.5 * params.T_star
        eigs = np.linalg.eigvals(coefficient_matrix(params, T))
        nonzero = eigs[np.abs(eigs) > 1e-9]
        lam = float(np.max(nonzero.real))
        traj = integrate_linearized(params, T, np.ones(4), (0.0, 22.0 / abs(lam)), 0.02)
        verdict = asymptotics(traj, 10.0 / abs(lam))
        assert verdict.kind == "Converging"
        assert verdict.rate == pytest.approx(lam, rel=0.05)


@pytest.mark.parametrize("regime", [0.5, 2.0])
@pytest.mark.parametrize("n_I,n_E", [(1, 0), (3, 2), (12, 1), (40, 0)])
def test_linearized_steps_are_rk4_steps(n_I, n_E, regime):
    """Each row of a frozen-T run, from the step map's power table, is one
    classical RK4 step of the frozen-T field from the row before, up to
    rounding, on both sides of T*."""
    params = make_params(beta=1.3, p=1.7, c=0.9, n_I=n_I, tau_I=1.1, n_E=n_E,
                         tau_E=0.7 if n_E else None, D_PCF=0.2, v_a=0.4, a=0.3)
    T = regime * params.T_star
    y0 = np.random.default_rng(n_I).uniform(0.0, 1.0, params.state_dim - 1)
    traj = integrate_linearized(params, T, y0, (0.0, 4.0), 0.02, psi=0.05)
    f = lambda y: frozen_field(params, T, y, psi=0.05)
    dt = traj.h
    for before, after in zip(traj.states[:-1], traj.states[1:]):
        k1 = f(before)
        k2 = f(before + 0.5 * dt * k1)
        k3 = f(before + 0.5 * dt * k2)
        k4 = f(before + dt * k3)
        step = before + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        scale = max(np.max(np.abs(before)), np.max(np.abs(after)))
        assert np.max(np.abs(after - step)) <= 1e-13 * scale


def deep_frozen_system(rng):
    """(M, F, y0) of a frozen-T field: n_E in 0-10, n_I in [1, 200], rates
    log-uniform in [1e-3, 1e3], T in [0.3, 2] T*, a signed start and psi."""
    n_E = int(rng.integers(0, 11))
    rates = {k: loguniform(rng, 1e-3, 1e3) for k in ("beta", "p", "c", "tau_I", "D_PCF", "v_a")}
    params = ModelParams(n_E=n_E, tau_E=loguniform(rng, 1e-3, 1e3) if n_E else None,
                         n_I=int(rng.integers(1, 201)), a=float(rng.uniform(-2.0, 2.0)), **rates)
    T = float(rng.uniform(0.3, 2.0)) * params.T_star
    y0 = rng.uniform(-1.0, 1.0, params.state_dim - 1)
    return surface._frozen_system(params, T, float(rng.uniform(-1.0, 1.0)), y0)


def stepwise_frozen(M, F):
    """The _run advancer that steps the exact step map one row at a time."""
    return _stepwise(lambda dt: frozen_step(M, F, dt))


def assert_rows_close(states, ref, rel):
    """Every row of states within rel of ref, relative to the row's scale."""
    scale = np.maximum(np.abs(states).max(axis=-1), np.abs(ref).max(axis=-1))
    assert np.all(np.abs(states - ref).max(axis=-1) <= rel * scale)


def full_table_steps(d: int) -> int:
    """The fewest steps whose run may hold a table of _CHUNK_ROWS rows of
    dimension d: the table holds no more numbers than the states."""
    return surface._CHUNK_ROWS * (d + 1) - 1


class TestPowerTable:
    """Frozen-T runs take their rows K at a time from a table of step-map
    powers (_power_table): each row is one RK4 step from the row before up
    to rounding, and the table is bounded by _CHUNK_ROWS, by the run's
    states, by the cache and by the first power or sum that is not finite."""

    @pytest.mark.parametrize("dt_rho", [0.01, 0.1, 0.5])
    def test_rows_are_rk4_steps_on_deep_sets(self, dt_rho):
        rng = np.random.default_rng(int(1000 * dt_rho))
        for _ in range(16):
            M, F, y0 = deep_frozen_system(rng)
            # dt_rho is dt times the field's scale, the infinity norm of M
            d, dt = len(M), dt_rho / np.linalg.norm(M, np.inf)
            # a run long enough for the whole table; two blocks and two rows
            advance = surface._linear_rk4_advancer(M, F)(dt, full_table_steps(d))
            rows = np.vstack([y0, advance(y0, 2 * surface._CHUNK_ROWS + 2).reshape(-1, d)])
            before, after = rows[:-1], rows[1:]
            f = lambda Y: Y @ M.T + F
            k1 = f(before)
            k2 = f(before + 0.5 * dt * k1)
            k3 = f(before + 0.5 * dt * k2)
            k4 = f(before + dt * k3)
            assert_rows_close(after, before + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 1e-13)

    @pytest.mark.parametrize("steps", [full_table_steps(6), 10_000])
    def test_long_runs_take_chunk_sized_tables(self, steps):
        params = make_params(n_I=3, n_E=1, tau_E=0.5, D_PCF=0.2, a=0.3)
        M, F, _ = surface._frozen_system(params, 0.5 * params.T_star, 0.1, np.zeros(6))
        P, Q = surface._power_table(*surface._linear_rk4_map(M, F, 0.01), steps)
        assert P.shape == (surface._CHUNK_ROWS * 6, 6) and Q.shape == (surface._CHUNK_ROWS, 6)
        _, Q = surface._power_table(*surface._linear_rk4_map(M, F, 0.01), full_table_steps(6) - 1)
        assert len(Q) == surface._CHUNK_ROWS - 1

    def test_zero_block_stays_zero_past_overflowing_powers(self):
        # |R| ~ 8e10: R^29 overflows, and 0 * inf would be NaN
        params = make_params(a=0.0)
        M, F, _ = surface._frozen_system(params, 1e6, 0.0, np.zeros(3))
        with np.errstate(all="ignore"):
            P, Q = surface._power_table(*surface._linear_rk4_map(M, F, 1.0), 700)
        assert 1 < len(Q) < surface._CHUNK_ROWS
        assert np.all(np.isfinite(P)) and np.all(np.isfinite(Q))
        traj = integrate_linearized(params, 1e6, np.zeros(3), (0.0, 700.0), 1.0)
        assert traj.states.shape == (701, 3)
        np.testing.assert_array_equal(traj.states, 0.0)

    def test_table_holds_no_more_numbers_than_the_states(self, monkeypatch):
        tables, power_table = [], surface._power_table

        def recorded(*args):
            tables.append(power_table(*args))
            return tables[-1]

        monkeypatch.setattr(surface, "_power_table", recorded)
        # a short run at d = 6 and one at the parser's cap n_E + n_I = 1000,
        # where a 64-row table would be 514 MB and even two rows miss the cache
        shallow = make_params(n_I=3, n_E=1, tau_E=0.5)
        deep = make_params(n_E=400, tau_E=400.0, n_I=600, tau_I=600.0)
        for params, steps, rows in ((shallow, 20, 3), (deep, 2006, 1)):
            d = params.state_dim - 1
            traj = integrate_linearized(params, 0.5 * params.T_star, np.ones(d), (0.0, steps * 0.01), 0.01)
            P, Q = tables.pop()
            assert len(Q) == rows
            assert P.size + Q.size <= traj.states.size

    @pytest.mark.parametrize("d", [6, 9, 32, 33, 62, 102, 182, 302])
    def test_table_stays_in_cache(self, d):
        # 64 rows through d = 32, fewer past it, one (the step map) from d = 182
        params = make_params(n_I=d - 2, tau_I=1.0)
        M, F, _ = surface._frozen_system(params, 0.5 * params.T_star, 0.0, np.zeros(d))
        P, Q = surface._power_table(*surface._linear_rk4_map(M, F, 0.01), 10_000)
        assert len(Q) == max(1, min(surface._CHUNK_ROWS, 2**16 // d**2))
        assert P.size <= max(2**16, d * d)

    @pytest.mark.parametrize("span", [(4.0, 0.0), (2.5, -1.3), (2.0, 2.0)])
    def test_backward_and_empty_spans_follow_the_step_map(self, span):
        # a backward run of this decaying system grows, by e^4.03 per unit at most
        params = make_params(n_I=3, n_E=1, tau_E=0.5, D_PCF=0.2, a=0.3)
        M, F, y0 = surface._frozen_system(params, 0.5 * params.T_star, 0.1, np.linspace(-1.0, 1.0, 6))
        h = 0.01
        advancer = surface._linear_rk4_advancer(M, F)
        times, states, step = surface._run(advancer, y0, span, h)
        ref_times, ref_states, ref_step = surface._run(stepwise_frozen(M, F), y0, span, h)
        np.testing.assert_array_equal(times, ref_times)
        assert step == ref_step
        assert_rows_close(states, ref_states, 1e-13)
        assert len(times) == (1 if span[0] == span[1] else round(abs(span[1] - span[0]) / h) + 1)

    def test_one_row_table_is_the_step_map_bit_for_bit(self):
        M, F, y0 = deep_frozen_system(np.random.default_rng(11))
        d, dt = len(M), 0.3 / np.linalg.norm(M, np.inf)
        R, c = surface._linear_rk4_map(M, F, dt)
        # a run of fewer steps than d takes a one-row table
        assert surface._power_table(R, c, d - 1)[0].shape == (d, d)
        advance = surface._linear_rk4_advancer(M, F)(dt, d - 1)
        rows, y = [], y0
        for _ in range(70):
            rows.append(y := R @ y + c)
        np.testing.assert_array_equal(advance(y0, 70), np.concatenate(rows))

    def test_identical_calls_are_bit_identical(self):
        params = make_params(n_I=3, n_E=2, tau_E=0.7, D_PCF=0.2, a=0.3)
        y0 = np.linspace(-1.0, 1.0, params.state_dim - 1)
        a = integrate_linearized(params, 1.7 * params.T_star, y0, (0.0, 5.0), 0.01, psi=0.1)
        b = integrate_linearized(params, 1.7 * params.T_star, y0, (0.0, 5.0), 0.01, psi=0.1)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.times, b.times)


class TestRunBlowUp:
    """A float RK4 run stops at the first step whose state is not finite, and so
    does each run of a block of states (one state per row), which runs them
    in index order."""

    @staticmethod
    def poisoned(bad, after_calls):
        calls = {"n": 0}

        def f(y):
            calls["n"] += 1
            out = [1.0] * len(y)
            if calls["n"] > after_calls:
                out[1] = bad
            return out

        return f

    @pytest.mark.parametrize("good_steps", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [False, True])
    def test_first_nonfinite_step_is_reported(self, block, bad, good_steps):
        y0 = np.zeros(3)
        with pytest.raises(BlowUpError) as err:
            if block:
                # state 0 takes its 4 steps, 16 field calls; state 1 then fails
                f = self.poisoned(bad, 16 + 4 * good_steps)
                surface._rk4_each(float_rk4(f), np.stack([y0 - 1.0, y0, y0 + 1.0]), (0.0, 1.0), 0.25)
            else:
                f = self.poisoned(bad, 4 * good_steps)  # 4 field calls per step
                rk4_run(f, y0, (0.0, 1.0), 0.25)
        exc = err.value
        assert exc.where == ("canonical column i=1" if block else "")
        # the field is 1 until it is poisoned, so each good step adds 0.25
        np.testing.assert_array_equal(exc.times, 0.25 * np.arange(good_steps + 1))
        np.testing.assert_array_equal(exc.states, [y0 + 0.25 * k for k in range(good_steps + 1)])

    def test_each_large_component_is_tested_past_a_large_sum(self):
        # four components of 0.4e12 sum past the limit while each is within it
        f = lambda y: [0.4e12] * len(y)
        times, states, _ = rk4_run(f, np.zeros(4), (0.0, 2.0), 1.0)
        assert states[-1].tolist() == [0.8e12] * 4
        with pytest.raises(BlowUpError) as err:
            rk4_run(f, np.zeros(4), (0.0, 3.0), 1.0)
        assert err.value.times.size == 3


class TestChunkedBlowUp:
    """_run steps a chunk of rows before it tests them; every run must end
    exactly where a test after each step ends it, on the float path, on each
    state of a block and on a frozen-T run. The field is LAM * y, so every
    state grows by RK4's factor R = 1 + z + z^2/2 + z^3/6 + z^4/24,
    z = LAM * DT, per step, and the largest component sets the row that
    fails. Float and block rows equal the per-step rows bit for bit; a
    frozen-T run takes its rows from a table of step-map powers, so its
    rows equal the per-step map's up to rounding."""

    LAM, DT = 18.0, 0.01
    Z = LAM * DT
    R = 1 + Z + Z**2 / 2 + Z**3 / 6 + Z**4 / 24
    # the block's state that fails first in index order
    FIRST = 5

    @classmethod
    def field(cls, y):
        return [cls.LAM * v for v in y]

    @classmethod
    def run(cls, kind, y0, n, dt):
        span = (0.0, n * dt)
        if kind == "float":
            return rk4_run(cls.field, y0, span, dt)
        if kind == "block":
            return surface._rk4_each(float_rk4(cls.field), y0, span, dt)
        advancer = surface._linear_rk4_advancer(cls.LAM * np.eye(len(y0)), np.zeros(len(y0)))
        return surface._run(advancer, y0, span, dt)

    @classmethod
    def reference(cls, kind, y0, n, dt):
        """(times, states) of one state y0 up to the row before the first
        that fails, taking one step at a time and testing every row."""
        if kind in ("float", "block"):
            step = _rk4_float_step(cls.field, dt)
            y0 = y0.tolist()
        else:
            step = frozen_step(cls.LAM * np.eye(len(y0)), np.zeros(len(y0)), dt)
        rows = [y0]
        for _ in range(n):
            y = step(rows[-1])
            if not np.abs(np.asarray(y)).max() <= surface.BLOWUP_LIMIT:
                break
            rows.append(y)
        return dt * np.arange(len(rows)), np.array(rows, dtype=float)

    @staticmethod
    def assert_rows(kind, states, ref_states):
        if kind == "frozen":
            np.testing.assert_allclose(states, ref_states, rtol=1e-13, atol=0.0)
        else:
            np.testing.assert_array_equal(states, ref_states)

    @classmethod
    def start(cls, kind, first_bad_row):
        """A state that crosses BLOWUP_LIMIT between rows first_bad_row - 1
        and first_bad_row, or a block of 9 of which it is state FIRST: the
        states before it are 1e12 times smaller and last past row 130, the
        ones after it smaller by 0.2 to 0.9."""
        top = surface.BLOWUP_LIMIT / cls.R ** (first_bad_row - 0.5)
        y = np.array([0.3, -1.0, 0.2])
        if kind == "block":
            block = np.outer(np.linspace(0.2, 0.9, 9), y)
            block[: cls.FIRST] *= 1e-12
            block[cls.FIRST] = y
            return top * block
        return top * y

    @pytest.mark.parametrize("first_bad_row", [1, 64, 65, 130])
    @pytest.mark.parametrize("kind", ["float", "block", "frozen"])
    def test_prefix_matches_per_step_test(self, kind, first_bad_row):
        # chunks are rows 1-64 and 65-128, then 129-130
        assert surface._CHUNK_ROWS == 64
        y0 = self.start(kind, first_bad_row)
        times, states = self.reference(kind, y0[self.FIRST] if kind == "block" else y0, 130, self.DT)
        assert len(states) == first_bad_row
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the steps past the failing row print nothing
            with pytest.raises(BlowUpError) as err:
                self.run(kind, y0, 130, self.DT)
        exc = err.value
        assert exc.where == (f"canonical column i={self.FIRST}" if kind == "block" else "")
        assert exc.times.size == first_bad_row
        assert exc.t_last == times[-1]
        np.testing.assert_array_equal(exc.times, times)
        self.assert_rows(kind, exc.states, states)

    @pytest.mark.parametrize("steps", [64, 65])
    @pytest.mark.parametrize("kind", ["float", "block", "frozen"])
    def test_whole_chunks_match_single_steps(self, kind, steps):
        # one chunk, and one chunk and a row, far from the limit
        y0 = self.start(kind, 1000)
        times, states, h = self.run(kind, y0, steps, self.DT)
        for state, start in zip(states, y0) if kind == "block" else [(states, y0)]:
            ref_times, ref_states = self.reference(kind, start, steps, self.DT)
            assert len(ref_states) == steps + 1
            self.assert_rows(kind, state, ref_states)
            np.testing.assert_allclose(times, ref_times, rtol=1e-15)
        assert h == self.DT


class TestSurfaceGrid:
    def test_edges_have_zero_mismatch(self):
        params = make_params()
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.2, 0.3, 0.1])
        grid = trace_surface(params, coeffs, s0, (0.0, 0.3), (0.0, 0.3), 0.1, 0.1)
        np.testing.assert_array_equal(grid.mismatch[0, :], 0.0)
        np.testing.assert_array_equal(grid.mismatch[:, 0], 0.0)
        assert grid.states.shape == (4, 4, 4)
        np.testing.assert_array_equal(grid.states[0, 0], s0.to_array())

    def test_trivial_x_direction_commutes_exactly(self):
        # with W = 0 and a = 0 the x field vanishes identically
        params, coeffs, _ = reduction_setup()
        s0 = StateVector.for_params(params, [1.0, 0.5, 0.5, 0.0])
        grid = trace_surface(params, coeffs, s0, (0.0, 0.4), (0.0, 0.4), 0.1, 0.1)
        np.testing.assert_array_equal(grid.mismatch, 0.0)
        for i in range(1, grid.x_nodes.size):
            np.testing.assert_array_equal(grid.states[i], grid.states[0])

    def test_mismatch_shrinks_with_the_lattice(self):
        params, coeffs, s0 = reduction_setup()
        h = 0.05
        a = trace_surface(params, coeffs, s0, (0.0, 8 * h), (0.0, 8 * h), h, h)
        b = trace_surface(params, coeffs, s0, (0.0, 4 * h), (0.0, 4 * h), h / 2, h / 2)
        ratio = a.mismatch[-1, -1] / b.mismatch[-1, -1]
        assert 3.0 <= ratio <= 5.0

    def test_blow_up_names_the_node(self):
        params = make_params(beta=5.0, p=8.0, c=0.2)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [50.0, 30.0, 40.0, 1.0])
        with pytest.raises(BlowUpError) as err:
            trace_surface(params, coeffs, s0, (0.0, 2.0), (0.0, 60.0), 0.5, 0.5)
        assert "column" in err.value.where or "fiber" in err.value.where or "row" in err.value.where


def deep_setup(n_I, n_E):
    """A surface with a != 0, psi != 0 and unequal compartments, so that the
    order of every sum shows in the last bit."""
    params = make_params(beta=1.3, p=1.7, c=0.9, n_I=n_I, tau_I=1.1, n_E=n_E,
                         tau_E=0.7 if n_E else None, D_PCF=0.2, v_a=0.4, a=0.3)
    rng = np.random.default_rng([n_I, n_E])
    k = n_E + n_I
    coeffs = FieldCoefficients(r=tuple(rng.uniform(0.5, 2.0, k + 1)) + (1.0,), psi=0.05)
    s0 = StateVector.for_params(params, [1.4, *rng.uniform(0.0, 0.01, k), 0.02, 0.01])
    return params, coeffs, s0


def test_surface_peak_memory_is_two_state_arrays(monkeypatch):
    # The columns fill one preallocated array, the x-fibers are tested for
    # blow-up a bounded block at a time and the mismatch is taken in place on
    # the opposite order, so a 17 x 2001 surface holds the states, the
    # opposite order and temporaries far smaller than either at once. A
    # stand-in run kernel that repeats its start state keeps tracemalloc from
    # tracing every float of the real one, which would take ~30 s; the arrays
    # are the same. Its rows are flat, k copies of the start's floats.
    params, coeffs, s0 = deep_setup(6, 2)
    monkeypatch.setitem(dynamics._RK4_KERNELS, (2, 6), lambda params, coeffs, dt, y, k: list(y) * k)
    tracemalloc.start()
    try:
        grid = trace_surface(params, coeffs, s0, (0.0, 0.8), (0.0, 40.0), 0.05, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.states.shape == (17, 2001, 11)
    assert peak <= 2.3 * grid.states.nbytes


def test_float_path_stays_on_python_floats():
    # deep_setup draws r from numpy; here the rates are numpy scalars too,
    # and the parameter objects still hand the fields Python floats
    params, coeffs, s0 = deep_setup(6, 2)
    values = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    params = ModelParams(**{k: np.float64(v) if type(v) is float else v for k, v in values.items()})
    coeffs = FieldCoefficients(r=coeffs.r, psi=np.float64(coeffs.psi))
    y = s0.to_array().tolist()
    assert all(type(v) is float for v in time_rhs(params, coeffs, y))


@pytest.mark.parametrize("n_E", [0, 2])
@pytest.mark.parametrize("n_I", [2, 12, 40])
class TestBatchedRuns:
    """time_rhs takes a block of states, and trace_surface runs every column
    through the shape's RK4 kernel and every row as one closed-form block;
    each must equal its single-state result bit for bit."""

    def test_block_fields_match_columns(self, n_I, n_E):
        params, coeffs, _ = deep_setup(n_I, n_E)
        block = np.random.default_rng(n_I).uniform(-1.0, 1.0, (params.state_dim, 7))
        out = time_rhs(params, coeffs, block)
        for m in range(block.shape[1]):
            column = time_rhs(params, coeffs, block[:, m].copy())
            floats = time_rhs(params, coeffs, block[:, m].tolist())
            assert type(floats) is list
            np.testing.assert_array_equal(out[:, m], column)
            np.testing.assert_array_equal(np.array(floats), column)

    def test_infected_cells_add_in_index_order(self, n_I, n_E):
        params, coeffs, _ = deep_setup(n_I, n_E)
        y = np.random.default_rng(n_I).uniform(-1.0, 1.0, params.state_dim)
        I_total = 0.0
        for v in y[1 + n_E : 1 + n_E + n_I].tolist():
            I_total += v
        V, W = y[-2], y[-1]
        expected = params.p * I_total - params.c * V + params.D_PCF * params.a + params.v_a * W
        assert time_rhs(params, coeffs, y.tolist())[-2] == expected
        assert time_rhs(params, coeffs, y)[-2] == expected

    def test_columns_and_rows_match_single_runs(self, n_I, n_E):
        params, coeffs, s0 = deep_setup(n_I, n_E)
        x_span, t_span, h_x, h_t = (0.0, 0.3), (0.0, 1.0), 0.05, 0.02
        grid = trace_surface(params, coeffs, s0, x_span, t_span, h_x, h_t)
        for i in range(grid.x_nodes.size):
            bottom = StateVector.for_params(params, grid.states[i, 0])
            column = integrate_time(params, coeffs, bottom, t_span, h_t)
            np.testing.assert_array_equal(column.times, grid.t_nodes)
            np.testing.assert_array_equal(column.states, grid.states[i])
        for j in range(grid.t_nodes.size):
            nodes, row = x_fiber(params, coeffs, grid.states[0, j], x_span, h_x)
            np.testing.assert_array_equal(nodes, grid.x_nodes)
            gap = np.max(np.abs(grid.states[:, j] - row), axis=1)
            np.testing.assert_array_equal(gap, grid.mismatch[:, j])


def exact_x_flow(params, coeffs, y0, s):
    """The x-flow from the state y0 over the offset s, in exact rational
    arithmetic from the float inputs."""
    a, W0, s = Fraction(params.a), Fraction(float(y0[-1])), Fraction(float(s))
    moved = W0 * s + a * s * s / 2
    col = [-Fraction(coeffs.r[0])] + [Fraction(r) for r in coeffs.r[1:]]
    return [Fraction(float(v)) + c * moved for v, c in zip(y0[:-1], col)] + [W0 + a * s]


@pytest.mark.parametrize("a", [0.3, -0.45])
@pytest.mark.parametrize("n_I,n_E", [(2, 0), (12, 2)])
def test_x_fibers_are_the_exact_x_flow(n_I, n_E, a):
    params, coeffs, s0 = deep_setup(n_I, n_E)
    params = dataclasses.replace(params, a=a)  # a < 0 turns W round
    # 0.33 is not a multiple of 0.05: a run takes 7 steps of 0.33 / 7
    x_span, h_x = (0.0, 0.33), 0.05
    grid = trace_surface(params, coeffs, s0, x_span, (0.0, 0.5), h_x, 0.05)
    run = integrate_time(params, coeffs, s0, x_span, h_x)
    np.testing.assert_array_equal(grid.x_nodes, run.times)
    assert grid.x_nodes.size == 8 and grid.h_x == run.h == 0.33 / 7
    # from x = 0 the nodes are the flow's offsets; row j starts at (0, t_j)
    rows = surface._x_flow(params, coeffs, grid.states[0], grid.x_nodes)
    np.testing.assert_array_equal(rows[:, 0], grid.states[:, 0])  # opposite row 0 is the corner fiber
    np.testing.assert_array_equal(np.max(np.abs(grid.states - rows), axis=2), grid.mismatch)
    for j in range(grid.t_nodes.size):
        for k, x in enumerate(grid.x_nodes):
            exact = exact_x_flow(params, coeffs, grid.states[0, j], x)
            ulp = Fraction(float(np.spacing(float(max(abs(v) for v in exact)))))
            assert all(abs(Fraction(float(v)) - e) <= 2 * ulp for v, e in zip(rows[k, j], exact)), (j, k)
    np.testing.assert_array_equal(grid.mismatch[0, :], 0.0)
    np.testing.assert_array_equal(grid.mismatch[:, 0], 0.0)


def counted_field_calls(monkeypatch):
    """Counts of the field calls trace_surface and integrate_time make, by
    the module-level names where tracers wrap the fields."""
    assert surface.time_rhs is dynamics.time_rhs and surface.x_rhs is dynamics.x_rhs
    calls = {"t": 0, "x": 0}

    def counted(key, rhs):
        def wrapper(*args):
            calls[key] += 1
            return rhs(*args)
        return wrapper

    monkeypatch.setattr(surface, "time_rhs", counted("t", dynamics.time_rhs))
    monkeypatch.setattr(surface, "x_rhs", counted("x", dynamics.x_rhs))
    return calls


def counted_kernels(monkeypatch):
    """(builds, calls): the shapes whose RK4 run kernel is built, and the
    row count k of every kernel call, from an empty kernel cache."""
    monkeypatch.setattr(dynamics, "_RK4_KERNELS", {})
    builds, calls = [], []
    build = dynamics._rk4_kernel

    def counted_build(n_E, n_I, field_call=False):
        if field_call:  # a single trajectory's step kernel
            return build(n_E, n_I, field_call)
        builds.append((n_E, n_I))
        kernel = build(n_E, n_I)

        def counted(params, coeffs, dt, y, k):
            calls.append(k)
            return kernel(params, coeffs, dt, y, k)

        dynamics._RK4_KERNELS[n_E, n_I] = counted
        return counted

    monkeypatch.setattr(dynamics, "_rk4_kernel", counted_build)
    return builds, calls


def test_surface_builds_one_run_kernel_per_shape(monkeypatch):
    fields = counted_field_calls(monkeypatch)
    builds, calls = counted_kernels(monkeypatch)
    params, coeffs, s0 = deep_setup(4, 0)
    grid = trace_surface(params, coeffs, s0, (0.0, 0.4), (0.0, 4.0), 0.05, 0.02)
    assert grid.states.shape[:2] == (9, 201)
    other = dataclasses.replace(params, beta=0.6, tau_I=2.0)
    trace_surface(other, coeffs, s0, (0.0, 0.4), (0.0, 4.0), 0.05, 0.02)
    # the columns run in the kernel; the corner fiber and the rows are closed form
    assert fields == {"t": 0, "x": 0}
    assert builds == [(0, 4)]
    # 200 steps are 4 chunks of at most _CHUNK_ROWS, for each of 9 columns, twice
    assert calls == [64, 64, 64, 8] * 9 * 2


def test_surface_makes_one_kernel_call_per_column_chunk(monkeypatch):
    fields = counted_field_calls(monkeypatch)
    _, calls = counted_kernels(monkeypatch)
    params, coeffs, s0 = deep_setup(4, 0)
    grid = trace_surface(params, coeffs, s0, (0.0, 0.1), (0.0, 4.0), 0.05, 0.02)
    assert grid.states.shape[:2] == (3, 201)
    assert fields == {"t": 0, "x": 0}
    assert len(calls) == 3 * math.ceil(200 / surface._CHUNK_ROWS)


@pytest.mark.parametrize("n_E", [0, 2])
@pytest.mark.parametrize("width", [1, 8, 9])
def test_each_width_matches_single_runs(monkeypatch, width, n_E):
    # every width runs its states one at a time through the shape's kernel
    params, coeffs, s0 = deep_setup(4, n_E)
    rng = np.random.default_rng([width, n_E])
    starts = s0.to_array() * rng.uniform(0.5, 1.5, (width, params.state_dim))
    _, calls = counted_kernels(monkeypatch)
    times, states, h = surface._rk4_each(dynamics._rk4_advancer(params, coeffs), starts, (0.0, 2.6), 0.02)
    assert states.shape == (width, 131, params.state_dim)
    # 130 steps: two whole chunks and 2 rows per state
    assert calls == [64, 64, 2] * width
    for i, start in enumerate(starts):
        single = integrate_time(params, coeffs, StateVector.for_params(params, start), (0.0, 2.6), 0.02)
        np.testing.assert_array_equal(single.times, times)
        np.testing.assert_array_equal(single.states, states[i])
        assert single.h == h


@pytest.mark.parametrize("n_E,n_I,h_t", [(0, 1, 0.02), (2, 1, 0.02), (2, 998, 0.002)])
def test_kernel_columns_equal_integrate_time(n_E, n_I, h_t):
    # one I compartment, and the config parser's cap n_E + n_I = 1000
    params, coeffs, s0 = deep_setup(n_I, n_E)
    t_span = (0.0, 0.5) if n_I == 1 else (0.0, 5 * h_t)
    grid = trace_surface(params, coeffs, s0, (0.0, 0.05), t_span, 0.05, h_t)
    assert grid.x_nodes.size == 2
    for i in range(grid.x_nodes.size):
        bottom = StateVector.for_params(params, grid.states[i, 0])
        column = integrate_time(params, coeffs, bottom, t_span, h_t)
        np.testing.assert_array_equal(column.times, grid.t_nodes)
        np.testing.assert_array_equal(column.states, grid.states[i])


def rows_or_prefix(run):
    """(times, states, step) of the run, or (times, states, where) of the
    prefix its BlowUpError carries."""
    try:
        traj = run()
        return traj.times, traj.states, traj.h
    except BlowUpError as e:
        return e.times, e.states, e.where


@pytest.mark.parametrize("n_E,n_I", [(n_E, n_I) for n_E in range(4) for n_I in range(1, 7)] + [(0, 200), (3, 200)])
def test_integrate_time_is_the_reference_rk4(n_E, n_I):
    # forward and backward spans, and a start 20 times larger whose backward
    # run blows up (after 54 to 206 rows, so inside every chunk position)
    params, coeffs, s0 = deep_setup(n_I, n_E)
    h = 0.01 if n_I < 200 else 0.001
    f = lambda y: time_rhs(params, coeffs, y)
    outcomes = []
    for span, scale in (((0.0, 200 * h), 1.0), ((50 * h, -150 * h), 1.0), ((0.0, -300 * h), 20.0)):
        y0 = scale * s0.to_array()
        got = rows_or_prefix(lambda: integrate_time(params, coeffs, StateVector.for_params(params, y0), span, h))
        ref = rows_or_prefix(lambda: Trajectory(*rk4_run(f, y0, span, h)))
        assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        assert got[2] == ref[2]
        outcomes.append(len(got[0]))
    assert outcomes[0] == 201 and outcomes[2] < 301


@pytest.mark.parametrize("n_E,n_I", [(0, 1), (2, 6), (3, 200)])
def test_step_and_run_kernels_give_the_same_rows(n_E, n_I):
    params, coeffs, s0 = deep_setup(n_I, n_E)
    y = s0.to_array().tolist()
    for dt in (0.001, -0.001):
        run = dynamics._rk4_advancer(params, coeffs)(dt, 130)(y, 130)
        step = dynamics._rk4_advancer(params, coeffs, time_rhs)(dt, 130)(y, 130)
        assert np.array(run).tobytes() == np.array(step).tobytes()


@pytest.mark.parametrize("n_E,n_I,span,steps", [(0, 1, (0.0, 1.3), 130), (2, 6, (0.0, 0.64), 64),
                                                 (1, 3, (1.0, -0.3), 130), (3, 200, (0.0, 0.05), 5)])
def test_integrate_time_calls_time_rhs_once_per_stage(monkeypatch, n_E, n_I, span, steps):
    # every stage is one call of surface.time_rhs, where tracers wrap the field
    fields = counted_field_calls(monkeypatch)
    params, coeffs, s0 = deep_setup(n_I, n_E)
    traj = integrate_time(params, coeffs, s0, span, 0.01)
    assert traj.times.size == steps + 1
    assert fields == {"t": 4 * steps, "x": 0}


class TestSurfaceBlowUp:
    """A later column or row can blow up first; the report must name the
    lowest-index one that fails, as it would fail on its own."""

    @staticmethod
    def single_failure(run):
        with pytest.raises(BlowUpError) as err:
            run()
        return err.value

    def test_reports_first_column_not_first_to_fail(self):
        params = make_params(beta=1.0, p=2.0, c=0.5)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.0, -1.0, -1.0])
        _, fiber = x_fiber(params, coeffs, s0.to_array(), (0.0, 1.0), 0.5)
        alone = [
            self.single_failure(lambda: integrate_time(
                params, coeffs, StateVector.for_params(params, y), (0.0, 10.0), 0.05))
            for y in fiber[:2]
        ]
        assert alone[1].t_last < alone[0].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, (0.0, 1.0), (0.0, 10.0), 0.5, 0.05))
        assert exc.where == "canonical column i=0"
        assert exc.t_last == alone[0].t_last
        np.testing.assert_array_equal(exc.times, alone[0].times)
        np.testing.assert_array_equal(exc.states, alone[0].states)

    def test_reports_first_column_of_a_wide_block(self):
        # of 9 columns, column 8 fails first
        params = make_params(beta=1.0, p=2.0, c=0.5)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.0, -1.0, -1.0])
        _, fiber = x_fiber(params, coeffs, s0.to_array(), (0.0, 4.0), 0.5)
        assert len(fiber) == 9
        alone = [
            self.single_failure(lambda: integrate_time(
                params, coeffs, StateVector.for_params(params, y), (0.0, 10.0), 0.05))
            for y in fiber
        ]
        assert min(e.t_last for e in alone) < alone[0].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, (0.0, 4.0), (0.0, 10.0), 0.5, 0.05))
        assert exc.where == "canonical column i=0"
        assert exc.t_last == alone[0].t_last
        np.testing.assert_array_equal(exc.times, alone[0].times)
        np.testing.assert_array_equal(exc.states, alone[0].states)

    def test_later_column_fails_inside_a_chunk_as_alone(self):
        # column 0 runs through; column 1 fails at row 77, inside the second chunk
        params = make_params(beta=1.0, p=2.0, c=0.5)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.0, 0.1, -0.2])
        _, fiber = x_fiber(params, coeffs, s0.to_array(), (0.0, 2.0), 0.5)
        run = lambda y: integrate_time(params, coeffs, StateVector.for_params(params, y), (0.0, 10.0), 0.05)
        assert run(fiber[0]).states.shape == (201, 4)
        alone = self.single_failure(lambda: run(fiber[1]))
        assert alone.times.size == 77 and 77 % surface._CHUNK_ROWS not in (0, 1)
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, (0.0, 2.0), (0.0, 10.0), 0.5, 0.05))
        assert exc.where == "canonical column i=1"
        assert exc.t_last == alone.t_last
        np.testing.assert_array_equal(exc.times, alone.times)
        np.testing.assert_array_equal(exc.states, alone.states)

    def test_reports_first_row_not_first_to_fail(self):
        # the T slot moves by -1e5 * W along x while W grows by 1e6 per unit t
        params = make_params(beta=0.0, n_I=2, v_a=0.1)
        coeffs = FieldCoefficients(r=(1e5, 1.0, 1.0, 1.0), psi=1e6)
        s0 = StateVector.for_params(params, [1.0, 0.0, 0.0, 0.0, 0.0])
        grid_args = ((0.0, 2.0), (0.0, 10.0), 0.1, 0.5)
        left = integrate_time(params, coeffs, s0, grid_args[1], grid_args[3])
        failures = {}
        for j, y in enumerate(left.states):
            failure = fiber_failure(params, coeffs, y, grid_args[0], grid_args[2])
            if failure is not None:
                failures[j] = failure
        first = min(failures)
        assert failures[max(failures)].t_last < failures[first].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, *grid_args))
        assert exc.where == f"opposite row j={first}"
        assert exc.t_last == failures[first].t_last
        np.testing.assert_array_equal(exc.states, failures[first].states)

    def test_first_failing_row_past_one_fiber_block(self):
        # the setup above on a finer t grid: rows 251.. fail, in the second
        # block of rows that _check_x_fibers tests at once
        params = make_params(beta=0.0, n_I=2, v_a=0.1)
        coeffs = FieldCoefficients(r=(1e5, 1.0, 1.0, 1.0), psi=1e6)
        s0 = StateVector.for_params(params, [1.0, 0.0, 0.0, 0.0, 0.0])
        grid_args = ((0.0, 2.0), (0.0, 10.0), 0.1, 0.02)
        left = integrate_time(params, coeffs, s0, grid_args[1], grid_args[3])
        first = next(j for j, y in enumerate(left.states) if fiber_failure(params, coeffs, y, grid_args[0], grid_args[2]))
        assert surface._FIBER_BLOCK < first < 2 * surface._FIBER_BLOCK
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, *grid_args))
        assert exc.where == f"opposite row j={first}"
        want = fiber_failure(params, coeffs, left.states[first], grid_args[0], grid_args[2])
        assert exc.t_last == want.t_last
        np.testing.assert_array_equal(exc.states, want.states)


class TestLieBracket:
    def test_reduction_bracket_is_in_plane(self):
        params, coeffs, s0 = reduction_setup()
        bracket, defect = lie_bracket(params, coeffs, s0)
        np.testing.assert_allclose(bracket, [0.0, -0.5, -0.5, 0.0], atol=1e-13)
        assert defect < 1e-12

    def test_generic_bracket_leaves_the_plane(self):
        params = make_params(beta=2.0, v_a=0.6, a=0.3)
        coeffs = FieldCoefficients.default_for(params)
        s = StateVector.for_params(params, [0.9, 0.4, 1.1, 0.6])
        _, defect = lie_bracket(params, coeffs, s)
        assert defect > 1e-6

    @staticmethod
    def central_difference(field, y, direction):
        """(field(y + t d) - field(y - t d)) / 2t: the directional derivative,
        exact up to rounding for a field at most quadratic in the state. The
        step t moves y by its own size, which keeps the rounding small."""
        t = np.max(np.abs(y)) / np.max(np.abs(direction))
        return (field(y + t * direction) - field(y - t * direction)) / (2.0 * t)

    @pytest.mark.parametrize("n_E", [0, 2])
    @pytest.mark.parametrize("n_I", [1, 5, 40])
    def test_matches_directional_differences(self, n_E, n_I):
        rng = np.random.default_rng([n_E, n_I])
        for _ in range(25):
            params, _ = sample_params(rng, n_E_choices=(n_E,), n_I_choices=(n_I,))
            dim = params.state_dim
            r = tuple(loguniform(rng, 0.1, 10.0) for _ in range(dim - 2)) + (1.0,)
            coeffs = FieldCoefficients(r=r, psi=float(rng.choice([-1.0, 1.0]) * loguniform(rng, 0.01, 1.0)))
            y = 10.0 ** rng.uniform(-2.0, 2.0, size=dim)  # four decades
            y[-1] *= rng.choice([-1.0, 1.0])
            bracket, _ = lie_bracket(params, coeffs, StateVector.for_params(params, y))
            ft = lambda z: time_rhs(params, coeffs, z)
            fx = lambda z: x_rhs(params, coeffs, z)
            DY_X = self.central_difference(ft, y, fx(y))
            DX_Y = self.central_difference(fx, y, ft(y))
            scale = max(np.max(np.abs(DY_X)), np.max(np.abs(DX_Y)))
            assert np.max(np.abs(bracket - (DY_X - DX_Y))) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(12))
    def test_far_corner_mismatch_is_the_bracket_to_leading_order(self, seed):
        # The two flow orders part by x*t*[X, Y](s0) + O(L^3) on a square of
        # side L, so at the far corner mismatch / (L^2 |[X, Y](s0)|_inf) is
        # 1 + O(L); 12 L bounds the distance on these configs with room.
        rng = np.random.default_rng([5, seed])
        n_E, n_I = int(rng.integers(0, 3)), int(rng.integers(1, 7))
        params = make_params(
            beta=loguniform(rng, 0.3, 3.0), p=loguniform(rng, 0.3, 3.0), c=loguniform(rng, 0.3, 3.0),
            n_I=n_I, tau_I=loguniform(rng, 0.5, 3.0), n_E=n_E, tau_E=loguniform(rng, 0.5, 3.0) if n_E else None,
            D_PCF=loguniform(rng, 0.05, 0.5), v_a=loguniform(rng, 0.1, 1.0), a=float(rng.uniform(0.05, 0.5)),
        )
        k = n_E + n_I
        coeffs = FieldCoefficients(r=tuple(rng.uniform(0.5, 2.0, k + 1)) + (1.0,), psi=float(rng.uniform(0.01, 0.1)))
        s0 = StateVector.for_params(
            params, [rng.uniform(0.5, 1.5), *rng.uniform(0.0, 0.1, k), rng.uniform(0.01, 0.1), rng.uniform(0.01, 0.1)]
        )
        bracket = np.max(np.abs(lie_bracket(params, coeffs, s0)[0]))
        for L in (0.02, 0.01):
            grid = trace_surface(params, coeffs, s0, L, (0.0, L), L / 8, L / 8)
            ratio = grid.mismatch[-1, -1] / (L * L * bracket)
            assert abs(ratio - 1.0) <= 12.0 * L


class TestAsymptotics:
    @staticmethod
    def synthetic(rate, t_end=20.0, n=400, floor=0.0):
        t = np.linspace(0.0, t_end, n)
        states = np.column_stack([np.exp(rate * t) + floor, 0.5 * np.exp(rate * t) + 2.0])
        return Trajectory(times=t, states=states, h=t[1] - t[0])

    def test_decay(self):
        verdict = asymptotics(self.synthetic(-0.8), window=12.0)
        assert verdict.kind == "Converging"
        # the empirical anchor carries a small tail bias, so 1% here
        assert verdict.rate == pytest.approx(-0.8, rel=0.01)
        assert verdict.r_squared >= 0.99

    def test_growth(self):
        verdict = asymptotics(self.synthetic(+0.6, t_end=30.0), window=30.0)
        assert verdict.kind == "Diverging"
        assert verdict.rate == pytest.approx(0.6, rel=0.01)

    def test_constant(self):
        t = np.linspace(0.0, 5.0, 100)
        states = np.column_stack([np.full_like(t, 1.5), np.full_like(t, -2.0)])
        verdict = asymptotics(Trajectory(times=t, states=states, h=t[1] - t[0]), window=4.0)
        assert verdict.kind == "Converging"
        assert verdict.rate == 0.0

    def test_window_validation(self):
        traj = self.synthetic(-0.5)
        with pytest.raises(ValueError):
            asymptotics(traj, window=25.0)
        with pytest.raises(ValueError):
            asymptotics(traj, window=0.01)

    def test_json_keys(self):
        # the CLI footer prints vars(verdict): its keys in field order
        doc = vars(asymptotics(self.synthetic(-0.8), window=12.0))
        assert list(doc) == ["kind", "rate", "window", "r_squared", "n_points"]
