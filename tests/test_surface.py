import numpy as np
import pytest

from flustab import dynamics, surface
from flustab.charpoly import coefficient_matrix
from flustab.dynamics import time_rhs, x_rhs
from flustab.model import FieldCoefficients, ModelParams, StateVector
from flustab.surface import (
    BlowUpError,
    Trajectory,
    asymptotics,
    integrate_linearized,
    integrate_time,
    integrate_x,
    lie_bracket,
    linearized_time_field,
    trace_surface,
)


def make_params(**overrides):
    base = dict(beta=1.0, p=1.0, c=2.0, n_I=1, tau_I=1.0, n_E=0, tau_E=None,
                D_PCF=0.0, v_a=0.2, a=0.0)
    base.update(overrides)
    return ModelParams(**base)


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
        ref = integrate_time(params, coeffs, s0, (0.0, 2.0), 0.0125).final
        e1 = np.max(np.abs(integrate_time(params, coeffs, s0, (0.0, 2.0), 0.1).final - ref))
        e2 = np.max(np.abs(integrate_time(params, coeffs, s0, (0.0, 2.0), 0.05).final - ref))
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
        traj = integrate_x(params, coeffs, s0, (0.0, 1.0), 0.5)
        # W grows linearly at rate a; T falls at rate r_0 * W; V rises at rate W
        assert traj.final[-1] == pytest.approx(0.5 + 0.7)
        assert traj.final[0] < 1.0 and traj.final[2] > 0.0


class TestLinearized:
    def test_field_matches_matrix_action(self):
        params = make_params(D_PCF=0.5, a=1.2, v_a=0.3)
        A = coefficient_matrix(params, 0.8)
        s = np.array([0.4, 1.1, -0.2])
        out = linearized_time_field(params, 0.8, s, psi=0.25)
        expected = A.entries @ s
        expected[-2] += 0.5 * 1.2
        expected[-1] += 0.25
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_decay_rate_matches_dominant_mode(self):
        params = make_params(n_I=2, tau_I=1.0, p=2.0, c=3.0, v_a=0.5)
        T = 0.5 * params.T_star
        eigs = np.linalg.eigvals(coefficient_matrix(params, T).entries)
        nonzero = eigs[np.abs(eigs) > 1e-9]
        lam = float(np.max(nonzero.real))
        traj = integrate_linearized(params, T, np.ones(4), (0.0, 22.0 / abs(lam)), 0.02)
        verdict = asymptotics(traj, 10.0 / abs(lam))
        assert verdict.kind == "Converging"
        assert verdict.rate == pytest.approx(lam, rel=0.05)


@pytest.mark.parametrize("regime", [0.5, 2.0])
@pytest.mark.parametrize("n_I,n_E", [(1, 0), (3, 2), (12, 1), (40, 0)])
def test_linearized_steps_are_rk4_steps(n_I, n_E, regime):
    """The exact step map R y + dt S F gives one classical RK4 step of the
    frozen-T field, up to rounding, on both sides of T*."""
    params = make_params(beta=1.3, p=1.7, c=0.9, n_I=n_I, tau_I=1.1, n_E=n_E,
                         tau_E=0.7 if n_E else None, D_PCF=0.2, v_a=0.4, a=0.3)
    T = regime * params.T_star
    y0 = np.random.default_rng(n_I).uniform(0.0, 1.0, params.state_dim - 1)
    traj = integrate_linearized(params, T, y0, (0.0, 4.0), 0.02, psi=0.05)
    f = lambda y: linearized_time_field(params, T, y, psi=0.05)
    dt = traj.h
    for before, after in zip(traj.states[:-1], traj.states[1:]):
        k1 = f(before)
        k2 = f(before + 0.5 * dt * k1)
        k3 = f(before + 0.5 * dt * k2)
        k4 = f(before + dt * k3)
        step = before + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        scale = max(np.max(np.abs(before)), np.max(np.abs(after)))
        assert np.max(np.abs(after - step)) <= 1e-13 * scale


class TestRunBlowUp:
    """_rk4_run stops at the first step whose state is not finite, in both
    the float form (one state) and the block form (one state per column)."""

    @staticmethod
    def poisoned(bad, after_calls):
        calls = {"n": 0}

        def f(y):
            calls["n"] += 1
            if isinstance(y, list):
                out = [1.0] * len(y)
                if calls["n"] > after_calls:
                    out[1] = bad
                return out
            out = np.ones_like(y)
            if calls["n"] > after_calls:
                out[1, -1] = bad
            return out

        return f

    @pytest.mark.parametrize("good_steps", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", [False, True])
    def test_first_nonfinite_step_is_reported(self, block, bad, good_steps):
        y0 = np.zeros((3, 4)) if block else np.zeros(3)
        f = self.poisoned(bad, 4 * good_steps)  # 4 field calls per step
        with pytest.raises(BlowUpError) as err:
            surface._rk4_run(f, y0, (0.0, 1.0), 0.25, where="here")
        exc = err.value
        assert exc.where == "here"
        # the field is 1 until it is poisoned, so each good step adds 0.25
        np.testing.assert_array_equal(exc.times, 0.25 * np.arange(good_steps + 1))
        np.testing.assert_array_equal(exc.states, [y0 + 0.25 * k for k in range(good_steps + 1)])

    def test_each_large_component_is_tested_past_a_large_sum(self):
        # four components of 0.4e12 sum past the limit while each is within it
        f = lambda y: [0.4e12] * len(y) if isinstance(y, list) else np.full_like(y, 0.4e12)
        times, states, _ = surface._rk4_run(f, np.zeros(4), (0.0, 2.0), 1.0)
        assert states[-1].tolist() == [0.8e12] * 4
        with pytest.raises(BlowUpError) as err:
            surface._rk4_run(f, np.zeros(4), (0.0, 3.0), 1.0)
        assert err.value.times.size == 3


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


def test_float_path_stays_on_python_floats():
    # deep_setup draws r from numpy; here the rates are numpy scalars too,
    # and the parameter objects still hand the fields Python floats
    params, coeffs, s0 = deep_setup(6, 2)
    params = ModelParams(**{k: np.float64(v) if type(v) is float else v for k, v in vars(params).items()})
    coeffs = FieldCoefficients(r=coeffs.r, psi=np.float64(coeffs.psi))
    y = s0.to_array().tolist()
    for rhs in (time_rhs, x_rhs):
        assert all(type(v) is float for v in rhs(params, coeffs, y))


@pytest.mark.parametrize("n_E", [0, 2])
@pytest.mark.parametrize("n_I", [2, 12, 40])
class TestBatchedRuns:
    """trace_surface runs all columns, then all rows, as one block each; every
    one must equal its single-state run bit for bit."""

    def test_block_fields_match_columns(self, n_I, n_E):
        params, coeffs, _ = deep_setup(n_I, n_E)
        block = np.random.default_rng(n_I).uniform(-1.0, 1.0, (params.state_dim, 7))
        for rhs in (time_rhs, x_rhs):
            out = rhs(params, coeffs, block)
            for m in range(block.shape[1]):
                column = rhs(params, coeffs, block[:, m].copy())
                floats = rhs(params, coeffs, block[:, m].tolist())
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
            left = StateVector.for_params(params, grid.states[0, j])
            row = integrate_x(params, coeffs, left, x_span, h_x)
            np.testing.assert_array_equal(row.times, grid.x_nodes)
            gap = np.max(np.abs(grid.states[:, j] - row.states), axis=1)
            np.testing.assert_array_equal(gap, grid.mismatch[:, j])


def test_surface_makes_one_batched_field_call_per_stage(monkeypatch):
    # time_rhs is looked up by its module-level name, where tracers wrap it
    assert surface.time_rhs is dynamics.time_rhs and surface.x_rhs is dynamics.x_rhs
    calls = {"t": 0, "x": 0}

    def counted(key, rhs):
        def wrapper(*args):
            calls[key] += 1
            return rhs(*args)
        return wrapper

    monkeypatch.setattr(surface, "time_rhs", counted("t", dynamics.time_rhs))
    monkeypatch.setattr(surface, "x_rhs", counted("x", dynamics.x_rhs))
    params, coeffs, s0 = deep_setup(4, 0)
    grid = trace_surface(params, coeffs, s0, (0.0, 0.4), (0.0, 4.0), 0.05, 0.02)
    assert grid.states.shape[:2] == (9, 201)
    # 8 steps of the corner fiber, 200 of the columns, 8 of the rows
    assert calls == {"t": 4 * 200, "x": 4 * (8 + 8)}


@pytest.mark.parametrize("n_E", [0, 2])
@pytest.mark.parametrize("width", [1, 8, 9])
def test_each_width_matches_single_runs(width, n_E):
    # up to FLOAT_RUN_MAX_STATES states run one at a time, more as one block
    assert surface.FLOAT_RUN_MAX_STATES == 8
    params, coeffs, s0 = deep_setup(4, n_E)
    rng = np.random.default_rng([width, n_E])
    starts = s0.to_array() * rng.uniform(0.5, 1.5, (width, params.state_dim))
    calls = {"n": 0}

    def f(y):
        calls["n"] += 1
        return time_rhs(params, coeffs, y)

    times, states, h = surface._rk4_each(f, starts, (0.0, 1.0), 0.02, "column i")
    assert states.shape == (51, params.state_dim, width)
    assert calls["n"] == 4 * 50 * (1 if width > 8 else width)
    for i, start in enumerate(starts):
        single = integrate_time(params, coeffs, StateVector.for_params(params, start), (0.0, 1.0), 0.02)
        np.testing.assert_array_equal(single.times, times)
        np.testing.assert_array_equal(single.states, states[:, :, i])
        assert single.h == h


def test_narrow_surface_makes_field_calls_per_column(monkeypatch):
    calls = {"t": 0, "x": 0}

    def counted(key, rhs):
        def wrapper(*args):
            calls[key] += 1
            return rhs(*args)
        return wrapper

    monkeypatch.setattr(surface, "time_rhs", counted("t", dynamics.time_rhs))
    monkeypatch.setattr(surface, "x_rhs", counted("x", dynamics.x_rhs))
    params, coeffs, s0 = deep_setup(4, 0)
    grid = trace_surface(params, coeffs, s0, (0.0, 0.1), (0.0, 4.0), 0.05, 0.02)
    assert grid.states.shape[:2] == (3, 201)
    # 3 columns of 200 steps one at a time; 2 steps of the corner fiber and
    # 2 of the 201 rows, which run as one block
    assert calls == {"t": 3 * 4 * 200, "x": 4 * (2 + 2)}


class TestSurfaceBlowUp:
    """A block can blow up in a later column or row first; the report must
    name the lowest-index one that fails, as it would fail on its own."""

    @staticmethod
    def single_failure(run):
        with pytest.raises(BlowUpError) as err:
            run()
        return err.value

    def test_reports_first_column_not_first_to_fail(self):
        params = make_params(beta=1.0, p=2.0, c=0.5)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.0, -1.0, -1.0])
        fiber = integrate_x(params, coeffs, s0, (0.0, 1.0), 0.5)
        alone = [
            self.single_failure(lambda: integrate_time(
                params, coeffs, StateVector.for_params(params, y), (0.0, 10.0), 0.05))
            for y in fiber.states[:2]
        ]
        assert alone[1].t_last < alone[0].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, (0.0, 1.0), (0.0, 10.0), 0.5, 0.05))
        assert exc.where == "canonical column i=0"
        assert exc.t_last == alone[0].t_last
        np.testing.assert_array_equal(exc.times, alone[0].times)
        np.testing.assert_array_equal(exc.states, alone[0].states)

    def test_reports_first_column_of_a_wide_block(self):
        # 9 columns run as one block, in which column 8 fails first
        params = make_params(beta=1.0, p=2.0, c=0.5)
        coeffs = FieldCoefficients.default_for(params)
        s0 = StateVector.for_params(params, [1.0, 0.0, -1.0, -1.0])
        fiber = integrate_x(params, coeffs, s0, (0.0, 4.0), 0.5)
        assert len(fiber.states) > surface.FLOAT_RUN_MAX_STATES
        alone = [
            self.single_failure(lambda: integrate_time(
                params, coeffs, StateVector.for_params(params, y), (0.0, 10.0), 0.05))
            for y in fiber.states
        ]
        assert min(e.t_last for e in alone) < alone[0].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, (0.0, 4.0), (0.0, 10.0), 0.5, 0.05))
        assert exc.where == "canonical column i=0"
        assert exc.t_last == alone[0].t_last
        np.testing.assert_array_equal(exc.times, alone[0].times)
        np.testing.assert_array_equal(exc.states, alone[0].states)

    def test_reports_first_row_not_first_to_fail(self):
        # the T slot moves by -1e5 * W along x while W grows by 1e6 per unit t
        params = make_params(beta=0.0, n_I=2, v_a=0.1)
        coeffs = FieldCoefficients(r=(1e5, 1.0, 1.0, 1.0), psi=1e6)
        s0 = StateVector.for_params(params, [1.0, 0.0, 0.0, 0.0, 0.0])
        grid_args = ((0.0, 2.0), (0.0, 10.0), 0.1, 0.5)
        left = integrate_time(params, coeffs, s0, grid_args[1], grid_args[3])
        failures = {}
        for j, y in enumerate(left.states):
            try:
                integrate_x(params, coeffs, StateVector.for_params(params, y), grid_args[0], grid_args[2])
            except BlowUpError as e:
                failures[j] = e
        first = min(failures)
        assert failures[max(failures)].t_last < failures[first].t_last
        exc = self.single_failure(lambda: trace_surface(params, coeffs, s0, *grid_args))
        assert exc.where == f"opposite row j={first}"
        assert exc.t_last == failures[first].t_last
        np.testing.assert_array_equal(exc.states, failures[first].states)


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
        doc = asymptotics(self.synthetic(-0.8), window=12.0).to_json_dict()
        assert set(doc) == {"kind", "rate", "window", "r_squared", "n_points"}
