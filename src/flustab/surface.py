"""Trajectory integration, integral-surface tracing, and the involutivity
diagnostics for the 2-distribution spanned by the two fields.

Time integration is fixed-step classical fourth-order Runge-Kutta: no
adaptivity, so identical inputs give bit-identical output and step-halving
order studies are exact. A single trajectory runs through the RK4 step
kernel of its cascade shape (dynamics): straight-line stage arithmetic on
Python floats, each stage's field one call of time_rhs, four per step. A
surface's columns run one at a time through the shape's RK4 run kernel,
which evaluates the field inline and does the same operations in the same
order, so every column equals its single run bit for bit. Either kernel
returns a chunk's rows as one flat list of floats, which a run stores with
one assignment and restarts from its last state. Frozen-T
linearized runs take RK4's exact step map y <- R y + c, which differs from
the four stages only by rounding, from a table of its powers: a block of up
to 64 rows is one matrix product from the block's first state. The table
holds no more numbers than the run's states or than fit in cache, and stops
before the first power that is not finite; a one-row table is the step map
itself. Every run advances a chunk of rows at a time and tests it for
blow-up, and stops with the prefix a per-step test gives; numpy's
floating-point warnings are silenced while it steps, so the steps a chunk
takes past a blow-up print nothing.

The x-direction is not integrated: the x-field is affine in W, so its flow
is closed form (RK4 gives it only up to rounding), and a surface's x-fibers
are one broadcast expression at the nodes a run would take.

Surfaces are traced in a canonical order (the x-fiber through the corner
first, then time up each column); the opposite order is computed only to
measure the path-ordering mismatch, which is the observable cost of the
distribution not being provably involutive. The involutivity test itself,
the Lie bracket of the two fields, takes exact Jacobians: both fields are
at most quadratic in the state and the x-field is affine in W, so no step
size enters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charpoly import coefficient_matrix
from .dynamics import _checked_state, _rk4_advancer, _x_column, time_rhs, x_rhs
from .model import FieldCoefficients, ModelParams, StateVector

BLOWUP_LIMIT = 1e12


class BlowUpError(RuntimeError):
    """A state component left the finite window during integration.

    Carries the completed-so-far trajectory, the last finite time and state,
    and (for surface traces) which node's integration failed.
    """

    def __init__(self, times, states, where: str = ""):
        self.times = np.asarray(times)
        self.states = np.asarray(states)
        self.t_last = float(self.times[-1])
        self.state_last = self.states[-1]
        self.where = where
        msg = f"state exceeded {BLOWUP_LIMIT:g} after t = {self.t_last:g}"
        if where:
            msg += f" ({where})"
        super().__init__(msg)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    h: float


# rows stepped between two blow-up tests
_CHUNK_ROWS = 64
# entries of a frozen-T power table: each block of rows streams the whole
# table, which stays fast only while it fits in a core's cache (512 KiB)
_TABLE_ENTRIES = 2**16


def _nodes(span, h: float):
    """(times, dt) of fixed steps over span (a pair, or an end from 0):
    n = round(span/h) steps, at least 1 unless the span is empty, of a
    Python float dt (h for an empty span), times[k] = start + k*dt."""
    t0, t1 = map(float, (0.0, span) if np.isscalar(span) else span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("span must be finite")
    if not (h > 0):
        raise ValueError("step must be > 0")
    n = max(1, round(abs(t1 - t0) / h)) if t1 != t0 else 0
    dt = (t1 - t0) / n if n else h
    times = np.empty(n + 1)
    times[0] = t0
    times[1:] = t0 + np.arange(1, n + 1) * dt
    return times, dt


def _blown_up(rows: np.ndarray) -> np.ndarray:
    """Whether each state (last axis) of rows has a NaN or a component past BLOWUP_LIMIT."""
    return ~(np.abs(rows).max(axis=-1) <= BLOWUP_LIMIT)


def _run(advancer, y0, span, h: float):
    """Fixed steps over span, at _nodes, from the state y0 (a list of floats
    or an array). advancer(dt, n) returns, for a run of n steps of dt, the
    map advance(y, k) -> the k states that k steps of dt take from y, flat:
    k*dim floats in row order (a list or an array), whose last dim start the
    next call. Returns (times, states (n + 1, dim), step).

    Rows are advanced _CHUNK_ROWS at a time, one advance call, stored with
    one flat assignment and then tested, by one reduction over the chunk
    and, only if that fails, row by row: the first row that has _blown_up
    ends the run with the rows before it, the prefix a test after every step
    gives. The steps a chunk takes past that row are thrown away, and
    numpy's floating-point warnings are silenced while the map is built and
    run, so those steps print nothing.
    """
    times, dt = _nodes(span, h)
    states = np.empty(times.shape + np.shape(y0))
    states[0] = y0
    dim, flat = states.shape[1], states.reshape(-1)
    with np.errstate(all="ignore"):
        advance = advancer(dt, len(times) - 1)
        y = y0
        for start in range(1, len(times), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(times))
            rows = advance(y, stop - start)
            flat[start * dim : stop * dim] = rows
            chunk = states[start:stop]
            y = rows[-dim:]
            # a NaN fails the chunk's test too
            if not np.abs(chunk).max() <= BLOWUP_LIMIT:
                k = start + int(_blown_up(chunk).argmax())
                raise BlowUpError(times[:k], states[:k])
    return times, states, abs(dt)


def _rk4_each(advancer, starts: np.ndarray, span, h: float):
    """One _run of advancer from every row of starts (m, dim), in index
    order, as (times, states (m, n + 1, dim), step), each run copied into
    states as it ends. The first that fails, "canonical column i=<index>",
    is reported as a run of it alone reports it."""
    for i, start in enumerate(starts.tolist()):
        try:
            times, column, step = _run(advancer, start, span, h)
        except BlowUpError as e:
            raise BlowUpError(e.times, e.states, where=f"canonical column i={i}") from None
        if i == 0:
            states = np.empty(starts.shape[:1] + column.shape)
        states[i] = column
    return times, states, step


def integrate_time(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s0: StateVector,
    t_span,
    h_t: float,
) -> Trajectory:
    """Integrate the time-direction field from s0. Deterministic: the same
    inputs give bit-identical trajectories."""
    y0 = _checked_state(params, coeffs, s0).tolist()
    # the module's time_rhs as bound at call time: every stage is one call of it
    times, states, h = _run(_rk4_advancer(params, coeffs, time_rhs), y0, t_span, h_t)
    return Trajectory(times=times, states=states, h=h)


def _frozen_system(params: ModelParams, T_frozen: float, psi: float, s):
    """The frozen-T linear field y' = M y + F on the (E, I, V, W) block,
    as (M, F, y) with y the checked block state s: M is the coefficient
    matrix at T_frozen and F = (0, ..., 0, D_PCF * a, psi)."""
    M = coefficient_matrix(params, T_frozen)
    y = np.asarray(s, dtype=float)
    if y.shape != (len(M),):
        raise ValueError(f"block state has shape {y.shape}, expected ({len(M)},)")
    F = np.zeros(len(M))
    F[-2] = params.D_PCF * params.a
    F[-1] = psi
    return M, F, y


def _linear_rk4_map(M: np.ndarray, F: np.ndarray, dt: float):
    """One RK4 step of y' = M y + F as its exact step map y <- R y + c, as
    (R, c): Z = dt M, S = I + Z/2 + Z^2/6 + Z^3/24, R = I + Z S and
    c = dt S F. The four stages differ from the map only by rounding."""
    Z = dt * M
    eye = np.eye(len(M))
    S = eye + Z @ (eye / 2.0 + Z @ (eye / 6.0 + Z / 24.0))
    return eye + Z @ S, dt * (S @ F)


def _power_table(R: np.ndarray, c: np.ndarray, n: int):
    """The maps y <- P_j y + Q_j of j = 1..K steps of y <- R y + c, for a
    run of n steps, as (P, Q): P_j = R^j stacked into P (K*d, d), and
    Q (K, d) with Q_1 = c, Q_j = R Q_(j-1) + c. K is at most _CHUNK_ROWS,
    at most (n + 1)/(d + 1), so the table holds no more numbers than the
    run's states, and at most _TABLE_ENTRIES/d^2, so P stays in cache; the
    table stops before the first P_j or Q_j with an entry that is not
    finite (0 * inf would turn an exact 0 into NaN). K is at least 1: the
    one-row table is (R, c), the step map itself."""
    d = len(R)
    K = max(1, min(_CHUNK_ROWS, (n + 1) // (d + 1), _TABLE_ENTRIES // (d * d)))
    P, Q = np.empty((K, d, d)), np.empty((K, d))
    P[0], Q[0] = R, c
    for j in range(1, K):
        np.matmul(R, P[j - 1], out=P[j])
        np.matmul(R, Q[j - 1], out=Q[j])
        Q[j] += c
    finite = np.isfinite(P).all(axis=(1, 2)) & np.isfinite(Q).all(axis=1)
    K = max(1, K if finite.all() else int(finite.argmin()))
    return P[:K].reshape(K * d, d), Q[:K]


def _linear_rk4_advancer(M: np.ndarray, F: np.ndarray):
    """The _run advancer of RK4 on y' = M y + F from the _power_table of
    its step map (_linear_rk4_map): an advance call returns its rows flat,
    made in blocks of the table's K rows, each one product P y + Q from the
    state y that starts the block, and the block's last row starts the next."""

    def advancer(dt: float, n: int):
        P, Q = _power_table(*_linear_rk4_map(M, F, dt), n)
        K, d = Q.shape

        def advance(y, k):
            rows = np.empty((k, d))
            for start in range(0, k, K):
                block = rows[start : start + K]
                m = len(block)
                np.matmul(P[: m * d], y, out=block.reshape(m * d))
                block += Q[:m]
                y = block[-1]
            return rows.reshape(k * d)

        return advance

    return advancer


def integrate_linearized(
    params: ModelParams,
    T_frozen: float,
    s0_block: np.ndarray,
    t_span,
    h_t: float,
    psi: float = 0.0,
) -> Trajectory:
    """Integrate the frozen-T linear field by RK4 through the exact step map
    of _linear_rk4_map, taken up to 64 steps at a time from a table of its
    powers (_linear_rk4_advancer): one matrix product per block of rows,
    which differs from stepping the map only by rounding. Runs `simulate`'s
    linearized configs; the tests fit its decay/growth rate against the
    dominant eigenvalue (the rate-recovery criterion)."""
    M, F, y0 = _frozen_system(params, T_frozen, psi, s0_block)
    times, states, h = _run(_linear_rk4_advancer(M, F), y0, t_span, h_t)
    return Trajectory(times=times, states=states, h=h)


@dataclass(frozen=True)
class SurfaceGrid:
    """States on an (x, t) lattice with the per-node path-ordering gap.

    states[i, j] is the state at (x_nodes[i], t_nodes[j]) traced in the
    canonical order; mismatch[i, j] is the infinity-norm difference against
    the trace in the opposite order. Both edges through the corner are shared
    by the two orders, so mismatch vanishes on them.
    """

    x_nodes: np.ndarray
    t_nodes: np.ndarray
    states: np.ndarray  # (len(x_nodes), len(t_nodes), dim)
    mismatch: np.ndarray  # (len(x_nodes), len(t_nodes))
    h_x: float
    h_t: float


def _x_flow(params: ModelParams, coeffs: FieldCoefficients, starts: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The exact x-flow (n, ..., dim) from each state of starts (..., dim) at
    the offsets s (n,): W0 + a*s, and _x_column * (W0*s + a*s^2/2) added."""
    s = s.reshape(s.shape + (1,) * (starts.ndim - 1))
    W0 = starts[..., -1]
    out = (s * (W0 + 0.5 * params.a * s))[..., None] * _x_column(coeffs)
    out += starts
    out[..., -1] = W0 + params.a * s
    return out


def _check_x_fibers(x_nodes: np.ndarray, fibers: np.ndarray, where: str) -> None:
    """Raise, as a run would, the BlowUpError of the lowest-index fiber j of
    fibers (n + 1, m, dim) that blows up past node 0, as where.format(j=j).
    The fibers are tested _FIBER_BLOCK at a time, so the test's temporaries
    stay a bounded block however many fibers there are."""
    for start in range(0, fibers.shape[1], _FIBER_BLOCK):
        bad = _blown_up(fibers[1:, start : start + _FIBER_BLOCK])
        failed = bad.any(axis=0)
        if failed.any():
            j = int(failed.argmax())
            k = 1 + int(bad[:, j].argmax())
            raise BlowUpError(x_nodes[:k], fibers[:k, start + j], where.format(j=start + j))


_FIBER_BLOCK = 128


def trace_surface(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s0: StateVector,
    x_span,
    t_span,
    h_x: float,
    h_t: float,
) -> SurfaceGrid:
    """Trace the integral surface candidate through s0 over a rectangle.

    Canonical order: the x-fiber through the corner, then the time field up
    each column by the shape's RK4 run kernel. The opposite order (time up
    the x0 column, then x across all rows) is traced only to fill the
    mismatch field. Every column equals its integrate_time run bit for bit;
    the x-fibers are the exact x-flow at the nodes of a run over x_span, so
    the mismatch is exactly 0 on both edges through the corner. A blow-up
    names the failing fiber, or the lowest-index failing column or row.
    """
    y0 = _checked_state(params, coeffs, s0)
    x_nodes, dx = _nodes(x_span, h_x)
    s = np.arange(x_nodes.size) * dx

    with np.errstate(all="ignore"):
        bottom = _x_flow(params, coeffs, y0, s)
        _check_x_fibers(x_nodes, bottom[:, None], "corner x-fiber")
        t_nodes, states, ht = _rk4_each(_rk4_advancer(params, coeffs), bottom, t_span, h_t)
        # the x0 column is shared by both orders
        opposite = _x_flow(params, coeffs, states[0], s)
        _check_x_fibers(x_nodes, opposite, "opposite row j={j}")

    # |states - opposite| in place: the opposite order is needed for nothing else
    gap = np.abs(np.subtract(states, opposite, out=opposite), out=opposite)
    mismatch = np.max(gap, axis=2)
    return SurfaceGrid(
        x_nodes=x_nodes,
        t_nodes=t_nodes,
        states=states,
        mismatch=mismatch,
        h_x=abs(dx),
        h_t=ht,
    )


def lie_bracket(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s: StateVector,
) -> tuple[np.ndarray, float]:
    """Bracket [X, Y] = DY X - DX Y of the x-field X and time-field Y at s,
    with exact Jacobians, and its least-squares distance from
    span{X(s), Y(s)}. A zero defect at every state is the involutivity
    condition that guarantees integral surfaces exist.

    X is affine in W, so DX is one constant W column
    col = (-r_0, r_1, ..., r_last, 0) and DX Y = psi * col. DY X is the
    frozen-T coefficient matrix applied to X's (E, I, V, W) block, bordered
    by the T row and column: the T slot gets -beta*(V*X_T + T*X_V) and the
    first cascade slot +beta*V*X_T.
    """
    y = _checked_state(params, coeffs, s)
    X = x_rhs(params, coeffs, y)
    Y = time_rhs(params, coeffs, y)
    T, V = y[0], y[-2]
    DY_X = np.empty_like(y)
    DY_X[0] = -params.beta * (V * X[0] + T * X[-2])
    DY_X[1:] = coefficient_matrix(params, T) @ X[1:]
    DY_X[1] += params.beta * V * X[0]
    bracket = DY_X - coeffs.psi * _x_column(coeffs)
    span = np.column_stack([X, Y])
    theta, *_ = np.linalg.lstsq(span, bracket, rcond=None)
    defect = float(np.linalg.norm(bracket - span @ theta))
    return bracket, defect


@dataclass(frozen=True)
class AsymptoticsVerdict:
    # vars() of it is the CLI footer's "asymptotics" object: the fields in order
    kind: str  # "Converging" | "Diverging" | "Undetermined"
    rate: float
    window: float
    r_squared: float
    n_points: int


def _log_fit(t: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of ln(d) against t and the fit's R^2."""
    ln = np.log(d)
    tm, lm = t.mean(), ln.mean()
    stt = float(np.sum((t - tm) ** 2))
    if stt == 0.0:
        return 0.0, 0.0
    slope = float(np.sum((t - tm) * (ln - lm)) / stt)
    resid = ln - (lm + slope * (t - tm))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ln - lm) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def asymptotics(traj: Trajectory, window: float) -> AsymptoticsVerdict:
    """Classify the tail behaviour of a trajectory over its trailing window.

    The anchor the deviation is measured from depends on the hypothesis
    under test. Diverging: anchor at the leading 10% of the window (a growing
    trajectory leaves it exponentially; fitting the trailing 60% of the
    window recovers the growth rate). Converging: anchor at the trailing 10%
    (the empirical limit; the fit drops that tail, where the deviation is
    anchor noise rather than signal, and drops points within two decades of
    that noise). Converging additionally requires the deviation to be
    monotone non-increasing over the fitted points; Diverging requires
    R^2 >= 0.99 on the log fit. Anything else is Undetermined. A backward
    run (times decreasing) is fitted against -t, the time it has run.
    """
    times, states = traj.times, traj.states
    if times[-1] < times[0]:
        times = -times  # a backward run is fitted in the direction it ran
    t_end = float(times[-1])
    span = t_end - float(times[0])
    if window > span * (1 + 1e-12) or window <= 0:
        raise ValueError(f"window {window} does not fit the trajectory span {span}")
    idx = np.nonzero(times >= t_end - window * (1 + 1e-12))[0]
    if idx.size < 10:
        raise ValueError("window covers fewer than 10 samples")
    tw = times[idx]
    sw = states[idx]
    scale = float(np.max(np.abs(sw)))

    anchor_full = sw.mean(axis=0)
    if float(np.max(np.abs(sw - anchor_full))) <= 1e-13 * max(scale, 1.0):
        return AsymptoticsVerdict("Converging", 0.0, window, 1.0, int(idx.size))

    k10 = max(1, math.ceil(0.1 * idx.size))

    # diverging hypothesis: growth away from the early-window anchor
    anchor_d = sw[:k10].mean(axis=0)
    dev_d = np.linalg.norm(sw - anchor_d, axis=1)
    j0 = int(0.4 * idx.size)
    dd, td = dev_d[j0:], tw[j0:]
    if dd.size >= 5 and np.all(dd > 0):
        slope, r2 = _log_fit(td, dd)
        if slope > 0 and r2 >= 0.99:
            return AsymptoticsVerdict("Diverging", slope, window, r2, int(dd.size))

    # converging hypothesis: decay toward the late-window anchor
    anchor_c = sw[-k10:].mean(axis=0)
    noise = float(np.max(np.linalg.norm(sw[-k10:] - anchor_c, axis=1)))
    body_t = tw[:-k10]
    body_d = np.linalg.norm(sw[:-k10] - anchor_c, axis=1)
    keep = body_d >= max(100.0 * noise, 1e-300)
    m = int(np.argmin(keep)) if not np.all(keep) else keep.size  # prefix length
    dc, tc = body_d[:m], body_t[:m]
    if dc.size >= 5 and np.all(dc > 0):
        monotone = bool(np.all(dc[1:] <= dc[:-1] * (1 + 1e-9)))
        slope, r2 = _log_fit(tc, dc)
        if monotone and slope < 0:
            return AsymptoticsVerdict("Converging", slope, window, r2, int(dc.size))

    return AsymptoticsVerdict("Undetermined", 0.0, window, 0.0, int(idx.size))


__all__ = [
    "BLOWUP_LIMIT",
    "BlowUpError",
    "Trajectory",
    "SurfaceGrid",
    "AsymptoticsVerdict",
    "integrate_time",
    "integrate_linearized",
    "trace_surface",
    "lie_bracket",
    "asymptotics",
]
