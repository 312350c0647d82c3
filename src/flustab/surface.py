"""Trajectory integration, integral-surface tracing, and the involutivity
diagnostics for the 2-distribution spanned by the two fields.

Integration is fixed-step classical fourth-order Runge-Kutta throughout: no
adaptivity, so identical inputs give bit-identical output and step-halving
order studies are exact. A single nonlinear state is advanced as a list of
Python floats and a block of states as one array, with the same operations
on every element in the same order, so a column of a block run equals its
single run bit for bit. A surface's columns or rows run one at a time as
float lists when they are few (a narrow block loses to numpy's per-call
overhead) and as one block when they are many; the bits are the same either
way. Frozen-T linearized runs take RK4's exact step map, one matrix-vector
product per step, which differs from the four stages only by rounding.

Surfaces are traced in a canonical order (the x-fiber through the corner
first, then time up each column); the opposite order is computed only to
measure the path-ordering mismatch, which is the observable cost of the
distribution not being provably involutive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numdiff
from .charpoly import coefficient_matrix
from .dynamics import _checked_state, time_rhs, x_rhs
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

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _within_limit(y) -> bool:
    """Every component finite and at most BLOWUP_LIMIT in magnitude; a NaN
    fails the comparison too."""
    if isinstance(y, list):
        # the sum of magnitudes bounds the largest one and keeps a NaN or
        # an inf; only a sum past the limit needs the test of each component
        return sum(map(abs, y)) <= BLOWUP_LIMIT or all(map(BLOWUP_LIMIT.__ge__, map(abs, y)))
    return bool(np.abs(y).max() <= BLOWUP_LIMIT)


def _run(stepper, y0, span: tuple[float, float], h: float, where: str = ""):
    """Fixed steps over span; the step is adjusted to divide the span
    exactly (n = round(span/h), at least 1). stepper(dt) returns the map
    that advances a state by one step dt. y0 is one state, as a list of
    floats or an array, or a block (dim, m) of states, one per column, in
    the form the map takes and returns. Returns (times, states, step), with
    states an array of shape (n + 1, *shape of y0)."""
    t0, t1 = float(span[0]), float(span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("span must be finite")
    if not (h > 0):
        raise ValueError("step must be > 0")
    n = max(1, round(abs(t1 - t0) / h)) if t1 != t0 else 0
    states = np.empty((n + 1,) + np.shape(y0))
    times = np.empty(n + 1)
    states[0] = y0
    times[0] = t0
    if n == 0:
        return times, states, h
    dt = (t1 - t0) / n
    times[1:] = t0 + np.arange(1, n + 1) * dt
    step = stepper(dt)
    y = y0
    for k in range(n):
        y = step(y)
        if not _within_limit(y):
            raise BlowUpError(times[: k + 1], states[: k + 1], where)
        states[k + 1] = y
    return times, states, abs(dt)


def _rk4_run(f, y0: np.ndarray, span: tuple[float, float], h: float, where: str = ""):
    """Classical RK4 with _run's steps. y0 is one state (dim,) or a block
    (dim, m); a single state is advanced as a list of Python floats, which
    spares the numpy call overhead on a few numbers, and f takes and returns
    that form. Both forms do the same operations on every element in the
    same order, so a column of a block run equals its single run bit for
    bit."""
    if y0.ndim == 1:
        return _run(lambda dt: _rk4_float_step(f, dt), y0.tolist(), span, h, where)
    # a C-order copy keeps every slot's row contiguous
    y0 = np.ascontiguousarray(y0, dtype=float)
    return _run(lambda dt: _rk4_block_step(f, dt), y0, span, h, where)


def _rk4_block_step(f, dt: float):
    half, sixth = 0.5 * dt, dt / 6.0

    def step(y):
        k1 = f(y)
        k2 = f(y + half * k1)
        k3 = f(y + half * k2)
        k4 = f(y + dt * k3)
        return y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _rk4_float_step(f, dt: float):
    half, sixth = 0.5 * dt, dt / 6.0

    def step(y):
        k1 = f(y)
        k2 = f([a + half * b for a, b in zip(y, k1)])
        k3 = f([a + half * b for a, b in zip(y, k2)])
        k4 = f([a + dt * b for a, b in zip(y, k3)])
        return [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
        ]

    return step


# float runs vs one block, m states: m=3 74/141 ms, 7 32/34, 9 30/29, 17 43/14
FLOAT_RUN_MAX_STATES = 8


def _rk4_each(f, starts: np.ndarray, span: tuple[float, float], h: float, label: str):
    """One RK4 run from every row of starts (m, dim), returned in the block
    layout (times, states (n + 1, dim, m), step).

    Up to FLOAT_RUN_MAX_STATES states run one at a time as float lists,
    more as a single block; the two forms give the same bits. A block can
    blow up in a later state before an earlier one does, so on a blow-up
    its states are run again one at a time. Either way the states run in
    index order and the first that fails is reported as "{label}={index}"
    with its own prefix, exactly as a run of that state alone reports it.
    """
    if len(starts) > FLOAT_RUN_MAX_STATES:
        try:
            return _rk4_run(f, starts.T, span, h)
        except BlowUpError:
            pass
    runs = []
    for i, start in enumerate(starts):
        try:
            runs.append(_rk4_run(f, start, span, h))
        except BlowUpError as e:
            raise BlowUpError(e.times, e.states, where=f"{label}={i}") from None
    times, _, step = runs[0]
    # stacked in the (m, n + 1, dim) order trace_surface wants, so it copies nothing
    return times, np.stack([states for _, states, _ in runs]).transpose(1, 2, 0), step


def _as_span(span) -> tuple[float, float]:
    if np.isscalar(span):
        return (0.0, float(span))
    lo, hi = span
    return (float(lo), float(hi))


def integrate_time(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s0: StateVector,
    t_span,
    h_t: float,
) -> Trajectory:
    """Integrate the time-direction field from s0. Deterministic: the same
    inputs give bit-identical trajectories."""
    y0 = _checked_state(params, coeffs, s0)
    f = lambda y: time_rhs(params, coeffs, y)
    times, states, h = _rk4_run(f, y0, _as_span(t_span), h_t)
    return Trajectory(times=times, states=states, h=h)


def integrate_x(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s0: StateVector,
    x_span,
    h_x: float,
) -> Trajectory:
    """Integrate the x-direction field from s0 (a single surface fiber)."""
    y0 = _checked_state(params, coeffs, s0)
    f = lambda y: x_rhs(params, coeffs, y)
    times, states, h = _rk4_run(f, y0, _as_span(x_span), h_x)
    return Trajectory(times=times, states=states, h=h)


def _frozen_system(params: ModelParams, T_frozen: float, psi: float, s):
    """The frozen-T linear field y' = M y + F on the (E, I, V, W) block,
    as (M, F, y) with y the checked block state s: M is the coefficient
    matrix at T_frozen and F = (0, ..., 0, D_PCF * a, psi)."""
    A = coefficient_matrix(params, T_frozen)
    y = np.asarray(s, dtype=float)
    if y.shape != (A.n,):
        raise ValueError(f"block state has shape {y.shape}, expected ({A.n},)")
    F = np.zeros(A.n)
    F[-2] = params.D_PCF * params.a
    F[-1] = psi
    return A.entries, F, y


def linearized_time_field(
    params: ModelParams,
    T_frozen: float,
    s: np.ndarray,
    psi: float = 0.0,
) -> np.ndarray:
    """Frozen-T linear field on the (E, I, V, W) block: A s plus the constant
    forcing (0, ..., 0, D_PCF * a, psi). T is a parameter here, not a state."""
    M, F, y = _frozen_system(params, T_frozen, psi, s)
    return M @ y + F


def _linear_rk4_stepper(M: np.ndarray, F: np.ndarray):
    """One RK4 step of y' = M y + F as its exact step map y <- R y + dt S F,
    with Z = dt M, S = I + Z/2 + Z^2/6 + Z^3/24 and R = I + Z S. The
    stages differ from the map only by rounding."""

    def stepper(dt: float):
        Z = dt * M
        eye = np.eye(len(M))
        S = eye + Z @ (eye / 2.0 + Z @ (eye / 6.0 + Z / 24.0))
        R = eye + Z @ S
        c = dt * (S @ F)
        return lambda y: R @ y + c

    return stepper


def integrate_linearized(
    params: ModelParams,
    T_frozen: float,
    s0_block: np.ndarray,
    t_span,
    h_t: float,
    psi: float = 0.0,
) -> Trajectory:
    """Integrate the frozen-T linear field by RK4, one matrix-vector product
    per step (the exact step map of _linear_rk4_stepper); used by the
    rate-recovery validation where the fitted decay/growth rate is compared
    against the dominant eigenvalue."""
    M, F, y0 = _frozen_system(params, T_frozen, psi, s0_block)
    times, states, h = _run(_linear_rk4_stepper(M, F), y0, _as_span(t_span), h_t)
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

    Canonical order: one x-fiber through the corner, then the time field up
    all columns as one batched run. The opposite order (time first, then x
    across all rows as one batched run) is traced only to fill the mismatch
    field. Every column and row equals, bit for bit, its own integrate_time
    or integrate_x run. Blow-ups abort with the failing column or row
    recorded, the lowest-index one when several fail.
    """
    y0 = _checked_state(params, coeffs, s0)
    ft = lambda y: time_rhs(params, coeffs, y)
    fx = lambda y: x_rhs(params, coeffs, y)
    xs = _as_span(x_span)
    ts = _as_span(t_span)

    x_nodes, bottom, hx = _rk4_run(fx, y0, xs, h_x, where="corner x-fiber")
    t_nodes, columns, ht = _rk4_each(ft, bottom, ts, h_t, "canonical column i")
    states = np.ascontiguousarray(columns.transpose(2, 0, 1))
    # the x0 column is shared by both orders
    _, rows, _ = _rk4_each(fx, states[0], xs, h_x, "opposite row j")
    opposite = rows.transpose(0, 2, 1)

    mismatch = np.max(np.abs(states - opposite), axis=2)
    return SurfaceGrid(
        x_nodes=x_nodes,
        t_nodes=t_nodes,
        states=states,
        mismatch=mismatch,
        h_x=hx,
        h_t=ht,
    )


def lie_bracket(
    params: ModelParams,
    coeffs: FieldCoefficients,
    s: StateVector,
    h: float | None = None,
) -> tuple[np.ndarray, float]:
    """Bracket [X, Y] = DY X - DX Y of the x-field and time-field at s, with
    central-difference Jacobians (exact here: both fields are at most
    quadratic in the state), and its least-squares distance from
    span{X(s), Y(s)}. A zero defect at every state is the involutivity
    condition that guarantees integral surfaces exist.
    """
    y = _checked_state(params, coeffs, s)
    if h is None:
        # quadratic fields make central differences truncation-free, so a
        # generous step only suppresses rounding in the quotient
        h = 1e-2 * max(1.0, float(np.max(np.abs(y))))
    if not (h > 0):
        raise ValueError("h must be > 0")
    ft = lambda z: time_rhs(params, coeffs, z)
    fx = lambda z: x_rhs(params, coeffs, z)
    X = fx(y)
    Y = ft(y)
    DX = numdiff.jacobian(fx, y, h)
    DY = numdiff.jacobian(ft, y, h)
    bracket = DY @ X - DX @ Y
    span = np.column_stack([X, Y])
    theta, *_ = np.linalg.lstsq(span, bracket, rcond=None)
    defect = float(np.linalg.norm(bracket - span @ theta))
    return bracket, defect


@dataclass(frozen=True)
class AsymptoticsVerdict:
    kind: str  # "Converging" | "Diverging" | "Undetermined"
    rate: float
    window: float
    r_squared: float
    n_points: int

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "window": self.window,
            "r_squared": self.r_squared,
            "n_points": self.n_points,
        }


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
    R^2 >= 0.99 on the log fit. Anything else is Undetermined.
    """
    times, states = traj.times, traj.states
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
    "integrate_x",
    "integrate_linearized",
    "linearized_time_field",
    "trace_surface",
    "lie_bracket",
    "asymptotics",
]
