"""The two column vector fields whose span the integral surfaces follow.

The time-direction field is the model's right-hand side, written once as a
template of straight-line source per cascade shape (n_E, n_I). time_rhs
compiles it to one evaluation, which takes a state as a list of Python
floats, as an array, or a block of states, one per column, with the same
bits for a state in every form; the I compartments are added in index
order from 0.0. The same template gives the four stages of the shape's RK4
run kernel, which advances one float state a chunk of steps per call and
adds each step's state to one flat list of floats, the chunk's rows in row
order. The shape's RK4 step kernel has the run kernel's stage updates,
combination and row buffer but takes each stage's field from one call of a
field it is passed (time_rhs, for a single trajectory). Kernels bind only
the rates their body reads, c_E and c_I as a ModelParams derived them;
time_rhs finds its kernel by the params' _shape, so a call divides nothing
and builds no key.

The x-direction field is the heuristic spatial companion: every slot moves
proportionally to W (coefficients r_i, the T slot with a minus sign), the V
slot by exactly W so that the defining relation dV/dx = W holds, and the W
slot by the constant curvature a. It is affine in W, so its flow has a
closed form (surface.py).
"""
from __future__ import annotations

import numpy as np

from .model import FieldCoefficients, InvalidParamsError, ModelParams, StateVector


def _checked_state(params: ModelParams, coeffs: FieldCoefficients, s: StateVector) -> np.ndarray:
    """The raw array of s, after the checks time_rhs and x_rhs leave out:
    the state's length, and the field coefficients against the shape of
    params (which is valid by construction)."""
    y = s.to_array()
    if y.shape != (params.state_dim,):
        raise ValueError(f"state has shape {y.shape}, expected ({params.state_dim},)")
    problems = coeffs.problems_for(params)
    if problems:
        raise InvalidParamsError(problems)
    return y


def time_rhs(params: ModelParams, coeffs: FieldCoefficients, y):
    """Time-direction field on a raw state (T, E.., I.., V, W).

    y is one state, as a list of floats or an array of shape (dim,), or a
    block of shape (dim, m) holding one state per column; the result has
    the same form. Every form runs the one kernel of _time_kernel, slot by
    slot, so a column of a block's result equals, bit for bit, the result
    for that column alone, as a list or an array.
    Nothing is validated: integrators check the state and the field
    coefficients once per run (_checked_state) and call this in their
    inner loop.
    """
    kernel = _TIME_KERNELS.get(params._shape) or _time_kernel(*params._shape)
    if isinstance(y, list):
        return kernel(params, coeffs, y)
    out = np.empty_like(y)
    for i, slot in enumerate(kernel(params, coeffs, y)):
        out[i] = slot
    return out


# compiled kernels by cascade shape (n_E, n_I); each depends on nothing else
_TIME_KERNELS: dict = {}
_RK4_KERNELS: dict = {}
_STEP_KERNELS: dict = {}

# the rates the field reads, as expressions in params and coeffs
_RATES = {"beta": "params.beta", "p": "params.p", "c": "params.c", "source": "params.D_PCF * params.a",
          "v_a": "params.v_a", "psi": "coeffs.psi"}


def _cascade_rates(n_E: int) -> list[str]:
    """The bindings of the cascade rates _field_source reads, c_E only
    where there are E slots."""
    return (["c_E = params.c_E"] if n_E > 0 else []) + ["c_I = params.c_I"]


def _field_source(n_E: int, n_I: int, y: str, rate: dict) -> tuple[list[str], list[str]]:
    """The one template of the time field at the state y0, y1, ... (name
    prefix y): source lines, then every slot's expression, each rate read as
    rate[name], c_E and c_I as names. Slot i's outflow is f_i = c * y_i;
    I_total adds the I slots to 0.0 in index order; the W slot is psi, a
    float even for a block."""
    dim = n_E + n_I + 3
    V, W = f"{y}{dim - 2}", f"{y}{dim - 1}"
    lines = [f"f0 = {rate['beta']} * {y}0 * {V}"]
    lines += [f"f{i} = c_E * {y}{i}" for i in range(1, 1 + n_E)]
    lines += [f"f{j} = c_I * {y}{j}" for j in range(1 + n_E, dim - 2)]
    lines.append(f"I_total = 0.0 + {y}{1 + n_E}")
    lines += [f"I_total = I_total + {y}{j}" for j in range(2 + n_E, dim - 2)]
    slots = ["-f0"] + [f"f{i - 1} - f{i}" for i in range(1, dim - 2)]
    slots.append(f"{rate['p']} * I_total - {rate['c']} * {V} + {rate['source']} + {rate['v_a']} * {W}")
    return lines, slots + [rate["psi"]]


def _compiled(cache: dict, label: str, n_E: int, n_I: int, args: str, body: list[str]):
    """def kernel(args), kept in cache under the shape (n_E, n_I): it
    unpacks y into y0, y1, ..., then runs body. The counts come only from a
    ModelParams, so they are ints in range before they enter the source."""
    ys = ", ".join(f"y{i}" for i in range(n_E + n_I + 3))
    source = "\n".join([f"def kernel({args}):", *(f"    {line}" for line in [f"{ys}, = y", *body])])
    namespace: dict = {}
    exec(compile(source, f"<{label} n_E={n_E} n_I={n_I}>", "exec"), namespace)
    cache[n_E, n_I] = namespace["kernel"]
    return namespace["kernel"]


def _time_kernel(n_E: int, n_I: int):
    """The time field for one cascade shape, as a function
    (params, coeffs, y) -> list of slots, compiled from _field_source on
    the first call for the shape and kept in _TIME_KERNELS. It reads the
    rates on every call and unpacks y (floats, or the rows of a block)."""
    lines, slots = _field_source(n_E, n_I, "y", _RATES)
    body = _cascade_rates(n_E) + lines + [f"return [{', '.join(slots)}]"]
    return _compiled(_TIME_KERNELS, "time_rhs kernel", n_E, n_I, "params, coeffs, y", body)


def _rk4_kernel(n_E: int, n_I: int, field_call: bool = False):
    """Classical RK4 of the time field for one cascade shape, as a function
    that returns the k rows that k steps of dt take from the float state y
    as one flat list of k*dim floats: the state in locals, each stage's
    update and the combination straight-line code, a step's row added by one
    statement. The run kernel, (params, coeffs, dt, y, k) kept in
    _RK4_KERNELS, binds the rates once and writes each stage's field from
    _field_source. The step kernel (field_call), (field, params, coeffs,
    dt, y, k) kept in _STEP_KERNELS, takes each stage's field from one call
    field(params, coeffs, [z0, z1, ...]). Both do the same operations in
    the same order, so with time_rhs as the field their rows are equal, bit
    for bit."""
    slots, loop = range(n_E + n_I + 3), []
    for stage, (y, scale) in enumerate((("y", ""), ("z", "half"), ("z", "half"), ("z", "dt")), 1):
        if scale:
            loop += [f"z{i} = y{i} + {scale} * k{stage - 1}_{i}" for i in slots]
        if field_call:
            state = ", ".join(f"{y}{i}" for i in slots)
            loop.append(f"{', '.join(f'k{stage}_{i}' for i in slots)}, = field(params, coeffs, [{state}])")
        else:
            lines, field = _field_source(n_E, n_I, y, {name: name for name in _RATES})
            loop += lines + [f"k{stage}_{i} = {slot}" for i, slot in enumerate(field)]
    loop += [f"y{i} = y{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in slots]
    loop.append(f"rows += ({', '.join(f'y{i}' for i in slots)},)")
    body = [] if field_call else [f"{name} = {rate}" for name, rate in _RATES.items()] + _cascade_rates(n_E)
    body += ["half, sixth = 0.5 * dt, dt / 6.0", "rows = []", "for _ in range(k):"]
    body += [f"    {line}" for line in loop] + ["return rows"]
    if field_call:
        return _compiled(_STEP_KERNELS, "RK4 step kernel", n_E, n_I, "field, params, coeffs, dt, y, k", body)
    return _compiled(_RK4_KERNELS, "RK4 run kernel", n_E, n_I, "params, coeffs, dt, y, k", body)


def _rk4_advancer(params: ModelParams, coeffs: FieldCoefficients, field=None):
    """(dt, n) -> (y, k) -> the k rows RK4 steps of dt take from the float
    state y, one call of the shape's run kernel or, given field, of its
    step kernel with that field (the advancer form of surface._run; the
    run's length n is not needed)."""
    shape = params._shape
    if field is None:
        kernel = _RK4_KERNELS.get(shape) or _rk4_kernel(*shape)
        return lambda dt, n: lambda y, k: kernel(params, coeffs, dt, y, k)
    kernel = _STEP_KERNELS.get(shape) or _rk4_kernel(*shape, field_call=True)
    return lambda dt, n: lambda y, k: kernel(field, params, coeffs, dt, y, k)


def _x_column(coeffs: FieldCoefficients) -> np.ndarray:
    """The x-field's constant W column (-r_0, r_1, ..., r_last, 0): the
    T slot moves against W, every other slot but W with it."""
    return np.array([-coeffs.r[0], *coeffs.r[1:], 0.0])


def x_rhs(params: ModelParams, coeffs: FieldCoefficients, y: np.ndarray) -> np.ndarray:
    """x-direction field on a raw state, unchecked like time_rhs: W times
    _x_column, with the curvature a in the W slot. y is one state (dim,) or
    a block (dim, m) of states, one per column, as for time_rhs; a column
    of the result equals the result for that column alone, bit for bit."""
    out = np.multiply.outer(_x_column(coeffs), y[-1])
    out[-1] = params.a
    return out


__all__ = [
    "time_rhs",
    "x_rhs",
]
