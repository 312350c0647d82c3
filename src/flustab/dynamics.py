"""The two column vector fields whose span the integral surfaces follow.

The time-direction field is the model's right-hand side. The x-direction
field is the heuristic spatial companion: every slot moves proportionally to
W (coefficients r_i, the T slot with a minus sign), the V slot moves by
exactly W so that the defining relation dV/dx = W holds, and the W slot
moves by the constant curvature a.

Both fields are written slot by slot, so one definition takes a state as a
list of Python floats (the integrators' single-state form), as an array, or
a block of states, one per column, and gives the same bits for a state in
every form. The I compartments are added in index order, starting from 0.0.
On a list the time field runs as straight-line code generated once per
cascade shape (n_E, n_I): the slot loop's operations in the slot loop's
order, so the same bits, without the loop's interpreter overhead.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
    derived_rates,
)


def _checked_state(params: ModelParams, coeffs: FieldCoefficients, s: StateVector) -> np.ndarray:
    """The raw array of s, after the checks time_rhs and x_rhs leave out:
    the state's length, the field coefficients and the cascade rates."""
    y = s.to_array()
    expected = params.n_E + params.n_I + 3
    if y.shape != (expected,):
        raise ValueError(f"state has shape {y.shape}, expected ({expected},)")
    problems = coeffs.problems_for(params)
    if problems:
        raise InvalidParamsError(problems)
    derived_rates(params)
    return y


def time_rhs(params: ModelParams, coeffs: FieldCoefficients, y):
    """Time-direction field on a raw state (T, E.., I.., V, W).

    y is one state, as a list of floats or an array of shape (dim,), or a
    block of shape (dim, m) holding one state per column; the result has
    the same form. The field is written slot by slot, so every element gets
    the same arithmetic in every form: a column of a block's result equals,
    bit for bit, the result for that column alone, as a list or an array.
    A list goes through _float_time_kernel, the same slot arithmetic as
    straight-line code. The I compartments are added in index order,
    starting from 0.0.
    Nothing is validated, not even the cascade rates: integrators check the
    state and the parameters once per run (_checked_state) and call this in
    their inner loop. Use time_field for the checked StateVector version.
    """
    n_E, n_I = params.n_E, params.n_I
    if isinstance(y, list):
        kernel = _FLOAT_TIME_KERNELS.get((n_E, n_I)) or _float_time_kernel(n_E, n_I)
        return kernel(params, coeffs, y)
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


# compiled kernels by cascade shape (n_E, n_I); each depends on nothing else
_FLOAT_TIME_KERNELS: dict = {}


def _float_time_kernel(n_E: int, n_I: int):
    """time_rhs on a list of floats for one cascade shape, as a function
    (params, coeffs, y) -> list compiled from straight-line source, built
    on the first call for the shape and kept in _FLOAT_TIME_KERNELS.

    The source is built from the two counts alone; the rates are read from
    params and coeffs on every call. Slot for slot it does time_rhs's
    operations in time_rhs's order: the outflow of slot i is c * y_i, its
    derivative is the inflow minus that outflow, and I_total adds the I
    slots to 0.0 one at a time in index order.
    """
    n_E, n_I = operator.index(n_E), operator.index(n_I)
    if n_E < 0 or n_I < 1:
        raise ValueError(f"no cascade with n_E={n_E}, n_I={n_I}")
    dim = n_E + n_I + 3
    V, W = f"y{dim - 2}", f"y{dim - 1}"
    lines = ["def kernel(params, coeffs, y):", f"    {', '.join(f'y{i}' for i in range(dim))}, = y"]
    if n_E > 0:
        lines.append(f"    c_E = {n_E} / params.tau_E")
    lines += [f"    c_I = {n_I} / params.tau_I", f"    f0 = params.beta * y0 * {V}"]
    lines += [f"    f{i} = c_E * y{i}" for i in range(1, 1 + n_E)]
    lines += [f"    f{j} = c_I * y{j}" for j in range(1 + n_E, dim - 2)]
    lines.append(f"    I_total = 0.0 + y{1 + n_E}")
    lines += [f"    I_total = I_total + y{j}" for j in range(2 + n_E, dim - 2)]
    out = ["-f0"] + [f"f{i - 1} - f{i}" for i in range(1, dim - 2)]
    out.append(f"params.p * I_total - params.c * {V} + params.D_PCF * params.a + params.v_a * {W}")
    out.append("coeffs.psi")
    lines.append(f"    return [{', '.join(out)}]")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<time_rhs kernel n_E={n_E} n_I={n_I}>", "exec"), namespace)
    _FLOAT_TIME_KERNELS[n_E, n_I] = namespace["kernel"]
    return namespace["kernel"]


def x_rhs(params: ModelParams, coeffs: FieldCoefficients, y):
    """x-direction field on a raw state or block of states; see time_rhs for
    the calling convention."""
    W = y[-1]
    out = [0.0] * len(y) if isinstance(y, list) else np.empty_like(y)
    r = coeffs.r
    out[0] = -r[0] * W
    for i in range(1, len(r)):
        out[i] = r[i] * W
    out[-1] = params.a
    return out


def time_field(params: ModelParams, coeffs: FieldCoefficients, s: StateVector) -> np.ndarray:
    return time_rhs(params, coeffs, _checked_state(params, coeffs, s))


def x_field(params: ModelParams, coeffs: FieldCoefficients, s: StateVector) -> np.ndarray:
    return x_rhs(params, coeffs, _checked_state(params, coeffs, s))


@dataclass(frozen=True)
class FieldSample:
    """Both fields evaluated at one state."""

    at: StateVector
    d_dt: np.ndarray
    d_dx: np.ndarray


def sample_fields(params: ModelParams, coeffs: FieldCoefficients, s: StateVector) -> FieldSample:
    return FieldSample(at=s, d_dt=time_field(params, coeffs, s), d_dx=x_field(params, coeffs, s))


__all__ = [
    "FieldSample",
    "time_rhs",
    "x_rhs",
    "time_field",
    "x_field",
    "sample_fields",
]
