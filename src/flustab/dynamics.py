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
"""
from __future__ import annotations

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
    The I compartments are added in index order, starting from 0.0.
    Nothing is validated, not even the cascade rates: integrators check the
    state and the parameters once per run (_checked_state) and call this in
    their inner loop. Use time_field for the checked StateVector version.
    """
    n_E, n_I = params.n_E, params.n_I
    c_E = n_E / params.tau_E if n_E > 0 else 0.0
    c_I = n_I / params.tau_I
    V = y[-2]
    W = y[-1]
    out = [0.0] * len(y) if isinstance(y, list) else np.empty_like(y)
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


def rank_check(params: ModelParams, coeffs: FieldCoefficients, s: StateVector, tol: float = 1e-9) -> str:
    """"full-rank-2" when the two fields at s are linearly independent,
    "degenerate" when one is a scalar multiple of the other (including the
    both-zero case at equilibria with a = psi = 0).

    Independence is read off the singular values of the stacked 2 x n
    matrix, which measures the same thing as the Gram determinant without
    squaring the conditioning.
    """
    X = x_field(params, coeffs, s)
    Y = time_field(params, coeffs, s)
    sv = np.linalg.svd(np.vstack([X, Y]), compute_uv=False)
    if sv[0] == 0.0:
        return "degenerate"
    return "full-rank-2" if sv[1] > tol * sv[0] else "degenerate"


__all__ = [
    "FieldSample",
    "time_rhs",
    "x_rhs",
    "time_field",
    "x_field",
    "sample_fields",
    "rank_check",
]
