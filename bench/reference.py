"""Reference computations the benchmark checks flustab's outputs against.

Everything here is written from the model equations and shares no code with
flustab: the frozen-T matrix, the nonlinear time field, a batched RK4 step,
the closed-form x-flow, and a bisection for the positive root of the scaled
characteristic polynomial. Parameters arrive as the JSON ``params``
objects the benchmark writes into its configs.
"""
from __future__ import annotations

import math

import numpy as np


def cascade_rates(params: dict) -> tuple[float, float]:
    """(c_E, c_I), with c_E = 0 when there is no eclipse cascade."""
    c_E = params["n_E"] / params["tau_E"] if params["n_E"] > 0 else 0.0
    return c_E, params["n_I"] / params["tau_I"]


def threshold(params: dict) -> float:
    """T* = c / (tau_I p beta), where the clearance meets the viral pressure."""
    return params["c"] / (params["tau_I"] * params["p"] * params["beta"])


def _compartment_rates(params: dict) -> np.ndarray:
    c_E, c_I = cascade_rates(params)
    return np.array([c_E] * params["n_E"] + [c_I] * params["n_I"])


def system_matrix(params: dict, T: float) -> np.ndarray:
    """Frozen-T linear map on (E.., I.., V, W).

    Each compartment loses its own rate and gains the outflow of the one
    before it; the first one gains the infection beta*T*V; V gains p from
    every I, loses c and is advected by v_a*W; W does not change.
    """
    rates = _compartment_rates(params)
    k = rates.size
    A = np.zeros((k + 2, k + 2))
    A[np.arange(k), np.arange(k)] = -rates
    A[np.arange(1, k), np.arange(k - 1)] = rates[:-1]
    A[0, k] = params["beta"] * T
    A[k, params["n_E"] : k] = params["p"]
    A[k, k] = -params["c"]
    A[k, k + 1] = params["v_a"]
    return A


def forcing(params: dict, psi: float) -> np.ndarray:
    """Constant part of the frozen-T field: D_PCF*a on V and psi on W."""
    b = np.zeros(params["n_E"] + params["n_I"] + 2)
    b[-2] = params["D_PCF"] * params["a"]
    b[-1] = psi
    return b


def time_field(params: dict, psi: float):
    """The nonlinear time field on a block of states Y with shape (m, dim),
    ordered (T, E.., I.., V, W)."""
    rates = _compartment_rates(params)
    k = rates.size
    n_E = params["n_E"]
    beta, p, c = params["beta"], params["p"], params["c"]
    source = params["D_PCF"] * params["a"]
    v_a = params["v_a"]

    def f(Y: np.ndarray) -> np.ndarray:
        T, comps, V, W = Y[:, 0], Y[:, 1 : k + 1], Y[:, k + 1], Y[:, k + 2]
        infection = beta * T * V
        outflow = comps * rates
        out = np.empty_like(Y)
        out[:, 0] = -infection
        out[:, 1] = infection - outflow[:, 0]
        out[:, 2 : k + 1] = outflow[:, :-1] - outflow[:, 1:]
        out[:, k + 1] = p * comps[:, n_E:].sum(axis=1) - c * V + source + v_a * W
        out[:, k + 2] = psi
        return out

    return f


def linear_field(params: dict, T: float, psi: float):
    """The frozen-T field A y + b on a block of states with shape (m, n)."""
    A = system_matrix(params, T)
    b = forcing(params, psi)
    return lambda Y: Y @ A.T + b


def rk4_step(f, Y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of size dt from every row of Y at once."""
    k1 = f(Y)
    k2 = f(Y + 0.5 * dt * k1)
    k3 = f(Y + 0.5 * dt * k2)
    k4 = f(Y + dt * k3)
    return Y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def x_flow(r, a: float, y0: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Exact flow of the x-field from the states y0 (shape (..., dim)) over
    the displacements s (broadcast against y0's leading axes).

    W moves by a*s. Every other slot moves by r_i times the integral of W,
    W0*s + a*s^2/2, with the T slot taking the opposite sign.
    """
    y0 = np.asarray(y0, dtype=float)
    s = np.asarray(s, dtype=float)
    W0 = y0[..., -1]
    G = W0 * s + 0.5 * a * s * s
    signs = np.ones(y0.shape[-1] - 1)
    signs[0] = -1.0
    out = np.empty(np.broadcast_shapes(y0.shape, s.shape + (1,)))
    out[..., :-1] = y0[..., :-1] + (signs * np.asarray(r, dtype=float)) * G[..., None]
    out[..., -1] = W0 + a * s
    return out


def scaled_charpoly(params: dict, T: float, lam: float) -> float:
    """(c+lam)*lam + q*(c_E/(c_E+lam))^n_E*((c_I/(c_I+lam))^n_I - 1) with
    q = beta*T*p: the characteristic polynomial divided by
    (c_E+lam)^n_E*(c_I+lam)^n_I, which keeps its sign for lam > 0 and
    cannot overflow."""
    c_E, c_I = cascade_rates(params)
    q = params["beta"] * T * params["p"]
    eclipse = (c_E / (c_E + lam)) ** params["n_E"] if params["n_E"] > 0 else 1.0
    return (params["c"] + lam) * lam + q * eclipse * ((c_I / (c_I + lam)) ** params["n_I"] - 1.0)


def positive_root(params: dict, T: float) -> float | None:
    """The positive real eigenvalue of the frozen-T matrix, by bisection of
    the scaled polynomial, or None when clearance is at least the viral
    pressure (c >= beta*T*p*tau_I) and no positive root exists.

    Near 0+ the scaled polynomial behaves like lam*(c - q*tau_I), and it is
    at least lam^2 + c*lam - q, so it changes sign on (0, hi] with hi the
    positive root of that quadratic.
    """
    q = params["beta"] * T * params["p"]
    if params["c"] >= q * params["tau_I"]:
        return None
    c = params["c"]
    lo, hi = 0.0, 2.0 * q / (c + math.sqrt(c * c + 4.0 * q))
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if scaled_charpoly(params, T, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dominant_nonzero_eigenvalue(params: dict, T: float) -> complex:
    """Eigenvalue of largest real part once the structural zero (the one of
    smallest magnitude) is set aside."""
    w = np.linalg.eigvals(system_matrix(params, T))
    rest = np.delete(w, int(np.argmin(np.abs(w))))
    return complex(rest[int(np.argmax(rest.real))])
