"""Coefficient-matrix assembly and three independent evaluations of its
characteristic polynomial.

The (n_E + n_I + 2)-square matrix acts on the (E, I, V, W) block of the state
at a frozen target-cell fraction T. Its characteristic polynomial has a
closed form; a telescoped sum form of the same polynomial avoids the
cancellation the closed form suffers near lambda = 0; and a dense LU
determinant serves as an oracle that shares no algebra with either.

Sign convention: every evaluation returns (-1)^(n_E + n_I) * det(A - lambda*I),
which makes the leading coefficient +1.
"""
from __future__ import annotations

import numpy as np

from .model import ModelParams


def coefficient_matrix(params: ModelParams, T: float) -> np.ndarray:
    """Assemble the system matrix at target-cell fraction T, a read-only
    float64 array.

    Row/column order is (E_1..E_{n_E}, I_1..I_{n_I}, V, W). Each
    compartment row has its cascade rate on the subdiagonal and its negative
    on the diagonal; the infection input beta*T sits in the first row's V
    column; the V row collects p from every I column, -c on the diagonal,
    and v_a from the W column; the W row is zero.
    """
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    n = n_E + n_I + 2
    A = np.zeros((n, n))
    for i in range(n_E):
        A[i, i] = -c_E
        if i > 0:
            A[i, i - 1] = c_E
    for j in range(n_I):
        row = n_E + j
        A[row, row] = -c_I
        if j > 0:
            A[row, row - 1] = c_I
        elif n_E > 0:
            A[row, row - 1] = c_E  # hand-off from the last eclipse class
    v_row = n_E + n_I
    A[0, v_row] = params.beta * T
    A[v_row, n_E : n_E + n_I] = params.p
    A[v_row, v_row] = -params.c
    A[v_row, v_row + 1] = params.v_a
    # last row stays zero: W is constant under the frozen-T linear map
    A.setflags(write=False)
    return A


def charpoly_closed(params: ModelParams, T: float, lam: float) -> float:
    """Closed-form characteristic polynomial value at lam, a scalar or an
    array of values."""
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    cascade = (c_E + lam) ** n_E * (c_I + lam) ** n_I * (params.c + lam) * lam
    feedback = params.beta * T * c_E**n_E * params.p * (c_I**n_I - (c_I + lam) ** n_I)
    return cascade + feedback


def charpoly_sum_form(params: ModelParams, T: float, lam: float) -> float:
    """Telescoped form of the same polynomial.

    The difference of n_I-th powers in the closed form is expanded as
    (-lam) * sum_j c_I^j (c_I + lam)^(n_I - 1 - j), so every term carries
    the factor lam explicitly and the value at lam = 0 is an exact 0.0
    rather than a cancellation of two equal powers. lam is a scalar or an
    array of values.
    """
    c_E, c_I = params.c_E, params.c_I
    n_E, n_I = params.n_E, params.n_I
    cascade = (c_E + lam) ** n_E * (c_I + lam) ** n_I * (params.c + lam) * lam
    s = 0.0
    for j in range(n_I):
        s += c_I**j * (c_I + lam) ** (n_I - 1 - j)
    return cascade + params.beta * T * c_E**n_E * params.p * (-lam) * s


def charpoly_direct(params: ModelParams, T: float, lam):
    """Determinant oracle: LU with partial pivoting, accumulated as
    sign * log|det| so large dimensions cannot overflow the product.

    lam is a scalar or an array of values; an array gives an array of the
    same shape. The matrix is assembled once and the stack of A - lam_k*I is
    factored by one slogdet call, which runs the same LAPACK routine on each
    matrix, so every value equals the scalar call's bit for bit."""
    A = coefficient_matrix(params, T)
    M = A - np.asarray(lam, dtype=float)[..., None, None] * np.eye(len(A))
    sign, logabs = np.linalg.slogdet(M)
    det = sign * np.exp(logabs)
    parity = -1.0 if (params.n_E + params.n_I) % 2 else 1.0
    return parity * det


def charpoly(params: ModelParams, T: float, lam: float) -> float:
    """Canonical value: the sum form close to lam = 0 (where the closed form
    cancels), the closed form elsewhere."""
    c_I = params.c_I
    if abs(lam) < 1e-6 * (c_I + params.c):
        return charpoly_sum_form(params, T, lam)
    return charpoly_closed(params, T, lam)


__all__ = [
    "coefficient_matrix",
    "charpoly_closed",
    "charpoly_sum_form",
    "charpoly_direct",
    "charpoly",
]
