"""Coefficient-matrix assembly and three independent evaluations of its
characteristic polynomial.

The (n_E + n_I + 2)-square matrix acts on the (E, I, V, W) block of the state
at a frozen target-cell fraction T. Its characteristic polynomial has a
closed form; a telescoped sum form of the same polynomial avoids the
cancellation the closed form suffers near lambda = 0; and a dense LU
determinant serves as an oracle that shares no algebra with either. Each
route is one private body, which the per-set functions here and validate's
charpoly suite share: the suite evaluates the forms once per cascade shape,
each set's coefficients a column, and the determinant once per matrix size,
on the stack of every set's A - lambda_k*I.

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


# The forms' bodies. The rates, q = beta*T*c_E^n_E*p and the powers of c_I
# are floats, or (k, 1) columns against a (k, m) lam, one row per set; the
# caller takes q and the powers in floats.
def _cascade(c_E, c_I, c, n_E: int, n_I: int, lam):
    return (c_E + lam) ** n_E * (c_I + lam) ** n_I * (c + lam) * lam


def _closed(cascade, q, c_I, c_I_n, n_I: int, lam):
    return cascade + q * (c_I_n - (c_I + lam) ** n_I)


def _sum_form(cascade, q, c_I, c_I_powers, lam):
    # c_I_powers: c_I^j for j < n_I, summed in that order
    top = len(c_I_powers) - 1
    return cascade + q * (-lam) * sum((w * (c_I + lam) ** (top - j) for j, w in enumerate(c_I_powers)), 0.0)


def _lu_charpoly(A, lam: np.ndarray):
    """(-1)^n det(A - lam*I) of the n-square matrices A broadcast against
    lam's shape, from one slogdet call on the stack."""
    n = A.shape[-1]
    sign, logabs = np.linalg.slogdet(A - lam[..., None, None] * np.eye(n))
    return (-1.0 if n % 2 else 1.0) * (sign * np.exp(logabs))


def charpoly_closed(params: ModelParams, T: float, lam: float) -> float:
    """Closed-form characteristic polynomial value at lam, a scalar or an
    array of values."""
    c_E, c_I, n_E, n_I = params.c_E, params.c_I, params.n_E, params.n_I
    cascade = _cascade(c_E, c_I, params.c, n_E, n_I, lam)
    return _closed(cascade, params.beta * T * c_E**n_E * params.p, c_I, c_I**n_I, n_I, lam)


def charpoly_sum_form(params: ModelParams, T: float, lam: float) -> float:
    """Telescoped form of the same polynomial.

    The difference of n_I-th powers in the closed form is expanded as
    (-lam) * sum_j c_I^j (c_I + lam)^(n_I - 1 - j), so every term carries
    the factor lam explicitly and the value at lam = 0 is an exact 0.0
    rather than a cancellation of two equal powers. lam is a scalar or an
    array of values.
    """
    c_E, c_I, n_E, n_I = params.c_E, params.c_I, params.n_E, params.n_I
    cascade = _cascade(c_E, c_I, params.c, n_E, n_I, lam)
    return _sum_form(cascade, params.beta * T * c_E**n_E * params.p, c_I, [c_I**j for j in range(n_I)], lam)


def charpoly_direct(params: ModelParams, T: float, lam):
    """Determinant oracle: LU with partial pivoting, accumulated as
    sign * log|det| so large dimensions cannot overflow the product.

    lam is a scalar or an array of values; an array gives an array of the
    same shape. The matrix is assembled once and the stack of A - lam_k*I is
    factored by one slogdet call, which runs the same LAPACK routine on each
    matrix, so every value equals the scalar call's bit for bit."""
    return _lu_charpoly(coefficient_matrix(params, T), np.asarray(lam, dtype=float))


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
