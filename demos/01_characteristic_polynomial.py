#!/usr/bin/env python3
"""Assemble the coefficient matrix of the frozen-T linear system and show
that the three characteristic-polynomial routes agree: the closed product
form, the telescoped sum form, and a plain determinant.

The matrix couples an eclipse cascade, an infectious cascade, the virus
load, and its spatial gradient; the last row is structurally zero, which
is why lambda = 0 is always a root.
"""
import numpy as np

from flustab import (
    ModelParams,
    charpoly,
    charpoly_closed,
    charpoly_direct,
    charpoly_sum_form,
    coefficient_matrix,
)


def main():
    params = ModelParams(beta=1.0, p=1.5, c=3.0, n_E=1, tau_E=0.5,
                         n_I=3, tau_I=1.0, D_PCF=0.2, v_a=0.6, a=0.1)
    T = 0.8

    A = coefficient_matrix(params, T)
    print(f"coefficient matrix at T = {T} (dimension {len(A)}, writeable {A.flags.writeable}):")
    with np.printoptions(precision=3, suppress=True):
        print(A)
    # a plain read-only float64 array, so numpy's norms apply to it directly
    print(f"infinity norm: {np.linalg.norm(A, np.inf):.3f}")
    print()

    print("three evaluation routes, random probe points:")
    rng = np.random.default_rng(5)
    span = 2.0 * (params.c_E + params.c_I + params.c)
    print(f"{'lambda':>12} {'closed':>16} {'sum form':>16} {'determinant':>16}")
    for lam in rng.uniform(-span, span, size=6):
        closed = charpoly_closed(params, T, lam)
        summed = charpoly_sum_form(params, T, lam)
        direct = charpoly_direct(params, T, lam)
        print(f"{lam:12.4f} {closed:16.8e} {summed:16.8e} {direct:16.8e}")
    print()

    # the sum form is the canonical choice near the structural root: it
    # evaluates to exactly 0.0 at lambda = 0 instead of rounding into it
    print(f"sum form at lambda = 0:    {charpoly_sum_form(params, T, 0.0)!r}")
    print(f"canonical switch at 0:     {charpoly(params, T, 0.0)!r}")


if __name__ == "__main__":
    main()
