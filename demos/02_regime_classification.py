#!/usr/bin/env python3
"""Sweep the target-cell fraction through the threshold T* and watch the
regime flip from Definite (every nonzero eigenvalue strictly stable) to
Indefinite (exactly one positive eigenvalue)."""
import numpy as np

from flustab import (
    ModelParams,
    classify,
    coefficient_matrix,
    full_spectrum_numeric,
)


def positive_count(params, T):
    # a dense eigensolver value within 1e-8 of the matrix's scale counts as
    # zero, the window analyze uses for such values too
    w = full_spectrum_numeric(params, T)
    ztol = 1e-8 * max(np.linalg.norm(coefficient_matrix(params, T), np.inf), 1.0)
    reals = [z.real for z in w if abs(z.imag) <= ztol]
    return sum(1 for v in reals if v > ztol), max(z.real for z in w)


def main():
    params = ModelParams(beta=0.8, p=2.5, c=3.0, n_E=0, n_I=3, tau_I=1.2,
                         D_PCF=0.1, v_a=0.5, a=0.0)
    T_star = params.T_star
    print(f"threshold T* = c / (tau_I * p * beta) = {T_star:.6f}")
    print()
    print(f"{'T':>8} {'T/T*':>6} {'classification':>15} {'n_positive':>11} {'max Re':>10}")
    for u in np.linspace(0.2, 1.8, 9):
        T = float(u * T_star)
        kind = classify(params, T)
        n_pos, max_re = positive_count(params, T)
        print(f"{T:8.4f} {u:6.2f} {kind:>15} {n_pos:11d} {max_re:10.5f}")
    print()
    print("the positive eigenvalue appears exactly where the clearance rate c")
    print("stops dominating the viral pressure beta * T * p * tau_I")


if __name__ == "__main__":
    main()
