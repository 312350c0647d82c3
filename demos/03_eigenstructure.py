#!/usr/bin/env python3
"""Full spectrum reports in the three regimes, including the one point
where the zero eigenvalue goes defective.

With no eclipse stages the real roots come from a bracketed search on the
closed-form polynomial and every root carries a closed-form eigenvector.
At the critical target-cell fraction zero becomes a double root whose
eigenspace stays one-dimensional: algebraic multiplicity 2, geometric 1.
"""
import numpy as np

from flustab import (
    ModelParams,
    analyze,
    coefficient_matrix,
    eigenvector,
    geometric_multiplicity,
    real_roots,
)


def show(params, T, title):
    report = analyze(params, T)
    print(f"--- {title} (T = {T:.4f}, {report.classification.kind})")
    for root in report.real_eigenvalues:
        print(
            f"  lambda = {root.value:+10.6f}  class={root.sign_class:<13}"
            f" am={root.algebraic_multiplicity} gm={root.geometric_multiplicity}"
        )
    print(f"  complex pairs: {report.complex_pair_count}")
    print()


def main():
    params = ModelParams(beta=1.0, p=2.0, c=3.0, n_E=0, n_I=2, tau_I=1.0,
                         D_PCF=0.1, v_a=0.5, a=0.0)
    T_star = params.T_star

    show(params, 0.5 * T_star, "below threshold")
    show(params, T_star, "at threshold")
    show(params, 1.5 * T_star, "above threshold")

    # closed-form eigenvector quality for the zero mode
    T = 0.5 * T_star
    A = coefficient_matrix(params, T)
    v = eigenvector(params, T, 0.0)
    resid = float(np.max(np.abs(A @ v)))
    print(f"zero-mode eigenvector residual ||A v||_inf = {resid:.3e}")
    print(f"  (vector: {np.array2string(v, precision=4)})")
    print()

    # the defective point: double zero root, single eigen-direction
    am = next(r.algebraic_multiplicity for r in analyze(params, T_star).real_eigenvalues if r.value == 0.0)
    gm = geometric_multiplicity(coefficient_matrix(params, T_star), 0.0)
    print(f"at T*: zero root has algebraic multiplicity {am}, geometric {gm}")
    print("a 2x2 Jordan block, so the critical system is not diagonalizable")
    print()

    # far above threshold the outer roots grow like +-sqrt(beta*T*p); each
    # is reported only with a sign change of the polynomial around it
    T = 1e72
    roots = real_roots(params, T)
    print(f"at T = {T:g}: real roots {', '.join(f'{r:.6e}' for r in roots)}")
    print(f"  sqrt(beta*T*p) = {np.sqrt(params.beta * T * params.p):.6e}")


if __name__ == "__main__":
    main()
