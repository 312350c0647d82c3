#!/usr/bin/env python3
"""Integrate trajectories with the fixed-step RK4 scheme and classify their
long-run behaviour, then check the fitted rate against the dominant
eigenvalue of the frozen-T linear system."""
import numpy as np

from flustab import (
    FieldCoefficients,
    ModelParams,
    StateVector,
    asymptotics,
    full_spectrum_numeric,
    integrate_linearized,
    integrate_time,
)


def main():
    params = ModelParams(beta=1.0, p=2.0, c=3.0, n_E=0, n_I=1, tau_I=1.0,
                         D_PCF=0.1, v_a=0.5, a=0.0)
    coeffs = FieldCoefficients.default_for(params)
    T_star = params.T_star

    # nonlinear run from a small viral seed below threshold
    s0 = StateVector.for_params(params, [0.5 * T_star, 0.0, 0.01, 0.0])
    traj = integrate_time(params, coeffs, s0, (0.0, 40.0), 0.02)
    print("nonlinear trajectory below threshold (every 400th sample):")
    print(f"{'t':>7} {'T':>10} {'I1':>12} {'V':>12}")
    for k in range(0, traj.times.size, 400):
        y = traj.states[k]
        print(f"{traj.times[k]:7.2f} {y[0]:10.6f} {y[1]:12.3e} {y[2]:12.3e}")
    verdict = asymptotics(traj, window=20.0)
    print(f"verdict: {verdict.kind}, rate {verdict.rate:+.5f}, R^2 {verdict.r_squared:.5f}")
    print()

    # frozen-T linear run above threshold: growth at the positive eigenvalue
    T = 1.5 * T_star
    eigs = full_spectrum_numeric(params, T)
    lam = max(z.real for z in eigs)
    block0 = np.ones(params.state_dim - 1)
    traj = integrate_linearized(params, T, block0, (0.0, 18.4 / lam), 0.1 / abs(lam))
    verdict = asymptotics(traj, window=18.4 / lam)
    print("frozen-T linearized run above threshold:")
    print(f"  dominant eigenvalue:     {lam:+.6f}")
    print(f"  fitted asymptotic rate:  {verdict.rate:+.6f} ({verdict.kind})")
    print(f"  relative error:          {abs(verdict.rate - lam) / lam:.2%}")


if __name__ == "__main__":
    main()
