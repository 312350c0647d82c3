"""Seeded inputs for the three benchmark workloads.

A workload is a fixed list of ops; each op is one ``flustab`` CLI call. The
shapes of the ops (cascade depths, grid sizes, step counts, sweep lengths)
are fixed per workload so that the work in a round does not depend on the
seed; the seed draws the rates, the initial states and the T values. flustab
only ever sees the generated configs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference

WORKLOADS = ("surface", "trajectory", "spectral")

# Surfaces: (n_E, n_I, x nodes, t nodes). From a few x-fibers to 17 and from
# 151 to 2001 time nodes; 14k grid nodes per round. Rounds are kept short so
# that a run repeats each op many times (see best_latencies in run.py).
SURFACE_SHAPES = ((0, 1, 3, 2001), (1, 3, 17, 151), (2, 6, 5, 301), (0, 4, 9, 201), (1, 2, 7, 301))
SURFACE_H_X = 0.05
SURFACE_H_T = 0.02

# Nonlinear trajectories: (n_E, n_I, side of T* the initial T sits on).
SIMULATE_SHAPES = ((0, 2, "below"), (1, 4, "above"), (2, 6, "below"), (0, 1, "above"))
SIMULATE_STEPS = 2500
SIMULATE_H_T = 0.02
# Frozen-T linearized runs: (n_E, n_I, regime of the frozen T).
LINEARIZED_SHAPES = ((0, 3, "definite"), (1, 2, "indefinite"), (2, 5, "definite"), (0, 6, "indefinite"))
LINEARIZED_STEPS = 2500

# Sweeps: (n_E, n_I, T steps). Deep cascades are bound by the dense eigensolve.
SWEEP_SHAPES = ((0, 60, 201), (3, 12, 401), (1, 30, 301), (2, 3, 1001))
# analyze runs every regime cell at one even and one odd depth, below
# n_I = 20: deeper cascades hit the spurious-root fault of spectrum.real_roots
# (see CHANGES.md).
ANALYZE_N_I = (8, 13)
ANALYZE_NUMERIC_SHAPES = ((1, 4, "indefinite"), (2, 7, "definite"), (3, 2, "indefinite"))
FIELD_N_I = (1, 7, 16)
VALIDATE_COUNT = 2
CELLS = tuple((row, col) for row in "<=>" for col in "<=>")


@dataclass
class Op:
    """One CLI call: the subcommand, its config (None for validate), extra
    arguments, and what the generator intended, for the checks."""

    command: str
    config: dict | None
    extra: list[str] = field(default_factory=list)
    intent: dict = field(default_factory=dict)

    @property
    def out_suffix(self) -> str:
        return ".json" if self.command in ("analyze", "validate") else ".csv"


def _loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))


def _params(rng: np.random.Generator, n_E: int, n_I: int) -> dict:
    params = {
        "beta": _loguniform(rng, 0.3, 3.0),
        "p": _loguniform(rng, 0.3, 3.0),
        "c": _loguniform(rng, 0.3, 3.0),
        "n_E": n_E,
        "n_I": n_I,
        "tau_I": _loguniform(rng, 0.5, 3.0),
        "D_PCF": _loguniform(rng, 0.05, 0.5),
        "v_a": _loguniform(rng, 0.1, 1.0),
        "a": float(rng.uniform(0.05, 0.5)),
    }
    if n_E > 0:
        params["tau_E"] = _loguniform(rng, 0.5, 3.0)
    return params


def _full_state(rng: np.random.Generator, params: dict, T: float) -> list[float]:
    # Nonnegative compartments, V and W, with a > 0 and psi > 0: every slot
    # stays bounded over the spans used here, so no run blows up.
    k = params["n_E"] + params["n_I"]
    comps = [float(v) for v in rng.uniform(0.0, 0.01, size=k)]
    return [T] + comps + [float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.0, 0.05))]


def _coeffs(rng: np.random.Generator, params: dict) -> dict:
    k = params["n_E"] + params["n_I"]
    r = [_loguniform(rng, 0.5, 2.0) for _ in range(k + 1)] + [1.0]
    return {"r": r, "psi": float(rng.uniform(0.01, 0.1))}


def surface_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n_E, n_I, nx, nt in SURFACE_SHAPES:
        params = _params(rng, n_E, n_I)
        T0 = float(rng.uniform(0.5, 1.5)) * reference.threshold(params)
        config = {
            "params": params,
            "coeffs": _coeffs(rng, params),
            "initial_state": _full_state(rng, params, T0),
            "grid": {
                "x_span": SURFACE_H_X * (nx - 1),
                "t_span": [0.0, SURFACE_H_T * (nt - 1)],
                "h_x": SURFACE_H_X,
                "h_t": SURFACE_H_T,
            },
        }
        ops.append(Op("surface", config, intent={"nx": nx, "nt": nt}))
    return ops


def _clean_rate_config(rng: np.random.Generator, n_E: int, n_I: int, regime: str):
    """Frozen-T parameters whose dominant nonzero mode is real, well
    separated from the next one and not drowned by the spectral radius, so
    that a fit over the trailing window recovers it. Found by rejection on
    the benchmark's own matrix."""
    for _ in range(20000):
        params = _params(rng, n_E, n_I)
        u = rng.uniform(0.2, 0.8) if regime == "definite" else rng.uniform(1.2, 2.0)
        T = float(u * reference.threshold(params))
        w = np.linalg.eigvals(reference.system_matrix(params, T))
        rest = np.delete(w, int(np.argmin(np.abs(w))))
        order = np.argsort(rest.real)
        lam, runner_up = rest[order[-1]], rest[order[-2]]
        rho = float(np.max(np.abs(rest)))
        if abs(lam.imag) > 1e-10 * rho or (lam.real < 0) != (regime == "definite"):
            continue
        lam = float(lam.real)
        if abs(lam) < 0.05 * rho or lam - float(runner_up.real) < 0.8 * abs(lam):
            continue
        if regime == "definite":
            t_end, window = 22.0 / abs(lam), 10.0 / abs(lam)
        else:
            t_end = window = 18.4 / lam
        if t_end / LINEARIZED_STEPS * rho > 0.1:
            continue  # the fixed step count would resolve the fastest mode too coarsely
        return params, T, t_end, window
    raise RuntimeError(f"no clean {regime} configuration for n_E={n_E}, n_I={n_I}")


def trajectory_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n_E, n_I, side in SIMULATE_SHAPES:
        params = _params(rng, n_E, n_I)
        u = rng.uniform(0.4, 0.8) if side == "below" else rng.uniform(1.2, 2.0)
        T0 = float(u * reference.threshold(params))
        config = {
            "params": params,
            "coeffs": _coeffs(rng, params),
            "initial_state": _full_state(rng, params, T0),
            "grid": {"t_span": [0.0, SIMULATE_H_T * SIMULATE_STEPS], "h_t": SIMULATE_H_T},
        }
        ops.append(Op("simulate", config, intent={"nt": SIMULATE_STEPS + 1}))
    for n_E, n_I, regime in LINEARIZED_SHAPES:
        params, T, t_end, window = _clean_rate_config(rng, n_E, n_I, regime)
        block = [float(v) for v in rng.uniform(0.5, 1.5, size=n_E + n_I + 2)]
        config = {
            "params": params,
            "T": T,
            "initial_state": block,
            "grid": {"t_span": [0.0, t_end], "h_t": t_end / LINEARIZED_STEPS, "asymptotics_window": window},
            "linearized": True,
        }
        ops.append(Op("simulate", config, intent={"nt": LINEARIZED_STEPS + 1, "regime": regime}))
    return ops


def _sweep_range(rng: np.random.Generator, params: dict, steps: int) -> dict:
    """A T range straddling T* with T* halfway between two grid points, so
    that no row falls near the Critical window."""
    T_star = reference.threshold(params)
    lo = float(rng.uniform(0.3, 0.7)) * T_star
    hi = float(rng.uniform(1.3, 2.0)) * T_star
    dT = (hi - lo) / (steps - 1)
    k = math.floor((T_star - lo) / dT)
    lo = T_star - (k + 0.5) * dT
    return {"from": lo, "to": lo + (steps - 1) * dT, "steps": steps}


def _cell_config(rng: np.random.Generator, n_I: int, row: str, col: str) -> tuple[dict, float]:
    """Parameters in the regime cell (row, col), row the sign of
    c - beta*T*p*tau_I and col the sign of c_I^2 - c*c_I - beta*T*p.

    An equality is built exactly: tau_I = n/(n+1) makes c_I = n+1 exactly,
    the products are small dyadic rationals, and the seed rescales time by a
    power of two, which keeps every product exact. Strict cells are drawn at
    random until both signs hold with a relative margin of 1e-2.
    """
    m = n_I + 1
    scale = 2.0 ** int(rng.integers(-2, 3))
    T = 2.0 ** int(rng.integers(-1, 2))
    p = 2.0 ** int(rng.integers(-1, 2))
    j = int(rng.integers(1, 4)) / 4.0
    exact = {
        ("=", "="): (float(n_I), float(m)),
        ("=", "<"): (2.0 * n_I, 2.0 * m),
        ("=", ">"): (n_I / 2.0, m / 2.0),
        ("<", "="): (n_I - j, m * (1.0 + j)),
        (">", "="): (n_I + j, m * (1.0 - j)),
    }
    base = {"n_E": 0, "n_I": n_I, "D_PCF": _loguniform(rng, 0.05, 0.5), "v_a": _loguniform(rng, 0.1, 1.0), "a": float(rng.uniform(0.05, 0.5))}
    if (row, col) in exact:
        c, q = exact[(row, col)]
        params = dict(base, beta=q * scale * scale / (T * p), p=p, c=c * scale, tau_I=n_I / m / scale)
        return params, T
    for _ in range(100000):
        params = dict(base, beta=_loguniform(rng, 0.1, 10.0), p=p, c=_loguniform(rng, 0.1, 10.0), tau_I=_loguniform(rng, 0.1, 10.0))
        c, c_I = params["c"], n_I / params["tau_I"]
        q = params["beta"] * T * p
        gap_row = (c - q * params["tau_I"]) / max(c, q * params["tau_I"])
        gap_col = (c_I * c_I - c * c_I - q) / max(c_I * c_I, c * c_I, q)
        if abs(gap_row) < 1e-2 or abs(gap_col) < 1e-2:
            continue
        if (gap_row > 0) == (row == ">") and (gap_col > 0) == (col == ">"):
            return params, T
    raise RuntimeError(f"no parameters found for cell ({row}, {col}) at n_I={n_I}")


def spectral_ops(rng: np.random.Generator) -> list[Op]:
    ops = []
    for n_E, n_I, steps in SWEEP_SHAPES:
        params = _params(rng, n_E, n_I)
        ops.append(Op("sweep", {"params": params, "T": _sweep_range(rng, params, steps)}))
    for n_I in ANALYZE_N_I:
        for row, col in CELLS:
            params, T = _cell_config(rng, n_I, row, col)
            ops.append(Op("analyze", {"params": params, "T": T}, intent={"row": row, "col": col}))
    for n_E, n_I, regime in ANALYZE_NUMERIC_SHAPES:
        params = _params(rng, n_E, n_I)
        u = rng.uniform(0.3, 0.8) if regime == "definite" else rng.uniform(1.2, 2.0)
        T = float(u * reference.threshold(params))
        ops.append(Op("analyze", {"params": params, "T": T}, intent={"row": ">" if regime == "definite" else "<"}))
    for n_I in FIELD_N_I:
        params = _params(rng, 0, n_I)
        ops.append(Op("field", {"params": params, "coeffs": _coeffs(rng, params)}))
    for seed in rng.integers(0, 2**31, size=VALIDATE_COUNT):
        ops.append(Op("validate", None, extra=["--json", "--seed", str(int(seed))], intent={"seed": int(seed)}))
    return ops


_BUILDERS = {"surface": surface_ops, "trajectory": trajectory_ops, "spectral": spectral_ops}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one round of a workload; the same seed gives the same
    list."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _BUILDERS[workload](rng)
