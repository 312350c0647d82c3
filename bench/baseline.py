"""Reference figures for single flustab calls on pinned inputs: one row per
CLI scenario (in-process ``cli.main`` with ``--out``) and per layer call.
These are the rows bench/README.md records; they are not the benchmark's
metrics, which come from bench/run.py.

    python3 bench/baseline.py            # prints median and min per row
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out" / "baseline"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from flustab import cli, dynamics, model, spectrum, surface  # noqa: E402

PARAMS = {"beta": 1.0, "p": 2.0, "c": 3.0, "n_E": 0, "n_I": 2, "tau_I": 1.0, "D_PCF": 0.1, "v_a": 0.5, "a": 0.2}
SURFACE_PARAMS = dict(PARAMS, n_I=5)  # state dimension 8


def timed(fn, repeats: int) -> tuple[float, float]:
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def cli_call(name: str, args: list[str], config: dict | None = None):
    argv = [args[0]]
    if config is not None:
        path = OUT / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    argv += ["--out", str(OUT / f"{name}.out")] + args[1:]

    def call():
        with redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"{name} failed")

    return call


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    p = model.ModelParams.from_json_dict(PARAMS)
    coeffs = model.FieldCoefficients(r=(1.0,) * 4, psi=0.05)
    y = np.array([0.75, 0.01, 0.01, 0.02, 0.01])
    state = model.StateVector.for_params(p, y)
    rows = [
        ("surface 9x2001", cli_call("surface", ["surface"], {
            "params": SURFACE_PARAMS, "coeffs": {"r": [1.0] * 7, "psi": 0.05},
            "initial_state": [0.75, 0.01, 0.01, 0.01, 0.01, 0.01, 0.02, 0.01],
            "grid": {"x_span": 0.4, "t_span": [0.0, 40.0], "h_x": 0.05, "h_t": 0.02}}), 3),
        ("simulate 2000 steps", cli_call("simulate", ["simulate"], {
            "params": PARAMS, "initial_state": [0.75, 0.0, 0.0, 0.01, 0.0],
            "grid": {"t_span": [0.0, 40.0], "h_t": 0.02}}), 7),
        ("sweep 1001 T", cli_call("sweep", ["sweep"], {"params": PARAMS, "T": {"from": 0.5, "to": 2.5, "steps": 1001}}), 7),
        ("validate", cli_call("validate", ["validate", "--json"]), 7),
        ("field", cli_call("field", ["field"], {"params": PARAMS}), 21),
        ("analyze", cli_call("analyze", ["analyze"], {"params": PARAMS, "T": 0.75}), 51),
        ("time_rhs", lambda: dynamics.time_rhs(p, coeffs, y), 20001),
        ("real_roots", lambda: spectrum.real_roots(p, 0.75), 501),
        ("lie_bracket", lambda: surface.lie_bracket(p, coeffs, state), 501),
    ]
    results = {}
    for name, fn, repeats in rows:
        median, best = timed(fn, repeats)
        results[name] = {"median_s": median, "min_s": best, "repeats": repeats}
        print(f"{name:20s} median {median * 1e3:10.4f} ms   min {best * 1e3:10.4f} ms   ({repeats} repeats)")
    (OUT / "baseline.json").write_text(json.dumps(results, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
