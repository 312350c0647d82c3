"""End-to-end acceptance gate.

Ten checks with pinned tolerances. Each prints one PASS/FAIL line on the
live terminal (capture is briefly disabled for the summary line) and then
asserts, so a full run reads as a checklist while still failing loudly.
"""
import json
import time

import numpy as np

from flustab import (
    FieldCoefficients,
    ModelParams,
    StateVector,
    asymptotics,
    coefficient_matrix,
    full_spectrum_numeric,
    integrate_linearized,
    integrate_time,
    lie_bracket,
    time_rhs,
    trace_surface,
)
from flustab.cli import main
from flustab.validation import (
    sample_params,
    suite_charpoly_equivalence,
    suite_eigenvector_residuals,
    suite_sign_tables,
)


def loguniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def report(capfd, num: int, ok: bool, label: str, detail: str = ""):
    with capfd.disabled():
        status = "PASS" if ok else "FAIL"
        tail = f" ({detail})" if detail else ""
        print(f"[criterion {num:2d}] {status}: {label}{tail}", flush=True)
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_polynomial_routes_agree(capfd):
    t0 = time.perf_counter()
    suite = suite_charpoly_equivalence(seed=0, n_sets=200, n_lambda=20, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = suite.failures == 0 and elapsed < 5.0
    report(
        capfd, 1, ok,
        "closed and telescoped polynomial forms match the determinant",
        f"{suite.checks} checks, {suite.failures} failures, {elapsed:.2f}s",
    )


def test_criterion_02_zero_always_in_spectrum(capfd):
    # same parameter stream as criterion 1: draw the set, then burn the
    # twenty lambda samples the equivalence pass consumes
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        params, T = sample_params(rng)
        span = 2.0 * (params.c_E + params.c_I + params.c)
        rng.uniform(-span, span, size=20)
        A = coefficient_matrix(params, T)
        w = full_spectrum_numeric(params, T)
        closest = float(np.min(np.abs(w)))
        worst = max(worst, closest / (1e-9 * A.inf_norm))
    ok = worst <= 1.0
    report(
        capfd, 2, ok,
        "every spectrum contains the structural zero eigenvalue",
        f"worst min|lambda| at {worst:.3f} of tolerance",
    )


def test_criterion_03_sign_tables(capfd):
    t0 = time.perf_counter()
    suite = suite_sign_tables(even_n_I=(2, 4), odd_n_I=(3, 5), ztol_rel=1e-8)
    elapsed = time.perf_counter() - t0
    ok = suite.failures == 0 and elapsed < 5.0
    report(
        capfd, 3, ok,
        "all regime cells match their predicted sign patterns",
        f"{suite.checks} checks, {suite.failures} failures, {elapsed:.2f}s",
    )


def test_criterion_04_threshold_flip(capfd):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    bad: list[str] = []
    for k in range(20):
        params, _ = sample_params(rng)
        T_star = params.T_star
        Ts = np.linspace(0.5 * T_star, 1.5 * T_star, 101)
        cell = float(Ts[1] - Ts[0])
        counts = []
        for T in Ts:
            T = float(T)
            A = coefficient_matrix(params, T)
            w = full_spectrum_numeric(params, T)
            ztol_im = 1e-8 * max(A.inf_norm, 1.0)
            reals = [z.real for z in w if abs(z.imag) <= ztol_im]
            counts.append(sum(1 for v in reals if v > 1e-6))
        jumps = [j for j in range(1, 101) if counts[j] != counts[j - 1]]
        if not (counts[0] == 0 and counts[-1] == 1 and len(jumps) == 1):
            bad.append(f"set {k}: counts are not a single 0->1 step")
            continue
        j = jumps[0]
        if not (Ts[j - 1] - cell <= T_star <= Ts[j] + cell):
            bad.append(
                f"set {k}: jump in [{Ts[j-1]:.6g}, {Ts[j]:.6g}] vs T*={T_star:.6g}"
            )
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    report(
        capfd, 4, ok,
        "positive-eigenvalue count steps 0 to 1 inside one sweep cell of T*",
        f"20 sweeps x 101 points, {elapsed:.2f}s" + ("; " + "; ".join(bad) if bad else ""),
    )


def test_criterion_05_eigenvector_formulas(capfd):
    suite = suite_eigenvector_residuals(seed=0, n_sets=50, resid_rel=1e-8, tol_rank=1e-7)
    ok = suite.failures == 0
    report(
        capfd, 5, ok,
        "formula eigenvectors satisfy the eigen-relation with simple eigenspaces",
        f"{suite.checks} checks, {suite.failures} failures",
    )


def test_criterion_06_integrator_order(capfd):
    params = ModelParams(beta=1.0, p=1.0, c=2.0, n_I=2, tau_I=1.0,
                         n_E=1, tau_E=1.0, D_PCF=0.1, v_a=0.3, a=0.5)
    coeffs = FieldCoefficients.default_for(params)
    s0 = StateVector.for_params(params, [1.0, 0.2, 0.3, 0.1, 0.5, 0.2])
    h = 0.1
    finals = {
        div: integrate_time(params, coeffs, s0, (0.0, 2.0), h / div).final
        for div in (1, 2, 8)
    }
    e1 = float(np.max(np.abs(finals[1] - finals[8])))
    e2 = float(np.max(np.abs(finals[2] - finals[8])))
    ratio = e1 / e2
    ok = 12.0 <= ratio <= 20.0
    report(
        capfd, 6, ok,
        "step halving shows fourth-order global error scaling",
        f"error ratio {ratio:.2f} (want [12, 20])",
    )


def _draw_params(rng) -> ModelParams:
    n_E = int(rng.integers(0, 4))
    n_I = int(rng.integers(1, 7))
    return ModelParams(
        beta=loguniform(rng, 0.1, 10), p=loguniform(rng, 0.1, 10),
        c=loguniform(rng, 0.1, 10), n_I=n_I, tau_I=loguniform(rng, 0.1, 10),
        n_E=n_E, tau_E=loguniform(rng, 0.1, 10) if n_E else None,
        D_PCF=loguniform(rng, 0.1, 10), v_a=loguniform(rng, 0.1, 10),
        a=float(rng.uniform(-2, 2)),
    )


def _rate_configs(seed: int, kind: str, count: int):
    """Seeded search for frozen-T configurations with one clean dominant
    mode: real, well separated, and not drowned by the spectral radius."""
    rng = np.random.default_rng(seed)
    found = []
    tried = 0
    while len(found) < count and tried < 4000:
        tried += 1
        params = _draw_params(rng)
        u = rng.uniform(0.2, 0.8) if kind == "definite" else rng.uniform(1.2, 2.0)
        T = float(u * params.T_star)
        eigs = full_spectrum_numeric(params, T)
        rest = np.delete(eigs, int(np.argmin(np.abs(eigs))))
        idx = int(np.argmax(rest.real))
        lam = rest[idx]
        rho = float(np.max(np.abs(rest)))
        if abs(lam.imag) > 1e-10 * rho:
            continue
        lam = float(lam.real)
        if (kind == "definite" and lam >= 0) or (kind == "indefinite" and lam <= 0):
            continue
        if abs(lam) < 0.05 * rho:
            continue
        gap = lam - float(np.max(np.delete(rest, idx).real))
        if gap < 0.8 * abs(lam):
            continue
        found.append((params, T, lam, rho))
    return found


def test_criterion_07_linearized_rate_recovery(capfd):
    checked = 0
    worst = 0.0
    problems: list[str] = []
    for kind, seed in (("definite", 11), ("indefinite", 12)):
        configs = _rate_configs(seed, kind, 5)
        if len(configs) != 5:
            problems.append(f"{kind}: only {len(configs)} usable configs found")
            continue
        for params, T, lam, rho in configs:
            h = 0.1 / rho
            if kind == "definite":
                t_end, window = 22.0 / abs(lam), 10.0 / abs(lam)
            else:
                t_end = 18.4 / lam
                window = t_end
            traj = integrate_linearized(
                params, T, np.ones(params.state_dim - 1), (0.0, t_end), h
            )
            verdict = asymptotics(traj, window)
            expected_kind = "Converging" if kind == "definite" else "Diverging"
            err = abs(verdict.rate - lam) / abs(lam)
            worst = max(worst, err)
            checked += 1
            if verdict.kind != expected_kind or err > 0.05:
                problems.append(
                    f"{kind} lam={lam:+.4f}: kind={verdict.kind} rate={verdict.rate:+.4f} err={err:.2%}"
                )
    ok = checked == 10 and not problems
    report(
        capfd, 7, ok,
        "frozen-T runs recover the dominant rate within 5%",
        f"10 configurations, worst error {worst:.2%}" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_08_surface_commutation(capfd):
    params = ModelParams(beta=0.0, p=1.0, c=2.0, n_I=1, tau_I=1.0,
                         D_PCF=0.0, v_a=0.0, a=0.0)
    coeffs = FieldCoefficients(r=(1.0, 1.0, 1.0), psi=0.0)
    s0 = StateVector.for_params(params, [1.0, 1.0, 1.0, 0.5])
    bracket, defect = lie_bracket(params, coeffs, s0)
    hx = ht = 0.05
    grid_a = trace_surface(params, coeffs, s0, (0.0, 8 * hx), (0.0, 8 * ht), hx, ht)
    grid_b = trace_surface(params, coeffs, s0, (0.0, 4 * hx), (0.0, 4 * ht), hx / 2, ht / 2)
    m_a = float(grid_a.mismatch[-1, -1])
    m_b = float(grid_b.mismatch[-1, -1])
    ratio = m_a / m_b
    ok = defect < 1e-12 and 3.0 <= ratio <= 5.0
    report(
        capfd, 8, ok,
        "far-corner mismatch shrinks like a commuting pair when steps halve",
        f"bracket defect {defect:.2e}, shrink factor {ratio:.2f} (want [3, 5])",
    )


def test_criterion_09_telescoping_identity(capfd):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        params, _ = sample_params(rng)
        y = rng.normal(size=params.state_dim) * 10 ** rng.uniform(-2, 2)
        coeffs = FieldCoefficients.default_for(params)
        f = time_rhs(params, coeffs, y)
        head = params.n_E + params.n_I + 1
        lhs = float(np.sum(f[:head]))
        rhs = -params.c_I * y[head - 1]
        scale = max(1.0, float(np.max(np.abs(f[:head]))), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-12
    report(
        capfd, 9, ok,
        "time-field compartment sum telescopes to the last cascade outflow",
        f"worst scaled defect {worst:.2e} over 1000 states",
    )


def test_criterion_10_cli_contract(capfd, tmp_path):
    problems: list[str] = []

    code = main(["validate"])
    capfd.readouterr()
    if code != 0:
        problems.append(f"validate exited {code}")

    code = main(["validate", "--json"])
    captured = capfd.readouterr()
    doc = json.loads(captured.out)
    if set(doc) != {"seed", "ok", "suites"}:
        problems.append(f"validate json keys {sorted(doc)}")
    if any(set(s) != {"name", "checks", "failures", "failure_examples"} for s in doc["suites"]):
        problems.append("suite json keys drifted")

    params = dict(beta=1.0, p=2.0, c=3.0, n_E=0, n_I=1, tau_I=1.0,
                  D_PCF=0.1, v_a=0.5, a=0.2)

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(
        {"params": params, "T": {"from": 0.5, "to": 2.5, "steps": 3}}
    ), encoding="utf-8")
    code = main(["sweep", "--config", str(sweep_cfg)])
    captured = capfd.readouterr()
    header = captured.out.splitlines()[0]
    if code != 0 or header != "T,classification,max_real_eig,n_positive":
        problems.append(f"sweep header {header!r}")

    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps({
        "params": params,
        "initial_state": [1.0, 0.1, 0.1, 0.0],
        "grid": {"t_span": 0.2, "h_t": 0.1},
    }), encoding="utf-8")
    code = main(["simulate", "--config", str(sim_cfg)])
    captured = capfd.readouterr()
    header = captured.out.splitlines()[0]
    if code != 0 or header != "x,t,T,I1,V,W,mismatch":
        problems.append(f"simulate header {header!r}")

    surf_cfg = tmp_path / "surface.json"
    surf_cfg.write_text(json.dumps({
        "params": params,
        "initial_state": [1.0, 0.1, 0.1, 0.0],
        "grid": {"x_span": 0.2, "t_span": 0.2, "h_x": 0.1, "h_t": 0.1},
    }), encoding="utf-8")
    code = main(["surface", "--config", str(surf_cfg)])
    captured = capfd.readouterr()
    header = captured.out.splitlines()[0]
    if code != 0 or header != "x,t,T,I1,V,W,mismatch":
        problems.append(f"surface header {header!r}")

    field_cfg = tmp_path / "field.json"
    field_cfg.write_text(json.dumps({"params": params}), encoding="utf-8")
    code = main(["field", "--config", str(field_cfg)])
    captured = capfd.readouterr()
    header = captured.out.splitlines()[0]
    expected = ("panel,panel_axis,T,u_neg,u_panel,"
                "dt_T,dt_I1,dt_V,dt_W,dx_T,dx_I1,dx_V,dx_W")
    if code != 0 or header != expected:
        problems.append(f"field header {header!r}")

    analyze_cfg = tmp_path / "analyze.json"
    analyze_cfg.write_text(json.dumps({"params": params, "T": 0.5}), encoding="utf-8")
    code = main(["analyze", "--config", str(analyze_cfg)])
    captured = capfd.readouterr()
    doc = json.loads(captured.out)
    expected_keys = {
        "analytic", "classification", "T_star", "regime", "real_eigenvalues",
        "complex_pair_count", "numeric_spectrum", "predicted_pattern", "notice",
    }
    if code != 0 or set(doc) != expected_keys:
        problems.append(f"analyze keys {sorted(doc)}")

    ok = not problems
    report(
        capfd, 10, ok,
        "validate exits 0; CSV headers and JSON key sets are pinned",
        "; ".join(problems) if problems else "6 subcommands checked",
    )
