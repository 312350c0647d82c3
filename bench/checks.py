"""Checks of every op's output against the reference computations or
against a property the method must have. Nothing is compared with a stored
copy of an earlier output.

``check(op, code, out_path, err)`` returns a Verdict: ``ok`` is False when
the op exited nonzero or any check failed, ``wrong`` is True when the op
exited 0 but its output failed a check.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

import reference
from workloads import Op

# RK4 reproduces the x-flow exactly (W is linear in x, every other slot
# quadratic), so only rounding separates flustab from the closed form.
XFLOW_REL = 1e-11
# Each reported step is compared with one reference RK4 step from the
# reported state before it, so the two codes differ by one step's rounding.
RK4_STEP_REL = 1e-12
# A fitted rate within 5% of the dominant eigenvalue (acceptance criterion 7).
RATE_REL = 0.05
ROOT_REL = 1e-7
EIGVEC_REL = 1e-8
EXACT_REL = 1e-12


class CheckFailure(Exception):
    pass


@dataclass
class Verdict:
    ok: bool
    wrong: bool = False
    reason: str = ""
    node_steps: int = 0  # single-state RK4 steps of the nonlinear fields
    suite_checks: int = 0  # oracle checks a validate op ran


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _close(actual, expected, rel: float, scale=None) -> bool:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if scale is None:
        scale = np.max(np.abs(expected), initial=0.0)
    return bool(np.all(np.abs(actual - expected) <= rel * max(float(scale), 1e-300)))


def state_names(params: dict) -> list[str]:
    return (
        ["T"]
        + [f"E{i}" for i in range(1, params["n_E"] + 1)]
        + [f"I{i}" for i in range(1, params["n_I"] + 1)]
        + ["V", "W"]
    )


def _footer(err: str) -> dict:
    for line in reversed(err.strip().splitlines()):
        doc = json.loads(line)
        if "asymptotics" in doc:
            return doc
    raise CheckFailure("no asymptotics footer on standard error")


def _read_state_csv(path: str, params: dict) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        expected = ",".join(["x", "t", *state_names(params), "mismatch"])
        _require(header == expected, f"header {header!r} != {expected!r}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(table.shape[1] == len(state_names(params)) + 3, f"table has {table.shape[1]} columns")
    return table


def _uniform_nodes(values: np.ndarray, start: float, end: float, count: int, what: str) -> None:
    _require(values.size == count, f"{what}: {values.size} nodes, expected {count}")
    step = (end - start) / (count - 1)
    _require(_close(values, start + step * np.arange(count), 1e-12, scale=max(abs(start), abs(end))), f"{what} nodes off the uniform grid")


def _check_steps(f, rows: np.ndarray, dt: float, run: int, what: str) -> None:
    """rows holds runs of `run` consecutive RK4 states; every state after
    the first of its run must be one reference RK4 step from its predecessor."""
    runs = rows.reshape(-1, run, rows.shape[-1])
    before = runs[:, :-1].reshape(-1, rows.shape[-1])
    after = runs[:, 1:].reshape(-1, rows.shape[-1])
    step = reference.rk4_step(f, before, dt)
    scale = np.maximum(np.max(np.abs(before), axis=1), np.max(np.abs(after), axis=1))
    bad = np.abs(step - after) > RK4_STEP_REL * scale[:, None]
    _require(not bool(np.any(bad)), f"{what}: {int(np.sum(np.any(bad, axis=1)))} steps differ from the reference RK4 step")


def check_surface(op: Op, path: str, err: str) -> int:
    params, config = op.config["params"], op.config
    nx, nt = op.intent["nx"], op.intent["nt"]
    r, psi, a = config["coeffs"]["r"], config["coeffs"]["psi"], params["a"]
    _footer(err)
    table = _read_state_csv(path, params)
    _require(table.shape[0] == nx * nt, f"{table.shape[0]} rows, expected {nx}x{nt}")
    table = table.reshape(nx, nt, -1)
    x, t = table[:, 0, 0], table[0, :, 1]
    _require(bool(np.all(table[:, :, 0] == x[:, None]) and np.all(table[:, :, 1] == t[None, :])), "x/t columns are not a lattice")
    _uniform_nodes(x, 0.0, config["grid"]["x_span"], nx, "x")
    _uniform_nodes(t, *config["grid"]["t_span"], nt, "t")
    states, mismatch = table[:, :, 2:-1], table[:, :, -1]
    scale = max(float(np.max(np.abs(states))), 1.0)
    s = x - x[0]

    corner = reference.x_flow(r, a, np.asarray(config["initial_state"]), s)
    _require(_close(states[:, 0], corner, XFLOW_REL, scale), "corner x-fiber differs from the closed-form x-flow")

    # Opposite order: the x-flow from every node of the x0 column.
    opposite = reference.x_flow(r, a, states[0][None, :, :], s[:, None])
    expected = np.max(np.abs(states - opposite), axis=2)
    _require(_close(mismatch, expected, XFLOW_REL, scale), "mismatch differs from the closed-form opposite order")
    _require(bool(np.all(mismatch[0, :] == 0.0) and np.all(mismatch[:, 0] == 0.0)), "mismatch is not exactly 0 on the edges through the corner")

    _check_steps(reference.time_field(params, psi), states.reshape(nx * nt, -1), (t[-1] - t[0]) / (nt - 1), nt, "canonical columns")
    return (nx - 1) + nx * (nt - 1) + nt * (nx - 1)


def check_simulate(op: Op, path: str, err: str) -> int:
    params, config = op.config["params"], op.config
    footer = _footer(err)
    table = _read_state_csv(path, params)
    nt = op.intent["nt"]
    _require(table.shape[0] == nt, f"{table.shape[0]} rows, expected {nt}")
    _require(bool(np.all(table[:, 0] == 0.0) and np.all(table[:, -1] == 0.0)), "x or mismatch column is not 0")
    t = table[:, 1]
    _uniform_nodes(t, *config["grid"]["t_span"], nt, "t")
    dt = (t[-1] - t[0]) / (nt - 1)
    states = table[:, 2:-1]
    if not config.get("linearized"):
        _require(_close(states[0], config["initial_state"], 0.0), "first row is not the initial state")
        _check_steps(reference.time_field(params, config["coeffs"]["psi"]), states, dt, nt, "trajectory")
        return nt - 1

    T = config["T"]
    _require(bool(np.all(states[:, 0] == T)), "T column is not the frozen value")
    _require(_close(states[0, 1:], config["initial_state"], 0.0), "first row is not the initial state")
    _check_steps(reference.linear_field(params, T, 0.0), states[:, 1:], dt, nt, "linearized trajectory")
    verdict = footer["asymptotics"]
    _require(verdict is not None, f"no asymptotics verdict: {footer.get('note')}")
    want = "Converging" if op.intent["regime"] == "definite" else "Diverging"
    _require(verdict["kind"] == want, f"asymptotics {verdict['kind']}, expected {want}")
    lam = reference.dominant_nonzero_eigenvalue(params, T).real
    _require(abs(verdict["rate"] - lam) <= RATE_REL * abs(lam), f"fitted rate {verdict['rate']} vs dominant eigenvalue {lam}")
    return 0


def _expected_kind(params: dict, T: float) -> str:
    gap = params["c"] - params["beta"] * T * params["p"] * params["tau_I"]
    return "Definite" if gap > 0 else "Indefinite"


def _check_positive_root(params: dict, T: float, value: float, scale: float, what: str) -> None:
    root = reference.positive_root(params, T)
    _require(root is not None, f"{what}: reference finds no positive root")
    _require(abs(value - root) <= ROOT_REL * root + 1e-12 * scale, f"{what}: {value} vs reference root {root}")


def check_sweep(op: Op, path: str, err: str) -> int:
    params = op.config["params"]
    T_range = op.config["T"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["T", "classification", "max_real_eig", "n_positive"], f"header {rows[0]}")
    rows = rows[1:]
    Ts = np.array([float(row[0]) for row in rows])
    _uniform_nodes(Ts, T_range["from"], T_range["to"], T_range["steps"], "T")
    for T, (_, kind, max_real, n_positive) in zip(Ts, rows):
        want = _expected_kind(params, T)
        _require(kind == want, f"T={T}: {kind}, expected {want}")
        _require(int(n_positive) == (1 if want == "Indefinite" else 0), f"T={T}: n_positive {n_positive} in a {want} row")
        if want == "Indefinite":
            norm = float(np.max(np.sum(np.abs(reference.system_matrix(params, T)), axis=1)))
            _check_positive_root(params, T, float(max_real), norm, f"T={T}")
    return 0


def check_analyze(op: Op, path: str, err: str) -> int:
    params, T = op.config["params"], op.config["T"]
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    row = op.intent["row"]
    want = {"<": "Indefinite", "=": "Critical", ">": "Definite"}[row]
    _require(report["classification"] == want, f"classification {report['classification']}, expected {want}")
    if row != "=":
        _require(_expected_kind(params, T) == want, "generator missed its intended row")
    _require(report["regime"]["clearance_vs_pressure"] == row, f"regime row {report['regime']['clearance_vs_pressure']}, expected {row}")
    if "col" in op.intent:
        _require(report["regime"]["quadratic_at_minus_cI"] == op.intent["col"], "regime column differs from the intended cell")

    roots = report["real_eigenvalues"]
    positives = [r for r in roots if r["sign_class"] == "positive"]
    _require(len(positives) == (1 if want == "Indefinite" else 0), f"{len(positives)} positive roots in a {want} cell")
    A = reference.system_matrix(params, T)
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    if want == "Indefinite":
        _check_positive_root(params, T, max(r["value"] for r in roots), norm, "max real eigenvalue")
    if want == "Critical":
        zero = [r for r in roots if r["value"] == 0.0]
        _require(len(zero) == 1 and zero[0]["algebraic_multiplicity"] == 2, "Critical cell without a double zero")
    for r in roots:
        if r["eigenvector"] is None:
            continue
        v = np.asarray(r["eigenvector"])
        resid = float(np.max(np.abs(A @ v - r["value"] * v)))
        _require(resid <= EIGVEC_REL * (norm + abs(r["value"])) * float(np.max(np.abs(v))), f"eigenvector of {r['value']} has residual {resid}")
    return 0


def check_field(op: Op, path: str, err: str) -> int:
    params = op.config["params"]
    psi = op.config["coeffs"]["psi"]
    names = state_names(params)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = ["panel", "panel_axis", "T", "u_neg", "u_panel"] + [f"dt_{n}" for n in names] + [f"dx_{n}" for n in names]
    _require(rows[0] == header, "field header differs")
    rows = rows[1:]
    _require(len(rows) == 3 * 81, f"{len(rows)} field rows, expected 243")
    T_star = reference.threshold(params)
    col = {name: i for i, name in enumerate(header)}
    for panel, (label, axis, factor) in enumerate((("below", "zero", 0.5), ("at", "zero_numeric", 1.0), ("above", "positive", 1.5))):
        block = rows[81 * panel : 81 * (panel + 1)]
        _require(all(r[0] == label and r[1] == axis for r in block), f"panel {label} rows mislabelled")
        _require(_close([float(r[2]) for r in block], [factor * T_star] * 81, EXACT_REL), f"panel {label} T differs from {factor} T*")
        origin = [r for r in block if float(r[3]) == 0.0 and float(r[4]) == 0.0]
        _require(len(origin) == 1, f"panel {label} has no (0, 0) node")
        node = origin[0]
        for name, want in (("dt_V", params["D_PCF"] * params["a"]), ("dt_W", psi), ("dx_W", params["a"])):
            _require(_close(float(node[col[name]]), want, EXACT_REL), f"panel {label} (0, 0) {name} = {node[col[name]]}, expected {want}")
    return 0


def check_validate(op: Op, path: str, err: str) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc["seed"] == op.intent["seed"] and doc["ok"] is True, f"validate seed {doc['seed']} ok {doc['ok']}")
    _require(all(s["failures"] == 0 and s["checks"] > 0 for s in doc["suites"]), "a validate suite failed or ran no checks")
    return sum(s["checks"] for s in doc["suites"])


_CHECKS = {
    "surface": check_surface,
    "simulate": check_simulate,
    "sweep": check_sweep,
    "analyze": check_analyze,
    "field": check_field,
    "validate": check_validate,
}


def check(op: Op, code, out_path: str, err: str) -> Verdict:
    if code != 0:
        return Verdict(ok=False, reason=f"exit {code}: {err.strip()[-300:]}")
    try:
        count = _CHECKS[op.command](op, out_path, err)
    except (CheckFailure, OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(ok=False, wrong=True, reason=f"{type(exc).__name__}: {exc}")
    if op.command == "validate":
        return Verdict(ok=True, suite_checks=count)
    return Verdict(ok=True, node_steps=count)
