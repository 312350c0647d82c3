"""Every kind of op passes its checks as flustab writes it, and fails them
once one number in its output is perturbed."""
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import checks
import workloads
from flustab import cli


def run(op, tmp_path):
    config_path = tmp_path / "config.json"
    out_path = str(tmp_path / f"out{op.out_suffix}")
    argv = [op.command]
    if op.config is not None:
        config_path.write_text(json.dumps(op.config), encoding="utf-8")
        argv += ["--config", str(config_path)]
    argv += ["--out", out_path] + op.extra
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, out_path, err.getvalue()


def small_surface():
    op = workloads.surface_ops(np.random.default_rng(3))[3]
    op.config["grid"]["t_span"] = [0.0, 40 * workloads.SURFACE_H_T]
    op.intent["nt"] = 41
    return op


def spectral(kind, index=0):
    return [op for op in workloads.spectral_ops(np.random.default_rng(5)) if op.command == kind][index]


def trajectory(index):
    return workloads.trajectory_ops(np.random.default_rng(7))[index]


def perturb_csv(path, row, col):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6) + 1e-9)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def perturb_json(path, edit):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def bump_max_root(doc):
    top = max(doc["real_eigenvalues"], key=lambda r: r["value"])
    top["value"] *= 1 + 1e-5


def bump_eigenvector(doc):
    vec = next(r["eigenvector"] for r in doc["real_eigenvalues"] if r["eigenvector"] and r["value"] != 0.0)
    vec[0] *= 1.01


def single_zero(doc):
    next(r for r in doc["real_eigenvalues"] if r["value"] == 0.0)["algebraic_multiplicity"] = 1


def fail_a_suite(doc):
    doc["suites"][1]["failures"] = 1


CASES = [
    ("surface state", small_surface, lambda p: perturb_csv(p, 60, 4)),
    ("surface corner fiber", small_surface, lambda p: perturb_csv(p, 42, 2)),
    ("surface mismatch", small_surface, lambda p: perturb_csv(p, 50, -1)),
    ("nonlinear trajectory", lambda: trajectory(0), lambda p: perturb_csv(p, 2000, 4)),
    ("linearized trajectory", lambda: trajectory(5), lambda p: perturb_csv(p, 10, 3)),
    ("sweep max_real_eig", lambda: spectral("sweep", 3), lambda p: perturb_csv(p, 1000, 2)),
    ("analyze positive root", lambda: spectral("analyze", 0), lambda p: perturb_json(p, bump_max_root)),
    ("analyze eigenvector", lambda: spectral("analyze", 8), lambda p: perturb_json(p, bump_eigenvector)),
    ("analyze critical cell", lambda: spectral("analyze", 4), lambda p: perturb_json(p, single_zero)),
    ("field origin", lambda: spectral("field", 0), lambda p: perturb_csv(p, 41, 7)),
    ("validate", lambda: spectral("validate", 0), lambda p: perturb_json(p, fail_a_suite)),
]


@pytest.mark.parametrize("name,make,perturb", CASES, ids=[c[0] for c in CASES])
def test_output_passes_and_perturbed_output_fails(name, make, perturb, tmp_path):
    op = make()
    code, out_path, err = run(op, tmp_path)
    verdict = checks.check(op, code, out_path, err)
    assert verdict.ok, verdict.reason
    perturb(out_path)
    verdict = checks.check(op, code, out_path, err)
    assert not verdict.ok and verdict.wrong


def test_nonzero_exit_is_a_failed_op_not_a_wrong_output(tmp_path):
    op = spectral("analyze", 0)
    op.config["params"]["n_I"] = 0
    code, out_path, err = run(op, tmp_path)
    assert code == 2
    verdict = checks.check(op, code, out_path, err)
    assert not verdict.ok and not verdict.wrong


def test_builds_are_seeded_and_shapes_do_not_depend_on_the_seed():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 4), workloads.build(workload, 4)
        assert [op.config for op in a] == [op.config for op in b]
        other = workloads.build(workload, 5)
        assert [(op.command, op.intent.get("nx"), op.intent.get("nt")) for op in a] == [
            (op.command, op.intent.get("nx"), op.intent.get("nt")) for op in other
        ]
        assert [op.config for op in a] != [op.config for op in other]
