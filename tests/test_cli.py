import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flustab import cli, spectrum
from flustab.charpoly import coefficient_matrix
from flustab.cli import EXIT_BROKEN_PIPE, _write_csv, main
from flustab.dynamics import time_rhs, x_rhs
from flustab.model import FieldCoefficients, ModelParams, StateVector
from flustab.spectrum import analyze, classify, perron_root
from flustab.validation import SuiteResult, cell_params, sample_params
from test_spectrum import exact_charpoly, uncertified


def _fmt(x: float) -> str:
    # the CSV text of one value, CPython's own conversion
    return "%.17g" % x


def params_doc(**overrides):
    # T* = c/(tau_I*p*beta) = 1.5 for the defaults
    base = dict(beta=1.0, p=2.0, c=3.0, n_E=0, n_I=1, tau_I=1.0,
                D_PCF=0.1, v_a=0.5, a=0.2)
    base.update(overrides)
    return base


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_HUGE = 10**400  # an int that json writes and reads back, past the float range


def error_doc(err: str) -> dict:
    doc = json.loads(err.strip().splitlines()[-1])
    assert set(doc) == {"error"}
    assert set(doc["error"]) == {"code", "message", "details"}
    return doc["error"]


class TestAnalyze:
    def test_report_shape(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 0.5})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        # the key order is part of the byte contract
        assert list(doc) == [
            "analytic",
            "classification",
            "T_star",
            "regime",
            "real_eigenvalues",
            "complex_pair_count",
            "numeric_spectrum",
            "predicted_pattern",
            "notice",
        ]
        assert doc["analytic"] is True
        assert doc["classification"] == "Definite"
        assert doc["T_star"] == pytest.approx(1.5)
        assert list(doc["regime"]) == [
            "n_I_parity",
            "quadratic_at_minus_cI",
            "clearance_vs_pressure",
        ]
        assert doc["real_eigenvalues"]
        for entry in doc["real_eigenvalues"]:
            assert list(entry) == [
                "value",
                "sign_class",
                "algebraic_multiplicity",
                "geometric_multiplicity",
                "eigenvector",
            ]
        assert list(doc["predicted_pattern"]) == [
            "n_I_parity",
            "clearance_vs_pressure",
            "quadratic_at_minus_cI",
            "mandatory",
            "optional_pairs",
            "zero_algebraic_multiplicity",
        ]
        assert all(len(z) == 2 for z in doc["numeric_spectrum"])

    def test_eclipse_stages_are_analytic(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, {"params": params_doc(n_E=2, tau_E=0.5), "T": 0.5}
        )
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 0
        doc = json.loads(out)
        assert doc["analytic"] is True and doc["notice"] is None
        # certified roots with formula eigenvectors, laid out (E1, E2, I1, V, W)
        assert doc["real_eigenvalues"]
        A = coefficient_matrix(ModelParams.from_json_dict(params_doc(n_E=2, tau_E=0.5)), 0.5)
        for entry in doc["real_eigenvalues"]:
            v = np.array(entry["eigenvector"])
            assert v.shape == (5,)
            assert np.max(np.abs(A @ v - entry["value"] * v)) <= 1e-12 * np.max(np.abs(v))
        # the 3x3 regime table is stated at n_E = 0
        assert doc["predicted_pattern"] is None

    @pytest.mark.parametrize(
        "n_I, tau_I, expected",
        [(5, 1.0, [[-5.0, 5], [-3.0, 1], [0.0, 1]]), (4, 4.0 / 3.0, [[-3.0, 5], [0.0, 1]])],
    )
    def test_cascade_root_multiplicity_at_zero_infection(self, capsys, tmp_path, n_I, tau_I, expected):
        # T = 0 leaves the matrix triangular: -c_I is an n_I-fold root
        doc = {"params": params_doc(n_I=n_I, tau_I=tau_I, a=0.0), "T": 0.0}
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
        assert code == 0
        report = json.loads(out)
        found = [[e["value"], e["algebraic_multiplicity"]] for e in report["real_eigenvalues"]]
        assert found == expected
        n_real = sum(1 for re, im in report["numeric_spectrum"] if im == 0.0)
        assert sum(m for _, m in found) == n_real

    def test_root_beside_zero_next_to_the_critical_window(self, capsys, tmp_path):
        # 1.4e-10 relative below T*: P's terms cancel to the regime gap at the
        # root beside 0, which a second 1e-10 window once called double (exit 3).
        # The root is the float across which exact P changes sign
        params = dict(beta=0.6438176404687572, p=0.1001554263608411, c=0.1634197473122929, n_E=1,
                      tau_E=0.7181056505734725, n_I=4, tau_I=0.9951766372064375, D_PCF=0.1, v_a=1.0, a=0.0)
        doc = {"params": params, "T": 2.5466367760565527}
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
        assert code == 0, err
        report = json.loads(out)
        found = [(e["value"], e["algebraic_multiplicity"]) for e in report["real_eigenvalues"]]
        assert found == [(-4.937991382378264, 1), (-1.852118023535932e-11, 1), (0.0, 1)]
        assert report["complex_pair_count"] == 2
        model = ModelParams(**params)
        below, above = (exact_charpoly(model, doc["T"], math.nextafter(found[1][0], side)) for side in (-1.0, 0.0))
        assert (below > 0) != (above > 0)

    def test_missing_T_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"params": params_doc()})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 2
        assert error_doc(err)["code"] == 2

    def test_needs_config_with_params(self, capsys):
        code, out, err = run_cli(capsys, ["analyze"])
        assert code == 2
        assert "params" in error_doc(err)["message"]

    def test_overflow_exits_3_with_error_object(self, capsys, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "analyze", overflow)
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 0.75})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 3
        assert out == ""
        assert error_doc(err)["code"] == 3

    @pytest.mark.parametrize("T, root", [(1e72, 1.414213562373095e36), (1e74, 1.414213562373095e37)])
    def test_roots_far_above_threshold(self, capsys, tmp_path, T, root):
        # beta*T*p = 2T; these once came back as +-1.4142135624676182e36 and
        # +-2.3188871302739243e37 with exit 0
        cfg = write_config(tmp_path, {"params": params_doc(n_I=2), "T": T})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert [e["value"] for e in report["real_eigenvalues"]] == [-root, -4.0, 0.0, root]
        assert report["classification"] == "Indefinite"

    def test_uncertified_root_exits_3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(spectrum, "_ROOT_STEPS", 3)
        cfg = write_config(tmp_path, {"params": params_doc(n_I=2), "T": 1e72})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 3 and out == ""
        assert "not certified" in error_doc(err)["message"]

    def test_large_pressure_reports(self, capsys, tmp_path):
        # beta*T*p*tau_I is finite; the derivative quadratic's critical points,
        # once past the float range here (exit 3), are a sum of logs now
        cfg = write_config(tmp_path, {"params": params_doc(n_I=2), "T": 2.9e306})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 0 and err == ""
        values = [e["value"] for e in json.loads(out)["real_eigenvalues"]]
        assert len(values) == 4 and values[1:3] == [-4.0, 0.0]

    def test_deep_cascade_reports(self, capsys, tmp_path):
        # (c_I + lam)^150 overflows a float; the report must not
        params = params_doc(n_I=150)
        cfg = write_config(tmp_path, {"params": params, "T": 0.75})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["analytic"] is True
        values = [e["value"] for e in report["real_eigenvalues"]]
        assert 0.0 in values
        assert sum(e["algebraic_multiplicity"] for e in report["real_eigenvalues"]) % 2 == 0
        A = coefficient_matrix(ModelParams.from_json_dict(params), 0.75)
        for e in report["real_eigenvalues"]:
            v = np.array(e["eigenvector"])
            assert np.all(np.isfinite(v)) and v[-2] == 1.0
            assert np.max(np.abs(A @ v - e["value"] * v)) <= 1e-12 * np.linalg.norm(A, np.inf) * np.max(np.abs(v))

    def test_zero_eigenvector_overflowing_at_tiny_advection_is_named(self, capsys, tmp_path):
        # W = (beta*T*p*tau_I - c)/(-v_a) passes the float range while every
        # I entry stays finite; json's own "not JSON compliant" text once
        # reached the error object
        doc = {"params": params_doc(beta=1, p=1, c=1, n_I=1, tau_I=1, D_PCF=0, v_a=1e-300, a=0), "T": 1e10}
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (3, "")
        message = error_doc(err)["message"]
        assert message == "numeric failure: eigenvector at lam = 0.0 overflows at n_E = 0, n_I = 1"
        assert _OWN_MESSAGES.fullmatch(message)

    def test_infinite_threshold_exits_3_with_no_report(self, capsys, tmp_path):
        # tau_I*p*beta underflows to 0, so T* is +inf, which JSON cannot hold
        doc = {"params": params_doc(beta=1e-200, p=1e-200, c=1.0), "T": 0.5}
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert error_doc(err)["message"] == "numeric failure: T_star = inf cannot be written as JSON"

    def test_infinite_threshold_is_checked_before_the_analysis(self, capsys, tmp_path, monkeypatch):
        # the check needs no report: a config whose analysis would fail first
        # still names T_star
        monkeypatch.setattr(cli, "analyze", lambda *args: pytest.fail("analyze ran"))
        doc = {"params": params_doc(beta=1e-200, p=1e-200, c=1.0), "T": 0.5}
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert error_doc(err)["message"] == "numeric failure: T_star = inf cannot be written as JSON"


class TestConfigRejection:
    # every rejection must exit 2 with a single machine-readable error line

    def cases(tmp_path):
        pass

    @pytest.mark.parametrize(
        "doc",
        [
            {"params": params_doc(), "T": 1.0, "unexpected": 1},
            {"params": params_doc(), "T": {"from": 2.0, "to": 1.0, "steps": 5}},
            {"params": params_doc(), "T": {"from": 0.0, "to": 1.0, "steps": 1}},
            {"params": params_doc(), "T": {"from": 0.0, "to": 1.0}},
            {"params": params_doc(), "T": {"from": -0.5, "to": 1.0, "steps": 3}},
            {"params": params_doc(), "T": -1.0},
            {"params": params_doc(), "T": 1.0, "tolerances": {"zero_rel": -1e-8}},
            {"params": params_doc(), "T": 1.0, "tolerances": {"bogus": 1e-8}},
            {"params": params_doc(), "T": 1.0, "grid": {"h_t": 0.0}},
            {"params": params_doc(), "T": 1.0, "grid": {"warp": 1.0}},
            {"params": params_doc(), "T": 1.0, "seed": -3},
            {"params": params_doc(beta=0.0), "T": 1.0},
            {"params": {"beta": 1.0}, "T": 1.0},
            {"coeffs": {"r": [1.0, 1.0, 1.0]}},
            [1, 2, 3],
            {"params": 3, "T": 1.0},
        ],
    )
    def test_rejected_configs(self, capsys, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 2
        assert error_doc(err)["code"] == 2

    def test_tolerances_is_an_unknown_key(self, capsys, tmp_path):
        # the zero, rank and Critical windows are fixed; no config sets them
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 1.0, "tolerances": {"zero_rel": 1e-8}})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 2 and out == ""
        assert error_doc(err)["details"]["keys"] == ["tolerances"]

    @pytest.mark.parametrize("command, T, key", [("analyze", 1e308, "T"), ("simulate", 1e308, "T"),
                                                 ("sweep", {"from": 0.0, "to": 1e308, "steps": 5}, "T.to")])
    def test_overflowing_viral_pressure(self, capsys, tmp_path, command, T, key):
        # beta*T*p*tau_I = 2T is past the float range; a sweep once labelled
        # this T Critical with max_real_eig 0, and analyze gave roots [-2, 0]
        cfg = write_config(tmp_path, {"params": params_doc(n_I=2), "T": T})
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        error = error_doc(err)
        assert error["details"] == {"key": key} and error["message"].startswith(f"{key} ")

    @pytest.mark.parametrize(
        "key, value",
        [("n_I", 2.5), ("n_I", "3"), ("n_I", True), ("n_I", None), ("n_I", [2]), ("n_I", math.nan),
         ("n_I", "abc"), ("beta", "1.0"), ("beta", True), ("beta", None)],
    )
    def test_malformed_param_values(self, capsys, tmp_path, key, value):
        cfg = write_config(tmp_path, {"params": params_doc(**{key: value}), "T": 1.0})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        kind = "an integer" if key == "n_I" else "a number"
        assert error_doc(err)["details"]["problems"] == [f"{key} must be {kind}"]

    @pytest.mark.parametrize("key", ["beta", "tau_E", "a"])
    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "1e400"], ids=["int_1e400", "float_1e400"])
    def test_rates_past_the_float_range(self, capsys, tmp_path, key, literal):
        # an integer too large for a float is rejected as 1e400 (inf) is
        params = params_doc(**{"n_E": 1, "tau_E": 1.0, key: 12345.5})
        text = json.dumps({"params": params, "T": 1.0}).replace(f'"{key}": 12345.5', f'"{key}": {literal}')
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, ["analyze", "--config", str(path)])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert error_doc(err)["details"]["problems"] == [f"{key} must be finite"]

    @pytest.mark.parametrize("doc, what", [
        ({"T": _HUGE}, "T"),
        ({"T": {"from": _HUGE, "to": 2.0, "steps": 3}}, "T.from"),
        ({"T": {"from": 0.0, "to": _HUGE, "steps": 3}}, "T.to"),
        ({"initial_state": [0.5, _HUGE, 0.0, 0.0]}, "initial_state entry"),
        ({"coeffs": {"r": [1.0, _HUGE, 1.0]}}, "coeffs.r entry"),
        ({"coeffs": {"psi": _HUGE}}, "coeffs.psi"),
        ({"grid": {"x_span": [0.0, _HUGE]}}, "grid.x_span"),
        ({"grid": {"t_span": _HUGE}}, "grid.t_span"),
        ({"grid": {"h_x": _HUGE}}, "grid.h_x"),
        ({"grid": {"h_t": _HUGE}}, "grid.h_t"),
        ({"grid": {"asymptotics_window": _HUGE}}, "grid.asymptotics_window"),
    ], ids=lambda case: case if isinstance(case, str) else None)
    def test_config_numbers_past_the_float_range(self, capsys, tmp_path, doc, what):
        # float(10**400) raises OverflowError, once a "numeric failure" (exit 3)
        cfg = write_config(tmp_path, {"params": params_doc(), **doc})
        code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert error_doc(err)["message"] == f"{what} must be finite"

    @pytest.mark.parametrize("data, reason", [
        (b'{"T": 1.0, "\xff": 1}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
        (b'{"T": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b"\xef\xbb\xbf" + json.dumps({"params": params_doc(), "T": 1.0}).encode(), "Unexpected UTF-8 BOM"),
    ], ids=["not_utf8", "nested_too_deep", "int_too_long", "utf8_bom"])
    def test_unreadable_json(self, capsys, tmp_path, data, reason):
        # the first three once exited 3 ("numeric failure: ...") or 1 (a
        # RecursionError traceback); a BOM was already rejected as bad JSON
        path = tmp_path / "config.json"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, ["analyze", "--config", str(path)])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        message = error_doc(err)["message"]
        assert message.startswith("config is not valid JSON: ") and reason in message

    @pytest.mark.parametrize("command, overrides, T, problem", [
        ("analyze", {"n_I": 3, "tau_I": 1e-320}, 1.0, "n_I/tau_I must be finite"),
        ("analyze", {"n_E": 2, "tau_E": 1e-320}, 1.0, "n_E/tau_E must be finite"),
        ("sweep", {"n_I": 3, "tau_I": 1e-320}, {"from": 0.0, "to": 2.0, "steps": 3}, "n_I/tau_I must be finite"),
    ])
    def test_overflowing_cascade_rate(self, capsys, tmp_path, command, overrides, T, problem):
        # 3/1e-320 is past the float range; numpy's "Array must not contain
        # infs or NaNs" and "math domain error" once came out as exit 3
        cfg = write_config(tmp_path, {"params": params_doc(**overrides), "T": T})
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert error_doc(err)["details"]["problems"] == [problem]

    def test_structural_problems_listed_in_full(self, capsys, tmp_path):
        params = params_doc(n_I=0, tau_I=0.0, n_E=1, tau_E=-1.0, beta=-1.0, D_PCF=-0.5)
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, {"params": params, "T": 1.0})])
        assert code == 2 and out == ""
        assert err == (
            '{"error": {"code": 2, "message": "invalid params", "details": {"problems": '
            '["n_I must be an integer >= 1", "tau_I must be > 0", "tau_E must be > 0 when n_E > 0", '
            '"beta must be > 0", "D_PCF must be >= 0"]}}}\n'
        )

    def test_integral_float_counts_are_counts(self, capsys, tmp_path):
        outputs = []
        for n_I in (2, 2.0):
            cfg = write_config(tmp_path, {"params": params_doc(n_I=n_I), "T": 1.0})
            code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n_E, n_I", [(0, 1000), (3, 997)])
    def test_cascade_depth_cap(self, capsys, tmp_path, n_E, n_I):
        sweep = {"from": 0.5, "to": 2.5, "steps": 2}
        params = params_doc(n_E=n_E, tau_E=1.0, n_I=n_I) if n_E else params_doc(n_I=n_I)
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, {"params": params, "T": sweep})])
        assert code == 0 and len(out.splitlines()) == 3
        params["n_I"] = n_I + 1
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, {"params": params, "T": sweep})])
        assert code == 2 and out == ""
        assert error_doc(err)["details"]["problems"] == ["n_E + n_I must be <= 1000"]
        params["beta"] = -1.0  # and a config past the cap names its other problems too
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, {"params": params, "T": sweep})])
        assert error_doc(err)["details"]["problems"] == ["n_E + n_I must be <= 1000", "beta must be > 0"]

    @pytest.mark.parametrize("key", ["n_E", "n_I"])
    def test_count_past_the_float_range_is_past_the_depth_cap(self, capsys, tmp_path, key):
        # n/tau of such a count has no float, so no ModelParams is made
        params = params_doc(**{"n_E": 1, "tau_E": 1.0, key: _HUGE})
        code, out, err = run_cli(capsys, ["analyze", "--config", write_config(tmp_path, {"params": params, "T": 1.0})])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert error_doc(err)["details"]["problems"] == ["n_E + n_I must be <= 1000"]

    def test_unparseable_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, out, err = run_cli(capsys, ["analyze", "--config", str(path)])
        assert code == 2
        assert "JSON" in error_doc(err)["message"]

    def test_missing_config_file(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, ["analyze", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 2

    def test_negative_seed_flag(self, capsys):
        code, out, err = run_cli(capsys, ["validate", "--json", "--seed", "-1"])
        assert (code, out) == (2, "")
        assert error_doc(err) == {"code": 2, "message": "seed must be >= 0", "details": {}}

    @pytest.mark.parametrize("command", ["analyze", "sweep", "simulate", "surface", "field"])
    def test_seed_is_an_unknown_key(self, capsys, tmp_path, command):
        # validate's --seed is the one seed input; no config carries one
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 1.0, "seed": 0})
        code, out, err = run_cli(capsys, [command, "--config", cfg])
        assert (code, out) == (2, "")
        assert error_doc(err) == {"code": 2, "message": "unknown config keys", "details": {"keys": ["seed"]}}


class TestSweep:
    def test_header_and_threshold_transition(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"params": params_doc(), "T": {"from": 0.5, "to": 2.5, "steps": 5}},
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T,classification,max_real_eig,n_positive"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert [r[1] for r in rows] == [
            "Definite",
            "Definite",
            "Critical",
            "Indefinite",
            "Indefinite",
        ]
        assert [r[3] for r in rows] == ["0", "0", "0", "1", "1"]
        # max real eigenvalue crosses zero with the classification
        assert float(rows[0][2]) < 0.0
        assert float(rows[-1][2]) > 0.0

    def test_deep_cascade_sweep(self, capsys, tmp_path):
        # n_I = 200: the dense route would take 200 eigensolves of a 202-square
        # matrix; the Perron root is bracketed in log form and cannot overflow.
        # c_I = 2e5 and T* stays 1.5
        cfg = write_config(
            tmp_path,
            {"params": params_doc(n_I=200, tau_I=1e-3, p=2000.0), "T": {"from": 0.0, "to": 3.0, "steps": 7}},
        )
        code, out, err = run_cli(capsys, ["sweep", "--config", cfg])
        assert code == 0, err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["0", "0", "0", "0", "1", "1", "1"]
        assert float(rows[0][2]) == -3.0  # T = 0: -min(c_I, c)
        roots = [float(r[2]) for r in rows]
        assert roots == sorted(roots)

    def test_rows_match_the_per_row_reference(self, capsys, tmp_path):
        # three 256-row blocks, through T* = 1.5 and the Critical window
        doc = {"params": params_doc(n_I=3), "T": {"from": 0.0, "to": 3.0, "steps": 601}}
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 0
        params = ModelParams.from_json_dict(doc["params"])
        expected = ["T,classification,max_real_eig,n_positive"]
        for T in np.linspace(0.0, 3.0, 601).tolist():
            root = float(perron_root(params, T))
            kind = classify(params, T)
            expected.append(f"{_fmt(T)},{kind},{_fmt(root)},{1 if kind == 'Indefinite' else 0}")
        assert out == "\n".join(expected) + "\n"
        assert "Critical" in out

    @pytest.mark.parametrize("span, kinds", [
        ((0.0, 0.5, 5), ["Definite"] * 5),
        ((0.0, 1.0, 3), ["Definite", "Definite", "Critical"]),
        ((0.0, 2.0, 5), ["Definite", "Definite", "Critical", "Indefinite", "Indefinite"]),
        ((1.0, 3.0, 4), ["Critical"] + ["Indefinite"] * 3),
    ])
    def test_regime_runs_match_the_per_row_reference(self, capsys, tmp_path, span, kinds):
        # T* = 1 exactly, so a node at 1.0 is its own Critical run
        params = cell_params(2, "=", "=")[0]
        keys = ["beta", "p", "c", "n_E", "n_I", "tau_I", "D_PCF", "v_a", "a"]
        doc = {"params": {k: getattr(params, k) for k in keys}, "T": dict(zip(("from", "to", "steps"), span))}
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        expected = ["T,classification,max_real_eig,n_positive"]
        for T in np.linspace(*span).tolist():
            kind = classify(params, T)
            expected.append(f"{_fmt(T)},{kind},{_fmt(float(perron_root(params, T)))},{int(kind == 'Indefinite')}")
        assert out == "\n".join(expected) + "\n"
        assert [line.split(",")[1] for line in expected[1:]] == kinds

    @pytest.mark.parametrize("k", range(6, 13))
    def test_agrees_with_analyze_beside_the_threshold(self, capsys, tmp_path, k):
        # a two-step sweep's nodes are exactly T*(1 - 10^-k) and T*(1 + 10^-k)
        doc = {"params": params_doc(n_I=2), "T": {"from": 1.5 * (1 - 10.0**-k), "to": 1.5 * (1 + 10.0**-k), "steps": 2}}
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 0
        params = ModelParams.from_json_dict(doc["params"])
        for line in out.splitlines()[1:]:
            T, kind, _, n_positive = line.split(",")
            report = analyze(params, float(T))
            positives = [r for r in report.real_eigenvalues if r.sign_class == "positive"]
            assert (kind, int(n_positive)) == (report.classification, len(positives)), T
            assert int(n_positive) == (kind == "Indefinite")

    def test_largest_finite_pressure(self, capsys, tmp_path):
        # beta*T*p*tau_I = 2T stays finite up to T = 8.9e307: every row past
        # T = 0 is Indefinite with its Perron root near sqrt(2T), and numpy
        # prints no overflow warning
        doc = {"params": params_doc(n_I=2), "T": {"from": 0.0, "to": 8.9e307, "steps": 5}}
        code, out, err = run_cli(capsys, ["sweep", "--config", write_config(tmp_path, doc)])
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [r[1] for r in rows] == ["Indefinite"] * 4
        for T, _, root, _ in rows:
            assert float(root) == pytest.approx(math.sqrt(2.0 * float(T)), rel=1e-14)

    def test_needs_sweep_object(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 1.0})
        code, out, err = run_cli(capsys, ["sweep", "--config", cfg])
        assert code == 2


class TestSimulate:
    def test_equilibrium_rows_identical(self, capsys, tmp_path):
        # a = 0 and psi = 0 make the uninfected state an exact fixed point
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(a=0.0),
                "initial_state": [0.7, 0.0, 0.0, 0.0],
                "grid": {"t_span": 2.0, "h_t": 0.05},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,t,T,I1,V,W,mismatch"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 41
        for row in rows:
            assert row[0] == "0"
            assert row[2:6] == ["0.69999999999999996", "0", "0", "0"]
            assert row[6] == "0"
        footer = json.loads(err.strip().splitlines()[-1])
        assert footer["asymptotics"]["kind"] == "Converging"
        assert footer["asymptotics"]["rate"] == 0.0

    def test_linearized_definite_run_converges(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "T": 0.75,
                "linearized": True,
                "initial_state": [1.0, 1.0, 1.0],
                "grid": {"t_span": 40.0, "h_t": 0.05, "asymptotics_window": 20.0},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,t,T,I1,V,W,mismatch"
        first = lines[1].split(",")
        # the frozen T is reported as a constant column
        assert float(first[2]) == 0.75
        footer = json.loads(err.strip().splitlines()[-1])
        verdict = footer["asymptotics"]
        assert verdict["kind"] == "Converging"
        # slowest nonzero mode of the frozen system: (-4 + sqrt(10))/2
        lam = (-4.0 + math.sqrt(10.0)) / 2.0
        assert verdict["rate"] == pytest.approx(lam, rel=0.05)

    def test_linearized_zero_block_stays_zero_past_overflowing_powers(self, capsys, tmp_path):
        # the step map's powers overflow from the 28th; the zero rows are exact
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(a=0.0),
                "T": 1e6,
                "linearized": True,
                "initial_state": [0.0, 0.0, 0.0],
                "grid": {"t_span": 700.0, "h_t": 1.0},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 701
        assert all(row[3:] == ["0", "0", "0", "0"] for row in rows)
        verdict = json.loads(err.strip().splitlines()[-1])["asymptotics"]
        assert verdict["kind"] == "Converging" and verdict["rate"] == 0.0

    def test_backward_run_of_a_decaying_system_diverges(self, capsys, tmp_path):
        # run from t = 8 down to 0, the frozen system's fastest decaying
        # mode, exp(-(2 + sqrt 2) t), grows at 2 + sqrt 2 per unit of run
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "T": 0.5,
                "linearized": True,
                "initial_state": [1.0, 1.0, 0.0],
                "grid": {"t_span": [8.0, 0.0], "h_t": 0.01},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 0
        assert out.splitlines()[-1].split(",")[1] == "0"
        verdict = json.loads(err.strip().splitlines()[-1])["asymptotics"]
        assert verdict["kind"] == "Diverging"
        assert verdict["window"] == 4.0
        assert verdict["rate"] == pytest.approx(2.0 + math.sqrt(2.0), rel=0.05)

    def test_short_run_footer_note(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(a=0.0),
                "initial_state": [0.7, 0.0, 0.0, 0.0],
                "grid": {"t_span": 0.4, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 0
        footer = json.loads(err.strip().splitlines()[-1])
        assert footer["asymptotics"] is None
        assert "fewer than 10 samples" in footer["note"]

    def test_linearized_needs_frozen_T(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "linearized": True,
                "initial_state": [1.0, 1.0, 1.0],
                "grid": {"t_span": 1.0, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 2

    def test_linearized_block_length_checked(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "T": 0.75,
                "linearized": True,
                "initial_state": [1.0, 1.0, 1.0, 1.0],
                "grid": {"t_span": 1.0, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 2
        assert "3 entries" in error_doc(err)["message"]

    def test_blow_up_exits_4_with_prefix_details(self, capsys, tmp_path):
        # T = 3 T* puts a strongly positive eigenvalue in the frozen system
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "T": 4.5,
                "linearized": True,
                "initial_state": [1.0, 1.0, 1.0],
                "grid": {"t_span": 100.0, "h_t": 0.05},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 4
        error = error_doc(err)
        assert error["code"] == 4
        assert error["details"]["rows"] > 0
        assert 0.0 < error["details"]["t_last"] < 100.0
        assert "exceeded" in error["message"]

    def test_grid_too_large_to_allocate_exits_3(self, capsys, tmp_path):
        # 2**47 steps of 4 states ask numpy for 4 PiB, which fails at once
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(n_E=0, n_I=1),
                "initial_state": [1.0, 0.1, 0.1, 0.0],
                "grid": {"t_span": [0.0, 1.0], "h_t": 2.0**-47},
            },
        )
        code, out, err = run_cli(capsys, ["simulate", "--config", cfg])
        assert code == 3
        assert out == ""
        assert error_doc(err)["code"] == 3


def _csv_text(columns: list) -> str:
    # what _write_csv gives standard output: text, then bytes to its buffer
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    _write_csv(out, columns)
    out.flush()
    return out.buffer.getvalue().decode("ascii")


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 513])
def test_state_csv_matches_fmt_per_row(rows):
    # whole blocks of rows are formatted at once; the text is _fmt's
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    table = np.random.default_rng(rows).normal(0.0, 1e3, (rows, 7))
    table[:, 0] = np.resize(extremes, rows)
    table[:, -1] = 0.1
    assert _csv_text(list(table.T)) == "".join(",".join(map(_fmt, row)) + "\n" for row in table)


@pytest.mark.parametrize("nx, nt", [(1, 300), (3, 100), (17, 151), (5, 1)])
def test_state_csv_repeating_t_column_matches_fmt_per_row(nx, nt):
    # a surface's table: its t nodes repeat once per x node
    rng = np.random.default_rng(nt)
    t_nodes = np.concatenate([[-0.0], rng.normal(size=nt - 1)])
    table = np.column_stack([
        np.repeat(rng.normal(size=nx), nt),
        np.tile(t_nodes, nx),
        rng.normal(size=(nx * nt, 4)),
        rng.normal(size=nx * nt),
    ])
    assert _csv_text(list(table.T)) == "".join(",".join(map(_fmt, row)) + "\n" for row in table)


def _csv_tables():
    rng = np.random.default_rng(11)
    signed_zeros = rng.normal(size=(300, 6))
    signed_zeros[:, 2] = np.where(rng.random(300) < 0.5, -0.0, 0.0)
    signed_zeros[:256, 3] = -0.0  # -0.0 for a whole block, then 0.0
    signed_zeros[256:, 3] = 0.0
    special = rng.normal(size=(300, 7))
    special[:, 1] = np.nan
    special[:, 2] = np.inf
    special[:, 3] = -np.inf
    special[:, 4] = np.resize([np.inf, -np.inf, np.nan, 1.0], 300)
    one_row_tail = np.repeat(rng.normal(size=(1, 5)), 257, axis=0)
    one_row_tail[:256, 2] = rng.normal(size=256)  # the last block is one row, all constant
    last_row_changes = np.tile(rng.normal(size=5), (512, 1))
    last_row_changes[255, 1] = np.nextafter(last_row_changes[255, 1], np.inf)
    last_row_changes[511, 3] = -last_row_changes[511, 3]
    wide = rng.normal(size=(9, 600))
    wide[2] = 0.5
    return {
        "signed_zeros": signed_zeros,
        "nan_and_inf_columns": special,
        "final_block_of_one_constant_row": one_row_tail,
        "every_column_constant": np.full((600, 5), 5e-324),
        "change_in_last_row_of_a_block": last_row_changes,
        "not_c_contiguous": wide.T,
        "strided_columns": rng.normal(size=(300, 12))[:, ::2],
    }


@pytest.mark.parametrize("name", sorted(_csv_tables()))
def test_state_csv_constant_columns_match_fmt_per_row(name):
    # constant, signed-zero, non-finite and strided columns
    table = _csv_tables()[name]
    assert _csv_text(list(table.T)) == "".join(",".join(map(_fmt, row)) + "\n" for row in table)


def test_state_csv_memory_is_bounded_by_the_block():
    # 100,000 x 14 values go through the kernel a bounded block at a time,
    # and each block's text is handed to write as it is made
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    table = np.random.default_rng(25).normal(size=(100_000, 14))
    _write_csv(Sink(), list(table[:1].T))  # the kernel and its tables, loaded once
    sink = Sink()
    columns = list(table.T)
    tracemalloc.start()
    try:
        _write_csv(sink, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 100_000 * 14 * 20
    assert peak < 2_000_000


def _fmt_csv(columns, rows):
    # the % oracle: a float or str column is that value on every row
    def cells(c):
        return [c] * rows if isinstance(c, str) else [_fmt(c)] * rows if isinstance(c, float) else list(map(_fmt, c))

    return "".join(",".join(row) + "\n" for row in zip(*map(cells, columns)))


_FLOATS = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.5, math.inf, math.nan]


@pytest.mark.parametrize("layout", ["fAAA", "AfAA", "AAAf", "fAfAf", "ffAffAAffA", "AfAfAfA"])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_state_csv_float_columns_match_fmt_per_row(layout, blocks, extra):
    # f is a float column, A an array column; a table of one row, and rows
    # around whole blocks of _CSV_BLOCK_VALUES // (array columns) rows
    rows = blocks * (cli._CSV_BLOCK_VALUES // layout.count("A")) + extra
    rng = np.random.default_rng([len(layout), rows])
    floats = iter(_FLOATS * 2)
    columns = [next(floats) if kind == "f" else rng.normal(0.0, 1e3, rows) for kind in layout]
    assert _csv_text(columns) == _fmt_csv(columns, rows)


@pytest.mark.parametrize("layout", ["sAA", "AsA", "AAs", "ssAfsA", "AsfAsA", "sAfsAs", "AsAs"])
@pytest.mark.parametrize("rows", [1, 2, cli._CSV_BLOCK_VALUES // 3 + 1])
def test_csv_str_columns_match_fmt_per_row(layout, rows):
    # s is a str column, as sweep's and field's labels, before, between and
    # after the arrays A and beside the floats f
    rng = np.random.default_rng([len(layout), rows])
    labels = iter(["below", "zero_numeric", "Definite", "1", "0", "at"])
    columns = [next(labels) if kind == "s" else -0.0 if kind == "f" else rng.normal(0.0, 1e3, rows) for kind in layout]
    assert _csv_text(columns) == _fmt_csv(columns, rows)


@pytest.mark.parametrize("value", _FLOATS)
def test_state_csv_float_column_in_every_position(value):
    # first, between arrays (one and two in a run) and last, as simulate's
    # x, frozen T and mismatch; one row and a row past a block
    for rows in (1, cli._CSV_BLOCK_VALUES // 4 + 1):
        arrays = list(np.random.default_rng(rows).normal(size=(4, rows)))
        columns = [value, arrays[0], value, arrays[1], value, value, arrays[2], arrays[3], value]
        assert _csv_text(columns) == _fmt_csv(columns, rows)


def test_state_csv_takes_128_distinct_float_runs_between_arrays():
    # each distinct run of floats between two arrays takes one separator
    # byte from 128 up; equal runs share theirs
    A = np.arange(3.0)
    distinct = [A] + [c for k in range(128) for c in (float(k), A)]
    repeated = [A] + [c for _ in range(300) for c in (0.5, A)]
    for columns in (distinct, repeated):
        assert _csv_text(columns) == _fmt_csv(columns, 3)
    with pytest.raises(ValueError):
        _write_csv(io.StringIO(), distinct + [128.0, A])


@pytest.mark.parametrize("linearized", [False, True])
def test_simulate_prints_the_bytes_it_writes_to_out(tmp_path, linearized):
    # stdout cannot seek: each block is spliced before it is written
    doc = {
        "params": params_doc(n_E=1, tau_E=0.5, n_I=2),
        "coeffs": {"r": [1.0, 1.0, 1.0, 1.0, 1.0], "psi": 0.1},
        "initial_state": [0.9, 0.0, 0.1, 0.1, 0.2, 0.0],
        "grid": {"t_span": [0.0, 30.0], "h_t": 0.01},
    }
    if linearized:
        doc.update(T=0.7, linearized=True, initial_state=doc["initial_state"][1:])
    cfg = write_config(tmp_path, doc)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = [
        subprocess.run([sys.executable, "-m", "flustab.cli", "simulate", "--config", cfg, *extra],
                       capture_output=True, env=env, timeout=120)
        for extra in ([], ["--out", str(tmp_path / "out.csv")])
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stderr == runs[1].stderr and runs[1].stdout == b""
    text = (tmp_path / "out.csv").read_bytes()
    assert runs[0].stdout == text and text.count(b"\n") == 3002
    first = text.splitlines()[1].decode().split(",")
    assert first[0] == first[-1] == "0" and first[2] == ("0.69999999999999996" if linearized else "0.90000000000000002")


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            "surface",  # 11 columns, more than run one at a time
            {
                "params": params_doc(beta=1e300, n_I=2),
                "initial_state": [1.0, 0.0, 0.0, 1.0, 0.0],
                "grid": {"x_span": 0.5, "h_x": 0.05, "t_span": [0.0, 1.0], "h_t": 0.1},
            },
        ),
        (
            "simulate",
            {
                "params": params_doc(beta=1e300),
                "T": 1.0,
                "linearized": True,
                "initial_state": [0.1, 0.1, 0.0],
                "grid": {"t_span": [0.0, 1.0], "h_t": 0.5},
            },
        ),
    ],
)
def test_overflowing_run_writes_only_the_error_object(tmp_path, command, doc):
    # numpy's overflow warnings would land on stderr ahead of the error object
    cfg = write_config(tmp_path, doc)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flustab.cli", command, "--config", cfg, "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    error = error_doc(lines[0])
    assert error["code"] == 4
    assert error["details"]["rows"] == 1


class TestBrokenPipe:
    """A reader that stops early (`flustab simulate ... | head -1`) ends the
    run with exit 141 and no traceback, error object or further output."""

    CONFIG = {
        "params": params_doc(n_I=2),
        "initial_state": [1.0, 0.1, 0.1, 0.1, 0.0],
        "grid": {"t_span": 200.0, "h_t": 0.01},
    }

    def test_closed_writer_exits_quietly(self, capsys, monkeypatch, tmp_path):
        class ClosedAfterHeader:
            def __init__(self):
                self.accepted = []
                self.refused = 0

            def write(self, text):
                if self.accepted:
                    self.refused += 1
                    raise BrokenPipeError(32, "Broken pipe")
                self.accepted.append(text)
                return len(text)

            def flush(self):
                pass

        writer = ClosedAfterHeader()
        cfg = write_config(tmp_path, self.CONFIG)
        monkeypatch.setattr(sys, "stdout", writer)
        code = main(["simulate", "--config", cfg])
        monkeypatch.undo()
        assert code == EXIT_BROKEN_PIPE == 141
        assert writer.accepted == ["x,t,T,I1,I2,V,W,mismatch\n"]
        assert writer.refused == 1
        assert capsys.readouterr().err == ""

    def test_pipe_closed_by_the_reader(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "flustab.cli", "simulate", "--config", cfg],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"x,t,T,I1,I2,V,W,mismatch\n"
        proc.stdout.close()  # 20001 rows are far more than a pipe buffers
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""


class TestOutputFailure:
    """An output that cannot take the text (a full disk) ends the run with
    exit 2 and one error object, with no traceback."""

    def test_stdout_refusing_a_write(self, capsys, monkeypatch, tmp_path):
        class FullDisk:
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        cfg = write_config(tmp_path, TestBrokenPipe.CONFIG)
        monkeypatch.setattr(sys, "stdout", FullDisk())
        code = main(["simulate", "--config", cfg])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert code == 2
        assert error_doc(err) == {"code": 2, "message": "cannot write output: [Errno 28] No space left on device",
                                  "details": {}}
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", [["simulate", "--config", "CONFIG"], ["validate", "--json"]])
    @pytest.mark.parametrize("to", ["stdout", "--out"])
    def test_full_device(self, tmp_path, command, to):
        # the interpreter's own flush at exit finds nothing left to write
        cfg = write_config(tmp_path, TestBrokenPipe.CONFIG)
        args = [cfg if a == "CONFIG" else a for a in command] + (["--out", "/dev/full"] if to == "--out" else [])
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "flustab.cli", *args], stdout=full if to == "stdout" else None,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert "Traceback" not in err and "Exception ignored" not in err
        assert error_doc(err)["message"].startswith("cannot write output: ")
        assert len(err.splitlines()) == 1


class TestSurface:
    def test_grid_layout_and_edge_mismatch(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "initial_state": [1.0, 0.5, 0.5, 0.1],
                "grid": {"x_span": 0.2, "t_span": 0.2, "h_x": 0.1, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["surface", "--config", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,t,T,I1,V,W,mismatch"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        # x varies slowest, t fastest
        assert [float(r[0]) for r in rows] == pytest.approx(
            [0.0, 0.0, 0.0, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2]
        )
        assert [float(r[1]) for r in rows] == pytest.approx([0.0, 0.1, 0.2] * 3)
        # both edges through the corner are shared by the two trace orders
        for k, row in enumerate(rows):
            if float(row[0]) == 0.0 or float(row[1]) == 0.0:
                assert row[-1] == "0", f"row {k}: {row}"

    def test_rejects_linearized(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "T": 0.75,
                "linearized": True,
                "initial_state": [1.0, 0.5, 0.5, 0.1],
                "grid": {"x_span": 0.2, "t_span": 0.2, "h_x": 0.1, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["surface", "--config", cfg])
        assert code == 2

    def test_missing_grid_keys_listed(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "params": params_doc(),
                "initial_state": [1.0, 0.5, 0.5, 0.1],
                "grid": {"t_span": 0.2, "h_t": 0.1},
            },
        )
        code, out, err = run_cli(capsys, ["surface", "--config", cfg])
        assert code == 2
        assert error_doc(err)["details"]["missing"] == ["x_span", "h_x"]

    @pytest.mark.parametrize(
        "doc, rows, t_last, where",
        [
            # node 0 holds 2e12 and is never tested; node 1 still does
            (
                {
                    "params": params_doc(),
                    "initial_state": [1.0, 0.0, 2e12, 0.0],
                    "grid": {"x_span": 1.0, "h_x": 0.25, "t_span": 1.0, "h_t": 0.25},
                },
                1, 0.0, "corner x-fiber",
            ),
            # V = a*x^2/2 passes the limit between x = 4 (8e11) and x = 5
            (
                {
                    "params": params_doc(a=1e11),
                    "initial_state": [1.0, 0.0, 0.0, 0.0],
                    "grid": {"x_span": 8.0, "h_x": 1.0, "t_span": 1.0, "h_t": 0.25},
                },
                5, 4.0, "corner x-fiber",
            ),
            # W = 1e6 t up the columns, and T moves by -1e5 W x along a row:
            # row j (t = 0.3 j) fails once t x > 10, first for j = 17 at
            # x = 2, while later rows fail at smaller x
            (
                {
                    "params": params_doc(beta=1e-9, n_I=2, v_a=0.1),
                    "coeffs": {"r": [1e5, 1.0, 1.0, 1.0], "psi": 1e6},
                    "initial_state": [1.0, 0.0, 0.0, 0.0, 0.0],
                    "grid": {"x_span": 2.0, "h_x": 0.25, "t_span": 9.0, "h_t": 0.3},
                },
                8, 1.75, "opposite row j=17",
            ),
        ],
        ids=["corner-node-1", "corner-later-node", "opposite-row"],
    )
    def test_x_direction_blow_up_exits_4_with_prefix(self, capsys, tmp_path, doc, rows, t_last, where):
        cfg = write_config(tmp_path, doc)
        code, out, err = run_cli(capsys, ["surface", "--config", cfg])
        assert code == 4
        assert out == ""
        error = {
            "code": 4,
            "message": f"state exceeded 1e+12 after t = {t_last:g} ({where})",
            "details": {"rows": rows, "t_last": t_last, "where": where},
        }
        assert err == json.dumps({"error": error}) + "\n"


def field_reference(params, coeffs) -> list[str]:
    """field's rows by the per-point loop: both fields at one lattice
    state at a time, every cell by _fmt."""
    T_star = params.T_star
    lattice = np.linspace(-1.0, 1.0, 9)
    v_neg = cli._shared_negative_axis(params, 0.5 * T_star)
    rows = []
    for label, T in (("below", 0.5 * T_star), ("at", T_star), ("above", 1.5 * T_star)):
        v_panel, axis_name = cli._panel_axis(params, label, T)
        for u in lattice:
            for w in lattice:
                y = StateVector.for_params(params, np.concatenate([[T], u * v_neg + w * v_panel])).to_array()
                cells = [label, axis_name, _fmt(T), _fmt(u), _fmt(w)]
                cells += [_fmt(v) for v in time_rhs(params, coeffs, y)]
                cells += [_fmt(v) for v in x_rhs(params, coeffs, y)]
                rows.append(",".join(cells))
    return rows


class TestField:
    def test_header_and_panel_structure(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"params": params_doc()})
        code, out, err = run_cli(capsys, ["field", "--config", cfg])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "panel,panel_axis,T,u_neg,u_panel,"
            "dt_T,dt_I1,dt_V,dt_W,dx_T,dx_I1,dx_V,dx_W"
        )
        assert len(lines) == 1 + 3 * 81
        panels = [line.split(",")[0] for line in lines[1:]]
        assert panels == ["below"] * 81 + ["at"] * 81 + ["above"] * 81
        axes = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert axes == {"below": "zero", "at": "zero_numeric", "above": "positive"}
        T_by_panel = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
        assert T_by_panel == {"below": 0.75, "at": 1.5, "above": 2.25}

    def test_infinite_threshold_is_named(self, capsys, tmp_path):
        # beta, p and c are > 0, but tau_I*p*beta underflows to 0
        cfg = write_config(tmp_path, {"params": params_doc(beta=1e-200, p=1e-200, c=1.0)})
        code, out, err = run_cli(capsys, ["field", "--config", cfg])
        assert (code, out) == (2, "")
        assert error_doc(err)["message"] == "field sketches need a finite threshold c/(tau_I*p*beta) > 0, not inf"

    @pytest.mark.parametrize("n_I", [1, 7, 16])
    @pytest.mark.parametrize("coeffs", [None, "random"])
    def test_panels_match_the_per_point_reference(self, capsys, tmp_path, n_I, coeffs):
        doc = {"params": params_doc(n_I=n_I, tau_I=0.8, a=-0.3)}
        params = ModelParams.from_json_dict(doc["params"])
        if coeffs is None:
            field_coeffs = FieldCoefficients.default_for(params)
        else:
            r = np.random.default_rng(n_I).uniform(0.2, 3.0, n_I + 2)
            r[-1] = 1.0
            doc["coeffs"] = {"r": r.tolist(), "psi": 0.125}
            field_coeffs = FieldCoefficients(r=tuple(r), psi=0.125)
        code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
        assert code == 0
        header, *rows = out.splitlines()
        assert rows == field_reference(params, field_coeffs)

    @pytest.mark.parametrize("n_E", [0, 2])
    def test_eclipse_depths_match_the_per_point_reference(self, capsys, tmp_path, n_E):
        doc = {"params": params_doc(n_E=n_E, tau_E=0.4 if n_E else None, n_I=2, tau_I=0.8, a=-0.3)}
        params = ModelParams.from_json_dict(doc["params"])
        r = np.random.default_rng(n_E).uniform(0.2, 3.0, n_E + 4)
        r[-1] = 1.0
        doc["coeffs"] = {"r": r.tolist(), "psi": -0.25}
        code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        header, *rows = out.splitlines()
        assert rows == field_reference(params, FieldCoefficients(r=tuple(r), psi=-0.25))

    def test_eigen_direction_near_the_float_range(self, capsys, tmp_path):
        # the shared axis has entries near 1e155, whose squares overflow
        # the plain norm: it is taken again on the vector over its largest entry
        doc = {"params": params_doc(beta=1.0, p=1e-155, c=1.0, tau_I=1.0, D_PCF=1.0, v_a=-1.0, a=-1.0)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 3 * 81
        params = ModelParams.from_json_dict(doc["params"])
        v = cli._shared_negative_axis(params, 0.5 * params.T_star)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-15

    @pytest.mark.parametrize("v_a", [1e-310, -1e-310])
    def test_overflowing_zero_eigenvector_is_named(self, capsys, tmp_path, v_a):
        # the below panel's W entry (0.5 T* pressure - c)/(-v_a) passes the float range
        doc = {"params": params_doc(beta=1, p=1, c=1, n_I=1, tau_I=1, D_PCF=0, v_a=v_a, a=0)}
        code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
        assert (code, out) == (3, "")
        assert error_doc(err)["message"] == "numeric failure: eigenvector at lam = 0.0 overflows at n_E = 0, n_I = 1"

    def test_zero_eigen_direction_is_named(self, capsys, tmp_path, monkeypatch):
        # the last panel's axis fails after two panels' fields are computed:
        # with no positive root at 1.5 T* the run exits 3 and writes nothing
        T_above = 1.5 * ModelParams.from_json_dict(params_doc()).T_star
        monkeypatch.setattr(cli, "real_roots", lambda params, T: [r for r in spectrum.real_roots(params, T)
                                                                  if T != T_above or r <= 0.0])
        fields = []
        monkeypatch.setattr(cli, "time_rhs", lambda *args: fields.append(args) or time_rhs(*args))
        code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, {"params": params_doc()})])
        assert (code, out, len(fields)) == (3, "", 2)
        assert error_doc(err) == {"code": 3, "message": f"numeric failure: no positive eigen-direction at T = {T_above:g}",
                                  "details": {}}

    @pytest.mark.parametrize("n_I", [1, 7, 16])
    @pytest.mark.parametrize("n_E", [0, 2])
    def test_advection_free_threshold_axis_is_the_v_family(self, capsys, tmp_path, n_E, n_I):
        # at v_a = 0 the zero eigenspace at T* holds W and the V family; the
        # axis is the Critical row's V family, not the pure W direction
        doc = {"params": params_doc(n_E=n_E, tau_E=0.4 if n_E else None, n_I=n_I, v_a=0.0)}
        code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
        assert (code, err) == (0, "")
        params = ModelParams.from_json_dict(doc["params"])
        v, axis_name = cli._panel_axis(params, "at", params.T_star)
        assert axis_name == "zero_numeric" and v[-1] == 0.0 and v[-2] > 0.0
        assert np.max(np.abs(coefficient_matrix(params, params.T_star) @ v)) <= 1e-12

    def test_every_axis_has_a_positive_v_entry(self):
        # each axis is a closed-form eigenvector with V = 1 over its norm,
        # so no axis takes an arbitrary sign
        rng = np.random.default_rng(36)
        for _ in range(20):
            params, _ = sample_params(rng, n_I_choices=tuple(range(1, 17)))
            T_star = params.T_star
            axes = [cli._shared_negative_axis(params, 0.5 * T_star)]
            axes += [cli._panel_axis(params, label, T)[0] for label, T in
                     (("below", 0.5 * T_star), ("at", T_star), ("above", 1.5 * T_star))]
            assert all(v[-2] > 0.0 for v in axes)

    def test_eclipse_stages(self, capsys, tmp_path, monkeypatch):
        # the panels' axes are unit eigenvectors of the frozen-T matrix, at
        # n_E = 2 and at n_I = 300, and no dense eigensolve draws them
        monkeypatch.setattr(np.linalg, "eig", lambda *args: pytest.fail("np.linalg.eig ran"))
        for doc, first_stage in (({"params": params_doc(n_E=2, tau_E=0.5, n_I=3, tau_I=0.8)}, "dt_E1"),
                                 ({"params": params_doc(n_I=300)}, "dt_I1")):
            code, out, err = run_cli(capsys, ["field", "--config", write_config(tmp_path, doc)])
            assert (code, err) == (0, "")
            header, *rows = out.splitlines()
            assert len(rows) == 243 and header.split(",")[5:7] == ["dt_T", first_stage]
            params = ModelParams.from_json_dict(doc["params"])
            assert rows == field_reference(params, FieldCoefficients.default_for(params))
            T_star = params.T_star
            axes = [(0.5 * T_star, cli._shared_negative_axis(params, 0.5 * T_star))]
            axes += [(T, cli._panel_axis(params, label, T)[0]) for label, T in
                     (("below", 0.5 * T_star), ("at", T_star), ("above", 1.5 * T_star))]
            for T, v in axes:
                A = coefficient_matrix(params, T)
                lam = float(v @ A @ v)  # the Rayleigh quotient of a unit eigenvector
                assert v.shape == (params.state_dim - 1,) and abs(np.linalg.norm(v) - 1.0) <= 1e-15
                assert np.max(np.abs(A @ v - lam * v)) <= 1e-8


class TestValidate:
    def test_default_run_passes(self, capsys):
        code, out, err = run_cli(capsys, ["validate"])
        assert code == 0
        assert run_cli(capsys, ["validate", "--seed", "0"]) == (code, out, err)
        lines = out.strip().splitlines()
        assert lines[-1] == "all suites passed [seed 0]"
        names = [line.split(":")[0] for line in lines[:-1]]
        assert names == [
            "charpoly_equivalence",
            "eigenvector_residuals",
            "sign_tables",
            "multiplicities",
        ]
        for line in lines[:-1]:
            assert ": pass (" in line and line.endswith("checks)")

    def test_json_shape_and_seed_override(self, capsys):
        code, out, err = run_cli(capsys, ["validate", "--json", "--seed", "5"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["seed", "ok", "suites"]
        assert doc["seed"] == 5
        assert doc["ok"] is True
        assert len(doc["suites"]) == 4
        for suite in doc["suites"]:
            assert list(suite) == ["name", "checks", "failures", "failure_examples"]
            assert suite["failures"] == 0

    def test_parser_keeps_nothing_between_calls(self, capsys):
        # main parses with one parser per process; each call starts afresh
        code, out, err = run_cli(capsys, ["validate", "--seed", "3", "--json"])
        assert code == 0 and json.loads(out)["seed"] == 3
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--seed", "three"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, ["validate", "--seed", "4"])
        assert code == 0
        assert out.splitlines()[-1] == "all suites passed [seed 4]"

    def test_config_is_not_a_validate_flag(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", write_config(tmp_path, {})])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "sweep", "simulate", "surface", "field"])
    @pytest.mark.parametrize("flag", [["--json"], ["--seed", "5"]])
    def test_json_and_seed_are_validate_flags(self, capsys, tmp_path, command, flag):
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 0.5})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_suite_failure_exits_1(self, capsys, monkeypatch):
        failing = SuiteResult("charpoly_equivalence", checks=2, failures=1, failure_examples=["lam=0.5"])
        monkeypatch.setattr(cli, "run_all", lambda seed: [failing])
        code, out, err = run_cli(capsys, ["validate", "--seed", "3"])
        assert code == 1
        assert "charpoly_equivalence: FAIL (1/2 checks)" in out
        assert out.strip().splitlines()[-1] == "suite failures [seed 3]"


# argv cases whose parse main must give exactly as the top-level parser does:
# its usage and errors, a subcommand's own, flags after "--", abbreviations
_ARGV_CASES = [
    [], ["-h"], ["--help"], ["bogus"], ["Analyze"], [""], ["--"], ["--", "analyze"], ["-h", "analyze"],
    ["--out", "o.csv", "analyze"], ["analyze", "--bogus"], ["analyze", "-x"], ["analyze", "-5"], ["analyze", ""],
    ["analyze", "--config"], ["analyze", "--config", "--out"], ["analyze", "-h"], ["analyze", "-hx"],
    ["analyze", "--help", "--bogus"], ["analyze", "--", "--config", "c.json"], ["analyze", "--config", "c.json", "--"],
    ["analyze", "--config", "c.json", "x", "y"], ["analyze", "--conf", "c.json"], ["analyze", "--config=c.json"],
    ["analyze", "--config", "a.json", "--config", "c.json", "--out", "-"], ["sweep", "extra"], ["simulate", "--json"],
    ["surface", "--conf"], ["field", "--out"], ["validate"], ["validate", "--json", "--help"], ["validate", "--config", "c.json"],
    ["validate", "--seed", "three"], ["validate", "--seed", "1e3"], ["validate", "--seed", "-1", "--json"],
    ["validate", "--se", "2"], ["validate", "--seed=2", "--json", "--bogus", "1"], ["validate", "--", "--json"],
]


@pytest.mark.parametrize("argv", _ARGV_CASES, ids=lambda argv: " ".join(argv) or "no_args")
def test_dispatch_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    # main parses a named subcommand with that subcommand's parser alone; the
    # namespace, exit code and text must be the two-level parse's
    seen = []
    monkeypatch.setattr(cli, "_load_config", lambda path: None)
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, lambda cfg, args, out: seen.append(vars(args)) or 0)

    def outcome(parse):
        try:
            parsed = parse(argv)
        except SystemExit as exc:
            parsed = ("exit", exc.code)
        return parsed, *capsys.readouterr()

    assert outcome(lambda a: main(a) or seen.pop()) == outcome(lambda a: vars(cli._parser().parse_args(a)))
    assert not seen


def test_subcommands_skip_the_top_level_parse(capsys, monkeypatch, tmp_path):
    # a subcommand named first runs with the top-level parser's parse switched off
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setitem(vars(cli._parser()), "parse_args", refuse)
    monkeypatch.setitem(vars(cli._parser()), "parse_known_args", refuse)
    configs = {
        "analyze": {"params": params_doc(), "T": 1.0},
        "sweep": {"params": params_doc(), "T": {"from": 0.5, "to": 2.5, "steps": 5}},
        "simulate": {"params": params_doc(), "initial_state": [1.0, 0.0, 0.01, 0.0], "grid": {"t_span": 0.1, "h_t": 0.05}},
        "surface": {"params": params_doc(), "initial_state": [1.0, 0.0, 0.01, 0.0],
                    "grid": {"x_span": 0.1, "t_span": 0.1, "h_x": 0.05, "h_t": 0.05}},
        "field": {"params": params_doc()},
    }
    for command, doc in configs.items():
        code, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, doc)])
        assert code == 0 and out, command
    code, out, err = run_cli(capsys, ["validate", "--json", "--seed", "2"])
    assert code == 0 and json.loads(out)["seed"] == 2


_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# the scalars json writes apart: escaped and non-ASCII text, bools beside
# ints, and floats whose shortest text has an exponent, a sign or no digits
# after the point
_json_leaves = (
    st.text()
    | st.sampled_from(['"', "\\", 'say "hi"\\', "line\nbreak", "\x00\x1f\t\r\x7f", "é ü", "中文", "\U0001f600", ""])
    | st.integers() | st.booleans() | st.none()
    | st.sampled_from([-0.0, 0.0, 5e-324, 0.1, 1e16, 1e22, -1.7976931348623157e308])
    | _finite_floats
    | st.lists(_finite_floats)
)
_json_docs = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(_json_docs)
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_json_text_is_json_dumps_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2, allow_nan=False)


@pytest.mark.parametrize("doc", [
    math.inf, -math.inf, math.nan, [1.0, -math.inf], [0.5, math.nan, math.inf], (math.inf,),
    {"a": [1.0, {"b": (2.0, math.inf)}]}, [[1.0, 2.0], ["x", -math.inf]], {"k": math.nan, "m": math.inf},
])
def test_json_text_rejects_a_non_finite_float_as_json_does(doc):
    with pytest.raises(ValueError) as expected:
        json.dumps(doc, indent=2, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._json_text(doc)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


@pytest.mark.parametrize("n_I", range(1, 9))
def test_analyze_reports_are_json_dumps_indent_2(capsys, tmp_path, n_I):
    for row in "<=>":
        for col in "<=>":
            params, T = cell_params(n_I, row, col)
            cfg = write_config(tmp_path, {"params": dataclasses.asdict(params), "T": T})
            code, out, err = run_cli(capsys, ["analyze", "--config", cfg])
            expected = json.dumps(analyze(params, T).to_json_dict(), indent=2, allow_nan=False) + "\n"
            assert (code, out, err) == (0, expected, ""), (n_I, row, col)


def test_failing_validate_json_is_json_dumps_indent_2(capsys, monkeypatch):
    results = [SuiteResult("charpoly_equivalence", checks=4),
               SuiteResult("multiplicities", checks=3, failures=1,
                           failure_examples=['params=ModelParams(beta="x")\n  lam=-0.0 m=2 \\ é'])]
    monkeypatch.setattr(cli, "run_all", lambda seed: results)
    code, out, err = run_cli(capsys, ["validate", "--json", "--seed", "3"])
    doc = {"seed": 3, "ok": False, "suites": [vars(r) for r in results]}
    assert (code, out, err) == (1, json.dumps(doc, indent=2) + "\n", "")


class TestOutFile:
    def test_out_redirects_everything(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            {"params": params_doc(), "T": {"from": 0.5, "to": 1.0, "steps": 2}},
        )
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(
            capsys, ["sweep", "--config", cfg, "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        content = target.read_text(encoding="utf-8")
        assert content.startswith("T,classification,max_real_eig,n_positive\n")
        assert len(content.strip().splitlines()) == 3

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"params": params_doc(), "T": 1.0})
        code, out, err = run_cli(
            capsys,
            ["analyze", "--config", cfg, "--out", str(tmp_path / "no_dir" / "x.json")],
        )
        assert code == 2
        assert error_doc(err)["message"].startswith("cannot open --out path: ")

    @pytest.mark.parametrize("command, doc, code", [
        ("analyze", {"params": params_doc()}, 2),  # no T
        ("sweep", {"params": params_doc(), "T": 1.0}, 2),  # a scalar T
        ("simulate", {"params": params_doc(), "grid": {"t_span": 1.0, "h_t": 0.1}}, 2),  # no initial_state
        ("surface", {"params": params_doc(), "initial_state": [1.0, 0.0, 0.0, 1.0]}, 2),  # no grid
        ("field", {}, 2),  # no params
        ("validate", None, 2),  # a negative seed
        ("analyze", {"params": params_doc(beta=1e-200, p=1e-200, c=1.0), "T": 1.0}, 3),  # infinite T_star
        ("simulate", {"params": params_doc(), "T": 4.5, "linearized": True, "initial_state": [1.0, 1.0, 1.0],
                      "grid": {"t_span": 100.0, "h_t": 0.05}}, 4),
    ])
    def test_failed_run_leaves_out_untouched(self, capsys, tmp_path, command, doc, code):
        # --out is opened on the first write, and a failed run writes nothing
        args = ["--seed", "-1"] if doc is None else ["--config", write_config(tmp_path, doc)]
        existing, absent = tmp_path / "existing.csv", tmp_path / "absent.csv"
        existing.write_bytes(b"kept\r\nbytes")
        for target in (existing, absent):
            assert run_cli(capsys, [command, *args, "--out", str(target)])[:2] == (code, "")
        assert existing.read_bytes() == b"kept\r\nbytes"
        assert not absent.exists()


# Messages of flustab's own for a numeric failure (exit 3), and the blow-up's
# (exit 4); a library's text ("math domain error", numpy's "Array must not
# contain infs or NaNs") never passes.
_OWN_MESSAGES = re.compile(
    r"numeric failure: (real root in \[.*\] not certified in \d+ steps at T = .*"
    r"|real roots at T = .* leave -?\d+ eigenvalues, not complex pairs"
    r"|eigenvector at lam = .* overflows at n_E = \d+, n_I = \d+"
    r"|eigenvector formula has a pole at lam = -c_I or -c_E"
    r"|T_star = inf cannot be written as JSON"
    r"|no negative real eigen-direction at T = .*"
    r"|no positive eigen-direction at T = .*)"
    r"|state exceeded .*"
)


def _rate(draw, width):
    return 10.0 ** (width * draw(st.floats(-1.0, 1.0)))


@st.composite
def _domain_configs(draw):
    """A command and a config drawn over the parser's domain: each rate
    10^u with |u| up to a width of 6 to 300 decades, v_a, a and psi of
    either sign, n_E 0-4, n_I 1-10, grids under 2,000 nodes."""
    width = draw(st.floats(6.0, 300.0))
    rate = lambda: _rate(draw, width)
    sign = lambda: draw(st.sampled_from((-1.0, 1.0)))
    n_E, n_I = draw(st.integers(0, 4)), draw(st.integers(1, 10))
    params = {"beta": rate(), "p": rate(), "c": rate(), "n_E": n_E, "n_I": n_I, "tau_I": rate(),
              "D_PCF": rate(), "v_a": sign() * rate(), "a": sign() * rate()}
    if n_E:
        params["tau_E"] = rate()
    denom = params["tau_I"] * params["p"] * params["beta"]
    T_star = params["c"] / denom if denom > 0.0 else 1.0
    T = T_star * 10.0 ** draw(st.floats(-3.0, 3.0))
    T = T if math.isfinite(T) else 1.0
    command = draw(st.sampled_from(("analyze", "analyze", "sweep", "field", "simulate", "surface")))
    doc = {"params": params}
    dim = n_E + n_I + 3
    if command == "analyze":
        doc["T"] = T
    elif command == "sweep":
        doc["T"] = {"from": 0.0, "to": T, "steps": draw(st.integers(2, 40))}
    elif command != "field":
        steps, h_t = draw(st.integers(1, 40)), rate()
        doc["coeffs"] = {"r": [rate() for _ in range(dim - 2)] + [1.0], "psi": sign() * rate()}
        doc["initial_state"] = [T] + [draw(st.floats(0.0, 1.0)) for _ in range(dim - 1)]
        doc["grid"] = {"t_span": [0.0, steps * h_t], "h_t": h_t}
        if command == "surface":
            nx, h_x = draw(st.integers(1, 40)), rate()
            doc["grid"].update(x_span=nx * h_x, h_x=h_x)
    return command, doc


@given(_domain_configs())
@settings(deadline=None, max_examples=300, derandomize=True, database=None)
def test_whole_domain_exits_are_documented(tmp_path_factory, case):
    """Every exit code is in README's table, every failure ends with one
    JSON error object of flustab's own and no output, and every root
    analyze reports carries an exact sign change of P (for its multiplicity)."""
    command, doc = case
    cfg = write_config(tmp_path_factory.mktemp("domain"), doc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg])
    assert code in (0, 1, 2, 3, 4, 141), (command, doc)
    if code != 0:
        error = error_doc(err.getvalue())
        assert error["code"] == code
        assert code == 2 or _OWN_MESSAGES.fullmatch(error["message"]), (command, doc, error)
        assert out.getvalue() == "", (command, doc, error)
    elif command == "analyze":
        report = json.loads(out.getvalue())
        params = ModelParams.from_json_dict(doc["params"])
        roots = [(r["value"], r["algebraic_multiplicity"]) for r in report["real_eigenvalues"]]
        assert uncertified(params, doc["T"], roots) == [], (command, doc)
