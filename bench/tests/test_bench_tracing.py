"""The tracer's wrappers are transparent, nest correctly, sit wherever a
caller looks a name up, and come off again."""
import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest

import tracing
from flustab import cli, dynamics, surface


def test_wrapper_returns_and_reraises():
    tracer = tracing.Tracer()
    tracer.active = True
    marker = object()
    assert tracer.wrap("f", lambda x: (x, marker))(3) == (3, marker)

    def boom():
        raise KeyError("no")

    with pytest.raises(KeyError, match="no"):
        tracer.wrap("g", boom)()
    snap = tracer.snapshot()
    assert snap["f"]["calls"] == 1 and snap["g"]["calls"] == 1
    assert not tracer._stack


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    tracer.active = True
    outer()
    snap = tracer.snapshot()
    assert snap["inner"]["calls"] == 5
    assert snap["outer"]["total_s"] == pytest.approx(snap["outer"]["self_s"] + snap["inner"]["total_s"], abs=1e-12)
    assert tracer.calls_from("outer", "inner") == 5
    assert list(tracer._span_parent) == [-1, 0, 0, 0, 0, 0]


def test_inactive_wrapper_records_nothing():
    tracer = tracing.Tracer()
    assert tracer.wrap("f", len)([1, 2]) == 2
    assert tracer.snapshot()["f"]["calls"] == 0


def test_install_reaches_direct_imports_and_dispatch_tables(tmp_path):
    originals = (surface.time_rhs, dynamics.time_rhs, cli.cmd_simulate, cli._COMMANDS["simulate"], np.linalg.eigvals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert surface.time_rhs is not originals[0] and surface.time_rhs is dynamics.time_rhs
        assert cli._COMMANDS["simulate"] is cli.cmd_simulate is not originals[2]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "params": {"beta": 1.0, "p": 2.0, "c": 3.0, "n_E": 0, "n_I": 2, "tau_I": 1.0, "D_PCF": 0.1, "v_a": 0.5, "a": 0.2},
            "initial_state": [1.0, 0.0, 0.0, 0.1, 0.0],
            "grid": {"t_span": 1.0, "h_t": 0.1},
        }))
        tracer.active = True
        with redirect_stderr(io.StringIO()):
            assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 0
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (surface.time_rhs, dynamics.time_rhs, cli.cmd_simulate, cli._COMMANDS["simulate"], np.linalg.eigvals) == originals
    snap = tracer.snapshot()
    assert snap["dynamics.time_rhs"]["calls"] == 40  # 10 RK4 steps, 4 stages each
    assert snap["cli.cmd_simulate"]["calls"] == 1
    assert tracer.calls_from("surface.integrate_time", "dynamics.time_rhs") == 40
    path = tmp_path / "spans.npz"
    tracer.save(str(path))
    spans = np.load(path)
    assert spans["name"].size == spans["start"].size and np.all(spans["end"] >= spans["start"])


def test_reference_kernel_runs_no_flustab_code():
    import run

    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert run.kernel_seconds() > 0
    finally:
        tracer.active = False
        tracer.uninstall()
    assert sum(tracer.calls) == 0
