"""The package's public surface and size, pinned so that a new export or a
longer src/ is a visible change to this test."""
import ast
import importlib
from pathlib import Path

import flustab

SRC = Path(flustab.__file__).parent

EXPORTS = [
    "AsymptoticsVerdict", "BlowUpError", "Classification", "FieldCoefficients", "InvalidParamsError",
    "ModelParams", "RootReport", "SignPattern", "SpectrumReport", "StateVector", "SuiteResult", "SurfaceGrid",
    "Trajectory", "analyze", "asymptotics", "charpoly",
    "charpoly_closed", "charpoly_direct", "charpoly_sum_form", "classify", "coefficient_matrix", "eigenvector",
    "full_spectrum_numeric", "geometric_multiplicity", "integrate_linearized", "integrate_time", "lie_bracket",
    "perron_root", "predicted_sign_pattern", "real_roots", "run_all", "sample_params", "sign_class",
    "time_rhs", "trace_surface", "validate", "x_rhs",
]
# `wc -l src/flustab/*.py` when the one root path for every n_E went in;
# a change that grows src/ raises this on purpose
SRC_LINES = 3016


def test_exports_are_pinned():
    assert len(EXPORTS) == 37
    assert sorted(flustab.__all__) == EXPORTS
    assert len(set(flustab.__all__)) == len(flustab.__all__)
    assert all(hasattr(flustab, name) for name in EXPORTS)


def test_source_lines_are_capped():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SRC_LINES


def test_every_submodule_export_has_a_user():
    # each name in a submodule's __all__ is re-exported by the package or
    # read somewhere in src/, as a name or an attribute
    loaded = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    modules = [importlib.import_module(f"flustab.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"]
    unused = [f"{module.__name__}.{name}" for module in modules for name in getattr(module, "__all__", ())
              if name not in flustab.__all__ and name not in loaded]
    assert unused == []
