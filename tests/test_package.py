"""The package's public surface and size, pinned so that a new export or a
longer src/ is a visible change to this test."""
import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import flustab

SRC = Path(flustab.__file__).parent

EXPORTS = [
    "AsymptoticsVerdict", "BlowUpError", "FieldCoefficients", "InvalidParamsError",
    "ModelParams", "RootReport", "SignPattern", "SpectrumReport", "StateVector", "SuiteResult", "SurfaceGrid",
    "Trajectory", "analyze", "asymptotics", "charpoly",
    "charpoly_closed", "charpoly_direct", "charpoly_sum_form", "classify", "coefficient_matrix", "eigenvector",
    "full_spectrum_numeric", "geometric_multiplicity", "integrate_linearized", "integrate_time", "lie_bracket",
    "perron_root", "predicted_sign_pattern", "real_roots", "run_all", "sample_params", "sign_class",
    "time_rhs", "trace_surface", "validate", "x_rhs",
]
# `wc -l src/flustab/*.py` once constant CSV columns were formatted once and
# the cascade rates derived once per ModelParams; a change that grows src/
# raises this on purpose
SRC_LINES = 2986


def test_exports_are_pinned():
    assert len(EXPORTS) == 36
    assert sorted(flustab.__all__) == EXPORTS
    assert len(set(flustab.__all__)) == len(flustab.__all__)
    assert all(hasattr(flustab, name) for name in EXPORTS)


def test_source_lines_are_capped():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SRC_LINES


def test_every_submodule_export_has_a_user():
    # each name in a submodule's __all__ is re-exported by the package or
    # read somewhere in src/, as a name or an attribute; each public method
    # or property of an exported class is read as an attribute in src/ at
    # least as often as exported classes define that name, so a member
    # whose name another class's reader uses still needs a reader of its own
    loaded = set()
    attribute_reads = Counter()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
                attribute_reads[node.attr] += 1
    modules = [importlib.import_module(f"flustab.{path.stem}") for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"]
    unused = [f"{module.__name__}.{name}" for module in modules for name in getattr(module, "__all__", ())
              if name not in flustab.__all__ and name not in loaded]
    assert unused == []
    definers: dict[str, list[str]] = {}
    for cls in (getattr(flustab, name) for name in flustab.__all__):
        for member, value in vars(cls).items() if inspect.isclass(cls) else ():
            routine = inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
            if routine and not member.startswith("_"):
                definers.setdefault(member, []).append(f"{cls.__name__}.{member}")
    unread = [owners for member, owners in definers.items() if attribute_reads[member] < len(owners)]
    assert unread == []
