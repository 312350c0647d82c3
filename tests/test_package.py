"""The package's public surface and size, pinned so that a new export or a
longer src/ is a visible change to this test."""
import argparse
import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import flustab
from flustab import cli

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
# `wc -l src/flustab/*.py` once the validate suites stacked their LAPACK calls
# and the config parser named a count past the float range as past the depth cap;
# a change that grows src/ raises this on purpose
SRC_LINES = 3058
# each subcommand's flags, so an inert flag cannot come back unseen
FLAGS = {name: {"-h", "--help", "--config", "--out"} for name in ("analyze", "sweep", "simulate", "surface", "field")}
FLAGS["validate"] = {"-h", "--help", "--out", "--json", "--seed"}


def test_exports_are_pinned():
    assert len(EXPORTS) == 36
    assert sorted(flustab.__all__) == EXPORTS
    assert len(set(flustab.__all__)) == len(flustab.__all__)
    assert all(hasattr(flustab, name) for name in EXPORTS)


def test_subcommand_flags_are_pinned():
    subparsers = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {flag for action in p._actions for flag in action.option_strings}
             for name, p in subparsers.choices.items()}
    assert flags == FLAGS


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


def test_one_function_formats_csv_floats():
    # g17_bytes is read (imported, named or taken as an attribute) by the CSV
    # writer alone, so every table's floats take one "%.17g" path
    readers = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and any(a.name == "g17_bytes" for a in node.names)
            named = isinstance(node, ast.Name) and node.id == "g17_bytes" and isinstance(node.ctx, ast.Load)
            attribute = isinstance(node, ast.Attribute) and node.attr == "g17_bytes"
            if imported or named or attribute:
                scope = node
                while not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                    scope = parent[scope]
                readers.add(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    assert readers == {"cli._write_csv"}
