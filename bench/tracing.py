"""Spans around flustab's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the flustab modules
(and a few ``numpy.linalg`` entry points) with a wrapper, wherever the name
is bound: ``surface``, ``spectrum`` and ``cli`` import names directly, so the
wrapper has to sit in the caller's namespace too. ``uninstall()`` puts the
originals back. Wrappers record only while ``active`` is set.

Each span has a name, a start, an end and its parent span. Spans are kept in
memory and written out by ``save``. A layer's self time is its span's
duration minus the time its child spans cover; spans on one thread nest, so
that is the sum of the children's durations.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("model", "charpoly", "spectrum", "dynamics", "surface", "validation", "numdiff", "cli")
NUMPY_FUNCTIONS = ("eigvals", "eig", "svd")
# Functions whose results' lengths are summed: the roots real_roots returns.
COUNTED = ("spectrum.real_roots",)


def public_functions(module) -> list[str]:
    """Functions a module defines itself and exports: its ``__all__``, or
    every name without a leading underscore when it has none."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None)) and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls_by_parent: dict[tuple[int, int], int] = defaultdict(int)
        self.returned: dict[str, int] = defaultdict(int)  # summed len() of results, where asked for
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span id, name index, start, child time]
        self._patched: list[tuple[dict, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._index[name]

    def _open(self, idx: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        parent_idx = self._stack[-1][1] if self._stack else -1
        span = len(self._span_name)
        self._span_name.append(idx)
        self._span_parent.append(parent)
        self._span_end.append(0.0)
        self.calls_by_parent[(parent_idx, idx)] += 1
        start = time.perf_counter()
        self._span_start.append(start)
        self._stack.append([span, idx, start, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span, idx, start, child = self._stack.pop()
        duration = end - start
        self._span_end[span] = end
        self.calls[idx] += 1
        self.self_s[idx] += duration - child
        self.total_s[idx] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def wrap(self, name: str, fn, count_result: bool = False):
        """A wrapper that records a span around fn while the tracer is
        active, and returns what fn returns or re-raises what it raises."""
        idx = self._name_index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count_result:
                self.returned[name] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public flustab function at each of its bindings (module
        attributes and module-level dispatch tables such as the CLI's command
        map), and the numpy.linalg eigensolvers and SVD."""
        modules = [m for n, m in sys.modules.items() if n == "flustab" or n.startswith("flustab.")]
        for short in MODULES:
            module = sys.modules[f"flustab.{short}"]
            for fname in public_functions(module):
                original = getattr(module, fname)
                name = f"{short}.{fname}"
                wrapper = self.wrap(name, original, count_result=name in COUNTED)
                for holder in modules:
                    namespace = vars(holder)
                    tables = [namespace] + [v for v in namespace.values() if isinstance(v, dict)]
                    for table in tables:
                        for key, value in list(table.items()):
                            if value is original:
                                self._patch(table, key, wrapper)
        for fname in NUMPY_FUNCTIONS:
            self._patch(vars(np.linalg), fname, self.wrap(f"numpy.linalg.{fname}", getattr(np.linalg, fname)))

    def _patch(self, table: dict, key: str, value) -> None:
        self._patched.append((table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def snapshot(self) -> dict:
        """Per-name call counts, self and total times so far."""
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i], "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)
        }

    def calls_from(self, parent: str, name: str) -> int:
        return self.calls_by_parent.get((self._index.get(parent, -2), self._index.get(name, -2)), 0)

    def save(self, path: str) -> None:
        """Write every span recorded: name index, parent span, start, end."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
