"""Parameters, state vectors, and field coefficients for the within-host model.

The model tracks a fraction of uninfected target cells T, a cascade of n_E
eclipse-phase age classes E_1..E_{n_E}, a cascade of n_I infectious age
classes I_1..I_{n_I}, the free-virus concentration V, and its spatial
derivative W along the airway coordinate x. Everything downstream (matrix
assembly, spectra, field tracing) consumes the two container types defined
here, so all input checking lives in this module. A ModelParams derives
its cascade rates once, when it is built; no reader divides for them.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidParamsError(ValueError):
    """Raised when an operation requires parameters that fail validation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ModelParams:
    """Rate constants and age-class counts of the infection model, valid by
    construction: a structural problem (a count that is not an integer in
    range, a duration that is not positive) raises InvalidParamsError with
    validate()'s full list, and the counts are kept as Python ints.

    Attributes:
        beta: infection rate (per virion per time).
        p: virion production rate (virions per cell per time).
        c: viral clearance rate (per time).
        n_I: number of infectious age classes (>= 1).
        tau_I: mean infectious duration (> 0).
        n_E: number of eclipse age classes (>= 0).
        tau_E: mean eclipse duration; required > 0 iff n_E > 0.
        D_PCF: diffusion rate of virus in the periciliary fluid (>= 0).
        v_a: advection speed of the periciliary fluid (sign free).
        a: assumed constant second spatial derivative of V (sign free).
        c_E, c_I: cascade rates n_E/tau_E (0.0 when n_E = 0, its power
            c_E**n_E then read as 1) and n_I/tau_I; with _shape = (n_E,
            n_I), the field kernels' key, derived at construction and not
            fields, so ==, hash and dataclasses.replace see only the above.
    """

    beta: float
    p: float
    c: float
    n_I: int
    tau_I: float
    n_E: int = 0
    tau_E: float | None = None
    D_PCF: float = 0.0
    v_a: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        # Python floats and ints, not numpy scalars, so single-state runs
        # stay on the fast float path and the kernel caches see one shape
        for name in ("beta", "p", "c", "tau_I", "D_PCF", "v_a", "a"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.tau_E is not None:
            object.__setattr__(self, "tau_E", float(self.tau_E))
        for name in ("n_E", "n_I"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                pass  # not an integer: _structural_problems names it
        if _structural_problems(self):
            raise InvalidParamsError(validate(self))
        # once, not per read: the field kernels read them on every call
        object.__setattr__(self, "c_E", self.n_E / self.tau_E if self.n_E > 0 else 0.0)
        object.__setattr__(self, "c_I", self.n_I / self.tau_I)
        object.__setattr__(self, "_shape", (self.n_E, self.n_I))

    @property
    def T_star(self) -> float:
        """Critical target-cell fraction c/(tau_I*p*beta).

        Below this fraction the spectrum of the frozen-T system has no
        positive eigenvalue; above it exactly one appears. Raises
        InvalidParamsError, naming each, when beta, p or c is not > 0.
        """
        problems = [f"{name} must be > 0" for name in ("beta", "p", "c") if not (getattr(self, name) > 0)]
        if problems:
            raise InvalidParamsError(problems)
        return _threshold(self)

    @property
    def state_dim(self) -> int:
        """Phase-space dimension: T plus all compartments plus V and W."""
        return self.n_E + self.n_I + 3

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelParams":
        """The params object of a config: exactly the known keys, each rate
        a JSON number and each count a number with an integral value (2 and
        2.0, not 2.5, true or "2"). tau_E may be absent or null only when
        n_E = 0. Every bad key is named in one InvalidParamsError."""
        if not isinstance(d, dict):
            raise InvalidParamsError(["params must be an object"])
        required = ["beta", "p", "c", "n_E", "n_I", "tau_I", "D_PCF", "v_a", "a"]
        missing = [k for k in required if k not in d]
        if missing:
            raise InvalidParamsError([f"missing parameter key: {k}" for k in missing])
        known = set(required + ["tau_E"])
        unknown = sorted(set(d) - known)
        if unknown:
            raise InvalidParamsError([f"unknown parameter key: {k}" for k in unknown])
        values = {k: v for k, v in d.items() if v is not None or k != "tau_E"}
        problems = []
        for key, value in values.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if key in ("n_E", "n_I"):
                if number and (isinstance(value, int) or value.is_integer()):
                    values[key] = int(value)
                else:
                    problems.append(f"{key} must be an integer")
            elif not number:
                problems.append(f"{key} must be a number")
            elif isinstance(value, int):
                try:
                    float(value)
                except OverflowError:  # past the float range, as 1e400 (inf) is
                    problems.append(f"{key} must be finite")
        if problems:
            raise InvalidParamsError(problems)
        # tau_E is optional only for eclipse-free models
        if values["n_E"] > 0 and "tau_E" not in values:
            raise InvalidParamsError(["missing parameter key: tau_E"])
        return cls(**values)


def _structural_problems(params: ModelParams) -> list[str]:
    # The bare minimum for the cascade rates and array shapes to make sense,
    # which every ModelParams meets. Positivity of beta/p/c is deliberately
    # not required here: reduced configurations (e.g. beta = 0) are
    # legitimate inputs for the linear diagnostics even though they fail the
    # full contract in validate().
    problems = []
    if not isinstance(params.n_I, int) or params.n_I < 1:
        problems.append("n_I must be an integer >= 1")
    if not isinstance(params.n_E, int) or params.n_E < 0:
        problems.append("n_E must be an integer >= 0")
    if not (params.tau_I > 0):
        problems.append("tau_I must be > 0")
    if isinstance(params.n_E, int) and params.n_E > 0 and not (params.tau_E is not None and params.tau_E > 0):
        problems.append("tau_E must be > 0 when n_E > 0")
    return problems


def _threshold(params: ModelParams) -> float:
    """c/(tau_I*p*beta) unchecked, +inf where the denominator is not
    positive (beta = 0 leaves the system Definite at every T)."""
    denom = params.tau_I * params.p * params.beta
    return params.c / denom if denom > 0 else math.inf


def validate(params: ModelParams) -> list[str]:
    """Full input contract. Returns every violation, not just the first.
    ModelParams raises this list at construction when a structural check
    fails, so a count need not be an integer here."""
    problems = _structural_problems(params)
    if not problems:  # a cascade rate past the float range, as 3/1e-320, makes no matrix
        problems += [f"{name} must be finite" for name, rate in (("n_E/tau_E", params.c_E), ("n_I/tau_I", params.c_I))
                     if not math.isfinite(rate)]
    # a generated field kernel's compile time and memory grow with the depth
    counts = (params.n_E, params.n_I)
    if all(isinstance(n, int) for n in counts) and sum(counts) > 1000:
        problems.append("n_E + n_I must be <= 1000")
    for name in ("beta", "p", "c"):
        value = getattr(params, name)
        if not (value > 0):
            problems.append(f"{name} must be > 0")
    if not (params.D_PCF >= 0):
        problems.append("D_PCF must be >= 0")
    for name in ("beta", "p", "c", "tau_I", "tau_E", "D_PCF", "v_a", "a"):
        value = getattr(params, name)
        if value is not None and not np.isfinite(value):
            problems.append(f"{name} must be finite")
    return problems


@dataclass(frozen=True)
class StateVector:
    """One phase-space point, ordered (T, E_1..E_{n_E}, I_1..I_{n_I}, V, W)."""

    T: float
    E: tuple[float, ...]
    I: tuple[float, ...]
    V: float
    W: float

    def to_array(self) -> np.ndarray:
        return np.array([self.T, *self.E, *self.I, self.V, self.W], dtype=float)

    @classmethod
    def for_params(cls, params: ModelParams, arr: Sequence[float]) -> "StateVector":
        """The state of the flat array arr, laid out for params' n_E and n_I."""
        arr = list(map(float, arr))
        n_E, n_I = params.n_E, params.n_I
        if len(arr) != params.state_dim:
            raise ValueError(
                f"state vector has {len(arr)} components, expected {params.state_dim} "
                f"for n_E={n_E}, n_I={n_I}"
            )
        return cls(T=arr[0], E=tuple(arr[1 : 1 + n_E]), I=tuple(arr[1 + n_E : 1 + n_E + n_I]), V=arr[-2], W=arr[-1])


@dataclass(frozen=True)
class FieldCoefficients:
    """Coefficients of the heuristic x-direction field.

    r has one entry per phase-space slot except the last (W): the T slot,
    every compartment slot, and the V slot. All entries must be positive and
    the V-slot entry is pinned to 1 so that the x-field reproduces the
    defining relation dV/dx = W. psi is the constant standing in for the
    mixed derivative d/dt of W (default 0; small values leave the qualitative
    picture unchanged).
    """

    r: tuple[float, ...]
    psi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        object.__setattr__(self, "psi", float(self.psi))

    @classmethod
    def default_for(cls, params: ModelParams) -> "FieldCoefficients":
        return cls(r=(1.0,) * (params.n_E + params.n_I + 2), psi=0.0)

    def problems_for(self, params: ModelParams) -> list[str]:
        problems = []
        expected = params.n_E + params.n_I + 2
        if len(self.r) != expected:
            problems.append(f"r must have {expected} entries, got {len(self.r)}")
        else:
            if any(not (ri > 0) for ri in self.r):
                problems.append("all r entries must be > 0")
            if self.r[-1] != 1.0:
                problems.append("last r entry must equal 1 exactly")
        if not np.isfinite(self.psi):
            problems.append("psi must be finite")
        return problems


__all__ = [
    "InvalidParamsError",
    "ModelParams",
    "StateVector",
    "FieldCoefficients",
    "validate",
]
