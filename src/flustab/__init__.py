"""Stability toolkit for a target-cell-limited within-host infection model.

The package covers the frozen-T linear analysis end to end: coefficient
matrix assembly, three independent characteristic-polynomial routes, real
root isolation with sign classification, eigenvector formulas and
multiplicities, regime prediction tables, time-field trajectories and the
closed-form x-flow, integral-surface tracing with a path-ordering mismatch
diagnostic, and randomized validation suites.
"""

from .charpoly import (
    charpoly,
    charpoly_closed,
    charpoly_direct,
    charpoly_sum_form,
    coefficient_matrix,
)
from .dynamics import time_rhs, x_rhs
from .model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
    validate,
)
from .spectrum import (
    Classification,
    RootReport,
    SignPattern,
    SpectrumReport,
    analyze,
    classify,
    eigenvector,
    full_spectrum_numeric,
    geometric_multiplicity,
    perron_root,
    predicted_sign_pattern,
    real_roots,
    sign_class,
)
from .surface import (
    AsymptoticsVerdict,
    BlowUpError,
    SurfaceGrid,
    Trajectory,
    asymptotics,
    integrate_linearized,
    integrate_time,
    lie_bracket,
    trace_surface,
)
from .validation import SuiteResult, run_all, sample_params

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsVerdict",
    "BlowUpError",
    "Classification",
    "FieldCoefficients",
    "InvalidParamsError",
    "ModelParams",
    "RootReport",
    "SignPattern",
    "SpectrumReport",
    "StateVector",
    "SuiteResult",
    "SurfaceGrid",
    "Trajectory",
    "analyze",
    "asymptotics",
    "charpoly",
    "charpoly_closed",
    "charpoly_direct",
    "charpoly_sum_form",
    "classify",
    "coefficient_matrix",
    "eigenvector",
    "full_spectrum_numeric",
    "geometric_multiplicity",
    "integrate_linearized",
    "integrate_time",
    "lie_bracket",
    "perron_root",
    "predicted_sign_pattern",
    "real_roots",
    "run_all",
    "sample_params",
    "sign_class",
    "time_rhs",
    "trace_surface",
    "validate",
    "x_rhs",
]
