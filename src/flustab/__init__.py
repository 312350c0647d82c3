"""Stability toolkit for a target-cell-limited within-host infection model.

The package covers the frozen-T linear analysis end to end: coefficient
matrix assembly, three independent characteristic-polynomial routes, real
root isolation with sign classification, eigenvector formulas and
multiplicities, regime prediction tables, time-field trajectories and the
closed-form x-flow, integral-surface tracing with a path-ordering mismatch
diagnostic, and randomized validation suites.
"""

from .charpoly import (
    SystemMatrix,
    charpoly,
    charpoly_closed,
    charpoly_direct,
    charpoly_sum_form,
    coefficient_matrix,
    production_minor_det,
)
from .dynamics import (
    FieldSample,
    sample_fields,
    time_field,
    time_rhs,
    x_field,
    x_rhs,
)
from .model import (
    FieldCoefficients,
    InvalidParamsError,
    ModelParams,
    StateVector,
    derived_rates,
    target_cell_threshold,
    validate,
)
from .spectrum import (
    Classification,
    RootReport,
    SignPattern,
    SpectrumReport,
    algebraic_multiplicity,
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
    linearized_time_field,
    trace_surface,
)
from .validation import SuiteResult, run_all, sample_params

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsVerdict",
    "BlowUpError",
    "Classification",
    "FieldCoefficients",
    "FieldSample",
    "InvalidParamsError",
    "ModelParams",
    "RootReport",
    "SignPattern",
    "SpectrumReport",
    "StateVector",
    "SuiteResult",
    "SurfaceGrid",
    "SystemMatrix",
    "Trajectory",
    "algebraic_multiplicity",
    "analyze",
    "asymptotics",
    "charpoly",
    "charpoly_closed",
    "charpoly_direct",
    "charpoly_sum_form",
    "classify",
    "coefficient_matrix",
    "derived_rates",
    "eigenvector",
    "full_spectrum_numeric",
    "geometric_multiplicity",
    "integrate_linearized",
    "integrate_time",
    "lie_bracket",
    "linearized_time_field",
    "perron_root",
    "predicted_sign_pattern",
    "production_minor_det",
    "real_roots",
    "run_all",
    "sample_fields",
    "sample_params",
    "sign_class",
    "target_cell_threshold",
    "time_field",
    "time_rhs",
    "trace_surface",
    "validate",
    "x_field",
    "x_rhs",
]
