"""The package's public surface, pinned so that a new export is a visible
change to this test."""
import flustab

EXPORTS = [
    "AsymptoticsVerdict", "BlowUpError", "Classification", "FieldCoefficients", "InvalidParamsError",
    "ModelParams", "RootReport", "SignPattern", "SpectrumReport", "StateVector", "SuiteResult", "SurfaceGrid",
    "Trajectory", "algebraic_multiplicity", "analyze", "asymptotics", "charpoly",
    "charpoly_closed", "charpoly_direct", "charpoly_sum_form", "classify", "coefficient_matrix", "eigenvector",
    "full_spectrum_numeric", "geometric_multiplicity", "integrate_linearized", "integrate_time", "lie_bracket",
    "perron_root", "predicted_sign_pattern", "real_roots", "run_all", "sample_params", "sign_class",
    "time_rhs", "trace_surface", "validate", "x_rhs",
]


def test_exports_are_pinned():
    assert len(EXPORTS) == 38
    assert sorted(flustab.__all__) == EXPORTS
    assert len(set(flustab.__all__)) == len(flustab.__all__)
    assert all(hasattr(flustab, name) for name in EXPORTS)
