"""Singular spectrum, information bandwidth and TSVD inversion for the
two-dimensional Helmholtz source-from-boundary problem on concentric disks.
"""

from .singular_system import (ProblemGeometry, SpectrumTable, a_m,
                              build_spectrum, default_m_max, psi_eval,
                              phi_eval)
from .specfun import first_zero_j, first_zero_y
from .bandwidth import (HorizonError, BandwidthReport, bandwidth, bound_lower,
                        bound_upper, bound_lower_approx, bound_upper_approx,
                        report, max_angular_sampling)
from .forward import (SourceField, BoundaryData, source_grid,
                      apply_forward_analytic, synthesize_measurement)
from .tsvd import (SigmaUnderflowError, ModalCoefficients, Reconstruction,
                   modal_decompose, tsvd_reconstruct, pick_truncation)
from .experiments import (SweepRecord, RegressionFit, AsymptoticRecord,
                          run_sweep, fit_linear, r_independence_study,
                          asymptotic_checks)

__version__ = "0.1.0"

__all__ = [
    "ProblemGeometry", "SpectrumTable", "a_m", "build_spectrum",
    "default_m_max", "psi_eval", "phi_eval",
    "first_zero_j", "first_zero_y",
    "HorizonError", "BandwidthReport", "bandwidth", "bound_lower",
    "bound_upper", "bound_lower_approx", "bound_upper_approx", "report",
    "max_angular_sampling",
    "SourceField", "BoundaryData", "source_grid", "apply_forward_analytic",
    "synthesize_measurement",
    "SigmaUnderflowError", "ModalCoefficients", "Reconstruction",
    "modal_decompose", "tsvd_reconstruct", "pick_truncation",
    "SweepRecord", "RegressionFit", "AsymptoticRecord", "run_sweep",
    "fit_linear", "r_independence_study", "asymptotic_checks",
    "__version__",
]
