"""Zeros of random power series with stationary complex Gaussian coefficients.

The package computes the exact first intensity of the zero point process on
the unit disk from the spectral measure of the coefficient process, expands
it near the boundary circle (including the degenerate regimes where the
spectral density vanishes), validates both against replicated Monte Carlo
root counts, and diagnoses across which boundary arcs the random series
continues analytically.
"""

from .asymptotics import (ExpansionReport, expand_K, expand_P, expand_Q,
                          expand_S, expand_S_via_products, fitted_order,
                          rho1_boundary, verify_recursions)
from .continuation import (Arc, arc_radius_bound, classify_arcs,
                           continuation_report, log_variance_alpha, rho_local,
                           variance_alpha)
from .errors import (BoundaryTieWarning, CaseMismatch, DegenerateDenominator,
                     DomainError, GafError, MethodUnavailable,
                     NormalizationError, PrecisionError, SolverError,
                     TailWarning, TruncationBiasWarning)
from .experiments import (ExperimentConfig, RadialProfile, analytic_cell_counts,
                          emit_profile, load_profile, run_experiment)
from .intensity import (rho1, rho1_closed_form, rho1_ek_numeric, rho1_qform,
                        rho1_spectral, sr_positive_form, sr_value)
from .periodic import PeriodicFunction, TrigPoly, mean
from .poisson import (AuxValues, K_offdiag, P_op, Q_op, aux_ops, herglotz,
                      poisson_kernel)
from .presets import (atoms, indicator, ma1, mix, parse_preset,
                      random_trig_density, uniform)
from .sampling import (CoefficientBlock, empirical_covariance, radius_check,
                       replica_seed, sample_block, sample_blocks)
from .spectral import SpectralMeasure, covariance, shift
from .zeros import (ZeroSet, annulus, companion_roots, count_region, disk,
                    find_roots, sector)

__version__ = "0.1.0"
