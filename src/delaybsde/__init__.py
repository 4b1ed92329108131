"""Solver and experiment laboratory for backward stochastic equations whose
driver integrates delayed arguments against an increasing process."""

from .errors import (BlowupError, ConfigError, ConstraintViolationError,
                     DelayBsdeError, FamilyInvalidError,
                     GeneratorEvaluationError, GridAlignmentError,
                     MonotonicityError, NonContractionError,
                     NumericOverflowError, SingularSystemError)
from .path_calculus import TimeGrid, cumulative_stieltjes, total_variation
from .stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                RegressionBasis, RegressionPlan,
                                conditional_expectation, fit_least_squares,
                                omega_delta, realize_increasing_process,
                                simulate_brownian)
from .model import (AtomMeasure, ConditionReport, GenContext, NormReport,
                    Preflight, ProblemSpec, c_threshold, check_H1, check_H2,
                    check_integrability, effective_c, equivalent_norm,
                    mu_lambda, preflight, probe_lipschitz, segment_integral,
                    select_lambda)
from .registry import build_F, build_G, build_terminal, problem_from_dict
from .picard_solver import (ContractionReport, Solution, SolverDiagnostics,
                            build_B, consistency_residuals, contraction_report,
                            gamma_step, node_segment, solve)
from .stability_lab import (HellyBrayReport, PerturbationFamily,
                            StabilityReport, bv_tail_curve, generator_gap,
                            helly_bray_stochastic_check, oscillatory_A_family,
                            oscillatory_integration_family,
                            resonant_integration_family, run_stability,
                            xi_shift_family)

__version__ = "0.1.0"
