"""Solver and experiment laboratory for backward stochastic equations whose
driver integrates delayed arguments against an increasing process."""

from .errors import (BlowupError, ConfigError, ConstraintViolationError,
                     DelayBsdeError, FamilyInvalidError,
                     GeneratorEvaluationError, GridAlignmentError,
                     MonotonicityError, NonContractionError,
                     NumericOverflowError, SingularSystemError)
from .path_calculus import (BVFunction, GridFunction, TimeGrid, bv_norm,
                            cumulative_stieltjes, delayed_segment,
                            helly_bray_distance, read_csv, step_approximation,
                            stieltjes_integral, total_variation, write_csv)
from .stochastic_engine import (IncreasingProcessSpec, PathEnsemble,
                                RegressionBasis, RegressionPlan,
                                conditional_expectation, fit_least_squares,
                                load_ensemble, omega_delta,
                                realize_increasing_process,
                                register_deterministic_shape,
                                register_positive_functional, save_ensemble,
                                simulate_brownian, splice_future)
from .model import (AtomMeasure, ConditionReport, GenContext, NormReport,
                    Preflight, ProblemSpec, c_threshold, check_H1, check_H2,
                    check_integrability, effective_c, equivalent_norm,
                    mu_lambda, preflight, probe_lipschitz, segment_integral,
                    select_lambda, weighted_norm)
from .registry import (build_F, build_G, build_terminal, problem_from_dict,
                       problem_to_dict, register_F, register_G,
                       register_terminal)
from .picard_solver import (ContractionReport, GammaArtifacts, Solution,
                            SolverDiagnostics, build_B, contraction_report,
                            gamma_step, node_segment, solve)
from .stability_lab import (HellyBrayReport, PerturbationFamily,
                            StabilityReport, bv_tail_curve, generator_gap,
                            helly_bray_stochastic_check, oscillatory_A_family,
                            oscillatory_integration_family,
                            resonant_integration_family, run_stability,
                            xi_shift_family)

__version__ = "0.1.0"
