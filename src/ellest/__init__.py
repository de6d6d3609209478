"""Near-minimax linear estimation over ellitopes.

Given noisy observations omega = A x + sigma xi of a signal known to lie in
an ellitope, the package designs the linear estimate H' omega minimizing a
certified worst-case risk bound (a semidefinite program), computes matching
lower bounds on the minimax risk, and provides the S-risk, robust, and
quadratic-maximization companions, all on top of a self-contained dense
conic interior-point solver.
"""

from .ellitope import Ellitope, TSet, direct_product, intersect, inverse_image
from .estimator import (
    EstimationProblem,
    apply,
    build_linear_estimate,
    empirical_risk,
    exact_risk_on_ellipsoid,
    worst_case_signal,
)
from .experiments import run_pendulum_experiment, run_suboptimality_experiment
from .io import read_ellitope, write_ellitope, write_matrix
from .lower_bound import (
    CONTRACTION,
    PARALLELOTOPE,
    QUADRATIC_APPROX,
    best_refined_lower_bound,
    chi2_tail_bound,
    delta_rho,
    gaussian_quantile,
    lower_bound_rho_family,
    m_star,
    near_optimality_factor,
    phi_gauss,
    refined_lower_bound,
    rho_of_delta,
    simplified_factor,
    solve_bayesian_sdp,
)
from .robust import UncertaintyModel, build_robust_estimate, verify_robust_feasibility
from .s_risk import (
    SRiskProblem,
    build_srisk_estimate,
    optimize_S_bisection,
    srisk_lower_bound,
    whole_space_estimate,
)
from .sdp_relaxation import (
    check_rademacher_moment,
    factor_bound,
    relax_quadratic_max,
    round_rademacher,
    solve_and_round,
)

__version__ = "1.0.0"

__all__ = [
    "CONTRACTION",
    "Ellitope",
    "EstimationProblem",
    "PARALLELOTOPE",
    "QUADRATIC_APPROX",
    "SRiskProblem",
    "TSet",
    "UncertaintyModel",
    "apply",
    "best_refined_lower_bound",
    "build_linear_estimate",
    "build_robust_estimate",
    "build_srisk_estimate",
    "check_rademacher_moment",
    "chi2_tail_bound",
    "delta_rho",
    "direct_product",
    "empirical_risk",
    "exact_risk_on_ellipsoid",
    "factor_bound",
    "gaussian_quantile",
    "intersect",
    "inverse_image",
    "lower_bound_rho_family",
    "m_star",
    "near_optimality_factor",
    "optimize_S_bisection",
    "phi_gauss",
    "read_ellitope",
    "refined_lower_bound",
    "relax_quadratic_max",
    "rho_of_delta",
    "round_rademacher",
    "run_pendulum_experiment",
    "run_suboptimality_experiment",
    "simplified_factor",
    "solve_and_round",
    "solve_bayesian_sdp",
    "srisk_lower_bound",
    "verify_robust_feasibility",
    "whole_space_estimate",
    "worst_case_signal",
    "write_ellitope",
    "write_matrix",
]
