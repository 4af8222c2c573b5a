"""Numerical estimation of error-bound and Holder metric-subregularity
moduli of set-valued mappings via primal and subdifferential slopes."""

from .geometry import (
    INF,
    DualVectorSet,
    NormSpec,
    ProductPoint,
    dual_norm_rho,
    duality_map,
    euclidean,
    is_inf,
    point_to_set_distance,
    prod_dist,
    q_duality_enlargement,
    xi_q,
)
from .moduli import (
    CriteriaReport,
    ModulusReport,
    RunContext,
    check_subregularity_inequality,
    convexity_necessity_check,
    criteria_report,
    error_bound_modulus,
    run_invariant_suite,
    subregularity_modulus,
    theorem_7T1_check,
)
from .problems import (
    ErrorFunction,
    MappingProblem,
    Schedule,
    catalog_names,
    catalog_problem,
    finite_graph_problem,
    piecewise_problem,
    solution_set_distance,
)
from .report import RunConfig, RunReport, emit_report, parse_config, run_config
from .slopes_dual import (
    f_level_subdiff_rho_slope,
    limiting_coderivative_min_norm,
    lm_constants,
    strict_subdiff_q_slopes,
    subdiff_rho_slope,
)
from .slopes_primal import (
    SlopeEstimate,
    TwoVariableFunction,
    f_level_slopes,
    local_rho_slope,
    nonlocal_q_rho_slope,
    single_variable_embedding,
    uniform_strict_q_slope,
    validate_P1_P2,
)

__version__ = "0.1.0"
