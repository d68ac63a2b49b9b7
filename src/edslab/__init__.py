"""Sensitivity laboratory for horizon-coupled equality-constrained optimal
control: build and solve horizon problems, measure regularity and
system-theoretic certificates, and verify exponential decay of stage-wise
solution sensitivity by perturbation experiments."""

from .certify import (
    CertificateReport,
    WindowScan,
    blh_bound_from_K,
    blh_modulus,
    build_report,
    controllability_matrix,
    duality_check,
    licq_modulus,
    max_block_norm,
    mixed_hessian_norm,
    observability_matrix,
    riccati_sosc_modulus,
    scan_uniform_controllability,
    scan_uniform_observability,
    sosc_modulus,
)
from .diff import gradient, hessian_block, jacobian
from .eds import (
    BoundCheck,
    DecayContrast,
    DecayFit,
    PerturbationSpec,
    SensitivityProfile,
    decay_contrast,
    fit_decay,
    random_perturbation,
    run_experiments,
    run_perturbation_experiment,
    stage_deviations,
    verify_eds_bound,
)
from .errors import (
    ConfigurationError,
    EdslabError,
    EvaluationError,
    FitError,
    NonconvergenceError,
    RangeConditionError,
    RegularityError,
)
from .kkt import (
    RiccatiFactor,
    SolveOptions,
    SolveResult,
    StageBlocks,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,
    factor_kkt,
    kkt_residual,
    linearize,
    solve_batch,
    solve_equality_nlp,
    solve_kkt,
)
from .models import (
    ModelBundle,
    QuadrotorParams,
    SteadyState,
    build_model,
    build_ti_costs,
    constant_trajectory,
    double_integrator,
    list_models,
    lq_chain,
    quadrotor_continuous_rhs,
    quadrotor_problem,
    scalar_oracle,
    solve_steady_state,
    time_invariant_problem,
)
from .problem import (
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    StageOracles,
    evaluate_constraints,
    evaluate_lagrangian,
    evaluate_objective,
)

__version__ = "0.1.0"
