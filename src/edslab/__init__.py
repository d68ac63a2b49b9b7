"""Sensitivity laboratory for horizon-coupled equality-constrained optimal
control: build and solve horizon problems, measure regularity and
system-theoretic certificates, and verify exponential decay of stage-wise
solution sensitivity by perturbation experiments."""

from .certify import (
    CertificateReport,
    WindowScan,
    blh_bound_from_K,
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
from .eds import (
    BoundCheck,
    DecayContrast,
    DecayFit,
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
    build_model,
    double_integrator,
    list_models,
    lq_chain,
    quadrotor_continuous_rhs,
    quadrotor_problem,
    scalar_oracle,
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
