import numpy as np
import pytest

from edslab import DataTrajectory, Dimensions, DOProblem, PrimalDualTrajectory, StageOracles


def toy_nonlinear_problem(N=3):
    """Small smooth nonconvex problem with no analytic derivatives
    registered, exercising every finite-difference fallback."""
    dims = Dimensions.uniform(N, 2, 1, 2, 2)

    def stage_cost(i, x, u, d):
        return float(
            x @ x + 0.5 * u @ u + np.sin(x[0]) * d[0] + 0.1 * (i + 1) * x[1] * d[1]
        )

    def dynamics(i, x, u, d):
        return np.array(
            [
                0.9 * x[0] + 0.2 * np.sin(x[1]) + 0.3 * u[0] + 0.1 * d[0],
                0.8 * x[1] + 0.1 * x[0] ** 2 + 0.2 * u[0] * d[1],
            ]
        )

    def terminal_cost(x, d):
        return float(x @ x + 0.3 * np.cos(x[0]) * d[0])

    oracles = StageOracles(stage_cost=stage_cost, dynamics=dynamics, terminal_cost=terminal_cost)
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


def strongly_indefinite_problem():
    """One-stage problem whose terminal curvature deficit (-3 cos x) exceeds
    the regularization cap near the origin, so Newton raises
    RegularityError."""
    dims = Dimensions.uniform(1, 1, 1, 0, 1)
    oracles = StageOracles(
        stage_cost=lambda i, x, u, d: float(u @ u),
        dynamics=lambda i, x, u, d: np.atleast_1d(x[0] + u[0]),
        terminal_cost=lambda x, d: float(3.0 * np.cos(x[0]) + 0.05 * x[0] ** 2),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(1))


def random_point(problem, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    dims = problem.dims
    traj = PrimalDualTrajectory(
        dims,
        [scale * rng.standard_normal(dims.n_x) for _ in range(dims.N + 1)],
        [scale * rng.standard_normal(dims.n_u) for _ in range(dims.N)],
        [scale * rng.standard_normal(dims.n_0)]
        + [scale * rng.standard_normal(dims.n_x) for _ in range(dims.N)],
    )
    data = DataTrajectory(
        dims, [scale * rng.standard_normal(dims.nd(i)) for i in range(-1, dims.N + 1)]
    )
    return traj, data


@pytest.fixture
def toy():
    return toy_nonlinear_problem()
