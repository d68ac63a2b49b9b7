import numpy as np
import pytest
from hypothesis import strategies as st

from edslab import (
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    StageBlocks,
    StageOracles,
    assemble_hessian,
    assemble_jacobian,
)
from edslab import kkt


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


def data_coupled_jac_problem(N=2):
    """Small nonlinear problem with an analytic dynamics Jacobian but no
    dynamics_hess_vec, whose data Jacobian G depends on x and u: the
    dynamics curvature, its mixed (x, u)-d blocks included, comes from
    differencing the analytic Jacobian."""
    dims = Dimensions.uniform(N, 2, 1, 2, 2)

    def dynamics(i, x, u, d):
        return np.array(
            [
                0.9 * x[0] + 0.2 * np.sin(x[1]) + 0.3 * u[0] + x[0] * d[0],
                0.8 * x[1] + 0.1 * x[0] ** 2 + 0.2 * u[0] * d[1] + 0.5 * x[1] * d[0],
            ]
        )

    def dynamics_jac(i, x, u, d):
        A = np.array([[0.9 + d[0], 0.2 * np.cos(x[1])], [0.2 * x[0], 0.8 + 0.5 * d[0]]])
        B = np.array([[0.3], [0.2 * d[1]]])
        G = np.array([[x[0], 0.0], [0.5 * x[1], 0.2 * u[0]]])
        return A, B, G

    oracles = StageOracles(
        stage_cost=lambda i, x, u, d: float(x @ x + 0.5 * u @ u + np.sin(x[0]) * d[0]),
        dynamics=dynamics,
        terminal_cost=lambda x, d: float(x @ x + 0.3 * np.cos(x[0]) * d[0]),
        dynamics_jac=dynamics_jac,
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


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


@st.composite
def stage_blocks(draw, zero_families="QRSEFABG"):
    """Random time-varying StageBlocks (N <= 10, n_x <= 4, n_u <= 3,
    n_0 <= n_x with a full-row-rank T, n_d <= 3); Q and R are symmetric
    and indefinite, and any block family named in `zero_families` may be
    all zero."""
    N = draw(st.integers(1, 10))
    n_x = draw(st.integers(1, 4))
    n_u = draw(st.integers(0, 3))
    n_0 = draw(st.integers(0, n_x))
    n_d = draw(st.integers(0, 3))
    zero = draw(st.sets(st.sampled_from(zero_families))) if zero_families else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def family(name, shape, count, sym=False):
        out = []
        for _ in range(count):
            M = np.zeros(shape) if name in zero else rng.standard_normal(shape)
            out.append(0.5 * (M + M.T) if sym else M)
        return out

    # orthonormal rows scaled by a random factor: full row rank
    T = rng.uniform(0.5, 2.0) * np.linalg.qr(rng.standard_normal((n_x, n_x)))[0][:n_0]
    return StageBlocks(
        dims=Dimensions.uniform(N, n_x, n_u, n_d, n_0),
        T=T,
        Q=family("Q", (n_x, n_x), N + 1, sym=True),
        R=family("R", (n_u, n_u), N, sym=True),
        S=family("S", (n_x, n_u), N),
        E=family("E", (n_x, n_d), N + 1),
        F=family("F", (n_u, n_d), N),
        A=family("A", (n_x, n_x), N),
        B=family("B", (n_x, n_u), N),
        G=family("G", (n_x, n_d), N),
    )


def to_stage_order(dims, v):
    """A stacked [primal; dual] vector in the stage order of
    `PrimalDualTrajectory.vector`."""
    return PrimalDualTrajectory.from_stacked(dims, v[: dims.n_primal], v[dims.n_primal :]).vector


def to_stacked_order(dims, v):
    """A stage-ordered vector in the stacked [primal; dual] order."""
    t = PrimalDualTrajectory.from_vector(dims, v)
    return np.concatenate([t.stacked_primal(), t.stacked_dual()])


def dense_kkt(blocks):
    """The KKT matrix [[H, -J^T], [-J, 0]] of `blocks` as one dense array,
    in the stacked [primal; dual] ordering."""
    H, J = assemble_hessian(blocks), assemble_jacobian(blocks)
    return np.block([[H, -J.T], [-J, np.zeros((J.shape[0], J.shape[0]))]])


def dense_factor_and_solve(K, rhs, n_pos, n_neg, reg=0.0):
    """Reference for the block factor: solve (K + reg * diag(1_{n_pos},
    0_{n_neg})) x = rhs through one dense Bunch-Kaufman factorization of
    the whole K with the same inertia gate; x only when the shifted K has
    exactly (n_pos, n_neg, 0) positive/negative/zero eigenvalues, None
    otherwise (non-finite input included)."""
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        return None
    W = np.array(K, order="F")
    if reg != 0.0:
        d = np.arange(n_pos)
        W[d, d] += reg
    ldu, ipiv, info = kkt._bunch_kaufman(W)
    if info > 0:  # D has an exact zero pivot
        return None
    eigs = kkt._d_eigs(np.diagonal(ldu), np.diagonal(ldu, -1), ipiv)
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    tol = max(scale, 1.0) * K.shape[0] * np.finfo(float).eps
    pos = int(np.sum(eigs > tol))
    neg = int(np.sum(eigs < -tol))
    if pos != n_pos or neg != n_neg:
        return None
    x, _ = kkt._sytrs(ldu, ipiv, rhs, lower=1)
    if not np.all(np.isfinite(x)):
        return None
    return x
