import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
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
    kkt_residual,
    linearize,
)
from edslab import certify, kkt
from edslab.models import make_lq_problem


def stacked(m, shape, entries=()):
    """An (m, *shape) stack of zero matrices with entry (i, j) of row r set
    to values[r] for each (i, j): values of `entries`, a scalar or an (m,)
    array."""
    out = np.zeros((m, *shape))
    for (i, j), values in dict(entries).items():
        out[:, i, j] = values
    return out


def toy_nonlinear_problem(N=3):
    """Small smooth nonconvex problem with hand-written derivatives: stage
    cost x.x + u.u / 2 + sin(x0) d0 + 0.1 x1 d1, dynamics (0.9 x0 + 0.2
    sin x1 + 0.3 u + 0.1 d0, 0.8 x1 + 0.1 x0^2 + 0.2 u d1), terminal cost
    x.x + 0.3 cos(x0) d0."""
    dims = Dimensions(N, 2, 1, 2, 2)

    def stage_cost_batch(X, U, D):
        return (X * X).sum(1) + 0.5 * (U * U).sum(1) + np.sin(X[:, 0]) * D[:, 0] + 0.1 * X[:, 1] * D[:, 1]

    def stage_cost_grad_batch(X, U, D):
        return 2 * X + np.stack([np.cos(X[:, 0]) * D[:, 0], 0.1 * D[:, 1]], axis=1), U.copy()

    def stage_cost_hess_batch(X, U, D):
        m = len(X)
        Q = stacked(m, (2, 2), {(0, 0): 2 - np.sin(X[:, 0]) * D[:, 0], (1, 1): 2.0})
        E = stacked(m, (2, 2), {(0, 0): np.cos(X[:, 0]), (1, 1): 0.1})
        return Q, stacked(m, (2, 1)), stacked(m, (1, 1), {(0, 0): 1.0}), E, stacked(m, (1, 2))

    def dynamics_batch(X, U, D):
        return np.stack(
            [
                0.9 * X[:, 0] + 0.2 * np.sin(X[:, 1]) + 0.3 * U[:, 0] + 0.1 * D[:, 0],
                0.8 * X[:, 1] + 0.1 * X[:, 0] ** 2 + 0.2 * U[:, 0] * D[:, 1],
            ],
            axis=1,
        )

    def dynamics_jac_batch(X, U, D):
        m = len(X)
        A = stacked(m, (2, 2), {(0, 0): 0.9, (0, 1): 0.2 * np.cos(X[:, 1]), (1, 0): 0.2 * X[:, 0], (1, 1): 0.8})
        B = stacked(m, (2, 1), {(0, 0): 0.3, (1, 0): 0.2 * D[:, 1]})
        return A, B, stacked(m, (2, 2), {(0, 0): 0.1, (1, 1): 0.2 * U[:, 0]})

    def dynamics_hess_vec_batch(X, U, D, Lam):
        m = len(X)
        H_xx = stacked(m, (2, 2), {(0, 0): 0.2 * Lam[:, 1], (1, 1): -0.2 * np.sin(X[:, 1]) * Lam[:, 0]})
        H_ud = stacked(m, (1, 2), {(0, 1): 0.2 * Lam[:, 1]})
        return H_xx, stacked(m, (2, 1)), stacked(m, (1, 1)), stacked(m, (2, 2)), H_ud

    oracles = StageOracles(
        stage_cost_batch=stage_cost_batch,
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        **cosine_terminal(np.array([1.0, 0.0])),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


def cosine_terminal(c):
    """The terminal oracles of x.x + 0.3 cos(x0) (c @ d)."""
    e0 = lambda x: np.eye(x.size)[0]
    return dict(
        terminal_cost=lambda x, d: float(x @ x + 0.3 * np.cos(x[0]) * (c @ d)),
        terminal_cost_grad=lambda x, d: 2 * x - 0.3 * np.sin(x[0]) * (c @ d) * e0(x),
        terminal_cost_hess=lambda x, d: (
            2 * np.eye(x.size) - 0.3 * np.cos(x[0]) * (c @ d) * np.outer(e0(x), e0(x)),
            -0.3 * np.sin(x[0]) * np.outer(e0(x), c),
        ),
    )


def smooth_problem(dims):
    """Nonlinear problem of any sizes with hand-written derivatives: stage
    cost x.x + u.u / 2 + sin(x0) sum(d) + 0.1 sum(x) sum(u), dynamics 0.9 x
    + 0.2 sin(x reversed) + 0.3 sum(u) + 0.1 x0 sum(d), terminal cost x.x
    + 0.3 cos(x0) sum(d), T the first n_0 rows of I."""
    n_x, n_u, n_d = dims.n_x, dims.n_u, dims.n_d
    rev = np.arange(n_x)[::-1]

    def stage_cost_batch(X, U, D):
        return (X * X).sum(1) + 0.5 * (U * U).sum(1) + np.sin(X[:, 0]) * D.sum(1) + 0.1 * X.sum(1) * U.sum(1)

    def stage_cost_grad_batch(X, U, D):
        G_x = 2 * X + 0.1 * U.sum(1)[:, None]
        G_x[:, 0] += np.cos(X[:, 0]) * D.sum(1)
        return G_x, U + 0.1 * X.sum(1)[:, None]

    def stage_cost_hess_batch(X, U, D):
        m = len(X)
        Q = np.tile(2 * np.eye(n_x), (m, 1, 1))
        Q[:, 0, 0] -= np.sin(X[:, 0]) * D.sum(1)
        E = np.zeros((m, n_x, n_d))
        E[:, 0] = np.cos(X[:, 0])[:, None]
        return Q, np.full((m, n_x, n_u), 0.1), np.tile(np.eye(n_u), (m, 1, 1)), E, np.zeros((m, n_u, n_d))

    def dynamics_batch(X, U, D):
        return 0.9 * X + 0.2 * np.sin(X[:, rev]) + 0.3 * U.sum(1)[:, None] + 0.1 * (X[:, 0] * D.sum(1))[:, None]

    def dynamics_jac_batch(X, U, D):
        m = len(X)
        A = np.tile(0.9 * np.eye(n_x), (m, 1, 1))
        A[:, np.arange(n_x), rev] += 0.2 * np.cos(X[:, rev])
        A[:, :, 0] += 0.1 * D.sum(1)[:, None]
        return A, np.full((m, n_x, n_u), 0.3), np.tile(0.1 * X[:, :1, None], (1, n_x, n_d))

    def dynamics_hess_vec_batch(X, U, D, Lam):
        m = len(X)
        H_xx, H_xd = np.zeros((m, n_x, n_x)), np.zeros((m, n_x, n_d))
        H_xx[:, rev, rev] = -0.2 * np.sin(X[:, rev]) * Lam
        H_xd[:, 0] = 0.1 * Lam.sum(1)[:, None]
        return H_xx, np.zeros((m, n_x, n_u)), np.zeros((m, n_u, n_u)), H_xd, np.zeros((m, n_u, n_d))

    oracles = StageOracles(
        stage_cost_batch=stage_cost_batch,
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        **cosine_terminal(np.ones(n_d)),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(n_x)[: dims.n_0])


def strongly_indefinite_problem():
    """One-stage problem whose terminal curvature deficit (-3 cos x) exceeds
    the regularization cap near the origin, so Newton raises
    RegularityError."""
    dims = Dimensions(1, 1, 1, 0, 1)
    ones = lambda X: np.ones((len(X), 1, 1))
    oracles = StageOracles(
        stage_cost_batch=lambda X, U, D: (U * U).sum(1),
        dynamics_batch=lambda X, U, D: X + U,
        dynamics_jac_batch=lambda X, U, D: (ones(X), ones(X), stacked(len(X), (1, 0))),
        stage_cost_grad_batch=lambda X, U, D: (np.zeros_like(X), 2 * U),
        stage_cost_hess_batch=lambda X, U, D: (
            0 * ones(X), 0 * ones(X), 2 * ones(X), stacked(len(X), (1, 0)), stacked(len(X), (1, 0))
        ),
        dynamics_hess_vec_batch=lambda X, U, D, Lam: (
            *(0 * ones(X) for _ in range(3)), stacked(len(X), (1, 0)), stacked(len(X), (1, 0))
        ),
        terminal_cost=lambda x, d: float(3.0 * np.cos(x[0]) + 0.05 * x[0] ** 2),
        terminal_cost_grad=lambda x, d: np.array([-3.0 * np.sin(x[0]) + 0.1 * x[0]]),
        terminal_cost_hess=lambda x, d: (np.array([[-3.0 * np.cos(x[0]) + 0.1]]), np.zeros((1, 0))),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(1))


def data_coupled_jac_problem(N=2):
    """Small nonlinear problem whose data Jacobian G depends on x and u, so
    the dynamics curvature has nonzero mixed (x, u)-d blocks: dynamics
    (0.9 x0 + 0.2 sin x1 + 0.3 u + x0 d0, 0.8 x1 + 0.1 x0^2 + 0.2 u d1 + 0.5
    x1 d0), stage cost x.x + u.u / 2 + sin(x0) d0, terminal cost x.x + 0.3
    cos(x0) d0."""
    dims = Dimensions(N, 2, 1, 2, 2)

    def stage_cost_hess_batch(X, U, D):
        m = len(X)
        Q = stacked(m, (2, 2), {(0, 0): 2 - np.sin(X[:, 0]) * D[:, 0], (1, 1): 2.0})
        E = stacked(m, (2, 2), {(0, 0): np.cos(X[:, 0])})
        return Q, stacked(m, (2, 1)), stacked(m, (1, 1), {(0, 0): 1.0}), E, stacked(m, (1, 2))

    def dynamics_batch(X, U, D):
        x0, x1, u, d0, d1 = X[:, 0], X[:, 1], U[:, 0], D[:, 0], D[:, 1]
        return np.stack(
            [
                0.9 * x0 + 0.2 * np.sin(x1) + 0.3 * u + x0 * d0,
                0.8 * x1 + 0.1 * x0**2 + 0.2 * u * d1 + 0.5 * x1 * d0,
            ],
            axis=1,
        )

    def dynamics_jac_batch(X, U, D):
        m, x0, x1, u, d0, d1 = len(X), X[:, 0], X[:, 1], U[:, 0], D[:, 0], D[:, 1]
        A = stacked(m, (2, 2), {(0, 0): 0.9 + d0, (0, 1): 0.2 * np.cos(x1), (1, 0): 0.2 * x0, (1, 1): 0.8 + 0.5 * d0})
        B = stacked(m, (2, 1), {(0, 0): 0.3, (1, 0): 0.2 * d1})
        G = stacked(m, (2, 2), {(0, 0): x0, (1, 0): 0.5 * x1, (1, 1): 0.2 * u})
        return A, B, G

    def dynamics_hess_vec_batch(X, U, D, Lam):
        m, l0, l1 = len(X), Lam[:, 0], Lam[:, 1]
        H_xx = stacked(m, (2, 2), {(0, 0): 0.2 * l1, (1, 1): -0.2 * np.sin(X[:, 1]) * l0})
        H_xd = stacked(m, (2, 2), {(0, 0): l0, (1, 0): 0.5 * l1})
        H_ud = stacked(m, (1, 2), {(0, 1): 0.2 * l1})
        return H_xx, stacked(m, (2, 1)), stacked(m, (1, 1)), H_xd, H_ud

    oracles = StageOracles(
        stage_cost_batch=lambda X, U, D: (X * X).sum(1) + 0.5 * (U * U).sum(1) + np.sin(X[:, 0]) * D[:, 0],
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=lambda X, U, D: (
            2 * X + np.stack([np.cos(X[:, 0]) * D[:, 0], 0 * X[:, 1]], axis=1), U.copy()
        ),
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        **cosine_terminal(np.array([1.0, 0.0])),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


def time_varying_problem(N=3):
    """A nonlinear problem whose stage cost carries a stage weight d1 in
    its data, as a time-varying problem does: stage cost x.x + u.u / 2 +
    sin(x0) sum(d) + 0.1 d1 x1 d2, dynamics 0.9 x + 0.2 sin(x reversed) +
    0.3 u + 0.1 x0 sum(d), terminal cost x.x + 0.3 cos(x0) sum(d)."""
    dims = Dimensions(N, 2, 1, 3, 2)

    def stage_cost_batch(X, U, D):
        s = D.sum(1)
        return (X * X).sum(1) + 0.5 * (U * U).sum(1) + np.sin(X[:, 0]) * s + 0.1 * D[:, 1] * X[:, 1] * D[:, 2]

    def stage_cost_grad_batch(X, U, D):
        return 2 * X + np.stack([np.cos(X[:, 0]) * D.sum(1), 0.1 * D[:, 1] * D[:, 2]], axis=1), U.copy()

    def stage_cost_hess_batch(X, U, D):
        m, c = len(X), np.cos(X[:, 0])
        Q = stacked(m, (2, 2), {(0, 0): 2 - np.sin(X[:, 0]) * D.sum(1), (1, 1): 2.0})
        E = stacked(m, (2, 3), {(0, 0): c, (0, 1): c, (0, 2): c, (1, 1): 0.1 * D[:, 2], (1, 2): 0.1 * D[:, 1]})
        return Q, stacked(m, (2, 1)), stacked(m, (1, 1), {(0, 0): 1.0}), E, stacked(m, (1, 3))

    def dynamics_jac_batch(X, U, D):
        m, s = len(X), D.sum(1)
        A = stacked(
            m, (2, 2),
            {(0, 0): 0.9 + 0.1 * s, (0, 1): 0.2 * np.cos(X[:, 1]), (1, 0): 0.2 * np.cos(X[:, 0]) + 0.1 * s, (1, 1): 0.9},
        )
        G = np.broadcast_to(0.1 * X[:, :1, None], (m, 2, 3)).copy()
        return A, np.full((m, 2, 1), 0.3), G

    def dynamics_hess_vec_batch(X, U, D, Lam):
        m = len(X)
        H_xx = stacked(m, (2, 2), {(0, 0): -0.2 * np.sin(X[:, 0]) * Lam[:, 1], (1, 1): -0.2 * np.sin(X[:, 1]) * Lam[:, 0]})
        l = 0.1 * Lam.sum(1)
        H_xd = stacked(m, (2, 3), {(0, 0): l, (0, 1): l, (0, 2): l})
        return H_xx, stacked(m, (2, 1)), stacked(m, (1, 1)), H_xd, stacked(m, (1, 3))

    oracles = StageOracles(
        stage_cost_batch=stage_cost_batch,
        dynamics_batch=lambda X, U, D: 0.9 * X + 0.2 * np.sin(X[:, ::-1]) + 0.3 * U[:, :1] + 0.1 * X[:, :1] * D.sum(1)[:, None],
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        **cosine_terminal(np.ones(3)),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


def data_in_B_problem(N=4):
    """A problem in which d1 enters B and d0 only the linear cost terms, so
    Q, R and S never depend on the data: dynamics A x + (0.3, 0.2 d1) u,
    stage cost x.x + u.u / 2 - 2 d0 x0, terminal cost x.x."""
    dims = Dimensions(N, 2, 1, 2, 2)
    A = np.array([[0.9, 0.2], [0.0, 0.8]])

    def dynamics_jac_batch(X, U, D):
        m = len(X)
        B = stacked(m, (2, 1), {(0, 0): 0.3, (1, 0): 0.2 * D[:, 1]})
        return np.broadcast_to(A, (m, 2, 2)), B, stacked(m, (2, 2), {(1, 1): 0.2 * U[:, 0]})

    def stage_cost_hess_batch(X, U, D):
        m = len(X)
        Q, E = stacked(m, (2, 2), {(0, 0): 2.0, (1, 1): 2.0}), stacked(m, (2, 2), {(0, 0): -2.0})
        return Q, stacked(m, (2, 1)), stacked(m, (1, 1), {(0, 0): 1.0}), E, stacked(m, (1, 2))

    def dynamics_hess_vec_batch(X, U, D, Lam):
        m = len(X)
        zeros = (stacked(m, (2, 2)), stacked(m, (2, 1)), stacked(m, (1, 1)), stacked(m, (2, 2)))
        return *zeros, stacked(m, (1, 2), {(0, 1): 0.2 * Lam[:, 1]})

    oracles = StageOracles(
        stage_cost_batch=lambda X, U, D: (X * X).sum(1) + 0.5 * (U * U).sum(1) - 2 * D[:, 0] * X[:, 0],
        dynamics_batch=lambda X, U, D: X @ A.T + U * np.stack([np.full(len(D), 0.3), 0.2 * D[:, 1]], axis=1),
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=lambda X, U, D: (2 * X - np.stack([2 * D[:, 0], 0 * D[:, 0]], axis=1), U.copy()),
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        terminal_cost=lambda x, d: float(x @ x),
        terminal_cost_grad=lambda x, d: 2 * x,
        terminal_cost_hess=lambda x, d: (2 * np.eye(2), np.zeros((2, 2))),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(2))


def lq_matrices(p):
    """A and B of a problem with linear dynamics, from its dynamics
    Jacobian at one zero stage row."""
    dims = p.dims
    A, B, _ = p.oracles.dynamics_jac_batch(*(np.zeros((1, n)) for n in (dims.n_x, dims.n_u, dims.n_d)))
    return A[0], B[0]


def steady_state_horizon(A, B, d_s, T, N):
    """The time-invariant corollary's construction: an LQ tracking problem
    whose constant steady-state trajectory is stationary at every horizon.

    The steady state (x_s, u_s, lam_s) of min (x - d_s).(x - d_s) + u.u
    subject to x = A x + B u comes from one linear solve of its KKT system,
    multipliers per the package's `cost - lam @ (x - f)` pairing.  The
    problem is make_lq_problem(A, B, I, I, I, T, N).  Two linear cost terms
    are folded into its tracking data: the initial term lam_b @ x, lam_b =
    -(I - T^+ T) lam_s, into d_0 = d_s - lam_b / 2, and the terminal term
    lam_s @ x into d_N = x_s - lam_s / 2.  The initial constraint T x_0 =
    T x_s takes the multiplier lam_init with T^T lam_init = lam_b + lam_s.
    Returns (problem, data, constant trajectory, lam_b)."""
    A, B, d_s, T = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, d_s, T))
    (n_x, n_u), d_s, I = B.shape, d_s[0], np.eye(A.shape[0])
    K = np.block([[2 * I, np.zeros((n_x, n_u)), (A - I).T], [np.zeros((n_u, n_x)), 2 * np.eye(n_u), B.T], [A - I, B, 0 * I]])
    x_s, u_s, lam_s = np.split(np.linalg.solve(K, np.concatenate([2 * d_s, np.zeros(n_u + n_x)])), [n_x, n_x + n_u])
    lam_b = -(I - np.linalg.pinv(T) @ T) @ lam_s
    lam_init = np.linalg.pinv(T.T) @ (lam_b + lam_s)
    p = make_lq_problem(A, B, I, np.eye(n_u), I, T, N)
    data = DataTrajectory(p.dims, [T @ x_s, d_s - lam_b / 2] + [d_s] * (N - 1) + [x_s - lam_s / 2])
    traj = PrimalDualTrajectory(p.dims, [x_s] * (N + 1), [u_s] * N, [lam_init] + [lam_s] * N)
    return p, data, traj, lam_b


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

    def family(name, shapes, sym=False):
        out = []
        for shape in shapes:
            M = np.zeros(shape) if name in zero else rng.standard_normal(shape)
            out.append(0.5 * (M + M.T) if sym else M)
        return out

    # orthonormal rows scaled by a random factor: full row rank
    T = rng.uniform(0.5, 2.0) * np.linalg.qr(rng.standard_normal((n_x, n_x)))[0][:n_0]
    return StageBlocks(
        dims=Dimensions(N, n_x, n_u, n_d, n_0),
        T=T,
        Q=family("Q", [(n_x, n_x)] * (N + 1), sym=True),
        R=family("R", [(n_u, n_u)] * N, sym=True),
        S=family("S", [(n_x, n_u)] * N),
        E=family("E", [(n_x, n_d)] * (N + 1)),
        F=family("F", [(n_u, n_d)] * N),
        A=family("A", [(n_x, n_x)] * N),
        B=family("B", [(n_x, n_u)] * N),
        G=family("G", [(n_x, n_d)] * N),
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


def newton_step(blocks, rhs, reg=0.0):
    """The gated solve of a Newton step: (K + reg * I_primal)^{-1} rhs from
    `kkt.factor_kkt` and `kkt.solve_kkt`, None when the factor rejects the
    shifted K or the input or the step is not finite."""
    if not np.isfinite(rhs).all():
        return None
    factor = kkt.factor_kkt(blocks, reg)
    x = None if factor is None else kkt.solve_kkt(factor, rhs)
    return x if x is not None and np.isfinite(x).all() else None


def dense_newton_step(p, traj, data):
    """Reference for one Newton step of `solve_equality_nlp` without
    regularization: the dense KKT matrix at (traj, data), assembled from
    `linearize`, solved by `np.linalg.solve` against the negated residual,
    in the stage order of `traj.vector`."""
    K = dense_kkt(linearize(p, traj, data))
    r = kkt_residual(p, traj, data)
    return to_stage_order(p.dims, np.linalg.solve(K, -to_stacked_order(p.dims, r)))


def dense_factor_and_solve(K, rhs, n_pos, n_neg, reg=0.0):
    """Dense reference for a gated Newton step: solve (K + reg *
    diag(1_{n_pos}, 0_{n_neg})) x = rhs, the inertia read from the D of one
    dense Bunch-Kaufman factorization (`scipy.linalg.ldl`) with the
    relative tolerance max(|eig|, 1) n eps; x only when the shifted K has
    exactly (n_pos, n_neg, 0) positive/negative/zero eigenvalues, None
    otherwise (non-finite input included)."""
    if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
        return None
    W = np.array(K, dtype=float)
    if reg != 0.0:
        d = np.arange(n_pos)
        W[d, d] += reg
    eigs = np.linalg.eigvalsh(scipy.linalg.ldl(W, lower=True)[1])
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    tol = max(scale, 1.0) * K.shape[0] * np.finfo(float).eps
    if (int(np.sum(eigs > tol)), int(np.sum(eigs < -tol))) != (n_pos, n_neg):
        return None
    x = np.linalg.solve(W, rhs)
    return x if np.isfinite(x).all() else None


def w_offsets(dims):
    """Row offsets of lam_i, x_i and u_i in the stage-ordered primal-dual
    vector [lam_{-1}; x_0; u_0; lam_0; ...; x_N], and its length."""
    off = {(-1, "lam"): 0}
    for i in range(dims.N + 1):
        base = dims.w_offsets[i + 1]
        off[(i, "x")] = base
        off[(i, "u")] = base + dims.n_x
        off[(i, "lam")] = base + dims.n_z
    return off, dims.n_w


def xi_offsets(dims):
    """Column offsets of the stage-interleaved (primal-dual, data) stacking
    [lam_{-1}; d_{-1}; x_0; u_0; lam_0; d_0; ...; x_N; d_N], and its
    length."""
    off = {(-1, "lam"): 0, (-1, "d"): dims.n_0}
    base = dims.n_0 + dims.nd(-1)
    for i in range(dims.N):
        off[(i, "x")] = base
        off[(i, "u")] = base + dims.n_x
        off[(i, "lam")] = base + dims.n_z
        off[(i, "d")] = base + dims.n_z + dims.n_x
        base += 2 * dims.n_x + dims.n_u + dims.nd(i)
    off[(dims.N, "x")] = base
    off[(dims.N, "d")] = base + dims.n_x
    return off, base + dims.n_x + dims.nd(dims.N)


def mixed_hessian_by_blocks(blocks):
    """Reference for `assemble_mixed_hessian`: the same sparse matrix, put
    together one stage block at a time from the dictionary offsets above."""
    dims = blocks.dims
    row, n_w = w_offsets(dims)
    col, n_xi = xi_offsets(dims)
    minus_I = -np.eye(dims.n_x)
    rows, cols, vals = [], [], []

    def put(r, c, block):
        if block.size:
            k = np.arange(block.size)
            rows.append(r + k // block.shape[1])
            cols.append(c + k % block.shape[1])
            vals.append(block.ravel())

    put(row[(-1, "lam")], col[(0, "x")], -blocks.T)
    put(row[(0, "x")], col[(-1, "lam")], -blocks.T.T)
    put(row[(-1, "lam")], col[(-1, "d")], np.eye(dims.n_0))
    for i in range(dims.N):
        put(row[(i, "x")], col[(i, "x")], blocks.Q[i])
        put(row[(i, "x")], col[(i, "u")], blocks.S[i])
        put(row[(i, "u")], col[(i, "x")], blocks.S[i].T)
        put(row[(i, "u")], col[(i, "u")], blocks.R[i])
        put(row[(i, "x")], col[(i, "lam")], blocks.A[i].T)
        put(row[(i, "u")], col[(i, "lam")], blocks.B[i].T)
        put(row[(i, "lam")], col[(i, "x")], blocks.A[i])
        put(row[(i, "lam")], col[(i, "u")], blocks.B[i])
        put(row[(i + 1, "x")], col[(i, "lam")], minus_I)
        put(row[(i, "lam")], col[(i + 1, "x")], minus_I)
        put(row[(i, "x")], col[(i, "d")], blocks.E[i])
        put(row[(i, "u")], col[(i, "d")], blocks.F[i])
        put(row[(i, "lam")], col[(i, "d")], blocks.G[i])
    put(row[(dims.N, "x")], col[(dims.N, "x")], blocks.Q[dims.N])
    put(row[(dims.N, "x")], col[(dims.N, "d")], blocks.E[dims.N])
    return scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_w, n_xi)
    ).tocsr()


def smallest_eigenvalue_of(M):
    """Reference for one matrix of `certify.smallest_eigenvalues`: the
    smallest eigenvalue of (M + M^T) / 2 from one 2-D eigensolve, +inf for
    an empty M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return math.inf
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def controllability_scan_by_windows(A_seq, B_seq, window):
    """Reference for `certify.scan_controllability_seq`: the values of every
    window [i, i + window], built one window at a time by the one-window
    builder."""
    values = []
    for i in range(len(B_seq) - window):
        C = certify.controllability_matrix_seq(A_seq, B_seq, i, i + window)
        values.append(smallest_eigenvalue_of(C @ C.T))
    return values


def observability_scan_by_windows(A_seq, Q_seq, window):
    """Reference for `certify.scan_observability_seq`, one window at a
    time."""
    values = []
    for i in range(len(Q_seq) - window):
        O = certify.observability_matrix_seq(A_seq, Q_seq, i, i + window)
        values.append(smallest_eigenvalue_of(O.T @ O))
    return values


def stage_moduli_by_stage(blocks):
    """Reference for `certify.stage_moduli`, one stage at a time: smallest
    eigenvalues of R and Q, largest |S| entries."""
    return (
        [smallest_eigenvalue_of(R) for R in blocks.R],
        [smallest_eigenvalue_of(Q) for Q in blocks.Q],
        [float(np.abs(S).max()) if S.size else 0.0 for S in blocks.S],
    )
