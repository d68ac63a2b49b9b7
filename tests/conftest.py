import math

import numpy as np
import pytest
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
def stage_blocks(draw, zero_families="QRSEFABG", varying_nd=False):
    """Random time-varying StageBlocks (N <= 10, n_x <= 4, n_u <= 3,
    n_0 <= n_x with a full-row-rank T, n_d <= 3); Q and R are symmetric
    and indefinite, and any block family named in `zero_families` may be
    all zero.  With `varying_nd` each stage draws its own data size."""
    N = draw(st.integers(1, 10))
    n_x = draw(st.integers(1, 4))
    n_u = draw(st.integers(0, 3))
    n_0 = draw(st.integers(0, n_x))
    n_d = draw(st.integers(0, 3))
    nds = [draw(st.integers(0, 3)) for _ in range(N + 1)] if varying_nd else [n_d] * (N + 1)
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
        dims=Dimensions(N, n_x, n_u, (n_0, *nds), n_0),
        T=T,
        Q=family("Q", [(n_x, n_x)] * (N + 1), sym=True),
        R=family("R", [(n_u, n_u)] * N, sym=True),
        S=family("S", [(n_x, n_u)] * N),
        E=family("E", [(n_x, k) for k in nds]),
        F=family("F", [(n_u, k) for k in nds[:N]]),
        A=family("A", [(n_x, n_x)] * N),
        B=family("B", [(n_x, n_u)] * N),
        G=family("G", [(n_x, k) for k in nds[:N]]),
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


def newton_step(blocks, rhs, n_pos, n_neg, reg=0.0):
    """The gated solve of a Newton step: (K + reg * I_primal)^{-1} rhs from
    `kkt.factor_kkt` when the shifted K has exactly (n_pos, n_neg, 0)
    positive/negative/zero eigenvalues, None otherwise (non-finite input
    included)."""
    if not np.isfinite(rhs).all():
        return None
    factor = kkt.factor_kkt(blocks, reg, rhs)
    return factor.solve() if factor is not None and factor.inertia == (n_pos, n_neg) else None


def dense_newton_step(p, traj, data):
    """Reference for one Newton step of `solve_equality_nlp` without
    regularization: the dense KKT matrix at (traj, data), assembled from
    `linearize`, solved by `np.linalg.solve` against the negated residual,
    in the stage order of `traj.vector`."""
    K = dense_kkt(linearize(p, traj, data))
    r = kkt_residual(p, traj, data)
    return to_stage_order(p.dims, np.linalg.solve(K, -to_stacked_order(p.dims, r)))


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
