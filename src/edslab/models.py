"""Model zoo: quadrotor motion planning, LQ test chains, and steady-state
tooling for the time-invariant setting.

Every preset is addressable by name through `build_model`; builders return a
ModelBundle carrying the problem, its base data, and a warm start inside the
convergence basin.  Constructors are pure and the generated problems
immutable, so bundles are safe to share.

Every preset registers exact derivatives, and every preset registers the
stage-batched forms of its stage oracles, which evaluate all stages in one
call.  The quadrotor's dynamics Jacobians come from the forward chain rule
through its RK4 step, and its multiplier-contracted dynamics Hessians from a
second-order adjoint through the same stages; both run over a stack of
stages with batched matrix products, and its per-stage oracles are one-row
calls of the batched ones.  Finite differences serve only oracles that
register neither, such as the time-invariant problems built here from plain
cost and dynamics callables.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import diff
from .errors import ConfigurationError, EvaluationError, NonconvergenceError, RangeConditionError
from .problem import (
    Array,
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    StageOracles,
)


@dataclass(frozen=True)
class ModelBundle:
    name: str
    problem: DOProblem
    base_data: DataTrajectory
    warm_start: PrimalDualTrajectory
    description: str = ""


# ---------------------------------------------------------------------------
# generic RK4 helpers; x, u and lam may stack points as rows (any leading
# axes), and every result then carries the same leading axes


def rk4_step(rhs: Callable, x: Array, u: Array, dt: float) -> Array:
    k1 = rhs(x, u)
    k2 = rhs(x + 0.5 * dt * k1, u)
    k3 = rhs(x + 0.5 * dt * k2, u)
    k4 = rhs(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _RK4Stage(NamedTuple):
    """Stage j of an RK4 step from (x_0, u), differentiated forward: its
    state x = x_j, A = d rhs/dx at (x_j, u), the input Jacobians
    Xx = dx_j/dx_0 and Xu = dx_j/du, and the slope Jacobians
    Kx = dk_j/dx_0 and Ku = dk_j/du."""

    x: Array
    A: Array
    Xx: Array
    Xu: Array
    Kx: Array
    Ku: Array


def _rk4_stages(rhs: Callable, rhs_jac: Callable, x: Array, u: Array, dt: float):
    """The four stages of one RK4 step with their forward chain rule;
    x_{j+1} = x + c_j dt k_j with c = (1/2, 1/2, 1).  Complex input passes
    through, so complex-step differentiation can check it."""
    n = x.shape[-1]
    eye = np.eye(n)
    stages = []
    xj, Xx, Xu = x, eye, np.zeros((n, u.shape[-1]))
    for c in (0.5, 0.5, 1.0, None):
        A, B = rhs_jac(xj, u)
        Kx, Ku = A @ Xx, A @ Xu + B
        stages.append(_RK4Stage(xj, A, Xx, Xu, Kx, Ku))
        if c is not None:
            xj = x + c * dt * rhs(xj, u)
            Xx = eye + c * dt * Kx
            Xu = c * dt * Ku
    return stages


def rk4_step_jacobians(rhs: Callable, rhs_jac: Callable, x: Array, u: Array, dt: float):
    """Exact Jacobians of one RK4 step by the chain rule; `rhs_jac` returns
    (d rhs / dx, d rhs / du) at a point."""
    s1, s2, s3, s4 = _rk4_stages(rhs, rhs_jac, x, u, dt)
    Ad = np.eye(x.shape[-1]) + (dt / 6.0) * (s1.Kx + 2.0 * s2.Kx + 2.0 * s3.Kx + s4.Kx)
    Bd = (dt / 6.0) * (s1.Ku + 2.0 * s2.Ku + 2.0 * s3.Ku + s4.Ku)
    return Ad, Bd


def rk4_step_hess_vec(
    rhs: Callable, rhs_jac: Callable, rhs_hess_vec: Callable, x: Array, u: Array, dt: float, lam: Array
) -> Array:
    """Exact Hessian of lam @ (one RK4 step) in (x, u), by a second-order
    adjoint (Griewank & Walther, Evaluating Derivatives, 2008);
    `rhs_hess_vec(x, u, mu)` returns the Hessian of mu @ rhs in (x, u).

    The step is linear in the slopes k_j = rhs(x_j, u), so with the slope
    adjoints mu_4 = dt/6 lam, mu_3 = dt/3 lam + dt A_4^T mu_4,
    mu_2 = dt/3 lam + dt/2 A_3^T mu_3, mu_1 = dt/6 lam + dt/2 A_2^T mu_2
    the Hessian is sum_j Z_j^T (Hessian of mu_j @ rhs at stage j) Z_j,
    where Z_j = d(x_j, u)/d(x, u)."""
    n, m = x.shape[-1], u.shape[-1]
    stages = _rk4_stages(rhs, rhs_jac, x, u, dt)
    weight = (dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0)
    step = (0.5 * dt, 0.5 * dt, dt)  # x_{j+1} = x + step[j] k_j
    dtype = np.result_type(x, u, lam, dt)  # extended precision passes through
    H = np.zeros(x.shape[:-1] + (n + m, n + m), dtype=dtype)
    Z = np.zeros_like(H)
    Z[..., n:, n:] = np.eye(m)
    for j in range(3, -1, -1):
        s = stages[j]
        mu = weight[j] * lam if j == 3 else weight[j] * lam + step[j] * np.matvec(stages[j + 1].A.mT, mu)
        Z[..., :n, :n], Z[..., :n, n:] = s.Xx, s.Xu
        H += Z.mT @ rhs_hess_vec(s.x, u, mu) @ Z
    return H


# ---------------------------------------------------------------------------
# quadrotor


@dataclass(frozen=True)
class QuadrotorParams:
    """Knobs of the quadrotor preset.

    `q` weights the (Ydot, Z, Zdot) entries of the state cost and controls
    how much of the state the cost can see; `b` scales every roll-rate term
    in the attitude kinematics and controls how strongly that channel
    actuates the vehicle.  Thrust in the optimization problem is
    parameterized as an offset from the gravity-compensating trim, so
    hovering at the reference costs nothing and is a stationary point.
    """

    q: float = 1.0
    b: float = 1.0
    g: float = 9.81
    dt: float = 0.1
    N: int = 60
    altitude: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.N < 2:
            raise ConfigurationError("quadrotor horizon must be >= 2")
        if self.q < 0 or self.b < 0:
            raise ConfigurationError("q and b must be nonnegative")


N_X_QUAD = 9
N_U_QUAD = 4


def _attitude(x: Array, u: Array):
    """x and u as float arrays, the raw controls (a, wX, wY, wZ) and the
    cosines and sines (cg, sg, cb, sb, ca, sa) of the attitude angles
    (gamma, beta, alpha) of row-stacked states and controls; raises at the
    pitch singularity of any row."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    angles = x[..., 6:9]
    c, s = np.cos(angles), np.sin(angles)
    if np.any(np.abs(c[..., 1]) < 1e-9):
        raise EvaluationError("attitude singularity: cos(beta) vanished")
    trig = (c[..., 0], s[..., 0], c[..., 1], s[..., 1], c[..., 2], s[..., 2])
    return x, np.unstack(u, axis=-1), trig


def quadrotor_continuous_rhs(x: Array, u: Array, params: QuadrotorParams) -> Array:
    """Time derivative of (X, Xdot, Y, Ydot, Z, Zdot, gamma, beta, alpha)
    under raw controls (a, wX, wY, wZ): second-order translational dynamics
    driven by total thrust through the attitude angles, plus attitude
    kinematics with the roll-rate terms scaled by b.  Rows of x (n, 9) and
    u (n, 4) are independent points; the result is (n, 9)."""
    x, (a, wx, wy, wz), (cg, sg, cb, sb, ca, sa) = _attitude(x, u)
    return np.stack(
        [
            x[..., 1],
            a * (cg * sb * ca + sg * sa),
            x[..., 3],
            a * (cg * sb * sa - sg * ca),
            x[..., 5],
            a * cg * cb - params.g,
            (params.b * wx * cg + wy * sg) / cb,
            -params.b * wx * sg + wy * cg,
            params.b * wx * cg * (sb / cb) + wy * sg * (sb / cb) + wz,
        ],
        axis=-1,
    )


def quadrotor_rhs_jacobians(x: Array, u: Array, params: QuadrotorParams):
    """Analytic derivatives of the continuous dynamics in state and raw
    controls, (n, 9, 9) and (n, 9, 4) for row-stacked x and u."""
    x, (a, wx, wy, _), (cg, sg, cb, sb, ca, sa) = _attitude(x, u)
    tb = sb / cb
    b = params.b
    A = np.zeros(x.shape[:-1] + (N_X_QUAD, N_X_QUAD))
    B = np.zeros(x.shape[:-1] + (N_X_QUAD, N_U_QUAD))
    A[..., 0, 1] = 1.0
    A[..., 2, 3] = 1.0
    A[..., 4, 5] = 1.0
    # Xddot = a (cg sb ca + sg sa)
    A[..., 1, 6] = a * (-sg * sb * ca + cg * sa)
    A[..., 1, 7] = a * cg * cb * ca
    A[..., 1, 8] = a * (-cg * sb * sa + sg * ca)
    B[..., 1, 0] = cg * sb * ca + sg * sa
    # Yddot = a (cg sb sa - sg ca)
    A[..., 3, 6] = a * (-sg * sb * sa - cg * ca)
    A[..., 3, 7] = a * cg * cb * sa
    A[..., 3, 8] = a * (cg * sb * ca + sg * sa)
    B[..., 3, 0] = cg * sb * sa - sg * ca
    # Zddot = a cg cb - g
    A[..., 5, 6] = -a * sg * cb
    A[..., 5, 7] = -a * cg * sb
    B[..., 5, 0] = cg * cb
    # gammadot = (b wx cg + wy sg) / cb
    A[..., 6, 6] = (-b * wx * sg + wy * cg) / cb
    A[..., 6, 7] = (b * wx * cg + wy * sg) * sb / cb**2
    B[..., 6, 1] = b * cg / cb
    B[..., 6, 2] = sg / cb
    # betadot = -b wx sg + wy cg
    A[..., 7, 6] = -b * wx * cg - wy * sg
    B[..., 7, 1] = -b * sg
    B[..., 7, 2] = cg
    # alphadot = b wx cg tb + wy sg tb + wz
    A[..., 8, 6] = -b * wx * sg * tb + wy * cg * tb
    A[..., 8, 7] = (b * wx * cg + wy * sg) / cb**2
    B[..., 8, 1] = b * cg * tb
    B[..., 8, 2] = sg * tb
    B[..., 8, 3] = 1.0
    return A, B


def quadrotor_rhs_hess_vec(x: Array, u: Array, mu: Array, params: QuadrotorParams) -> Array:
    """Analytic Hessian of mu @ (continuous dynamics) in (state, raw
    controls): a symmetric 13 x 13 matrix per row of x, u and mu.  Only
    gamma, beta, alpha and a, wX, wY enter nonlinearly, so it has 13
    distinct nonzero entries, all in rows and columns 6..11."""
    x, (a, wx, wy, _), (cg, sg, cb, sb, ca, sa) = _attitude(x, u)
    sec, tb = 1.0 / cb, sb / cb
    b = params.b
    _, m1, _, m3, _, m5, m6, m7, m8 = np.unstack(np.asarray(mu, dtype=float), axis=-1)
    # thrust: (Xddot, Yddot, Zddot + g) = a (P1, P3, P5), Phi = m1 P1 + m3 P3
    # + m5 P5; subscripts g, b, a are d/dgamma, d/dbeta, d/dalpha
    P1 = cg * sb * ca + sg * sa
    P3 = cg * sb * sa - sg * ca
    Phi_g = m1 * (-sg * sb * ca + cg * sa) + m3 * (-sg * sb * sa - cg * ca) - m5 * sg * cb
    Phi_b = (m1 * ca + m3 * sa) * cg * cb - m5 * cg * sb
    Phi_a = m1 * (-cg * sb * sa + sg * ca) + m3 * P1
    Phi_gg = -m1 * P1 - m3 * P3 - m5 * cg * cb
    Phi_gb = -(m1 * ca + m3 * sa) * sg * cb + m5 * sg * sb
    Phi_ga = m1 * (sg * sb * sa + cg * ca) + m3 * (-sg * sb * ca + cg * sa)
    Phi_bb = -(m1 * ca + m3 * sa) * cg * sb - m5 * cg * cb
    Phi_ba = (-m1 * sa + m3 * ca) * cg * cb
    Phi_aa = -m1 * P1 - m3 * P3
    # attitude: with K = b wX cg + wY sg, gammadot = sec K, betadot = dK/dgamma
    # = Kg and alphadot = tb K + wZ, so Psi = c0 K + m7 Kg, c0 = m6 sec + m8 tb
    K = b * wx * cg + wy * sg
    Kg = -b * wx * sg + wy * cg
    c0 = m6 * sec + m8 * tb
    c0_b = m6 * sec * tb + m8 * sec**2
    c0_bb = m6 * (sec * tb**2 + sec**3) + 2.0 * m8 * sec**2 * tb
    # the upper triangle of rows and columns (gamma, beta, alpha, a, wX, wY)
    upper = {
        (6, 6): a * Phi_gg - c0 * K - m7 * Kg,
        (6, 7): a * Phi_gb + c0_b * Kg,
        (6, 8): a * Phi_ga,
        (6, 9): Phi_g,
        (6, 10): -b * (c0 * sg + m7 * cg),
        (6, 11): c0 * cg - m7 * sg,
        (7, 7): a * Phi_bb + c0_bb * K,
        (7, 8): a * Phi_ba,
        (7, 9): Phi_b,
        (7, 10): b * c0_b * cg,
        (7, 11): c0_b * sg,
        (8, 8): a * Phi_aa,
        (8, 9): Phi_a,
    }
    rows, cols = np.array(list(upper)).T
    entries = np.stack(np.broadcast_arrays(*upper.values()), axis=-1)
    H = np.zeros(entries.shape[:-1] + (N_X_QUAD + N_U_QUAD, N_X_QUAD + N_U_QUAD))
    H[..., rows, cols] = entries
    H[..., cols, rows] = entries
    return H


def quadrotor_hover_state(params: QuadrotorParams) -> Array:
    x = np.zeros(N_X_QUAD)
    x[4] = params.altitude
    return x


def quadrotor_trim(params: QuadrotorParams) -> Array:
    return np.array([params.g, 0.0, 0.0, 0.0])


def quadrotor_cost_weights(params: QuadrotorParams):
    q = params.q
    Q = np.diag([1.0, 1.0, 1.0, q, q, q, 1.0, 1.0, 1.0])
    R = np.eye(N_U_QUAD)
    Qf = np.eye(N_X_QUAD)
    return Q, R, Qf


def _one_row(batched: Callable) -> Callable:
    """The per-stage form `f(i, x, u, d[, lam])` of a stage-batched oracle:
    one call on one-row stacks."""

    def per_stage(i, *rows):
        out = batched(*(np.asarray(r, dtype=float)[None] for r in rows))
        return out[0] if isinstance(out, np.ndarray) else tuple(t[0] for t in out)

    return per_stage


def quadrotor_problem(params: QuadrotorParams):
    """The tracking problem built from the quadrotor: quadratic state
    deviation plus control effort per stage, quadratic terminal deviation,
    identity initial-state map, and one RK4 step of the continuous dynamics
    as the stage mapping.  Controls are trim offsets.

    Returns (problem, base data); the base data put the reference and the
    initial state at hover, so the hover trajectory with zero multipliers is
    the base solution.
    """
    Q, R, Qf = quadrotor_cost_weights(params)
    trim = quadrotor_trim(params)
    dt = params.dt

    def rhs(x, u_raw):
        return quadrotor_continuous_rhs(x, u_raw, params)

    def rhs_jac(x, u_raw):
        return quadrotor_rhs_jacobians(x, u_raw, params)

    def rhs_hess_vec(x, u_raw, mu):
        return quadrotor_rhs_hess_vec(x, u_raw, mu, params)

    # stage-batched forms: rows of X, U, D, Lam are stages.  The data enter
    # only through the cost, so G and the (x, u)-d curvature blocks vanish;
    # constant cost blocks are broadcast along the stage axis
    def dynamics_batch(X, U, D):
        return rk4_step(rhs, X, U + trim, dt)

    def dynamics_jac_batch(X, U, D):
        A, B = rk4_step_jacobians(rhs, rhs_jac, X, U + trim, dt)
        return A, B, np.zeros((len(X), N_X_QUAD, N_X_QUAD))

    def dynamics_hess_vec_batch(X, U, D, Lam):
        H = rk4_step_hess_vec(rhs, rhs_jac, rhs_hess_vec, X, U + trim, dt, Lam)
        n, k = N_X_QUAD, len(X)
        zero_xd, zero_ud = np.broadcast_to(0.0, (k, n, n)), np.broadcast_to(0.0, (k, N_U_QUAD, n))
        return H[:, :n, :n], H[:, :n, n:], H[:, n:, n:], zero_xd, zero_ud

    def stage_cost_grad_batch(X, U, D):
        return (X - D) @ (2.0 * Q).T, U @ (2.0 * R).T

    def stage_cost_hess_batch(X, U, D):
        n = len(X)
        return (
            np.broadcast_to(2.0 * Q, (n, N_X_QUAD, N_X_QUAD)),
            np.broadcast_to(0.0, (n, N_X_QUAD, N_U_QUAD)),
            np.broadcast_to(2.0 * R, (n, N_U_QUAD, N_U_QUAD)),
            np.broadcast_to(-2.0 * Q, (n, N_X_QUAD, N_X_QUAD)),
            np.broadcast_to(0.0, (n, N_U_QUAD, N_X_QUAD)),
        )

    def stage_cost(i, x, u, d):
        e = x - d
        return float(e @ Q @ e + u @ R @ u)

    def terminal_cost(x, d):
        e = x - d
        return float(e @ Qf @ e)

    def terminal_cost_grad(x, d):
        return 2.0 * Qf @ (x - d)

    def terminal_cost_hess(x, d):
        return 2.0 * Qf, -2.0 * Qf

    dims = Dimensions.uniform(params.N, N_X_QUAD, N_U_QUAD, N_X_QUAD, N_X_QUAD)
    oracles = StageOracles(
        stage_cost=stage_cost,
        dynamics=_one_row(dynamics_batch),
        terminal_cost=terminal_cost,
        stage_cost_grad=_one_row(stage_cost_grad_batch),
        stage_cost_hess=_one_row(stage_cost_hess_batch),
        terminal_cost_grad=terminal_cost_grad,
        terminal_cost_hess=terminal_cost_hess,
        dynamics_jac=_one_row(dynamics_jac_batch),
        dynamics_hess_vec=_one_row(dynamics_hess_vec_batch),
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
    )
    problem = DOProblem(dims=dims, oracles=oracles, T=np.eye(N_X_QUAD))
    hover = quadrotor_hover_state(params)
    data = DataTrajectory(dims, [hover.copy() for _ in range(params.N + 2)])
    return problem, data


# ---------------------------------------------------------------------------
# LQ problems


def make_lq_problem(
    A: Array,
    B: Array,
    Q: Array,
    R: Array,
    Qf: Array,
    T: Array | None,
    N: int,
    track_reference: bool = True,
) -> DOProblem:
    """Linear dynamics with quadratic costs.  With `track_reference` the
    stage and terminal costs penalize (x - d); otherwise the data enter only
    through the initial constraint and every stage has empty data."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n_x = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n_x, -1)
    n_u = B.shape[1]
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.asarray(R, dtype=float).reshape(n_u, n_u)
    Qf = np.atleast_2d(np.asarray(Qf, dtype=float))
    T = np.eye(n_x) if T is None else np.atleast_2d(np.asarray(T, dtype=float))
    n_0 = T.shape[0]
    n_d = n_x if track_reference else 0
    dims = Dimensions(N, n_x, n_u, (n_0,) + (n_d,) * (N + 1), n_0)

    def stage_cost(i, x, u, d):
        e = x - d if track_reference else x
        return float(e @ Q @ e + u @ R @ u)

    def stage_cost_grad(i, x, u, d):
        e = x - d if track_reference else x
        return 2.0 * Q @ e, 2.0 * R @ u

    def stage_cost_hess(i, x, u, d):
        E = -2.0 * Q if track_reference else np.zeros((n_x, 0))
        return 2.0 * Q, np.zeros((n_x, n_u)), 2.0 * R, E, np.zeros((n_u, n_d))

    def terminal_cost(x, d):
        e = x - d if track_reference else x
        return float(e @ Qf @ e)

    def terminal_cost_grad(x, d):
        e = x - d if track_reference else x
        return 2.0 * Qf @ e

    def terminal_cost_hess(x, d):
        E = -2.0 * Qf if track_reference else np.zeros((n_x, 0))
        return 2.0 * Qf, E

    def dynamics(i, x, u, d):
        return A @ x + B @ u

    def dynamics_jac(i, x, u, d):
        return A, B, np.zeros((n_x, d.size))

    def dynamics_hess_vec(i, x, u, d, lam):
        return (
            np.zeros((n_x, n_x)),
            np.zeros((n_x, n_u)),
            np.zeros((n_u, n_u)),
            np.zeros((n_x, d.size)),
            np.zeros((n_u, d.size)),
        )

    # stage-batched forms: rows of X, U, D are stages; constant blocks are
    # broadcast along the stage axis rather than copied
    def dynamics_batch(X, U, D):
        return X @ A.T + U @ B.T

    def dynamics_jac_batch(X, U, D):
        n = X.shape[0]
        return (
            np.broadcast_to(A, (n, n_x, n_x)),
            np.broadcast_to(B, (n, n_x, n_u)),
            np.zeros((n, n_x, D.shape[1])),
        )

    def stage_cost_grad_batch(X, U, D):
        e = X - D if track_reference else X
        return e @ (2.0 * Q).T, U @ (2.0 * R).T

    def stage_cost_hess_batch(X, U, D):
        n = X.shape[0]
        E = -2.0 * Q if track_reference else np.zeros((n_x, 0))
        return (
            np.broadcast_to(2.0 * Q, (n, n_x, n_x)),
            np.broadcast_to(0.0, (n, n_x, n_u)),
            np.broadcast_to(2.0 * R, (n, n_u, n_u)),
            np.broadcast_to(E, (n, n_x, n_d)),
            np.broadcast_to(0.0, (n, n_u, n_d)),
        )

    def dynamics_hess_vec_batch(X, U, D, Lam):
        n = X.shape[0]
        return tuple(
            np.broadcast_to(0.0, shape)
            for shape in ((n, n_x, n_x), (n, n_x, n_u), (n, n_u, n_u), (n, n_x, n_d), (n, n_u, n_d))
        )

    oracles = StageOracles(
        stage_cost=stage_cost,
        dynamics=dynamics,
        terminal_cost=terminal_cost,
        stage_cost_grad=stage_cost_grad,
        stage_cost_hess=stage_cost_hess,
        terminal_cost_grad=terminal_cost_grad,
        terminal_cost_hess=terminal_cost_hess,
        dynamics_jac=dynamics_jac,
        dynamics_hess_vec=dynamics_hess_vec,
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
    )
    return DOProblem(dims=dims, oracles=oracles, T=T)


def lq_chain(
    n_x: int,
    n_u: int,
    N: int,
    stability: float = 0.9,
    seed: int = 0,
    Q: Array | None = None,
    R: Array | None = None,
) -> DOProblem:
    """Seeded random time-invariant LQ problem; A is rescaled to the
    requested spectral radius, Q and R default to identity.  Deterministic
    per seed."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_x, n_x))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    if radius > 0:
        A *= stability / radius
    B = rng.standard_normal((n_x, n_u)) if n_u > 0 else np.zeros((n_x, 0))
    Q = np.eye(n_x) if Q is None else np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.eye(n_u) if R is None else np.asarray(R, dtype=float).reshape(n_u, n_u)
    return make_lq_problem(A, B, Q, R, Q.copy(), np.eye(n_x), N, track_reference=True)


DOUBLE_INTEGRATOR_A = np.array([[1.0, 1.0], [0.0, 1.0]])
DOUBLE_INTEGRATOR_B = np.array([[0.0], [1.0]])


def double_integrator(N: int = 20) -> DOProblem:
    return make_lq_problem(
        DOUBLE_INTEGRATOR_A,
        DOUBLE_INTEGRATOR_B,
        np.eye(2),
        np.eye(1),
        np.eye(2),
        np.eye(2),
        N,
        track_reference=True,
    )


def scalar_oracle() -> DOProblem:
    """Hand-solvable single-stage problem: minimize x_0^2 + u_0^2 + x_1^2
    subject to x_0 = d_{-1} and x_1 = x_0 + u_0.  At d_{-1} = 1 the solution
    is (x_0, u_0, x_1) = (1, -0.5, 0.5) with multipliers (3, 1) under this
    package's sign convention."""
    return make_lq_problem(
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.eye(1),
        np.eye(1),
        np.eye(1),
        np.array([[1.0]]),
        1,
        track_reference=False,
    )


# ---------------------------------------------------------------------------
# steady state and time-invariant cost construction


@dataclass
class SteadyState:
    """Primal-dual solution of `min cost(x, u; d) s.t. x = f(x, u; d)`.
    `lam_init` is filled by `build_ti_costs` once an initial-state map is
    chosen."""

    x: Array
    u: Array
    lam: Array
    residual: float
    lam_init: Array | None = None


def solve_steady_state(
    stage_cost: Callable,
    dynamics: Callable,
    d_s: Array,
    x0: Array,
    u0: Array,
    lam0: Array | None = None,
    *,
    cost_grad: Callable | None = None,
    dyn_jac: Callable | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> SteadyState:
    """Newton on the steady-state first-order conditions.  `stage_cost` and
    `dynamics` take (x, u, d); optional analytic derivatives follow the
    conventions of StageOracles without the stage index.  The result is
    horizon independent by construction."""
    d_s = np.atleast_1d(np.asarray(d_s, dtype=float))
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    u = np.atleast_1d(np.asarray(u0, dtype=float)).copy()
    n_x, n_u = x.size, u.size
    lam = np.zeros(n_x) if lam0 is None else np.atleast_1d(np.asarray(lam0, dtype=float)).copy()

    def split(t):
        return t[:n_x], t[n_x : n_x + n_u]

    def grads(xx, uu):
        if cost_grad is not None:
            gx, gu = cost_grad(xx, uu, d_s)
            return np.asarray(gx, dtype=float), np.asarray(gu, dtype=float)
        g = diff.gradient(lambda t: stage_cost(*split(t), d_s), np.concatenate([xx, uu]))
        return g[:n_x], g[n_x:]

    def jacs(xx, uu):
        if dyn_jac is not None:
            A, B = dyn_jac(xx, uu, d_s)[:2]
            return np.asarray(A, dtype=float), np.asarray(B, dtype=float)
        J = diff.jacobian(lambda t: dynamics(*split(t), d_s), np.concatenate([xx, uu]))
        return J[:, :n_x], J[:, n_x:]

    def residual(xx, uu, ll):
        gx, gu = grads(xx, uu)
        A, B = jacs(xx, uu)
        f = np.asarray(dynamics(xx, uu, d_s), dtype=float)
        # Lagrangian cost - lam @ (x - f): stationarity and feasibility
        return np.concatenate([gx - ll + A.T @ ll, gu + B.T @ ll, -(xx - f)])

    def grad_z(t):
        xx, uu = split(t)
        gx, gu = grads(xx, uu)
        A, B = jacs(xx, uu)
        return np.concatenate([gx - lam + A.T @ lam, gu + B.T @ lam])

    for _ in range(max_iter):
        r = residual(x, u, lam)
        rnorm = float(np.abs(r).max())
        if rnorm <= tol:
            return SteadyState(x=x, u=u, lam=lam, residual=rnorm)
        W = diff.hessian_via_gradient(grad_z, np.arange(n_x + n_u), np.concatenate([x, u]))
        W = 0.5 * (W + W.T)
        A, B = jacs(x, u)
        Jss = np.hstack([np.eye(n_x) - A, -B])
        n = n_x + n_u + n_x
        K = np.zeros((n, n))
        K[: n_x + n_u, : n_x + n_u] = W
        K[: n_x + n_u, n_x + n_u :] = -Jss.T
        K[n_x + n_u :, : n_x + n_u] = -Jss
        try:
            step = np.linalg.solve(K, -r)
        except np.linalg.LinAlgError as exc:
            raise NonconvergenceError(f"singular steady-state KKT system: {exc}") from exc
        x = x + step[:n_x]
        u = u + step[n_x : n_x + n_u]
        lam = lam + step[n_x + n_u :]
    r = residual(x, u, lam)
    raise NonconvergenceError(
        f"steady-state Newton did not reach tol {tol:g} (residual {float(np.abs(r).max()):.3e})"
    )


@dataclass(frozen=True)
class TICosts:
    """Initial and terminal cost oracles built around a steady state, plus
    the initial-constraint multiplier that makes the constant steady-state
    trajectory stationary for every horizon length."""

    ell_b: Callable  # (x, d) -> float
    ell_f: Callable  # (x, d) -> float
    lam_b: Array  # gradient of ell_b
    Q_f: Array  # Hessian of ell_f (2 Q)
    lam_init: Array


def build_ti_costs(ss: SteadyState, Q: Array, T: Array) -> TICosts:
    """Construct the initial regularization `-((I - T^+ T) lam) @ x` and the
    terminal cost `(x - x_s) @ Q @ (x - x_s) + lam @ x`, then solve
    T^T lam_init = lam_b + lam (via the pseudoinverse, with a consistency
    check).  With T = I the initial term vanishes identically."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n_x = ss.x.size
    T = np.asarray(T, dtype=float).reshape(-1, n_x)
    if T.shape[0] > 0:
        proj = np.linalg.pinv(T) @ T
    else:
        proj = np.zeros((n_x, n_x))
    lam_b = -(np.eye(n_x) - proj) @ ss.lam
    rhs = lam_b + ss.lam
    lam_init = np.linalg.pinv(T.T) @ rhs if T.shape[0] > 0 else np.zeros(0)
    gap = float(np.abs(T.T @ lam_init - rhs).max()) if n_x else 0.0
    if gap > 1e-8 * max(1.0, float(np.abs(rhs).max())):
        raise RangeConditionError(
            f"lam_b + lam is not in the range of T^T (residual {gap:.3e})"
        )
    x_s = ss.x.copy()
    lam_s = ss.lam.copy()
    lam_b_c = lam_b.copy()

    def ell_b(x, d):
        return float(lam_b_c @ x)

    def ell_f(x, d):
        e = x - x_s
        return float(e @ Q @ e + lam_s @ x)

    return TICosts(ell_b=ell_b, ell_f=ell_f, lam_b=lam_b, Q_f=2.0 * Q, lam_init=lam_init)


def time_invariant_problem(
    stage_cost: Callable,
    dynamics: Callable,
    ti: TICosts,
    T: Array,
    N: int,
    n_u: int,
    n_d: int,
) -> DOProblem:
    """Assemble the horizon problem for a time-invariant system: the stage
    cost picks up `ell_b` at stage 0 and the terminal cost is `ell_f`."""
    T = np.atleast_2d(np.asarray(T, dtype=float))
    n_x = T.shape[1]

    def cost(i, x, u, d):
        value = float(stage_cost(x, u, d))
        if i == 0:
            value += ti.ell_b(x, d)
        return value

    def dyn(i, x, u, d):
        return dynamics(x, u, d)

    def terminal(x, d):
        return ti.ell_f(x, d)

    dims = Dimensions(N, n_x, n_u, (T.shape[0],) + (n_d,) * (N + 1), T.shape[0])
    oracles = StageOracles(stage_cost=cost, dynamics=dyn, terminal_cost=terminal)
    return DOProblem(dims=dims, oracles=oracles, T=T)


def constant_trajectory(dims: Dimensions, ss: SteadyState) -> PrimalDualTrajectory:
    """Replicate the steady state along the horizon: states and multipliers
    constant, `lam_init` on the initial constraint."""
    if ss.lam_init is None and dims.n_0 > 0:
        raise ConfigurationError("steady state has no initial-constraint multiplier")
    lam_init = np.zeros(dims.n_0) if dims.n_0 == 0 else np.asarray(ss.lam_init, dtype=float)
    return PrimalDualTrajectory(
        dims,
        [ss.x.copy() for _ in range(dims.N + 1)],
        [ss.u.copy() for _ in range(dims.N)],
        [lam_init] + [ss.lam.copy() for _ in range(dims.N)],
    )


# ---------------------------------------------------------------------------
# registry


def _bundle_quadrotor(params: dict) -> ModelBundle:
    qp = QuadrotorParams(**params)
    problem, data = quadrotor_problem(qp)
    warm = PrimalDualTrajectory(
        problem.dims,
        [quadrotor_hover_state(qp) for _ in range(qp.N + 1)],
        [np.zeros(N_U_QUAD) for _ in range(qp.N)],
        [np.zeros(N_X_QUAD)] + [np.zeros(N_X_QUAD) for _ in range(qp.N)],
    )
    return ModelBundle(
        name="quadrotor",
        problem=problem,
        base_data=data,
        warm_start=warm,
        description="9-state quadrotor tracking with observability knob q and controllability knob b",
    )


def _bundle_lq_chain(params: dict) -> ModelBundle:
    defaults = {"n_x": 3, "n_u": 2, "N": 40, "stability": 0.9, "seed": 0}
    defaults.update(params)
    x0_scale = float(defaults.pop("x0_scale", 1.0))
    problem = lq_chain(**defaults)
    dims = problem.dims
    x0 = np.zeros(dims.n_x)
    x0[0] = x0_scale
    data = DataTrajectory(dims, [x0] + [np.zeros(dims.n_x) for _ in range(dims.N + 1)])
    return ModelBundle(
        name="lq_chain",
        problem=problem,
        base_data=data,
        warm_start=PrimalDualTrajectory.zeros(dims),
        description="seeded random time-invariant LQ tracking chain",
    )


def _bundle_double_integrator(params: dict) -> ModelBundle:
    N = int(params.get("N", 20))
    problem = double_integrator(N)
    dims = problem.dims
    x0 = np.asarray(params.get("x0", [1.0, 0.0]), dtype=float)
    data = DataTrajectory(dims, [x0] + [np.zeros(2) for _ in range(N + 1)])
    return ModelBundle(
        name="double_integrator",
        problem=problem,
        base_data=data,
        warm_start=PrimalDualTrajectory.zeros(dims),
        description="position/velocity chain with single force input",
    )


def _bundle_scalar_oracle(params: dict) -> ModelBundle:
    problem = scalar_oracle()
    dims = problem.dims
    data = DataTrajectory(dims, [np.array([1.0]), np.zeros(0), np.zeros(0)])
    return ModelBundle(
        name="scalar_oracle",
        problem=problem,
        base_data=data,
        warm_start=PrimalDualTrajectory.zeros(dims),
        description="hand-solvable single-stage problem used as a golden oracle",
    )


MODEL_BUILDERS = {
    "quadrotor": _bundle_quadrotor,
    "lq_chain": _bundle_lq_chain,
    "double_integrator": _bundle_double_integrator,
    "scalar_oracle": _bundle_scalar_oracle,
}


def list_models():
    out = []
    for name in sorted(MODEL_BUILDERS):
        bundle_doc = {
            "quadrotor": "9-state quadrotor tracking; knobs q (cost visibility) and b (roll authority)",
            "lq_chain": "seeded random time-invariant LQ tracking chain",
            "double_integrator": "position/velocity chain with single force input",
            "scalar_oracle": "hand-solvable single-stage golden problem",
        }[name]
        out.append((name, bundle_doc))
    return out


def build_model(name: str, params: dict | None = None) -> ModelBundle:
    if name not in MODEL_BUILDERS:
        known = ", ".join(sorted(MODEL_BUILDERS))
        raise ConfigurationError(f"unknown model '{name}' (known: {known})")
    try:
        return MODEL_BUILDERS[name](dict(params or {}))
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for model '{name}': {exc}") from exc
