"""Model zoo: quadrotor motion planning and LQ test chains.

Every preset is a quadratic tracking problem built by `_tracking_problem`,
which holds the stage and terminal costs, their analytic derivatives and
the oracle registration once; a preset supplies only its stage dynamics
x_{i+1} = f(x_i, u_i), their Jacobians and, when nonlinear, the Hessian of
lam @ f, all stage-batched.  The quadrotor's dynamics Jacobians come from
the forward chain rule through its RK4 step, and its multiplier-contracted
dynamics Hessians from a second-order adjoint through the same stages; both
run over a stack of stages with batched matrix products.

One table, `PRESETS`, declares each preset once: its description, which
`list_models` prints, and its builder, which `build_model` calls with the
config's parameters as keywords, so an unknown key is an error.  Builders
return the problem, its base data and a warm start inside the convergence
basin.  Constructors are pure and the generated problems immutable, so
bundles are safe to share.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .problem import (
    Array,
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    StageOracles,
    _integer,
    _real,
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
        for key in ("q", "b", "g", "dt", "altitude"):
            _real(getattr(self, key), key)
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


def _tracking_problem(
    dims: Dimensions, T: Array, Q: Array, R: Array, Qf: Array, track: bool,
    f: Callable, f_jac: Callable, f_hess_vec: Callable | None,
) -> DOProblem:
    """The quadratic tracking problem of the stage dynamics x_{i+1} =
    f(x_i, u_i): stage cost (x - d) Q (x - d) + u R u, terminal cost
    (x - d) Qf (x - d) and initial constraint T x_0 = d_{-1}.  Without
    `track` the costs penalize x itself and the stages carry no data.

    f, f_jac and f_hess_vec take row-stacked stages X, U (and Lam): f gives
    the next states, f_jac (A, B) and f_hess_vec the Hessian of Lam @ f in
    (x, u); None stands for linear dynamics.  The data enter only through
    the cost, so G and the (x, u)-d curvature blocks vanish; constant blocks
    are broadcast along the stage axis rather than copied."""
    n_x, n_u = dims.n_x, dims.n_u
    n_d = n_x if track else 0
    dev = (lambda x, d: x - d) if track else (lambda x, d: x)
    cross = lambda M: -2.0 * M if track else np.zeros((n_x, 0))  # the (x, d) block of a cost Hessian

    def terminal_cost(x, d):
        e = dev(x, d)
        return float(e @ Qf @ e)

    def terminal_cost_grad(x, d):
        return 2.0 * Qf @ dev(x, d)

    def terminal_cost_hess(x, d):
        return 2.0 * Qf, cross(Qf)

    # the stage oracles, stage-batched: rows of X, U, D and Lam are stages
    def stage_cost_batch(X, U, D):
        E = dev(X, D)
        return ((E @ Q) * E).sum(axis=1) + ((U @ R) * U).sum(axis=1)

    def dynamics_batch(X, U, D):
        return f(X, U)

    def dynamics_jac_batch(X, U, D):
        return *f_jac(X, U), np.zeros((len(X), n_x, n_d))

    def stage_cost_grad_batch(X, U, D):
        return dev(X, D) @ (2.0 * Q).T, U @ (2.0 * R).T

    def stage_cost_hess_batch(X, U, D):
        k = len(X)
        return (
            np.broadcast_to(2.0 * Q, (k, n_x, n_x)),
            np.broadcast_to(0.0, (k, n_x, n_u)),
            np.broadcast_to(2.0 * R, (k, n_u, n_u)),
            np.broadcast_to(cross(Q), (k, n_x, n_d)),
            np.broadcast_to(0.0, (k, n_u, n_d)),
        )

    def dynamics_hess_vec_batch(X, U, D, Lam):
        k, n_z = len(X), n_x + n_u
        H = np.broadcast_to(0.0, (k, n_z, n_z)) if f_hess_vec is None else f_hess_vec(X, U, Lam)
        zero = np.broadcast_to(0.0, (k, n_z, n_d))
        return H[:, :n_x, :n_x], H[:, :n_x, n_x:], H[:, n_x:, n_x:], zero[:, :n_x], zero[:, n_x:]

    oracles = StageOracles(
        stage_cost_batch=stage_cost_batch,
        dynamics_batch=dynamics_batch,
        dynamics_jac_batch=dynamics_jac_batch,
        stage_cost_grad_batch=stage_cost_grad_batch,
        stage_cost_hess_batch=stage_cost_hess_batch,
        dynamics_hess_vec_batch=dynamics_hess_vec_batch,
        terminal_cost=terminal_cost,
        terminal_cost_grad=terminal_cost_grad,
        terminal_cost_hess=terminal_cost_hess,
    )
    return DOProblem(dims=dims, oracles=oracles, T=T)


def quadrotor_problem(params: QuadrotorParams) -> DOProblem:
    """The tracking problem built from the quadrotor: quadratic state
    deviation plus control effort per stage, quadratic terminal deviation,
    identity initial-state map, and one RK4 step of the continuous dynamics
    as the stage mapping.  Controls are trim offsets.  The preset's base
    data put the reference and the initial state at hover, so the hover
    trajectory with zero multipliers is the base solution.
    """
    trim, dt = quadrotor_trim(params), params.dt
    rhs = functools.partial(quadrotor_continuous_rhs, params=params)
    rhs_jac = functools.partial(quadrotor_rhs_jacobians, params=params)
    rhs_hess_vec = functools.partial(quadrotor_rhs_hess_vec, params=params)
    dims = Dimensions(params.N, N_X_QUAD, N_U_QUAD, N_X_QUAD, N_X_QUAD)
    return _tracking_problem(
        dims,
        np.eye(N_X_QUAD),
        *quadrotor_cost_weights(params),
        True,
        lambda X, U: rk4_step(rhs, X, U + trim, dt),
        lambda X, U: rk4_step_jacobians(rhs, rhs_jac, X, U + trim, dt),
        lambda X, U, Lam: rk4_step_hess_vec(rhs, rhs_jac, rhs_hess_vec, X, U + trim, dt, Lam),
    )


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
    Q = np.asarray(Q, dtype=float).reshape(n_x, n_x)
    R = np.asarray(R, dtype=float).reshape(n_u, n_u)
    Qf = np.asarray(Qf, dtype=float).reshape(n_x, n_x)
    T = np.eye(n_x) if T is None else np.atleast_2d(np.asarray(T, dtype=float))
    if not all(np.isfinite(M).all() for M in (A, B, Q, R, Qf, T)):
        raise ValueError("A, B, Q, R, Qf and T must be finite")
    n_0 = T.shape[0]
    dims = Dimensions(N, n_x, n_u, n_x if track_reference else 0, n_0)
    jac = lambda X, U: (np.broadcast_to(A, (len(X), n_x, n_x)), np.broadcast_to(B, (len(X), n_x, n_u)))
    return _tracking_problem(dims, T, Q, R, Qf, track_reference, lambda X, U: X @ A.T + U @ B.T, jac, None)


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
    if n_x < 1 or n_u < 0:
        raise ConfigurationError(f"lq_chain needs n_x >= 1 and n_u >= 0, got n_x={n_x}, n_u={n_u}")
    stability = _real(stability, "stability")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_x, n_x))
    radius = float(np.max(np.abs(np.linalg.eigvals(A))))
    if radius > 0:
        A *= stability / radius
    B = rng.standard_normal((n_x, n_u)) if n_u > 0 else np.zeros((n_x, 0))
    Q = np.eye(n_x) if Q is None else Q
    R = np.eye(n_u) if R is None else R
    return make_lq_problem(A, B, Q, R, Q, None, N)


DOUBLE_INTEGRATOR_A = np.array([[1.0, 1.0], [0.0, 1.0]])
DOUBLE_INTEGRATOR_B = np.array([[0.0], [1.0]])


def double_integrator(N: int = 20) -> DOProblem:
    return make_lq_problem(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, np.eye(2), np.eye(1), np.eye(2), None, N)


def scalar_oracle() -> DOProblem:
    """Hand-solvable single-stage problem: minimize x_0^2 + u_0^2 + x_1^2
    subject to x_0 = d_{-1} and x_1 = x_0 + u_0.  At d_{-1} = 1 the solution
    is (x_0, u_0, x_1) = (1, -0.5, 0.5) with multipliers (3, 1) under this
    package's sign convention."""
    return make_lq_problem(1.0, 1.0, 1.0, 1.0, 1.0, None, 1, track_reference=False)


# ---------------------------------------------------------------------------
# presets


def _bundle(problem: DOProblem, d_init, ref: Array | None = None):
    """(problem, data, warm start) of a preset: d_init at stage -1 and the
    state reference `ref` at stages 0..N (zero data without it), and a warm
    start resting at `ref` (at zero without it) with zero controls and
    multipliers."""
    dims = problem.dims
    data = DataTrajectory(dims, [d_init] + [np.zeros(dims.n_d) if ref is None else ref] * (dims.N + 1))
    if not np.isfinite(data.init).all():
        raise ValueError(f"initial data {d_init} must be finite")
    warm = PrimalDualTrajectory.zeros(dims)
    if ref is not None:
        for i in range(dims.N + 1):
            warm.x(i)[:] = ref
    return problem, data, warm


def _quadrotor(**params):
    qp = QuadrotorParams(**params)
    hover = quadrotor_hover_state(qp)
    return _bundle(quadrotor_problem(qp), hover, hover)


def _lq_chain(n_x=3, n_u=2, N=40, stability=0.9, seed=0, Q=None, R=None, x0_scale=1.0):
    problem = lq_chain(n_x, n_u, N, stability, seed, Q, R)
    x0 = np.zeros(n_x)
    x0[0] = _real(x0_scale, "x0_scale")
    return _bundle(problem, x0)


def _double_integrator(N=20, x0=(1.0, 0.0)):
    return _bundle(double_integrator(N), x0)


def _scalar_oracle():
    return _bundle(scalar_oracle(), [1.0])


# name: (description, builder); `build_model` calls builder(**params)
PRESETS = {
    "quadrotor": ("9-state quadrotor tracking; knobs q (cost visibility) and b (roll authority)", _quadrotor),
    "lq_chain": ("seeded random time-invariant LQ tracking chain", _lq_chain),
    "double_integrator": ("position/velocity chain with single force input", _double_integrator),
    "scalar_oracle": ("hand-solvable single-stage golden problem", _scalar_oracle),
}


def list_models():
    return sorted((name, description) for name, (description, _) in PRESETS.items())


def build_model(name: str, params: dict | None = None) -> ModelBundle:
    """The preset `name` built with `params` as its builder's keywords; its
    sizes N, n_x and n_u must be integral, and an unknown key or malformed
    value (the builder's TypeError or ValueError) is a ConfigurationError."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"unknown model '{name}' (known: {known})")
    params = dict(params or {})
    params.update({key: _integer(params[key], key) for key in ("N", "n_x", "n_u") if key in params})
    description, builder = PRESETS[name]
    try:
        return ModelBundle(name, *builder(**params), description)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameters for model '{name}': {exc}") from exc
