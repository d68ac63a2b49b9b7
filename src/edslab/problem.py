"""Horizon-N equality-constrained dynamic optimization problems.

A problem couples states x_i (i = 0..N) and controls u_i (i = 0..N-1)
through stage costs, a terminal cost, dynamics equality constraints
x_{i+1} = f_i(x_i, u_i; d_i), and an optional initial-state constraint
T x_0 = d_{-1}.  Stages 0..N carry data vectors d_i of one size n_d; the
stage -1 data is the right-hand side of the initial constraint.
Receding-horizon control problems use T = I, estimation-style problems
drop the initial constraint entirely (n_0 = 0, empty T).

Multiplier bookkeeping: lam(-1) multiplies the initial constraint, lam(i)
multiplies x_{i+1} = f_i.  x_{-1}, u_{-1}, u_N, lam(N) are empty vectors by
convention, so the per-stage primal-dual block w(i) = [x_i; u_i; lam_i]
degenerates to lam(-1) at the front of the horizon and to x_N at the back.

Layout: a primal-dual point is one stage-ordered vector [w(-1); ...; w(N)]
= [lam_{-1}; x_0; u_0; lam_0; ...; lam_{N-1}; x_N], placed by
`Dimensions.w_offsets` and read by the KKT residual, the Newton step, the
mixed-Hessian rows and the stage deviations.  Only the dense H and J use
the stacked orders [x_0; u_0; ...; x_N] and [lam_{-1}; lam_0; ...].  The
data are two arrays, `DataTrajectory.init` = d_{-1} and the (N + 1, n_d)
rows `DataTrajectory.stages` = d_0, ..., d_N, so the data of stages 0..N-1
are the view `stages[:N]`.

Sign convention: the Lagrangian is `objective - lam @ c` where c stacks the
constraint residuals [T x_0 - d_{-1}; x_1 - f_0; ...; x_N - f_{N-1}].  Its
gradient in the primal-dual variables is exactly the KKT residual assembled
in the kkt module, and the recorded dual values of golden problems follow
this choice.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

Array = np.ndarray


def _as_vector(value, n: int, what: str) -> Array:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1 or arr.shape != (n,):
        raise ConfigurationError(f"{what}: expected a vector of length {n}, got shape {arr.shape}")
    return arr


def _integer(value, key: str) -> int:
    """An integral config value as an int (3 or 3.0, not 1.5, inf, "3" or
    true); a float counts only up to 2**53, past which it tells no
    neighbouring integers apart (1e300 is rejected)."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer() and abs(value) <= 2**53
    ):
        raise ConfigurationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """A finite real config value as a float (2 or 0.5, not nan, inf, "1"
    or true)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes.

    `n_d` is the data size of every stage 0..N; the stage -1 data, the
    right-hand side of the initial constraint, has n_0 entries.  `nd(i)`
    reads the data size of stage i.
    """

    N: int
    n_x: int
    n_u: int
    n_d: int
    n_0: int

    def __post_init__(self):
        for key in ("N", "n_x", "n_u", "n_d", "n_0"):
            object.__setattr__(self, key, _integer(getattr(self, key), key))
        if self.N < 1:
            raise ConfigurationError("horizon N must be >= 1")
        if self.n_x < 1:
            raise ConfigurationError("state size n_x must be >= 1")
        if self.n_u < 0:
            raise ConfigurationError("control size n_u must be >= 0")
        if not 0 <= self.n_0 <= self.n_x:
            raise ConfigurationError("n_0 must lie in [0, n_x]")
        if self.n_d < 0:
            raise ConfigurationError("data size n_d must be >= 0")

    def nd(self, i: int) -> int:
        if not -1 <= i <= self.N:
            raise ConfigurationError(f"stage {i} outside [-1, {self.N}]")
        return self.n_0 if i == -1 else self.n_d

    @property
    def n_z(self) -> int:
        return self.n_x + self.n_u

    @property
    def n_primal(self) -> int:
        return (self.N + 1) * self.n_x + self.N * self.n_u

    @property
    def n_dual(self) -> int:
        return self.n_0 + self.N * self.n_x

    @property
    def n_w(self) -> int:
        return self.n_primal + self.n_dual

    @cached_property
    def w_offsets(self) -> tuple:
        """Where w(i) = [x_i; u_i; lam_i] starts, for i = -1..N, and n_w: w(i)
        spans [w_offsets[i + 1], w_offsets[i + 2]) of the stage-ordered
        vector [lam_{-1}; x_0; u_0; lam_0; ...; lam_{N-1}; x_N]."""
        stride = 2 * self.n_x + self.n_u
        return (0, *(self.n_0 + i * stride for i in range(self.N + 1)), self.n_w)

    def w_rows(self, v: Array) -> Array:
        """w(0), ..., w(N-1) of a stage-ordered vector as the rows of an
        (N, 2 n_x + n_u) view: they are contiguous and equally long."""
        return v[self.n_0 : self.w_offsets[-2]].reshape(self.N, 2 * self.n_x + self.n_u)


@dataclass(frozen=True)
class StageOracles:
    """Callables defining the problem.

    Required:
      stage_cost(i, x, u, d) -> float          i in [0, N-1]
      dynamics(i, x, u, d)   -> array(n_x)     i in [0, N-1]
      terminal_cost(x, d)    -> float

    Optional analytic derivatives; finite differences fill any gap:
      stage_cost_grad(i, x, u, d)  -> (g_x, g_u)
      stage_cost_hess(i, x, u, d)  -> (Q_xx, S_xu, R_uu, E_xd, F_ud)
      terminal_cost_grad(x, d)     -> g_x
      terminal_cost_hess(x, d)     -> (Q_xx, E_xd)
      dynamics_jac(i, x, u, d)     -> (A, B, G)   derivatives in x, u, d
      dynamics_hess_vec(i, x, u, d, lam) -> (H_xx, H_xu, H_uu, H_xd, H_ud)
          second-derivative blocks of lam @ dynamics

    Optional stage-batched forms of the stage oracles.  Each evaluates m
    stage rows in one call, from the stacked X (m, n_x), U (m, n_u), D (m,
    n_d) and Lam (m, n_x), whose row r holds the x, u, d and lam of one
    stage; each returned array has a leading row axis, row r being what the
    per-stage form returns at row r's stage:
      dynamics_batch(X, U, D)        -> F (m, n_x)
      dynamics_jac_batch(X, U, D)    -> (A, B, G)
      stage_cost_grad_batch(X, U, D) -> (G_x, G_u)
      stage_cost_hess_batch(X, U, D) -> (Q_xx, S_xu, R_uu, E_xd, F_ud)
      dynamics_hess_vec_batch(X, U, D, Lam) -> (H_xx, H_xu, H_uu, H_xd, H_ud)
    The rows are arbitrary stage rows, not stages 0..N-1 in order (the N
    stages of each of several points, or any subset of distinct stage
    rows), so a batched form must not depend on a row's position.  The KKT
    residual and the linearization call a batched form instead of its
    per-stage form whenever it is registered.  The per-stage forms stay
    required (stage_cost, dynamics) or in use (the objective, the
    constraints and any oracle without a batched form), and a batched form
    must agree with its per-stage form.  A batched dynamics_hess_vec is
    also called at stages whose multiplier is zero, where the per-stage
    path skips the call.  A term whose size does not match its stage's
    shape raises ConfigurationError.  Every preset of `models` registers
    all five, and its per-stage forms are one-row calls of them.

    All maps must be twice continuously differentiable on the evaluation
    domain.
    """

    stage_cost: Callable
    dynamics: Callable
    terminal_cost: Callable
    stage_cost_grad: Callable | None = None
    stage_cost_hess: Callable | None = None
    terminal_cost_grad: Callable | None = None
    terminal_cost_hess: Callable | None = None
    dynamics_jac: Callable | None = None
    dynamics_hess_vec: Callable | None = None
    dynamics_batch: Callable | None = None
    dynamics_jac_batch: Callable | None = None
    stage_cost_grad_batch: Callable | None = None
    stage_cost_hess_batch: Callable | None = None
    dynamics_hess_vec_batch: Callable | None = None


@dataclass(frozen=True)
class DOProblem:
    """Immutable problem description: sizes, oracles, initial-state map.

    Instances are safe to share across threads; evaluation does not mutate
    them.  T must have full row rank whenever n_0 > 0 (checked numerically
    at construction).
    """

    dims: Dimensions
    oracles: StageOracles
    T: Array

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        if self.dims.n_0 == 0:
            T = T.reshape(0, self.dims.n_x)
        else:
            T = np.atleast_2d(T)
        if T.shape != (self.dims.n_0, self.dims.n_x):
            raise ConfigurationError(
                f"T must be {self.dims.n_0} x {self.dims.n_x}, got {T.shape}"
            )
        object.__setattr__(self, "T", T)
        if self.dims.n_0 > 0:
            smin = np.linalg.svd(T, compute_uv=False)[-1]
            if smin <= 1e-10 * max(1.0, float(np.abs(T).max())):
                raise ConfigurationError("initial-state map T must have full row rank")


class DataTrajectory:
    """Stage data as two arrays: `init` (n_0,) holds d_{-1}, the
    right-hand side of the initial constraint, and `stages` (N + 1, n_d)
    holds d_0, ..., d_N as rows.  Index with stage numbers: `data[-1]` is
    `init` and `data[i]` a view of row i of `stages`."""

    def __init__(self, dims: Dimensions, vectors: Sequence):
        if len(vectors) != dims.N + 2:
            raise ConfigurationError(f"expected {dims.N + 2} data vectors, got {len(vectors)}")
        self.dims, self.init = dims, _as_vector(vectors[0], dims.n_0, "d[-1]")
        self.stages = np.empty((dims.N + 1, dims.n_d))
        for i, v in enumerate(vectors[1:]):
            self.stages[i] = _as_vector(v, dims.n_d, f"d[{i}]")

    @classmethod
    def zeros(cls, dims: Dimensions) -> "DataTrajectory":
        return cls(dims, [np.zeros(dims.nd(i)) for i in range(-1, dims.N + 1)])

    def __getitem__(self, stage: int) -> Array:
        if not -1 <= stage <= self.dims.N:
            raise ConfigurationError(f"stage {stage} outside [-1, {self.dims.N}]")
        return self.init if stage == -1 else self.stages[stage]

    def copy(self) -> "DataTrajectory":
        """A copy of both arrays."""
        out = DataTrajectory.__new__(DataTrajectory)
        out.dims, out.init, out.stages = self.dims, self.init.copy(), self.stages.copy()
        return out

    def perturbed(self, stage: int, delta) -> "DataTrajectory":
        """A copy with `delta` added to the data at one stage; only `delta`
        is validated."""
        delta = _as_vector(delta, self.dims.nd(stage), f"delta at stage {stage}")
        out = self.copy()
        out[stage][:] += delta
        return out


def _stage_order(dims: Dimensions) -> Array:
    """Position in the stacked [primal; dual] vector of each entry of the
    stage-ordered vector."""
    nz, n_x, n_z = dims.n_primal, dims.n_x, dims.n_z
    k = np.arange(dims.N)[:, None]
    stages = np.hstack([k * n_z + np.arange(n_z), nz + dims.n_0 + k * n_x + np.arange(n_x)])
    return np.concatenate([nz + np.arange(dims.n_0), stages.ravel(), dims.N * n_z + np.arange(n_x)])


class PrimalDualTrajectory:
    """Primal states/controls and constraint multipliers along the horizon,
    held as one stage-ordered vector `vector` = [w(-1); w(0); ...; w(N)].

    Accessors use stage numbers and return views into `vector`: `w(i)` for
    i in [-1, N] is [x_i; u_i; lam_i], so w(-1) = lam(-1) and w(N) = x(N);
    `x(i)` (i in [0, N]), `u(i)` (i in [0, N-1]) and `lam(i)` (i in [-1,
    N-1]) are slices of w(i).  `stacked_*` and `from_stacked` convert to and
    from the stacked orders of the dense H and J.
    """

    def __init__(self, dims: Dimensions, xs: Sequence, us: Sequence, lams: Sequence):
        if len(xs) != dims.N + 1 or len(us) != dims.N or len(lams) != dims.N + 1:
            raise ConfigurationError("trajectory stage counts do not match the horizon")
        self.dims = dims
        self.vector = np.zeros(dims.n_w)
        for i, v in enumerate(xs):
            self.x(i)[:] = _as_vector(v, dims.n_x, f"x[{i}]")
        for i, v in enumerate(us):
            self.u(i)[:] = _as_vector(v, dims.n_u, f"u[{i}]")
        for i, v in enumerate(lams):
            self.lam(i - 1)[:] = _as_vector(v, self.lam(i - 1).size, f"lam[{i - 1}]")

    @classmethod
    def from_vector(cls, dims: Dimensions, w: Array) -> "PrimalDualTrajectory":
        """Wrap a stage-ordered vector, without copying a float array."""
        out = cls.__new__(cls)
        out.dims = dims
        out.vector = _as_vector(w, dims.n_w, "stage-ordered vector")
        return out

    @classmethod
    def zeros(cls, dims: Dimensions) -> "PrimalDualTrajectory":
        return cls.from_vector(dims, np.zeros(dims.n_w))

    @classmethod
    def from_stacked(cls, dims: Dimensions, z: Array, lam: Array) -> "PrimalDualTrajectory":
        """Rebuild from the stacked primal [x_0; u_0; ...; x_N] and stacked
        dual [lam_{-1}; lam_0; ...; lam_{N-1}] vectors."""
        z = _as_vector(z, dims.n_primal, "stacked primal")
        lam = _as_vector(lam, dims.n_dual, "stacked dual")
        return cls.from_vector(dims, np.concatenate([z, lam])[_stage_order(dims)])

    def w(self, i: int) -> Array:
        if not -1 <= i <= self.dims.N:
            raise ConfigurationError(f"stage {i} outside [-1, {self.dims.N}]")
        off = self.dims.w_offsets
        return self.vector[off[i + 1] : off[i + 2]]

    def x(self, i: int) -> Array:
        if not 0 <= i <= self.dims.N:
            raise ConfigurationError(f"state stage {i} outside [0, {self.dims.N}]")
        a = self.dims.w_offsets[i + 1]
        return self.vector[a : a + self.dims.n_x]

    def u(self, i: int) -> Array:
        if not 0 <= i <= self.dims.N - 1:
            raise ConfigurationError(f"control stage {i} outside [0, {self.dims.N - 1}]")
        a = self.dims.w_offsets[i + 1] + self.dims.n_x
        return self.vector[a : a + self.dims.n_u]

    def lam(self, i: int) -> Array:
        if not -1 <= i <= self.dims.N - 1:
            raise ConfigurationError(f"multiplier stage {i} outside [-1, {self.dims.N - 1}]")
        a = self.dims.w_offsets[i + 1] + (self.dims.n_z if i >= 0 else 0)
        return self.vector[a : self.dims.w_offsets[i + 2]]

    def stacked_primal(self) -> Array:
        return self.vector[np.argsort(_stage_order(self.dims))[: self.dims.n_primal]]

    def stacked_dual(self) -> Array:
        return self.vector[np.argsort(_stage_order(self.dims))[self.dims.n_primal :]]

    def copy(self) -> "PrimalDualTrajectory":
        return PrimalDualTrajectory.from_vector(self.dims, self.vector.copy())


def check_dimensions(p: DOProblem, traj=None, data=None):
    """Raise ConfigurationError when trajectories were built for other sizes."""
    if traj is not None and traj.dims != p.dims:
        raise ConfigurationError("trajectory dimensions do not match the problem")
    if data is not None and data.dims != p.dims:
        raise ConfigurationError("data dimensions do not match the problem")


def evaluate_objective(p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory) -> float:
    """Sum of stage costs plus the terminal cost (multipliers ignored)."""
    check_dimensions(p, traj, data)
    total = 0.0
    for i in range(p.dims.N):
        total += float(p.oracles.stage_cost(i, traj.x(i), traj.u(i), data[i]))
    total += float(p.oracles.terminal_cost(traj.x(p.dims.N), data[p.dims.N]))
    return total


def evaluate_constraints(p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory) -> Array:
    """Stacked residual [T x_0 - d_{-1}; x_1 - f_0; ...; x_N - f_{N-1}].

    Block i occupies the rows of the constraint multiplied by lam(i); the
    leading block is absent when n_0 = 0.
    """
    check_dimensions(p, traj, data)
    blocks = [p.T @ traj.x(0) - data[-1]]
    for i in range(p.dims.N):
        fi = _as_vector(p.oracles.dynamics(i, traj.x(i), traj.u(i), data[i]), p.dims.n_x, f"f[{i}]")
        blocks.append(traj.x(i + 1) - fi)
    return np.concatenate(blocks)


def evaluate_lagrangian(p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory) -> float:
    """Objective minus `lam @ c`; its gradient in the primal-dual variables
    equals the KKT residual assembled in the kkt module."""
    check_dimensions(p, traj, data)
    obj = evaluate_objective(p, traj, data)
    c = evaluate_constraints(p, traj, data)
    return obj - float(traj.stacked_dual() @ c)
