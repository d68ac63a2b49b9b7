"""Linearization, KKT assembly, and an equality-constrained Newton solver.

The KKT residual, the Newton step and the rows of the mixed Hessian use the
stage-ordered primal-dual vector of `problem.PrimalDualTrajectory`,
[lam_{-1}; x_0; u_0; lam_0; ...; lam_{N-1}; x_N].  The dense J and H, kept
as test references and the dense gamma fallback, and the sparse J of the
constraint-qualification modulus use the stacked orderings: primal
variables [x_0; u_0; x_1; u_1; ...; x_N], multipliers [lam_{-1}; lam_0;
...; lam_{N-1}].  The constraint Jacobian is block bidiagonal with a
leading T row block; stage row block i is [-A_i, -B_i, I].  The primal
Hessian is block diagonal in (Q_i, R_i) with S_i coupling x_i to u_i inside
each stage.

The residual and the linearization evaluate every stage at once.  The
blocks w(0), ..., w(N-1) of the stage-ordered vector form one contiguous
(N, 2 n_x + n_u) array, whose columns give the stacked X, U and Lam
without a copy.  One sourcing helper, `_stage_terms`, returns each oracle's
terms with a leading stage axis: from the problem's stage-batched oracles
when it registers them and the stage data share one size, otherwise from a
loop over the per-stage oracles (or finite differences) whose results are
stacked.  Both then assemble from those arrays in a few array operations,
and `StageBlocks` keeps Q, R, S, A and B stacked.

The Newton step never forms the KKT matrix.  Cut into the blocks
[lam_{k-1}; x_k; u_k] of the stage-ordered vector, the matrix is block
tridiagonal, so a block LDL^T (one small Bunch-Kaufman factor per stage)
solves it and, by Haynsworth additivity, reads its inertia in
O(N (2 n_x + n_u)^3) time and O(N (2 n_x + n_u)^2) memory per Newton
iteration.  Every block but its Schur corner is assembled before the
elimination, in one stacked array.  `factor_kkt` returns that factor as a
`BlockFactor`, whose `solve` takes a vector or a matrix of columns.
`solve_batch` runs Newton on many data sets from one warm start in lock
step, the residual and linearization taking every point's stages at once
and points with bit-equal KKT matrices sharing one factor: the perturbation
experiments of an LQ problem, all re-solved from the base solution, take
one factorization between them.

The KKT residual returned here is exactly the gradient of
`problem.evaluate_lagrangian` in the entries of the trajectory's vector
(the multiplier entries are the negated constraint residuals, per the
`objective - lam @ c` pairing), so finite-differencing the Lagrangian
reproduces it.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

from . import diff
from .errors import ConfigurationError, NonconvergenceError, RegularityError
from .problem import (
    Array,
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    _as_vector,
    check_dimensions,
)


def _sym(M: Array) -> Array:
    """Symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@dataclass
class StageBlocks:
    """Derivative blocks of every stage, evaluated at one primal-dual point.

    Q[i] (i in [0, N]), R[i] and S[i] (i in [0, N-1]) are second derivatives
    of the stage Lagrangians in the primal variables, so they carry the
    multiplier-weighted dynamics curvature, not just the cost curvature.
    A[i], B[i], G[i] are dynamics Jacobians in x, u, d.  E[i] (i in [0, N],
    terminal included) and F[i] (i in [0, N-1]) couple primals to stage
    data.  T is the initial-state map.

    Q, R, S, A and B are stacked arrays with a leading stage axis, of
    shapes (N + 1, n_x, n_x), (N, n_u, n_u), (N, n_x, n_u), (N, n_x, n_x)
    and (N, n_x, n_u); the constructor stacks lists of per-stage blocks
    into copies.  E, F and G stay per-stage lists, because the data size
    may differ by stage.
    """

    dims: Dimensions
    T: Array
    Q: Array
    R: Array
    S: Array
    E: list
    F: list
    A: Array
    B: Array
    G: list

    def __post_init__(self):
        N, n_x, n_u = self.dims.N, self.dims.n_x, self.dims.n_u
        for name, shape in (
            ("Q", (N + 1, n_x, n_x)),
            ("R", (N, n_u, n_u)),
            ("S", (N, n_x, n_u)),
            ("A", (N, n_x, n_x)),
            ("B", (N, n_x, n_u)),
        ):
            M = np.array(getattr(self, name), dtype=float)
            if M.shape != shape:
                raise ConfigurationError(f"StageBlocks.{name}: expected shape {shape}, got {M.shape}")
            setattr(self, name, M)
        self.E, self.F, self.G = list(self.E), list(self.F), list(self.G)

    @classmethod
    def time_invariant(
        cls,
        A: Array,
        B: Array,
        Q: Array,
        R: Array,
        N: int,
        *,
        S: Array | None = None,
        T: Array | None = None,
        Q_terminal: Array | None = None,
        E: Array | None = None,
        F: Array | None = None,
        G: Array | None = None,
        n_d: int = 0,
    ) -> "StageBlocks":
        """Replicate constant blocks along a horizon; handy for certificate
        studies that never touch oracles."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n_x = A.shape[0]
        B = np.asarray(B, dtype=float).reshape(n_x, -1)
        n_u = B.shape[1]
        Q = _sym(np.atleast_2d(np.asarray(Q, dtype=float)))
        R = _sym(np.asarray(R, dtype=float).reshape(n_u, n_u))
        S = np.zeros((n_x, n_u)) if S is None else np.asarray(S, dtype=float).reshape(n_x, n_u)
        Qf = Q if Q_terminal is None else _sym(np.atleast_2d(np.asarray(Q_terminal, dtype=float)))
        T = np.zeros((0, n_x)) if T is None else np.atleast_2d(np.asarray(T, dtype=float))
        n_0 = T.shape[0]
        if E is not None:
            n_d = np.asarray(E).shape[1]
        E = np.zeros((n_x, n_d)) if E is None else np.asarray(E, dtype=float).reshape(n_x, n_d)
        F = np.zeros((n_u, n_d)) if F is None else np.asarray(F, dtype=float).reshape(n_u, n_d)
        G = np.zeros((n_x, n_d)) if G is None else np.asarray(G, dtype=float).reshape(n_x, n_d)
        dims = Dimensions(N, n_x, n_u, (n_0,) + (n_d,) * (N + 1), n_0)
        return cls(
            dims=dims,
            T=T,
            Q=np.concatenate([np.broadcast_to(Q, (N, n_x, n_x)), Qf[None]]),
            R=np.broadcast_to(R, (N, n_u, n_u)),
            S=np.broadcast_to(S, (N, n_x, n_u)),
            E=[E.copy() for _ in range(N)] + [np.zeros((n_x, n_d))],
            F=[F.copy() for _ in range(N)],
            A=np.broadcast_to(A, (N, n_x, n_x)),
            B=np.broadcast_to(B, (N, n_x, n_u)),
            G=[G.copy() for _ in range(N)],
        )


@dataclass(frozen=True)
class SolveOptions:
    tol_kkt: float = 1e-9
    max_iter: int = 100
    reg0: float = 1e-8
    reg_max: float = 1e-2
    ls_beta: float = 0.5
    ls_sigma: float = 1e-4

    def __post_init__(self):
        if not self.tol_kkt > 0:  # NaN included
            raise ConfigurationError("tol_kkt must be positive")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be >= 1")


@dataclass
class SolveResult:
    trajectory: PrimalDualTrajectory
    iterations: int
    residual_norm: float
    converged: bool
    regularization: float = 0.0


# ---------------------------------------------------------------------------
# derivative sourcing: stage-batched oracles when registered, else per-stage
# analytic oracles, else finite differences


class _Stages(NamedTuple):
    """Stages 0..N-1 of P points: row k N + i of X, U, Lam and D holds x_i,
    u_i, lam_i and d_i of point k; D is None when data sizes differ."""

    X: Array
    U: Array
    Lam: Array
    data: list
    D: Array | None


def _stages(p: DOProblem, W: Array, data: list) -> _Stages:
    dims = p.dims
    rows = W[:, dims.n_0 : dims.w_offsets[-2]].reshape(-1, 2 * dims.n_x + dims.n_u)
    D = np.concatenate([d.stage_rows() for d in data]) if dims.stage_nd is not None else None
    return _Stages(rows[:, : dims.n_x], rows[:, dims.n_x : dims.n_z], rows[:, dims.n_z :], data, D)


def _points(p: DOProblem, traj, data):
    """(W, data, single): one point, or a batch given as a (P, n_w) array
    and P data trajectories (see `kkt_residual`), as rows of W and a list."""
    if isinstance(traj, PrimalDualTrajectory):
        check_dimensions(p, traj, data)
        return traj.vector[None], [data], True
    W, data = np.asarray(traj, dtype=float), list(data)
    if W.shape != (len(data), p.dims.n_w):
        raise ConfigurationError(f"expected {len(data)} stage-ordered vectors of length {p.dims.n_w}")
    for d in data:
        check_dimensions(p, None, d)
    return W, data, False


def _stage_terms(p: DOProblem, st: _Stages, per_stage, batched, shapes, with_lam: bool = False):
    """The terms of stages 0..N-1 of every point, each with a leading axis
    of the rows of `st`.

    A registered stage-batched oracle, `batched(X, U, D[, Lam])`, gives
    them in one call when every stage's data has one size; otherwise
    `per_stage(p, i, x_i, u_i, d_i[, lam_i])` (an analytic oracle or finite
    differences) runs at each row and its results are stacked.  `shapes`
    gives each term's per-stage shape, with "d" for the data size; such a
    term stays a per-row list when the data size differs by stage.  A
    single term is returned in a one-element list."""
    N, nd, rows = p.dims.N, p.dims.stage_nd, len(st.X)
    rest = (st.Lam,) if with_lam else ()
    if batched is not None and st.D is not None:
        out = batched(st.X, st.U, st.D, *rest)
    else:
        out = [
            per_stage(p, r % N, st.X[r], st.U[r], st.data[r // N][r % N], *(t[r] for t in rest))
            for r in range(rows)
        ]
        if len(shapes) > 1:
            out = zip(*out)
    terms = []
    for t, shape in zip([out] if len(shapes) == 1 else out, shapes, strict=True):
        if nd is None and "d" in shape:
            terms.append(list(t))
        else:
            terms.append(np.asarray(t, dtype=float).reshape(rows, *(nd if k == "d" else k for k in shape)))
    return terms


def _stage_jacobians(p: DOProblem, st: _Stages):
    """A, B, G of stages 0..N-1; see `_stage_terms`."""
    n_x, n_u = p.dims.n_x, p.dims.n_u
    shapes = ((n_x, n_x), (n_x, n_u), (n_x, "d"))
    return _stage_terms(p, st, _dynamics_jacobians, p.oracles.dynamics_jac_batch, shapes)


def _add(a, b):
    """a + b for stacked terms, or stage by stage for per-stage lists."""
    return a + b if isinstance(a, np.ndarray) else [x + y for x, y in zip(a, b, strict=True)]


def _split_point(dims: Dimensions, nd_i: int, t: Array):
    return t[: dims.n_x], t[dims.n_x : dims.n_z], t[dims.n_z :]


def _dynamics(p: DOProblem, i: int, x, u, d_i):
    return _as_vector(p.oracles.dynamics(i, x, u, d_i), p.dims.n_x, f"f[{i}]")


def _dynamics_jacobians(p: DOProblem, i: int, x, u, d_i):
    orc = p.oracles
    if orc.dynamics_jac is not None:
        A, B, G = orc.dynamics_jac(i, x, u, d_i)
        return (
            np.asarray(A, dtype=float).reshape(p.dims.n_x, p.dims.n_x),
            np.asarray(B, dtype=float).reshape(p.dims.n_x, p.dims.n_u),
            np.asarray(G, dtype=float).reshape(p.dims.n_x, p.dims.nd(i)),
        )
    t = np.concatenate([x, u, d_i])
    fun = lambda tt: p.oracles.dynamics(i, *_split_point(p.dims, d_i.size, tt))
    J = diff.jacobian(fun, t, diff.FIRST_ORDER)
    return (
        J[:, : p.dims.n_x],
        J[:, p.dims.n_x : p.dims.n_z],
        J[:, p.dims.n_z :],
    )


def _stage_cost_gradients(p: DOProblem, i: int, x, u, d_i):
    orc = p.oracles
    if orc.stage_cost_grad is not None:
        gx, gu = orc.stage_cost_grad(i, x, u, d_i)
        return np.asarray(gx, dtype=float).reshape(p.dims.n_x), np.asarray(gu, dtype=float).reshape(p.dims.n_u)
    t = np.concatenate([x, u, d_i])
    fun = lambda tt: orc.stage_cost(i, *_split_point(p.dims, d_i.size, tt))
    g = diff.gradient(fun, t, diff.FIRST_ORDER)
    return g[: p.dims.n_x], g[p.dims.n_x : p.dims.n_z]


def _terminal_cost_gradient(p: DOProblem, x, d_N):
    orc = p.oracles
    if orc.terminal_cost_grad is not None:
        return np.asarray(orc.terminal_cost_grad(x, d_N), dtype=float).reshape(p.dims.n_x)
    t = np.concatenate([x, d_N])
    fun = lambda tt: orc.terminal_cost(tt[: p.dims.n_x], tt[p.dims.n_x :])
    return diff.gradient(fun, t, diff.FIRST_ORDER)[: p.dims.n_x]


def _stage_cost_hessians(p: DOProblem, i: int, x, u, d_i):
    dims = p.dims
    orc = p.oracles
    nd_i = d_i.size
    if orc.stage_cost_hess is not None:
        Q, S, R, E, F = orc.stage_cost_hess(i, x, u, d_i)
        return (
            _sym(np.asarray(Q, dtype=float).reshape(dims.n_x, dims.n_x)),
            np.asarray(S, dtype=float).reshape(dims.n_x, dims.n_u),
            _sym(np.asarray(R, dtype=float).reshape(dims.n_u, dims.n_u)),
            np.asarray(E, dtype=float).reshape(dims.n_x, nd_i),
            np.asarray(F, dtype=float).reshape(dims.n_u, nd_i),
        )
    t = np.concatenate([x, u, d_i])
    ix = np.arange(dims.n_x)
    iu = np.arange(dims.n_x, dims.n_z)
    idd = np.arange(dims.n_z, dims.n_z + nd_i)
    if orc.stage_cost_grad is not None:
        grad_z = lambda tt: np.concatenate(
            orc.stage_cost_grad(i, *_split_point(dims, nd_i, tt))
        )
        Jg = diff.hessian_via_gradient(grad_z, np.arange(t.size), t)
        Q = _sym(Jg[: dims.n_x, : dims.n_x])
        R = _sym(Jg[dims.n_x : dims.n_z, dims.n_x : dims.n_z])
        S = 0.5 * (Jg[: dims.n_x, dims.n_x : dims.n_z] + Jg[dims.n_x : dims.n_z, : dims.n_x].T)
        E = Jg[: dims.n_x, dims.n_z :]
        F = Jg[dims.n_x : dims.n_z, dims.n_z :]
        return Q, S, R, E, F
    fun = lambda tt: orc.stage_cost(i, *_split_point(dims, nd_i, tt))
    Q = diff.hessian_block(fun, ix, ix, t)
    S = diff.hessian_block(fun, ix, iu, t)
    R = diff.hessian_block(fun, iu, iu, t)
    E = diff.hessian_block(fun, ix, idd, t)
    F = diff.hessian_block(fun, iu, idd, t)
    return Q, S, R, E, F


def _terminal_cost_hessians(p: DOProblem, x, d_N):
    dims = p.dims
    orc = p.oracles
    nd_N = d_N.size
    if orc.terminal_cost_hess is not None:
        Q, E = orc.terminal_cost_hess(x, d_N)
        return (
            _sym(np.asarray(Q, dtype=float).reshape(dims.n_x, dims.n_x)),
            np.asarray(E, dtype=float).reshape(dims.n_x, nd_N),
        )
    t = np.concatenate([x, d_N])
    ix = np.arange(dims.n_x)
    idd = np.arange(dims.n_x, dims.n_x + nd_N)
    if orc.terminal_cost_grad is not None:
        grad = lambda tt: orc.terminal_cost_grad(tt[: dims.n_x], tt[dims.n_x :])
        Jg = diff.hessian_via_gradient(grad, np.arange(t.size), t)
        return _sym(Jg[:, : dims.n_x]), Jg[:, dims.n_x :]
    fun = lambda tt: orc.terminal_cost(tt[: dims.n_x], tt[dims.n_x :])
    return diff.hessian_block(fun, ix, ix, t), diff.hessian_block(fun, ix, idd, t)


def _dynamics_curvature(p: DOProblem, i: int, x, u, d_i, lam_i):
    """Second-derivative blocks of lam_i @ f_i in (x, u, d)."""
    dims = p.dims
    nd_i = d_i.size
    zero = (
        np.zeros((dims.n_x, dims.n_x)),
        np.zeros((dims.n_x, dims.n_u)),
        np.zeros((dims.n_u, dims.n_u)),
        np.zeros((dims.n_x, nd_i)),
        np.zeros((dims.n_u, nd_i)),
    )
    if not np.any(lam_i):
        return zero
    orc = p.oracles
    if orc.dynamics_hess_vec is not None:
        Hxx, Hxu, Huu, Hxd, Hud = orc.dynamics_hess_vec(i, x, u, d_i, lam_i)
        return (
            _sym(np.asarray(Hxx, dtype=float).reshape(dims.n_x, dims.n_x)),
            np.asarray(Hxu, dtype=float).reshape(dims.n_x, dims.n_u),
            _sym(np.asarray(Huu, dtype=float).reshape(dims.n_u, dims.n_u)),
            np.asarray(Hxd, dtype=float).reshape(dims.n_x, nd_i),
            np.asarray(Hud, dtype=float).reshape(dims.n_u, nd_i),
        )
    t = np.concatenate([x, u, d_i])
    if orc.dynamics_jac is not None:
        # FD of the analytic gradient map d(lam @ f)/d(x, u, d) = [A; B;
        # G]^T lam in (x, u) only: its d rows hold the mixed (x, u)-d
        # blocks, as second derivatives are symmetric
        def grad(tt):
            xx, uu, dd = _split_point(dims, nd_i, tt)
            A, B, G = _dynamics_jacobians(p, i, xx, uu, dd)
            return np.concatenate([A.T @ lam_i, B.T @ lam_i, G.T @ lam_i])

        Jg = diff.hessian_via_gradient(grad, np.arange(dims.n_z), t)
        Hxx = _sym(Jg[: dims.n_x, : dims.n_x])
        Huu = _sym(Jg[dims.n_x : dims.n_z, dims.n_x :])
        Hxu = 0.5 * (Jg[: dims.n_x, dims.n_x :] + Jg[dims.n_x : dims.n_z, : dims.n_x].T)
        Hxd = Jg[dims.n_z :, : dims.n_x].T
        Hud = Jg[dims.n_z :, dims.n_x :].T
        return Hxx, Hxu, Huu, Hxd, Hud
    fun = lambda tt: float(lam_i @ np.asarray(orc.dynamics(i, *_split_point(dims, nd_i, tt))))
    ix = np.arange(dims.n_x)
    iu = np.arange(dims.n_x, dims.n_z)
    idd = np.arange(dims.n_z, dims.n_z + nd_i)
    return (
        diff.hessian_block(fun, ix, ix, t),
        diff.hessian_block(fun, ix, iu, t),
        diff.hessian_block(fun, iu, iu, t),
        diff.hessian_block(fun, ix, idd, t),
        diff.hessian_block(fun, iu, idd, t),
    )


def linearize(p: DOProblem, traj, data, *, jacobians: list | None = None):
    """All per-stage derivative blocks at (traj, data).  The Q/S/R/E/F blocks
    differentiate the stage Lagrangians, so they include the
    multiplier-weighted dynamics curvature.  `jacobians`, when given, holds
    the per-stage (A, B, G) that `kkt_residual` evaluated at this same
    (traj, data); they are used instead of evaluating the dynamics Jacobian
    again.  A batch of points (see `kkt_residual`) gives a list with one
    `StageBlocks` per point."""
    W, data, single = _points(p, traj, data)
    dims, orc = p.dims, p.oracles
    n_x, n_u, N = dims.n_x, dims.n_u, dims.N
    st = _stages(p, W, data)
    shapes = ((n_x, n_x), (n_x, n_u), (n_u, n_u), (n_x, "d"), (n_u, "d"))
    if jacobians is None:
        A, B, G = _stage_jacobians(p, st)
    else:
        A, B, G = zip(*jacobians) if single else jacobians[0]
    Qc, Sc, Rc, Ec, Fc = _stage_terms(p, st, _stage_cost_hessians, orc.stage_cost_hess_batch, shapes)
    Hxx, Hxu, Huu, Hxd, Hud = _stage_terms(
        p, st, _dynamics_curvature, orc.dynamics_hess_vec_batch, shapes, with_lam=True
    )
    Q, R, S, E, F = _sym(Qc + Hxx), _sym(Rc + Huu), Sc + Hxu, _add(Ec, Hxd), _add(Fc, Hud)
    blocks = []
    for k, (w, d) in enumerate(zip(W, data)):
        QN, EN = _terminal_cost_hessians(p, w[dims.w_offsets[-2] :], d[N])
        s = slice(k * N, (k + 1) * N)
        Qk = np.concatenate([Q[s], _sym(QN)[None]])
        blocks.append(StageBlocks(dims, p.T.copy(), Qk, R[s], S[s], [*E[s], EN], F[s], A[s], B[s], G[s]))
    return blocks[0] if single else blocks


# ---------------------------------------------------------------------------
# assembly: dense H and J (for certificates), sparse mixed Hessian


def primal_offsets(dims: Dimensions):
    """Column offsets of x_i (i in [0, N]) and u_i (i in [0, N-1]) in the
    stacked primal ordering."""
    x_off = [i * dims.n_z for i in range(dims.N + 1)]
    u_off = [i * dims.n_z + dims.n_x for i in range(dims.N)]
    return x_off, u_off


def assemble_jacobian(blocks: StageBlocks) -> Array:
    """Constraint Jacobian: leading T row block, then stage rows
    [-A_i, -B_i, I] in the primal column ordering."""
    dims = blocks.dims
    J = np.zeros((dims.n_dual, dims.n_primal))
    x_off, u_off = primal_offsets(dims)
    if dims.n_0 > 0:
        J[: dims.n_0, x_off[0] : x_off[0] + dims.n_x] = blocks.T
    for i in range(dims.N):
        r = dims.n_0 + i * dims.n_x
        J[r : r + dims.n_x, x_off[i] : x_off[i] + dims.n_x] = -blocks.A[i]
        if dims.n_u > 0:
            J[r : r + dims.n_x, u_off[i] : u_off[i] + dims.n_u] = -blocks.B[i]
        J[r : r + dims.n_x, x_off[i + 1] : x_off[i + 1] + dims.n_x] = np.eye(dims.n_x)
    return J


def sparse_jacobian(blocks: StageBlocks) -> scipy.sparse.csr_array:
    """The constraint Jacobian of `assemble_jacobian` as a sparse CSR
    matrix with only its nonzero entries stored, built from the stacked
    blocks in O(N n_x (n_x + n_u)) memory."""
    dims = blocks.dims
    N, n_x, n_u, n_z, n_0 = dims.N, dims.n_x, dims.n_u, dims.n_z, dims.n_0
    k = np.arange(N)[:, None, None]
    row = n_0 + k * n_x + np.arange(n_x)[:, None]  # (N, n_x, 1)
    jx, ju = np.arange(n_x), np.arange(n_u)
    parts = (
        # row block i: [-A_i, -B_i, I] on columns x_i, u_i, x_{i+1}
        (np.arange(n_0)[:, None], jx, blocks.T),
        (row, k * n_z + jx, -blocks.A),
        (row, k * n_z + n_x + ju, -blocks.B),
        (row[:, :, 0], (k[:, :, 0] + 1) * n_z + jx, np.ones((N, n_x))),
    )
    rows, cols, vals = zip(*(np.broadcast_arrays(r, c, v) for r, c, v in parts))
    J = scipy.sparse.coo_array(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]), np.concatenate([c.ravel() for c in cols]))),
        shape=(dims.n_dual, dims.n_primal),
    ).tocsr()
    J.eliminate_zeros()
    return J


def assemble_hessian(blocks: StageBlocks) -> Array:
    """Primal Hessian: block diagonal in (Q_i, R_i) with S_i coupling inside
    each stage, terminal Q_N last."""
    dims = blocks.dims
    H = np.zeros((dims.n_primal, dims.n_primal))
    x_off, u_off = primal_offsets(dims)
    for i in range(dims.N):
        xs = slice(x_off[i], x_off[i] + dims.n_x)
        us = slice(u_off[i], u_off[i] + dims.n_u)
        H[xs, xs] = blocks.Q[i]
        if dims.n_u > 0:
            H[us, us] = blocks.R[i]
            H[xs, us] = blocks.S[i]
            H[us, xs] = blocks.S[i].T
    xs = slice(x_off[dims.N], x_off[dims.N] + dims.n_x)
    H[xs, xs] = blocks.Q[dims.N]
    return H


def _block_indices(r0, c0, nr, nc):
    """Row and column indices of the entries of blocks of shape (nr[k],
    nc[k]) whose first entries sit at (r0[k], c0[k]), each block in C
    order, one block after another; scalars broadcast."""
    r0, c0, nr, nc = np.broadcast_arrays(*(np.atleast_1d(v) for v in (r0, c0, nr, nc)))
    size = nr * nc
    blk = np.repeat(np.arange(size.size), size)
    k = np.arange(blk.size) - (np.cumsum(size) - size)[blk]
    return r0[blk] + k // nc[blk], c0[blk] + k % nc[blk]


def assemble_mixed_hessian(blocks: StageBlocks) -> scipy.sparse.csr_array:
    """Full second derivative of the Lagrangian as a sparse CSR matrix: rows
    over the stacked primal-dual variables, columns over the stacked
    (primal-dual, data) variables, both interleaved by stage.  Contains the
    stage Hessian blocks, the constraint-Jacobian couplings, and the data
    couplings E_i, F_i, G_i plus the identity pairing lam(-1) with d_{-1}.
    Zero entries inside a block are stored too."""
    dims = blocks.dims
    N, n_x, n_u, n_z, n_0 = dims.N, dims.n_x, dims.n_u, dims.n_z, dims.n_0
    nd = np.array(dims.n_d)  # d_{-1}, ..., d_N
    # rows of x_i (i in [0, N]), u_i and lam_i in the stage-ordered vector
    rx = np.array(dims.w_offsets[1:-1])
    ru, rl = rx[:N] + n_x, rx[:N] + n_z
    # columns of x_i, u_i, lam_i and d_i in [lam_{-1}; d_{-1}; x_0; u_0;
    # lam_0; d_0; ...; x_N; d_N]
    cx = n_0 + nd[0] + np.arange(N + 1) * (2 * n_x + n_u) + np.r_[0, np.cumsum(nd[1:-1])]
    cu, cl = cx[:N] + n_x, cx[:N] + n_z
    cd = np.r_[cl + n_x, cx[N] + n_x]
    minus_I = np.broadcast_to(-np.eye(n_x), (N, n_x, n_x))
    parts = (
        # initial constraint couplings
        (0, cx[0], n_0, n_x, -blocks.T[None]),
        (rx[0], 0, n_x, n_0, -blocks.T.T[None]),
        (0, n_0, n_0, n_0, np.eye(n_0)[None]),
        # stage Hessian, terminal Q_N included
        (rx, cx, n_x, n_x, blocks.Q),
        (rx[:N], cu, n_x, n_u, blocks.S),
        (ru, cx[:N], n_u, n_x, np.swapaxes(blocks.S, 1, 2)),
        (ru, cu, n_u, n_u, blocks.R),
        # dynamics couplings
        (rx[:N], cl, n_x, n_x, np.swapaxes(blocks.A, 1, 2)),
        (ru, cl, n_u, n_x, np.swapaxes(blocks.B, 1, 2)),
        (rl, cx[:N], n_x, n_x, blocks.A),
        (rl, cu, n_x, n_u, blocks.B),
        (rx[1:], cl, n_x, n_x, minus_I),
        (rl, cx[1:], n_x, n_x, minus_I),
        # data couplings, terminal E_N included
        (rx, cd, n_x, nd[1:], blocks.E),
        (ru, cd[:N], n_u, nd[1:-1], blocks.F),
        (rl, cd[:N], n_x, nd[1:-1], blocks.G),
    )
    rows, cols = zip(*(_block_indices(*part[:4]) for part in parts))
    vals = [
        V.ravel() if isinstance(V, np.ndarray) else np.concatenate([M.ravel() for M in V])
        for *_, V in parts
    ]
    return scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dims.n_w, cd[N] + nd[-1]),
    ).tocsr()


def kkt_residual(p: DOProblem, traj, data, *, jacobians: list | None = None) -> Array:
    """Gradient of the Lagrangian in `traj.vector`, so in the same stage
    order; zero exactly at stationary points.  The multiplier entries are
    the negated constraint residuals.  Each stage's dynamics Jacobians
    (A, B, G) are appended to `jacobians` when it is given, for `linearize`
    at the same point.

    For a batch of P points, the rows of a (P, n_w) array `traj` with P
    data trajectories, all P N stages go through each batched oracle at
    once, the residuals are rows too, and one (A, B, G) stacked over the
    P N stage rows is appended to `jacobians`."""
    W, data, single = _points(p, traj, data)
    dims, orc = p.dims, p.oracles
    n_x, n_u, N, T = dims.n_x, dims.n_u, dims.N, p.T
    st = _stages(p, W, data)
    (f,) = _stage_terms(p, st, _dynamics, orc.dynamics_batch, ((n_x,),))
    A, B, G = _stage_jacobians(p, st)
    gx, gu = _stage_terms(p, st, _stage_cost_gradients, orc.stage_cost_grad_batch, ((n_x,), (n_u,)))
    if jacobians is not None:
        jacobians.extend(zip(A, B, G)) if single else jacobians.append((A, B, G))
    P, end = len(W), dims.w_offsets[-2]
    X, Lam = st.X.reshape(P, N, n_x), st.Lam.reshape(P, N, n_x)
    x_N, lam_init = W[:, end:], W[:, : dims.n_0]
    r = np.empty((P, dims.n_w))
    rows = r[:, dims.n_0 : end].reshape(P, N, -1)
    # lam_{i-1} enters x_i's row; T^T lam_{-1} in place of it at stage 0
    lam_prev = np.concatenate([np.array([T.T @ lam for lam in lam_init])[:, None], Lam[:, :-1]], axis=1)
    rows[..., :n_x] = (gx + (st.Lam[:, None, :] @ A)[:, 0]).reshape(P, N, n_x) - lam_prev
    rows[..., n_x : n_x + n_u] = (gu + (st.Lam[:, None, :] @ B)[:, 0]).reshape(P, N, n_u)
    rows[..., n_x + n_u :] = f.reshape(P, N, n_x) - np.concatenate([X[:, 1:], x_N[:, None]], axis=1)
    for k, d in enumerate(data):
        r[k, : dims.n_0] = d[-1] - T @ X[k, 0]
        r[k, end:] = _terminal_cost_gradient(p, x_N[k], d[N]) - Lam[k, -1]
    return r[0] if single else r


# ---------------------------------------------------------------------------
# symmetric indefinite solve with inertia control


_sytrf, _sytrf_lwork, _sytrs = scipy.linalg.get_lapack_funcs(
    ("sytrf", "sytrf_lwork", "sytrs"), dtype=np.float64
)


@functools.lru_cache(maxsize=None)
def _sytrf_lwork_of(n: int) -> int:
    """Optimal ?sytrf workspace for order n; it depends on n only."""
    return int(_sytrf_lwork(n, lower=1)[0])


def _bunch_kaufman(W: Array):
    """Lower Bunch-Kaufman factor of the symmetric W as LAPACK ?sytrf packs
    it: (ldu, ipiv, info).  Called as SciPy's ldl() calls it (optimal
    workspace), so D is the same bit for bit.  A Fortran-ordered W is
    overwritten."""
    ldu, ipiv, info = _sytrf(W, lwork=_sytrf_lwork_of(W.shape[0]), lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"?sytrf: illegal value in argument {-info}")
    return ldu, ipiv, info


def _d_eigs(diag: Array, sub: Array, ipiv: Array) -> Array:
    """Eigenvalues of the 1x1/2x2-block-diagonal D of a lower Bunch-Kaufman
    factor from its diagonal, its first subdiagonal (sub[k] = D[k+1, k])
    and LAPACK's ipiv, in O(n).  A 2x2 block on rows k, k+1 is marked by
    ipiv[k] = ipiv[k+1] < 0, so the negative entries come in adjacent pairs
    and every other one opens a block."""
    two = np.flatnonzero(ipiv < 0)[::2]
    one = np.ones(ipiv.size, dtype=bool)
    one[two] = one[two + 1] = False
    a, b, c = diag[two], sub[two], diag[two + 1]
    # symmetric 2x2: discriminant (a-c)^2 + 4b^2 is exactly nonnegative
    disc = np.hypot(a - c, 2.0 * b)
    return np.concatenate([diag[one], 0.5 * (a + c + disc), 0.5 * (a + c - disc)])


@dataclass
class BlockFactor:
    """Block LDL^T factor of the shifted KKT matrix K + reg * I_primal of
    one `StageBlocks`, made by `factor_kkt`.

    Block k of the stage-ordered vector holds its rows starts[k] to
    starts[k + 1] (starts[-1] is the order n of K); ldus[k] and ipivs[k]
    are the ?sytrf factor of its Schur complement D_k.  For k < N, Cs[k]
    is its coupling C = [0, A_k, B_k] to block k + 1, the transposed view
    of the Fortran-ordered slab [C^T | .] of the factor pass, and Ys[k] =
    D_k^{-1} C^T.  eigs are the eigenvalues of the D's, and inertia is the
    number of them above and below the gate's tolerance
    max(|eigs|.max(), 1) n eps (K's inertia, by Haynsworth additivity); the
    rest count as zero.  forward, when the factor pass carried a
    right-hand side, is its forward substitution, until `solve` finishes it.
    """

    n_x: int
    starts: list
    ldus: list
    ipivs: list
    Cs: list
    Ys: list
    eigs: Array
    inertia: tuple
    forward: tuple | None = None

    def solve(self, rhs: Array | None = None) -> Array | None:
        """(K + reg * I_primal)^{-1} rhs for a stage-ordered vector, or for
        each column of an (n, c) matrix; None when rhs or the solution is
        not finite.  Without rhs, the rhs carried by the factor pass is
        finished; given here it takes the factor pass's (m_k, n_x + c) slab
        shapes, so both agree bit for bit."""
        if rhs is not None and not np.isfinite(rhs).all():
            return None
        y = self._solve(rhs)
        return y if np.isfinite(y).all() else None

    def _solve(self, rhs: Array | None) -> Array:
        """`solve` without the finiteness checks."""
        n_x, st = self.n_x, self.starts
        if rhs is None:
            y, self.forward = self.forward, None
        else:
            # forward substitution: z_k = D_k^{-1} y_k, y_{k+1}[lam_k] -= C z_k,
            # on the columns of Y, a 2-D view of y
            y = np.array(rhs, dtype=float)
            Y = y.reshape(y.shape[0], -1)
            width = n_x + Y.shape[1]
            for ldu, ipiv, C, a, b in zip(self.ldus, self.ipivs, self.Cs, st, st[1:]):
                slab = np.zeros((b - a, width), order="F")
                slab[:, n_x:] = Y[a:b]
                sol = _sytrs(ldu, ipiv, slab, lower=1)[0]
                Y[a:b] = sol[:, n_x:]
                Y[b : b + n_x] -= (C @ sol)[:, n_x:]
            y[st[-2] :] = _sytrs(self.ldus[-1], self.ipivs[-1], y[st[-2] :], lower=1)[0]
        # backward substitution: x_N = z_N, x_k = z_k - Y_k x_{k+1}[lam_k]
        for Yk, a, b in zip(self.Ys[::-1], st[-3::-1], st[-2::-1]):
            y[a:b] -= Yk @ y[b : b + n_x]
        return y


def factor_kkt(blocks: StageBlocks, reg: float = 0.0, rhs: Array | None = None) -> BlockFactor | None:
    """Block LDL^T factor of K + reg * I_primal for the KKT matrix K of
    `blocks`, the Hessian of the Lagrangian in the stage-ordered
    primal-dual vector, without forming K; I_primal is one on the x and u
    entries.  None when K has a non-finite entry or a block an exact zero
    pivot.  A stage-ordered `rhs` (a vector or an (n, c) matrix of
    columns), when given, rides along in the last columns of each slab,
    and `solve()` then only runs its backward substitution.

    Block k holds [lam_{k-1}; x_k; u_k]: block 0 opens with lam_{-1} and
    its coupling -T to x_0, block N is [lam_{N-1}; x_N].  Block k+1
    couples to block k only through the rows lam_k, by C = [0, A_k, B_k].
    The Schur complements D_0 = K_00 and D_{k+1} = K_{k+1,k+1} - C D_k^{-1}
    C^T (which changes only the lam_k corner) each get one Bunch-Kaufman
    factor.  By Haynsworth additivity the inertia of K is the sum of the
    inertias of the blocks' D.  Costs O(N (2 n_x + n_u)^3) time and
    O(N (2 n_x + n_u)^2) memory.

    The elimination runs forward in time.  Backward (Riccati) order lets
    uncontrollable modes inflate the blocks: on the quadrotor with q = b =
    0 their eigenvalues spread over 1e-8..5e8 while K's lie in 2e-10..7,
    and the gate's tolerance then rejects K at every regularization.  The
    price of forward order: a stage whose control has no curvature of its
    own (R_k = S_k = 0) gives an exactly singular block, so K is rejected
    at reg = 0 even when it is regular.
    """
    dims = blocks.dims
    n_x, n_u, N = dims.n_x, dims.n_u, dims.N
    # Every block without its Schur corner, padded to the order
    # m = 2 n_x + n_u of an interior block [lam; x; u]: block 0 keeps the
    # last n_0 of the lam rows for lam_{-1}, block N the first 2 n_x rows.
    # Each C^T = [0; A_k^T; B_k^T] of the forward substitution goes into
    # a Fortran-ordered (m, n_x + c) slab, its last c columns kept for y_k.
    m, s0 = 2 * n_x + n_u, n_x - dims.n_0
    lam, x, u = slice(0, n_x), slice(n_x, 2 * n_x), slice(2 * n_x, m)
    Ds = np.zeros((N + 1, m, m))
    Ds[:, x, x] = blocks.Q
    Ds[:N, x, u] = blocks.S
    Ds[:N, u, x] = np.swapaxes(blocks.S, 1, 2)
    Ds[:N, u, u] = blocks.R
    Ds[1:, x, lam] = Ds[1:, lam, x] = -np.eye(n_x)
    Ds[0, x, s0:n_x] = -blocks.T.T
    Ds[0, s0:n_x, x] = -blocks.T
    if reg != 0.0:
        d = np.arange(n_x, m)
        Ds[:, d, d] += reg
    if not np.isfinite(Ds).all():
        return None
    y = None if rhs is None else np.array(rhs, dtype=float)
    Y = None if y is None else y.reshape(y.shape[0], -1)  # a 2-D view of y
    CTs = np.zeros((N, n_x + (1 if Y is None else Y.shape[1]), m)).transpose(0, 2, 1)
    CTs[:, x, :n_x] = np.swapaxes(blocks.A, 1, 2)
    CTs[:, u, :n_x] = np.swapaxes(blocks.B, 1, 2)
    ldus, ipivs, diags, subs, starts, Cs, Ys = [], [], [], [], [], [], []
    corners = np.empty((N, n_x, n_x))  # C D_k^{-1} C^T of each block k < N
    a = 0
    for k in range(N + 1):
        rows = slice(s0, m) if k == 0 else slice(0, 2 * n_x) if k == N else slice(0, m)
        D = np.array(Ds[k, rows, rows], order="F")
        if k > 0:
            D[:n_x, :n_x] = -corners[k - 1]
        ldu, ipiv, info = _bunch_kaufman(D)
        if info > 0:  # D has an exact zero pivot
            return None
        ldus.append(ldu)
        ipivs.append(ipiv)
        diags.append(ldu.diagonal())
        subs += [ldu.diagonal(-1), np.zeros(1)]  # padded to the block size
        starts.append(a)
        b = a + D.shape[0]
        # one ?sytrs gives Y = D_k^{-1} C^T and, for a carried rhs, z_k
        if k < N:
            CT_y = CTs[k, rows]
            if y is not None:
                CT_y[:, n_x:] = Y[a:b]
            sol, _ = _sytrs(ldu, ipiv, CT_y, lower=1)
            C = CT_y[:, :n_x].T
            C_sol = C @ sol
            Cs.append(C)
            Ys.append(sol[:, :n_x])
            corners[k] = C_sol[:, :n_x]
            if y is not None:
                Y[a:b] = sol[:, n_x:]
                Y[b : b + n_x] -= C_sol[:, n_x:]
        elif y is not None:
            y[a:b], _ = _sytrs(ldu, ipiv, y[a:b], lower=1)
        a = b
    starts.append(a)
    if not np.isfinite(corners).all():  # a non-finite D_{k+1} was factored
        return None
    # a 2x2 pivot never straddles two blocks, so one pass reads them all
    eigs = _d_eigs(np.concatenate(diags), np.concatenate(subs), np.concatenate(ipivs))
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    tol = max(scale, 1.0) * a * np.finfo(float).eps
    inertia = (int(np.sum(eigs > tol)), int(np.sum(eigs < -tol)))
    return BlockFactor(n_x, starts, ldus, ipivs, Cs, Ys, eigs, inertia, y)


def _jacobian_rows(jacs: list, N: int) -> tuple:
    """Stacked (A, B, G) of points given as (the (A, B, G) of a residual
    call, index in it): views when consecutive in one call, else copies."""
    src, start = jacs[0]
    if all(s is src and i == start + n for n, (s, i) in enumerate(jacs)):
        return tuple(t[start * N : (start + len(jacs)) * N] for t in src)
    parts = [[s[t][i * N : (i + 1) * N] for s, i in jacs] for t in range(3)]
    return tuple(np.concatenate(p) if isinstance(p[0], np.ndarray) else [m for r in p for m in r] for p in parts)


def _same_matrix(a: StageBlocks, b: StageBlocks) -> bool:
    """Whether T, Q, R, S, A and B, all that `factor_kkt` reads, are equal
    bit for bit in a and b."""
    return all(np.array_equal(getattr(a, f).view(np.int64), getattr(b, f).view(np.int64)) for f in "TQRSAB")


# Bound on 8 n_w (2 n_x + n_u)^2 bytes per point over a chunk of `solve_batch`:
# 7 points of the N = 60 lq_chain, 2 of the quadrotor, near one-point peaks.
_CHUNK_BYTES = 12 * 2**20


def solve_equality_nlp(
    p: DOProblem,
    data: DataTrajectory,
    w0: PrimalDualTrajectory | None = None,
    opts: SolveOptions | None = None,
) -> SolveResult:
    """Newton on the first-order conditions with a backtracking line search
    on the squared residual norm: the one-point call of `solve_batch`.

    When the KKT factorization signals singularity or wrong inertia (or the
    search direction fails to reduce the residual), eps * I is added to the
    primal Hessian block, starting at opts.reg0 and escalating tenfold up to
    opts.reg_max.  Raises RegularityError when no usable direction exists
    at maximal regularization and NonconvergenceError when max_iter is
    exhausted; both carry the last iterate.
    """
    ((result, error),) = solve_batch(p, [data], w0, opts)
    if error is not None:
        raise error
    return result


def solve_batch(p: DOProblem, data, w0=None, opts: SolveOptions | None = None, stats: dict | None = None):
    """`solve_equality_nlp` for each data trajectory of the iterable `data`,
    all warm-started from w0: yields (result, error) for each in order,
    error being the exception that the one-point solve raises, or None, and
    result the solve's, or the last iterate that the error carries.

    The points take their Newton iterations in lock step, each residual or
    linearization evaluating all their stages at once, and points whose
    shifted KKT matrices are equal bit for bit share one `factor_kkt` that
    carries all their right-hand sides.  Step length, regularization,
    convergence and failure stay per point.  The points go in chunks, so
    memory does not grow with their number; the first iteration's factors,
    all at w0, serve every chunk.  `stats` gets the counts `newton_rounds`
    (chunk iterations), `factorizations`, `solved_columns` and
    `residual_evals` (batched residual calls) added.
    """
    opts, stats = opts or SolveOptions(), {} if stats is None else stats
    w0 = w0 if w0 is not None else PrimalDualTrajectory.zeros(p.dims)
    check_dimensions(p, w0, None)
    for key in ("newton_rounds", "factorizations", "solved_columns", "residual_evals"):
        stats.setdefault(key, 0)
    size = max(1, _CHUNK_BYTES // (8 * p.dims.n_w * (2 * p.dims.n_x + p.dims.n_u) ** 2))
    first, data = [], iter(data)
    while chunk := list(itertools.islice(data, size)):
        yield from _lockstep(p, chunk, w0, opts, first, stats)


def _steps(todo: list, R: Array, reg: dict, blocks: dict, pool: list, dims: Dimensions, stats: dict) -> dict:
    """Newton steps for -R[k] of the points k in `todo` at regularization
    reg[k]; None where the inertia gate rejects the shifted K or the step
    is not finite.  `pool` holds [reg, blocks, factor] entries (a rejected
    factor as None); a new entry's factor pass carries the right-hand sides
    of all points that need it."""
    groups, out = {}, {}
    for k in todo:
        if not np.isfinite(R[k]).all():
            out[k] = None
            continue
        entry = next((e for e in pool if e[0] == reg[k] and _same_matrix(e[1], blocks[k])), None)
        if entry is None:
            entry = [reg[k], blocks[k], None]
            pool.append(entry)
            groups[id(entry)] = (entry, [], True)
        groups.setdefault(id(entry), (entry, [], False))[1].append(k)
        blocks[k] = entry[1]  # equal bits: the copy is dropped
    for entry, ks, fresh in groups.values():
        rhs = -R[ks[0]] if len(ks) == 1 else -R[ks].T
        if fresh:
            entry[2] = factor_kkt(entry[1], entry[0], rhs)
            stats["factorizations"] += 1
        if entry[2] is None or entry[2].inertia != (dims.n_primal, dims.n_dual):
            entry[2] = None
            out.update(dict.fromkeys(ks))
            continue
        Y = entry[2]._solve(None if fresh else rhs).reshape(dims.n_w, -1)
        stats["solved_columns"] += len(ks)
        out.update((k, y if np.isfinite(y).all() else None) for k, y in zip(ks, Y.T))
    return out


def _lockstep(p: DOProblem, data: list, w0, opts: SolveOptions, first: list, stats: dict) -> list:
    """The Newton loop of `solve_batch` on one chunk of data trajectories;
    `first` is the pool of the first iteration, shared across chunks."""
    dims, P, N = p.dims, len(data), p.dims.N
    W = np.tile(w0.vector, (P, 1))
    jac = []
    R = kkt_residual(p, W, data, jacobians=jac)
    stats["residual_evals"] += 1
    # per point: the (A, B, G) of the residual call at its iterate, its index
    jacs = [(jac[0], k) for k in range(P)]
    rnorm, reg_seen = np.abs(R).max(axis=1), np.zeros(P)
    out = [None] * P

    def finish(k, it, error=None, msg=""):
        traj = PrimalDualTrajectory.from_vector(dims, W[k].copy())
        res = SolveResult(traj, it, float(rnorm[k]), error is None, float(reg_seen[k]))
        out[k] = (res, None if error is None else error(msg, result=res))

    def iterate(it, live):
        """One Newton iteration: each point of `live` steps or fails."""
        jac = [_jacobian_rows([jacs[k] for k in live], N)]
        blocks = dict(zip(live, linearize(p, W[live], [data[k] for k in live], jacobians=jac)))
        phi0 = {k: 0.5 * float(R[k] @ R[k]) for k in live}
        reg = dict.fromkeys(live, 0.0)
        need, alpha, step = list(live), {}, {}

        def escalate(k):
            reg[k] = opts.reg0 if reg[k] == 0.0 else reg[k] * 10.0
            if reg[k] <= opts.reg_max:
                need.append(k)
            else:
                msg = f"KKT system unusable at iteration {it} despite regularization up to {opts.reg_max:g}"
                finish(k, it, RegularityError, msg)

        while need or alpha:
            todo, need[:] = list(need), []
            for k, y in _steps(todo, R, reg, blocks, first if it == 0 else [], dims, stats).items():
                if y is None:
                    escalate(k)
                else:
                    alpha[k], step[k] = 1.0, y
            if not alpha:
                continue
            # one backtracking trial of every point that has a step
            S = list(alpha)
            W_try = W[S] + np.array([alpha[k] for k in S])[:, None] * np.array([step[k] for k in S])
            jac = []
            R_try = kkt_residual(p, W_try, [data[k] for k in S], jacobians=jac)
            stats["residual_evals"] += 1
            for i, k in enumerate(S):
                r = R_try[i]
                if 0.5 * float(r @ r) <= (1.0 - 2.0 * opts.ls_sigma * alpha[k]) * phi0[k]:
                    W[k], R[k] = W_try[i], r
                    jacs[k] = (jac[0], i)
                    rnorm[k], reg_seen[k] = np.abs(r).max(), max(reg_seen[k], reg[k])
                    del alpha[k]
                else:
                    alpha[k] *= opts.ls_beta
                    if alpha[k] < 1e-12:
                        del alpha[k]
                        escalate(k)

    for it in range(opts.max_iter + 1):
        for k in range(P):
            if out[k] is None and rnorm[k] <= opts.tol_kkt:
                finish(k, it)
            elif out[k] is None and it == opts.max_iter:
                msg = f"Newton did not reach tol {opts.tol_kkt:g} in {it} iterations (residual {rnorm[k]:.3e})"
                finish(k, it, NonconvergenceError, msg)
        live = [k for k in range(P) if out[k] is None]
        if not live:
            return out
        stats["newton_rounds"] += 1
        iterate(it, live)
