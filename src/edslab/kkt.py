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
elimination, in one stacked array.

The KKT residual returned here is exactly the gradient of
`problem.evaluate_lagrangian` in the entries of the trajectory's vector
(the multiplier entries are the negated constraint residuals, per the
`objective - lam @ c` pairing), so finite-differencing the Lagrangian
reproduces it.
"""
from __future__ import annotations

import functools
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
    """Stages 0..N-1 of one (traj, data) point: x_i, u_i and lam_i as the
    rows of X, U and Lam (views of the trajectory's vector), the data, and
    D, the data rows stacked, or None when their size differs by stage."""

    X: Array
    U: Array
    Lam: Array
    data: DataTrajectory
    D: Array | None


def _stage_rows(dims: Dimensions, v: Array):
    """X, U, Lam: views of the x, u and lam columns of `dims.w_rows(v)`."""
    W = dims.w_rows(v)
    return W[:, : dims.n_x], W[:, dims.n_x : dims.n_z], W[:, dims.n_z :]


def _stages(p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory) -> _Stages:
    D = data.stage_rows() if p.dims.stage_nd is not None else None
    return _Stages(*_stage_rows(p.dims, traj.vector), data, D)


def _stage_terms(p: DOProblem, st: _Stages, per_stage, batched, shapes, with_lam: bool = False):
    """The terms of stages 0..N-1, each with a leading stage axis.

    A registered stage-batched oracle, `batched(X, U, D[, Lam])`, gives
    them in one call when every stage's data has one size; otherwise
    `per_stage(p, i, x_i, u_i, d_i[, lam_i])` (an analytic oracle or finite
    differences) runs at each stage and its results are stacked.  `shapes`
    gives each term's per-stage shape, with "d" for the data size; such a
    term stays a per-stage list when the data size differs by stage.  A
    single term is returned in a one-element list."""
    N, nd = p.dims.N, p.dims.stage_nd
    rest = (st.Lam,) if with_lam else ()
    if batched is not None and st.D is not None:
        out = batched(st.X, st.U, st.D, *rest)
    else:
        out = [
            per_stage(p, i, st.X[i], st.U[i], st.data[i], *(r[i] for r in rest)) for i in range(N)
        ]
        if len(shapes) > 1:
            out = zip(*out)
    terms = []
    for t, shape in zip([out] if len(shapes) == 1 else out, shapes, strict=True):
        if nd is None and "d" in shape:
            terms.append(list(t))
        else:
            terms.append(np.asarray(t, dtype=float).reshape(N, *(nd if k == "d" else k for k in shape)))
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


def linearize(
    p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory, *, jacobians: list | None = None
) -> StageBlocks:
    """All per-stage derivative blocks at (traj, data).  The Q/S/R/E/F blocks
    differentiate the stage Lagrangians, so they include the
    multiplier-weighted dynamics curvature.  `jacobians`, when given, holds
    the per-stage (A, B, G) that `kkt_residual` evaluated at this same
    (traj, data); they are used instead of evaluating the dynamics Jacobian
    again."""
    check_dimensions(p, traj, data)
    dims, orc = p.dims, p.oracles
    n_x, n_u = dims.n_x, dims.n_u
    st = _stages(p, traj, data)
    shapes = ((n_x, n_x), (n_x, n_u), (n_u, n_u), (n_x, "d"), (n_u, "d"))
    if jacobians is None:
        A, B, G = _stage_jacobians(p, st)
    else:
        A, B, G = zip(*jacobians)
    Qc, Sc, Rc, Ec, Fc = _stage_terms(p, st, _stage_cost_hessians, orc.stage_cost_hess_batch, shapes)
    Hxx, Hxu, Huu, Hxd, Hud = _stage_terms(
        p, st, _dynamics_curvature, orc.dynamics_hess_vec_batch, shapes, with_lam=True
    )
    QN, EN = _terminal_cost_hessians(p, traj.x(dims.N), data[dims.N])
    return StageBlocks(
        dims=dims,
        T=p.T.copy(),
        Q=np.concatenate([_sym(Qc + Hxx), _sym(QN)[None]]),
        R=_sym(Rc + Huu),
        S=Sc + Hxu,
        E=[*_add(Ec, Hxd), EN],
        F=_add(Fc, Hud),
        A=A,
        B=B,
        G=G,
    )


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


def _w_offsets(dims: Dimensions):
    """Row offsets of lam_i, x_i and u_i in the stage-ordered primal-dual
    vector [lam_{-1}; x_0; u_0; lam_0; ...; x_N], and its length."""
    off = {(-1, "lam"): 0}
    for i in range(dims.N + 1):
        base = dims.w_offsets[i + 1]
        off[(i, "x")] = base
        off[(i, "u")] = base + dims.n_x
        off[(i, "lam")] = base + dims.n_z
    return off, dims.n_w


def _xi_offsets(dims: Dimensions):
    """Column offsets of the stage-interleaved (primal-dual, data) stacking
    [lam_{-1}; d_{-1}; x_0; u_0; lam_0; d_0; ...; x_N; d_N]."""
    off = {}
    off[(-1, "lam")] = 0
    off[(-1, "d")] = dims.n_0
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


def assemble_mixed_hessian(blocks: StageBlocks) -> scipy.sparse.csr_array:
    """Full second derivative of the Lagrangian as a sparse CSR matrix: rows
    over the stacked primal-dual variables, columns over the stacked
    (primal-dual, data) variables, both interleaved by stage.  Contains the
    stage Hessian blocks, the constraint-Jacobian couplings, and the data
    couplings E_i, F_i, G_i plus the identity pairing lam(-1) with d_{-1}.
    Zero entries inside a block are stored too."""
    dims = blocks.dims
    row, n_w = _w_offsets(dims)
    col, n_xi = _xi_offsets(dims)
    I_x = np.eye(dims.n_x)
    rows, cols, vals = [], [], []

    def put(r, c, block):
        if block.size:
            k = np.arange(block.size)
            rows.append(r + k // block.shape[1])
            cols.append(c + k % block.shape[1])
            vals.append(block.ravel())

    # initial constraint couplings
    put(row[(-1, "lam")], col[(0, "x")], -blocks.T)
    put(row[(0, "x")], col[(-1, "lam")], -blocks.T.T)
    put(row[(-1, "lam")], col[(-1, "d")], np.eye(dims.n_0))
    for i in range(dims.N):
        # stage Hessian
        put(row[(i, "x")], col[(i, "x")], blocks.Q[i])
        put(row[(i, "x")], col[(i, "u")], blocks.S[i])
        put(row[(i, "u")], col[(i, "x")], blocks.S[i].T)
        put(row[(i, "u")], col[(i, "u")], blocks.R[i])
        # dynamics couplings
        put(row[(i, "x")], col[(i, "lam")], blocks.A[i].T)
        put(row[(i, "u")], col[(i, "lam")], blocks.B[i].T)
        put(row[(i, "lam")], col[(i, "x")], blocks.A[i])
        put(row[(i, "lam")], col[(i, "u")], blocks.B[i])
        put(row[(i + 1, "x")], col[(i, "lam")], -I_x)
        put(row[(i, "lam")], col[(i + 1, "x")], -I_x)
        # data couplings
        put(row[(i, "x")], col[(i, "d")], blocks.E[i])
        put(row[(i, "u")], col[(i, "d")], blocks.F[i])
        put(row[(i, "lam")], col[(i, "d")], blocks.G[i])
    put(row[(dims.N, "x")], col[(dims.N, "x")], blocks.Q[dims.N])
    put(row[(dims.N, "x")], col[(dims.N, "d")], blocks.E[dims.N])
    return scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n_w, n_xi)
    ).tocsr()


def kkt_residual(
    p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory, *, jacobians: list | None = None
) -> Array:
    """Gradient of the Lagrangian in `traj.vector`, so in the same stage
    order; zero exactly at stationary points.  The multiplier entries are
    the negated constraint residuals.  Each stage's dynamics Jacobians
    (A, B, G) are appended to `jacobians` when it is given, for `linearize`
    at the same point."""
    check_dimensions(p, traj, data)
    dims, orc = p.dims, p.oracles
    n_x, n_u, N = dims.n_x, dims.n_u, dims.N
    st = _stages(p, traj, data)
    (f,) = _stage_terms(p, st, _dynamics, orc.dynamics_batch, ((n_x,),))
    A, B, G = _stage_jacobians(p, st)
    gx, gu = _stage_terms(p, st, _stage_cost_gradients, orc.stage_cost_grad_batch, ((n_x,), (n_u,)))
    if jacobians is not None:
        jacobians.extend(zip(A, B, G))
    v = traj.vector
    x_N, lam_init = v[dims.w_offsets[-2] :], v[: dims.n_0]
    r = np.empty(dims.n_w)
    r_x, r_u, r_lam = _stage_rows(dims, r)
    r[: dims.n_0] = data[-1] - p.T @ st.X[0]
    # lam_{i-1} enters x_i's row; T^T lam_{-1} in place of it at stage 0
    r_x[:] = gx + (st.Lam[:, None, :] @ A)[:, 0] - np.vstack([p.T.T @ lam_init, st.Lam[:-1]])
    r_u[:] = gu + (st.Lam[:, None, :] @ B)[:, 0]
    r_lam[:] = f - np.vstack([st.X[1:], x_N])
    r[dims.w_offsets[-2] :] = _terminal_cost_gradient(p, x_N, data[N]) - st.Lam[-1]
    return r


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


def _factor_and_solve(blocks: StageBlocks, rhs: Array, n_pos: int, n_neg: int, reg: float = 0.0):
    """Solve (K + reg * I_primal) x = rhs for the KKT matrix K of `blocks`,
    the Hessian of the Lagrangian in the stage-ordered primal-dual vector,
    with an inertia gate and without forming K; I_primal is one on the x
    and u entries.  rhs and x are stage-ordered.  Returns x only when the
    shifted K has exactly (n_pos, n_neg, 0) positive/negative/zero
    eigenvalues, None otherwise (non-finite input included).

    Block LDL^T on consecutive slices of the stage-ordered vector.  Block k
    holds [lam_{k-1}; x_k; u_k]: block 0 opens with lam_{-1} and its
    coupling -T to x_0, block N is [lam_{N-1}; x_N].  Block k+1 couples to block k only through the rows
    lam_k, by C = [0, A_k, B_k].  The Schur complements D_0 = K_00 and
    D_{k+1} = K_{k+1,k+1} - C D_k^{-1} C^T (which changes only the lam_k
    corner) each get one Bunch-Kaufman factor.  By Haynsworth additivity
    the inertia of K is the sum of the inertias of the blocks' D.  Costs
    O(N (2 n_x + n_u)^3) time and O(N (2 n_x + n_u)^2) memory.

    The elimination runs forward in time.  Backward (Riccati) order lets
    uncontrollable modes inflate the blocks: on the quadrotor with q = b =
    0 their eigenvalues spread over 1e-8..5e8 while K's lie in 2e-10..7,
    and the gate's tolerance then rejects K at every regularization.  The
    price of forward order: a stage whose control has no curvature of its
    own (R_k = S_k = 0) gives an exactly singular block, so K is rejected
    at reg = 0 even when it is regular.
    """
    if not np.isfinite(rhs).all():
        return None
    dims = blocks.dims
    n_x, n_u, N = dims.n_x, dims.n_u, dims.N
    # Every block without its Schur corner, padded to the order
    # m = 2 n_x + n_u of an interior block [lam; x; u]: block 0 keeps the
    # last n_0 of the lam rows for lam_{-1}, block N the first 2 n_x rows.
    # Each C^T = [0; A_k^T; B_k^T] of the forward substitution goes into
    # a Fortran-ordered (m, n_x + 1) slab, its last column kept for y_k.
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
    CTs = np.zeros((N, n_x + 1, m)).transpose(0, 2, 1)
    CTs[:, x, :n_x] = np.swapaxes(blocks.A, 1, 2)
    CTs[:, u, :n_x] = np.swapaxes(blocks.B, 1, 2)
    y = np.array(rhs, dtype=float)
    diags, subs, ipivs, starts, Ys = [], [], [], [], []
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
        diags.append(ldu.diagonal())
        subs += [ldu.diagonal(-1), np.zeros(1)]  # padded to the block size
        ipivs.append(ipiv)
        starts.append(a)
        b = a + D.shape[0]
        # forward substitution: z_k = D_k^{-1} y_k, y_{k+1}[lam_k] -= C z_k;
        # one ?sytrs gives z_k and Y = D_k^{-1} C^T for the backward pass
        if k < N:
            CT_y = CTs[k, rows]
            CT_y[:, n_x] = y[a:b]
            sol, _ = _sytrs(ldu, ipiv, CT_y, lower=1)
            C_sol = CT_y[:, :n_x].T @ sol
            Ys.append(sol[:, :n_x])
            y[a:b] = sol[:, n_x]
            corners[k] = C_sol[:, :n_x]
            y[b : b + n_x] -= C_sol[:, n_x]
        else:
            y[a:b], _ = _sytrs(ldu, ipiv, y[a:b], lower=1)
        a = b
    if not np.isfinite(corners).all():  # a non-finite D_{k+1} was factored
        return None
    # a 2x2 pivot never straddles two blocks, so one pass reads them all
    eigs = _d_eigs(np.concatenate(diags), np.concatenate(subs), np.concatenate(ipivs))
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    tol = max(scale, 1.0) * rhs.size * np.finfo(float).eps
    pos = int(np.sum(eigs > tol))
    neg = int(np.sum(eigs < -tol))
    if pos != n_pos or neg != n_neg:
        return None
    # backward substitution: x_N = z_N, x_k = z_k - Y x_{k+1}[lam_k]
    for k in range(N - 1, -1, -1):
        b = starts[k + 1]
        y[starts[k] : b] -= Ys[k] @ y[b : b + n_x]
    if not np.all(np.isfinite(y)):
        return None
    return y


def solve_equality_nlp(
    p: DOProblem,
    data: DataTrajectory,
    w0: PrimalDualTrajectory | None = None,
    opts: SolveOptions | None = None,
) -> SolveResult:
    """Newton on the first-order conditions with a backtracking line search
    on the squared residual norm.

    When the KKT factorization signals singularity or wrong inertia (or the
    search direction fails to reduce the residual), eps * I is added to the
    primal Hessian block, starting at opts.reg0 and escalating tenfold up to
    opts.reg_max.  Raises RegularityError when no usable direction exists at
    maximal regularization and NonconvergenceError when max_iter is
    exhausted; both carry the last iterate.
    """
    opts = opts or SolveOptions()
    check_dimensions(p, None, data)
    w = w0.copy() if w0 is not None else PrimalDualTrajectory.zeros(p.dims)
    check_dimensions(p, w, None)
    nz, ndual = p.dims.n_primal, p.dims.n_dual
    reg_seen = 0.0
    # the dynamics Jacobians are evaluated once per point, in kkt_residual
    jac = []
    r = kkt_residual(p, w, data, jacobians=jac)
    rnorm = float(np.abs(r).max()) if r.size else 0.0
    for it in range(opts.max_iter):
        if rnorm <= opts.tol_kkt:
            return SolveResult(w, it, rnorm, True, reg_seen)
        blocks = linearize(p, w, data, jacobians=jac)
        phi0 = 0.5 * float(r @ r)
        reg = 0.0
        accepted = None
        while True:
            step = _factor_and_solve(blocks, -r, nz, ndual, reg)
            if step is not None:
                alpha = 1.0
                while alpha >= 1e-12:
                    w_try = PrimalDualTrajectory.from_vector(p.dims, w.vector + alpha * step)
                    jac_try = []
                    r_try = kkt_residual(p, w_try, data, jacobians=jac_try)
                    if 0.5 * float(r_try @ r_try) <= (1.0 - 2.0 * opts.ls_sigma * alpha) * phi0:
                        accepted = (w_try, r_try, jac_try)
                        break
                    alpha *= opts.ls_beta
            if accepted is not None:
                break
            reg = opts.reg0 if reg == 0.0 else reg * 10.0
            if reg > opts.reg_max:
                raise RegularityError(
                    f"KKT system unusable at iteration {it} despite regularization up to {opts.reg_max:g}",
                    result=SolveResult(w, it, rnorm, False, reg_seen),
                )
        reg_seen = max(reg_seen, reg)
        w, r, jac = accepted
        rnorm = float(np.abs(r).max())
    if rnorm <= opts.tol_kkt:
        return SolveResult(w, opts.max_iter, rnorm, True, reg_seen)
    last = SolveResult(w, opts.max_iter, rnorm, False, reg_seen)
    raise NonconvergenceError(
        f"Newton did not reach tol {opts.tol_kkt:g} in {opts.max_iter} iterations "
        f"(residual {rnorm:.3e})",
        result=last,
    )
