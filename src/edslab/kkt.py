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
without a copy.  One sourcing helper, `_stage_terms`, keyed by oracle
name, returns each oracle's terms with a leading stage axis and checks
their sizes: from the problem's stage-batched oracle when it registers one
and the stage data share one size, otherwise from `_PER_STAGE[name]` at
each stage (the per-stage analytic oracle, or finite differences), whose
results are stacked.  The terminal cost takes a two-term path of its own,
`_terminal_terms`.  Both then assemble from those arrays in a few array
operations, and `StageBlocks` keeps Q, R, S, A and B stacked.

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
one factorization between them.  Their iteration 0 is taken once
(`_Start`): each distinct (stage, data) row at w0 goes through the oracles
once, and points with point 0's blocks share its `StageBlocks` object.

The KKT residual returned here is exactly the gradient of
`problem.evaluate_lagrangian` in the entries of the trajectory's vector
(the multiplier entries are the negated constraint residuals, per the
`objective - lam @ c` pairing), so finite-differencing the Lagrangian
reproduces it.
"""
from __future__ import annotations

import functools
import math
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
    """Rows of stages: row r of X, U, Lam and D holds x_i, u_i, lam_i and
    d_i of stage i = I[r] (`_stages` gives row k N + i to stage i of point
    k).  D is an array when every row's data has one size, else a per-row
    list of vectors."""

    X: Array
    U: Array
    Lam: Array
    D: Array | list
    I: list


def _stages(p: DOProblem, W: Array, data: list, D: Array | None = None) -> _Stages:
    dims = p.dims
    rows = W[:, dims.n_0 : dims.w_offsets[-2]].reshape(-1, 2 * dims.n_x + dims.n_u)
    if dims.stage_nd is not None:  # D: the points' stage_rows(), when the caller holds them
        D = np.concatenate([d.stage_rows() for d in data]) if D is None else D.reshape(len(rows), -1)
    else:
        D = [d[i] for d in data for i in range(dims.N)]
    return _Stages(rows[:, : dims.n_x], rows[:, dims.n_x : dims.n_z], rows[:, dims.n_z :], D, [*range(dims.N)] * len(W))


def _terminal(p: DOProblem, W: Array, data: list) -> tuple:
    """x_N and d_N of every point, as the rows of two arrays."""
    return W[:, p.dims.w_offsets[-2] :], np.array([d[p.dims.N] for d in data])


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


def _shaped(t, shape: tuple, what: str, rows: tuple = ()) -> Array:
    """The term t of oracle `what`, of per-stage shape `shape`, as a float
    array of shape rows + shape."""
    t = np.asarray(t, dtype=float)
    if t.size != math.prod(rows + shape):
        raise ConfigurationError(f"{what}: expected shape {shape} per stage, got {t.shape}")
    return t.reshape(rows + shape)


def _stage_terms(p: DOProblem, st: _Stages, name: str, shapes, with_lam: bool = False):
    """The terms of oracle `name` at the rows of `st`, each with a leading
    row axis.

    The registered stage-batched form `<name>_batch(X, U, D[, Lam])` gives
    them in one call when every row's data has one size; otherwise
    `_PER_STAGE[name]` (the per-stage oracle, or finite differences) runs at
    each row and its results are stacked.  `shapes` spells each term's
    per-stage shape in the sizes of x, u and d, "xd" for (n_x, n_d); a term
    with a "d" stays a per-row list when the data size differs by row.  A
    single term is returned in a one-element list."""
    rest = (st.Lam,) if with_lam else ()
    batched = getattr(p.oracles, f"{name}_batch", None)
    uniform = isinstance(st.D, np.ndarray)
    sizes = {"x": st.X.shape[1], "u": st.U.shape[1], "d": st.D.shape[1] if uniform else None}
    per_stage = [tuple(sizes[k] for k in shape) for shape in shapes]
    if not st.I:  # no rows: no call
        return [[] if None in s else np.zeros((0, *s)) for s in per_stage]
    if batched is not None and uniform:
        out = batched(st.X, st.U, st.D, *rest)
        terms = zip([out] if len(shapes) == 1 else out, per_stage, strict=True)
        return [_shaped(t, s, f"{name}_batch", (len(st.X),)) for t, s in terms]
    entry = _PER_STAGE[name]
    out = [entry(p.oracles, i, st.X[r], st.U[r], st.D[r], *(t[r] for t in rest)) for r, i in enumerate(st.I)]
    terms = []
    for t, s in zip([out] if len(shapes) == 1 else zip(*out), per_stage, strict=True):
        if None in s:  # a per-row list, each term of its row's data size
            terms.append([_shaped(m, tuple(len(d) if k is None else k for k in s), name) for m, d in zip(t, st.D)])
        else:
            terms.append(np.array([_shaped(m, s, name) for m in t]))
    return terms


def _add(a, b):
    """a + b for stacked terms, or stage by stage for per-stage lists."""
    return a + b if isinstance(a, np.ndarray) else [x + y for x, y in zip(a, b, strict=True)]


def _hessian_blocks(fun, n_x: int, n_z: int, t: Array):
    """(Q, S, R, E, F) of a scalar map of t = (x, u, d) by nested central
    differences."""
    ix, iu, idd = np.arange(n_x), np.arange(n_x, n_z), np.arange(n_z, t.size)
    return tuple(diff.hessian_block(fun, *ab, t) for ab in ((ix, ix), (ix, iu), (iu, iu), (ix, idd), (iu, idd)))


def _from_gradient(Jz: Array, Jd: Array, n_x: int):
    """(Q, S, R, E, F) from the differences of a gradient in (x, u): Jz its
    (x, u) square, symmetrized here, and Jd its (x, u)-d block."""
    S = 0.5 * (Jz[:n_x, n_x:] + Jz[n_x:, :n_x].T)
    return _sym(Jz[:n_x, :n_x]), S, _sym(Jz[n_x:, n_x:]), Jd[:n_x], Jd[n_x:]


def _cost_gradients(cost, grad, x, u, d):
    """(g_x, g_u) of cost(x, u, d): the analytic `grad` when given, else
    central differences."""
    if grad is not None:
        return grad(x, u, d)
    n_x, n_z = x.size, x.size + u.size
    g = diff.gradient(lambda t: cost(*np.split(t, [n_x, n_z])), np.concatenate([x, u, d]), diff.FIRST_ORDER)
    return g[:n_x], g[n_x:n_z]


def _cost_hessians(cost, grad, hess, x, u, d):
    """(Q, S, R, E, F) of cost(x, u, d): the analytic `hess` when given,
    else differences of `grad`, else nested differences of `cost`."""
    if hess is not None:
        return hess(x, u, d)
    n_x, n_z = x.size, x.size + u.size
    t = np.concatenate([x, u, d])
    if grad is None:
        return _hessian_blocks(lambda tt: cost(*np.split(tt, [n_x, n_z])), n_x, n_z, t)
    Jg = diff.hessian_via_gradient(lambda tt: np.concatenate(grad(*np.split(tt, [n_x, n_z]))), np.arange(t.size), t)
    return _from_gradient(Jg[:, :n_z], Jg[:, n_z:], n_x)


def _at_stage(orc, i: int, *names: str) -> list:
    """Stage i's oracles `names` as maps of (x, u, d), None where absent."""
    return [None if getattr(orc, n) is None else functools.partial(getattr(orc, n), i) for n in names]


def _terminal_terms(p: DOProblem, x_N: Array, D_N: Array, hess: bool = False) -> list:
    """[g] of the terminal cost, or with `hess` [Q, E], at each row of x_N
    and D_N, stacked: from the analytic oracle when given, else by the
    differences of a stage whose control u is empty."""
    orc, u, n_x = p.oracles, np.zeros(0), x_N.shape[1]
    g, h = orc.terminal_cost_grad, orc.terminal_cost_hess
    if (h if hess else g) is None:
        cost, grad = lambda x, _, d: orc.terminal_cost(x, d), g and (lambda x, _, d: (orc.terminal_cost_grad(x, d), u))
        g = lambda x, d: _cost_gradients(cost, None, x, u, d)[0]
        h = lambda x, d: _cost_hessians(cost, grad, None, x, u, d)[::3]
    shapes = [(n_x, n_x), (n_x, D_N.shape[1])] if hess else [(n_x,)]
    name = "terminal_cost_hess" if hess else "terminal_cost_grad"
    out = [h(x, d) if hess else (g(x, d),) for x, d in zip(x_N, D_N)]
    return [np.array([_shaped(m, s, name) for m in t]) for t, s in zip(zip(*out), shapes, strict=True)]


def _dynamics_jacobians(dynamics, jac, x, u, d):
    """(A, B, G) of dynamics(x, u, d): the analytic `jac` when given, else
    central differences."""
    if jac is not None:
        return jac(x, u, d)
    n_x, n_z = x.size, x.size + u.size
    fun = lambda t: dynamics(*np.split(t, [n_x, n_z]))
    J = diff.jacobian(fun, np.concatenate([x, u, d]), diff.FIRST_ORDER)
    return J[:, :n_x], J[:, n_x:n_z], J[:, n_z:]


def _dynamics_curvature(orc, i: int, x, u, d, lam):
    """Second-derivative blocks (H_xx, H_xu, H_uu, H_xd, H_ud) of lam @ f_i
    in (x, u, d); zero, without a call, when lam is."""
    n_x, n_u, n_d = x.size, u.size, d.size
    n_z = n_x + n_u
    if not np.any(lam):
        return tuple(np.zeros(s) for s in ((n_x, n_x), (n_x, n_u), (n_u, n_u), (n_x, n_d), (n_u, n_d)))
    if orc.dynamics_hess_vec is not None:
        return orc.dynamics_hess_vec(i, x, u, d, lam)
    t, split = np.concatenate([x, u, d]), lambda tt: np.split(tt, [n_x, n_z])
    if orc.dynamics_jac is None:
        return _hessian_blocks(lambda tt: float(lam @ np.asarray(orc.dynamics(i, *split(tt)))), n_x, n_z, t)
    # FD of the analytic gradient map d(lam @ f)/d(x, u, d) = [A; B; G]^T lam
    # in (x, u) only: its d rows hold the mixed (x, u)-d blocks, as second
    # derivatives are symmetric
    grad = lambda tt: np.concatenate([np.reshape(M, (n_x, -1)).T @ lam for M in orc.dynamics_jac(i, *split(tt))])
    Jg = diff.hessian_via_gradient(grad, np.arange(n_z), t)
    return _from_gradient(Jg[:n_z], Jg[n_z:].T, n_x)


# per-stage sourcing of each oracle name, called as (oracles, i, x, u, d[, lam])
_COST_ORACLES = ("stage_cost", "stage_cost_grad", "stage_cost_hess")
_PER_STAGE = {
    "dynamics": lambda orc, i, *z: orc.dynamics(i, *z),
    "dynamics_jac": lambda orc, i, *z: _dynamics_jacobians(*_at_stage(orc, i, "dynamics", "dynamics_jac"), *z),
    "dynamics_hess_vec": _dynamics_curvature,
    "stage_cost_grad": lambda orc, i, *z: _cost_gradients(*_at_stage(orc, i, *_COST_ORACLES[:2]), *z),
    "stage_cost_hess": lambda orc, i, *z: _cost_hessians(*_at_stage(orc, i, *_COST_ORACLES), *z),
}
_HESSIAN = ("xx", "xu", "uu", "xd", "ud")


def _block_terms(p: DOProblem, st: _Stages, x_N: Array, D_N: Array) -> tuple:
    """(Q, R, S, E, F) of the stage Lagrangians at the rows of `st`, (Q_N, E_N) at x_N and D_N."""
    Qc, Sc, Rc, Ec, Fc = _stage_terms(p, st, "stage_cost_hess", _HESSIAN)
    Hxx, Hxu, Huu, Hxd, Hud = _stage_terms(p, st, "dynamics_hess_vec", _HESSIAN, with_lam=True)
    QN, EN = _terminal_terms(p, x_N, D_N, hess=True)
    return _sym(Qc + Hxx), _sym(Rc + Huu), Sc + Hxu, _add(Ec, Hxd), _add(Fc, Hud), _sym(QN), EN


def linearize(p: DOProblem, traj, data, *, jacobians: list | None = None, rows: Array | None = None):
    """All per-stage derivative blocks at (traj, data).  The Q/S/R/E/F blocks
    differentiate the stage Lagrangians, so they include the
    multiplier-weighted dynamics curvature.  `jacobians`, when given, holds
    the per-stage (A, B, G) that `kkt_residual` evaluated at this same
    (traj, data); they are used instead of evaluating the dynamics Jacobian
    again.  A batch of points (see `kkt_residual`, also for `rows`) gives a
    list with one `StageBlocks` per point."""
    W, data, single = _points(p, traj, data)
    dims, N = p.dims, p.dims.N
    st = _stages(p, W, data, rows)
    if jacobians is None:
        A, B, G = _stage_terms(p, st, "dynamics_jac", ("xx", "xu", "xd"))
    else:
        A, B, G = zip(*jacobians) if single else jacobians[0]
    Q, R, S, E, F, QN, EN = _block_terms(p, st, *_terminal(p, W, data))
    blocks = []
    for k in range(len(W)):
        s = slice(k * N, (k + 1) * N)
        Qk = np.concatenate([Q[s], QN[k][None]])
        blocks.append(StageBlocks(dims, p.T.copy(), Qk, R[s], S[s], [*E[s], EN[k]], F[s], A[s], B[s], G[s]))
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


def _stage_residuals(p: DOProblem, W: Array, st: _Stages, at=slice(None)) -> tuple:
    """The [x; u; lam] blocks of the KKT residual at the rows of `st`, and
    their (A, B, G): the rows `at` of the P N stage rows of the points W,
    whose neighbours lam_{i-1} (T^T lam_{-1} at i = 0) and x_{i+1} they take."""
    (f,) = _stage_terms(p, st, "dynamics", ("x",))
    A, B, G = _stage_terms(p, st, "dynamics_jac", ("xx", "xu", "xd"))
    gx, gu = _stage_terms(p, st, "stage_cost_grad", ("x", "u"))
    dims, end = p.dims, p.dims.w_offsets[-2]
    rows = W[:, dims.n_0 : end].reshape(len(W), dims.N, -1)
    lam_init = np.array([p.T.T @ lam for lam in W[:, : dims.n_0]])[:, None]
    lam_prev = np.concatenate([lam_init, rows[:, :-1, dims.n_z :]], axis=1).reshape(-1, dims.n_x)[at]
    x_next = np.concatenate([rows[:, 1:, : dims.n_x], W[:, None, end:]], axis=1).reshape(-1, dims.n_x)[at]
    LA, LB = (st.Lam[:, None, :] @ M for M in (A, B))
    return np.hstack([gx + LA[:, 0] - lam_prev, gu + LB[:, 0], f - x_next]), (A, B, G)


def kkt_residual(p: DOProblem, traj, data, *, jacobians: list | None = None, rows: Array | None = None) -> Array:
    """Gradient of the Lagrangian in `traj.vector`, so in the same stage
    order; zero exactly at stationary points.  The multiplier entries are
    the negated constraint residuals.  Each stage's dynamics Jacobians
    (A, B, G) are appended to `jacobians` when it is given, for `linearize`
    at the same point.

    For a batch of P points, the rows of a (P, n_w) array `traj` with P
    data trajectories, all P N stages go through each batched oracle at
    once, the residuals are rows too, and one (A, B, G) stacked over the
    P N stage rows is appended to `jacobians`.  `rows`, when given, stacks
    the points' `DataTrajectory.stage_rows()`, for a caller that holds them."""
    W, data, single = _points(p, traj, data)
    stages, (A, B, G) = _stage_residuals(p, W, _stages(p, W, data, rows))
    (gN,) = _terminal_terms(p, *_terminal(p, W, data))
    if jacobians is not None:
        jacobians.extend(zip(A, B, G)) if single else jacobians.append((A, B, G))
    dims, end = p.dims, p.dims.w_offsets[-2]
    init = [d[-1] - p.T @ x_0 for d, x_0 in zip(data, W[:, dims.n_0 : dims.n_0 + dims.n_x])]
    r = np.hstack([np.reshape(init, (len(W), dims.n_0)), stages.reshape(len(W), -1), gN - W[:, end - dims.n_x : end]])
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
    D_k^{-1} C^T.  inertia is the number of the D's eigenvalues above and
    below the gate's tolerance max(|eig|.max(), 1) n eps (K's inertia, by
    Haynsworth additivity); the rest count as zero.  forward, when the
    factor pass carried a right-hand side, is its forward substitution,
    until `solve` finishes it.
    """

    n_x: int
    starts: list
    ldus: list
    ipivs: list
    Cs: list
    Ys: list
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

    The elimination runs forward in time, as the gate's tolerance is
    relative to the largest block eigenvalue: backward (Riccati) order lets
    uncontrollable modes inflate the blocks (on the quadrotor with q = b =
    0 to 1e-8..5e8 while K's eigenvalues lie in 2e-10..7) and the gate
    reject K at every regularization; gamma's Riccati test in `certify` has
    no such gate.  The price: a stage with R_k = S_k = 0 gives an exactly
    singular block, so K is rejected at reg = 0 even when it is regular.
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
    return BlockFactor(n_x, starts, ldus, ipivs, Cs, Ys, inertia, y)


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
    return a is b or all(np.array_equal(getattr(a, f).view(np.int64), getattr(b, f).view(np.int64)) for f in "TQRSAB")


class _Start:
    """Iteration 0 of `solve_batch` for all its points, all at w0.  Point 0
    goes through `kkt_residual` and `linearize`; of the others, only the
    stages whose data differ from point 0's go through the oracles, each
    distinct (stage, data) row once, row rows[k, i] of `table` holding point
    k's stage i.  Points whose rows leave Q, R, S, A and B bit-equal (`same`)
    take point 0's `StageBlocks` object `ref`."""

    def __init__(self, p: DOProblem, w0: PrimalDualTrajectory, data: list):
        dims, N, P, end = p.dims, p.dims.N, len(data), p.dims.w_offsets[-2]
        self.W0, jac = w0.vector[None], []
        # which of stages -1..N hold data that differ from point 0's (not its own vector objects)
        ref = data[0].vectors
        differs = np.array([[v is not r for v, r in zip(d.vectors, ref)] for d in data])
        for k, i in np.argwhere(differs).tolist():
            differs[k, i] = data[k].vectors[i].tobytes() != ref[i].tobytes()
        self.rows, own = np.tile(np.arange(N), (P, 1)), {}
        for k, i in np.argwhere(differs[:, 1:-1]).tolist():
            self.rows[k, i] = own.setdefault((i, data[k][i].tobytes()), (N + len(own), i, data[k][i]))[0]
        self.n_rows, I, D = N + len(own), [i for _, i, _ in own.values()], [d for *_, d in own.values()]
        I, D = (I * 2, D * 2) if len(I) == 1 else (I, D)  # a batched oracle rounds a lone row differently
        D = np.reshape(D, (len(I), dims.stage_nd)) if dims.stage_nd is not None else D
        st = _Stages(*np.split(dims.w_rows(w0.vector)[I], [dims.n_x, dims.n_z], axis=1), D, I)
        last = np.flatnonzero(differs[:, -1])  # the points with terminal data of their own
        terminal = _terminal(p, np.repeat(self.W0, len(last) + 1, axis=0), [data[0], *(data[k] for k in last)])
        r0 = kkt_residual(p, self.W0, data[:1], jacobians=jac)[0]
        own_rows, (A, B, _) = _stage_residuals(p, self.W0, st, I)
        self.table = np.concatenate([r0[dims.n_0 : end].reshape(N, -1), own_rows])
        self.init = np.reshape([d[-1] for d in data], (P, dims.n_0)) - p.T @ w0.vector[dims.n_0 : dims.n_0 + dims.n_x]
        self.tail = np.repeat(r0[None, end:], P, axis=0)
        self.tail[last] = _terminal_terms(p, *terminal)[0][1:] - w0.vector[end - dims.n_x : end]
        self.ref = linearize(p, self.W0, data[:1], jacobians=jac)[0]
        Q, R, S, _, _, QN, _ = _block_terms(p, st, *terminal)
        equal = lambda M, at: (M.view(np.int64) == at.view(np.int64)).all(axis=(1, 2))  # matrix by matrix
        own = np.logical_and.reduce([equal(M, getattr(self.ref, f)[I]) for M, f in zip((Q, R, S, A, B), "QRSAB")])
        self.same = np.r_[np.ones(N, bool), own][self.rows].all(axis=1)
        self.same[last] &= equal(QN[1:], QN[:1])

    def residual(self, ks: slice) -> Array:
        """The residuals at w0 of the points ks."""
        stages = self.table[self.rows[ks]]
        return np.hstack([self.init[ks], stages.reshape(len(stages), -1), self.tail[ks]])


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
    memory does not grow with their number; the first iteration, all at w0,
    is taken once for all points (`_Start`), and its factors serve every
    chunk.  `stats` gets the counts `newton_rounds` (chunk iterations),
    `factorizations`, `solved_columns` and `residual_evals` (batched
    residual calls, the start one) added, and `chunk_points` (points per
    chunk) and `start_rows` (stage rows the start evaluated) set.
    """
    opts, stats = opts or SolveOptions(), {} if stats is None else stats
    w0 = w0 if w0 is not None else PrimalDualTrajectory.zeros(p.dims)
    check_dimensions(p, w0, None)
    for key in ("newton_rounds", "factorizations", "solved_columns", "residual_evals"):
        stats.setdefault(key, 0)
    size = max(1, _CHUNK_BYTES // (8 * p.dims.n_w * (2 * p.dims.n_x + p.dims.n_u) ** 2))
    first, data = [], list(data)
    if not data:
        return
    start = _Start(p, w0, data)
    stats.update(chunk_points=size, start_rows=start.n_rows, residual_evals=stats["residual_evals"] + 1)
    for c in range(0, len(data), size):
        yield from _lockstep(p, data[c : c + size], start, slice(c, c + size), opts, first, stats)


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


def _lockstep(p: DOProblem, data: list, start: _Start, ks: slice, opts: SolveOptions, first: list, stats: dict) -> list:
    """The Newton loop of `solve_batch` on its points ks, whose data
    trajectories are `data`, from their `_Start`; `first` is the pool of
    the first iteration, shared across chunks."""
    dims, P, N = p.dims, len(data), p.dims.N
    W = np.repeat(start.W0, P, axis=0)
    rows = None if dims.stage_nd is None else np.array([d.stage_rows() for d in data])  # built once
    own = lambda ks: None if rows is None else rows[ks]
    R = start.residual(ks)
    # per point after iteration 0: the (A, B, G) of the residual call at its iterate, its index
    jacs = [None] * P
    rnorm, reg_seen = np.abs(R).max(axis=1), np.zeros(P)
    out = [None] * P

    def finish(k, it, error=None, msg=""):
        traj = PrimalDualTrajectory.from_vector(dims, W[k].copy())
        res = SolveResult(traj, it, float(rnorm[k]), error is None, float(reg_seen[k]))
        out[k] = (res, None if error is None else error(msg, result=res))

    def iterate(it, live):
        """One Newton iteration: each point of `live` steps or fails."""
        if it == 0:  # point 0's blocks where they are the point's
            blocks = {k: start.ref if start.same[ks][k] else linearize(p, start.W0, [data[k]])[0] for k in live}
        else:
            jac = [_jacobian_rows([jacs[k] for k in live], N)]
            blocks = dict(zip(live, linearize(p, W[live], [data[k] for k in live], jacobians=jac, rows=own(live))))
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
            R_try = kkt_residual(p, W_try, [data[k] for k in S], jacobians=jac, rows=own(S))
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
