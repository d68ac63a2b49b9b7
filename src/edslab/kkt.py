"""Linearization, KKT assembly, and an equality-constrained Newton solver.

The KKT residual, the Newton step and the rows of the mixed Hessian use the
stage-ordered primal-dual vector of `problem.PrimalDualTrajectory`,
[lam_{-1}; x_0; u_0; lam_0; ...; lam_{N-1}; x_N].  The dense J and H, kept
as test references and the dense gamma fallback, use the stacked
orderings: primal variables [x_0; u_0; x_1; u_1; ...; x_N], multipliers
[lam_{-1}; lam_0; ...; lam_{N-1}].  The constraint Jacobian is block bidiagonal with a
leading T row block; stage row block i is [-A_i, -B_i, I].  The primal
Hessian is block diagonal in (Q_i, R_i) with S_i coupling x_i to u_i inside
each stage.

The residual and the linearization evaluate every stage at once.  The
blocks w(0), ..., w(N-1) of the stage-ordered vector form one contiguous
(N, 2 n_x + n_u) array, whose columns give the stacked X, U and Lam
without a copy.  One sourcing helper, `_stage_terms`, keyed by oracle
name, calls the problem's stage-batched oracle once on all the rows and
checks each term's size; the oracles supply their derivatives
analytically, and nothing is differenced.  The data rows are the view
`DataTrajectory.stages[:N]` of each point.  The terminal cost's gradient
and Hessian come from its analytic oracles, through `_terminal_terms`.
Both then assemble from those arrays in a few array operations, and
`StageBlocks` keeps every block family stacked.

The Newton step never forms the KKT matrix.  `factor_kkt` runs the
backward Riccati recursion of Rao, Wright and Rawlings (JOTA 99, 1998) on
the stage blocks, one Cholesky factor of Rhat_k = R_k + B_k^T P_{k+1} B_k
per stage: the shifted KKT matrix has the saddle-point inertia (n_primal
positive, n_dual negative eigenvalues) exactly when every pivot is positive
definite, which is the Newton gate, with no tolerance.  `solve_kkt` takes a
vector or a matrix of columns through one backward and one forward sweep.
It costs O(N (n_x + n_u)^3) time and O(N (n_x + n_u)^2) memory per Newton
iteration, and `certify`'s gamma runs the same factor and solve at shifts
below the reduced Hessian's spectrum.  `solve_batch` runs Newton on many
data sets from one warm start in lock step, the residual and linearization
taking every point's stages at once and points with bit-equal KKT matrices
sharing one factor: the perturbation experiments of an LQ problem, all
re-solved from the base solution, take one factorization between them.
Their iteration 0 is taken once (`_Start`): each distinct (stage, data) row
at w0 goes through the oracles once, and points with point 0's blocks share
its `StageBlocks` object.

The KKT residual returned here is exactly the gradient of
`problem.evaluate_lagrangian` in the entries of the trajectory's vector
(the multiplier entries are the negated constraint residuals, per the
`objective - lam @ c` pairing), so finite-differencing the Lagrangian
reproduces it.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  numpy 2 loads it lazily, else inside a run, on its first default_rng
import scipy

from .errors import ConfigurationError, NonconvergenceError, RegularityError
from .problem import (
    Array,
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    _integer,
    _real,
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

    Every family is a stacked array with a leading stage axis, of shape
    (N + 1, n_x, n_x) for Q, (N, n_u, n_u) for R, (N, n_x, n_u) for S and
    B, (N, n_x, n_x) for A, (N + 1, n_x, n_d) for E, (N, n_u, n_d) for F
    and (N, n_x, n_d) for G; the constructor stacks lists of per-stage
    blocks into copies.
    """

    dims: Dimensions
    T: Array
    Q: Array
    R: Array
    S: Array
    E: Array
    F: Array
    A: Array
    B: Array
    G: Array

    def __post_init__(self):
        N, n_x, n_u, n_d = self.dims.N, self.dims.n_x, self.dims.n_u, self.dims.n_d
        for name, shape in (
            ("Q", (N + 1, n_x, n_x)),
            ("R", (N, n_u, n_u)),
            ("S", (N, n_x, n_u)),
            ("E", (N + 1, n_x, n_d)),
            ("F", (N, n_u, n_d)),
            ("A", (N, n_x, n_x)),
            ("B", (N, n_x, n_u)),
            ("G", (N, n_x, n_d)),
        ):
            M = np.array(getattr(self, name), dtype=float)
            if M.shape != shape:
                raise ConfigurationError(f"StageBlocks.{name}: expected shape {shape}, got {M.shape}")
            setattr(self, name, M)

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
        E: Array | None = None,
        n_d: int = 0,
    ) -> "StageBlocks":
        """Replicate constant blocks along a horizon (Q also terminal, F and
        G zero); handy for certificate studies that never touch oracles."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n_x = A.shape[0]
        B = np.asarray(B, dtype=float).reshape(n_x, -1)
        n_u = B.shape[1]
        Q = _sym(np.atleast_2d(np.asarray(Q, dtype=float)))
        R = _sym(np.asarray(R, dtype=float).reshape(n_u, n_u))
        S = np.zeros((n_x, n_u)) if S is None else np.asarray(S, dtype=float).reshape(n_x, n_u)
        T = np.zeros((0, n_x)) if T is None else np.atleast_2d(np.asarray(T, dtype=float))
        n_0 = T.shape[0]
        if E is not None:
            n_d = np.asarray(E).shape[1]
        E = np.zeros((n_x, n_d)) if E is None else np.asarray(E, dtype=float).reshape(n_x, n_d)
        return cls(
            dims=Dimensions(N, n_x, n_u, n_d, n_0),
            T=T,
            Q=np.broadcast_to(Q, (N + 1, n_x, n_x)),
            R=np.broadcast_to(R, (N, n_u, n_u)),
            S=np.broadcast_to(S, (N, n_x, n_u)),
            E=np.concatenate([np.broadcast_to(E, (N, n_x, n_d)), np.zeros((1, n_x, n_d))]),
            F=np.zeros((N, n_u, n_d)),
            A=np.broadcast_to(A, (N, n_x, n_x)),
            B=np.broadcast_to(B, (N, n_x, n_u)),
            G=np.zeros((N, n_x, n_d)),
        )


# Newton's regularization, from REG0 tenfold up to REG_MAX, and its line
# search's backtracking factor and Armijo constant (Nocedal and Wright, ch. 3)
REG0, REG_MAX = 1e-8, 1e-2
LS_BETA, LS_SIGMA = 0.5, 1e-4


@dataclass(frozen=True)
class SolveOptions:
    """Newton stops at a KKT residual inf-norm of `tol_kkt` or after
    `max_iter` iterations; REG0, REG_MAX, LS_BETA and LS_SIGMA are fixed."""

    tol_kkt: float = 1e-9
    max_iter: int = 100

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _integer(self.max_iter, "max_iter"))
        if not _real(self.tol_kkt, "tol_kkt") > 0:
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
# derivative sourcing: the stage-batched oracles and the terminal oracles


class _Stages(NamedTuple):
    """Rows of stages: row r of X, U, Lam and D holds the x, u, lam and d
    of one stage (`_stages` gives row k N + i to stage i of point k)."""

    X: Array
    U: Array
    Lam: Array
    D: Array


def _stages(p: DOProblem, W: Array, data: list) -> _Stages:
    dims = p.dims
    rows = W[:, dims.n_0 : dims.w_offsets[-2]].reshape(-1, 2 * dims.n_x + dims.n_u)
    D = np.concatenate([d.stages[: dims.N] for d in data])
    return _Stages(rows[:, : dims.n_x], rows[:, dims.n_x : dims.n_z], rows[:, dims.n_z :], D)


def _terminal(p: DOProblem, W: Array, data: list) -> tuple:
    """x_N and d_N of every point, as the rows of two arrays."""
    return W[:, p.dims.w_offsets[-2] :], np.array([d.stages[-1] for d in data])


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
    """The terms of the stage-batched oracle `<name>_batch(X, U, D[, Lam])`
    at the rows of `st`, in one call, each with a leading row axis.
    `shapes` spells each term's per-stage shape in the sizes of x, u and d,
    "xd" for (n_x, n_d).  A single term is returned in a one-element
    list."""
    sizes = {"x": st.X.shape[1], "u": st.U.shape[1], "d": st.D.shape[1]}
    per_stage = [tuple(sizes[k] for k in shape) for shape in shapes]
    if not len(st.X):  # no rows: no call
        return [np.zeros((0, *s)) for s in per_stage]
    out = getattr(p.oracles, f"{name}_batch")(st.X, st.U, st.D, *((st.Lam,) if with_lam else ()))
    terms = zip([out] if len(shapes) == 1 else out, per_stage, strict=True)
    return [_shaped(t, s, f"{name}_batch", (len(st.X),)) for t, s in terms]


def _terminal_terms(p: DOProblem, x_N: Array, D_N: Array, hess: bool = False) -> list:
    """[g] of the terminal cost, or with `hess` [Q, E], at each row of x_N
    and D_N, stacked."""
    n_x, name = x_N.shape[1], "terminal_cost_hess" if hess else "terminal_cost_grad"
    oracle = getattr(p.oracles, name)
    shapes = [(n_x, n_x), (n_x, D_N.shape[1])] if hess else [(n_x,)]
    out = [oracle(x, d) if hess else (oracle(x, d),) for x, d in zip(x_N, D_N)]
    return [np.array([_shaped(m, s, name) for m in t]) for t, s in zip(zip(*out), shapes, strict=True)]


_HESSIAN = ("xx", "xu", "uu", "xd", "ud")


def _block_terms(p: DOProblem, st: _Stages, x_N: Array, D_N: Array) -> tuple:
    """(Q, R, S, E, F) of the stage Lagrangians at the rows of `st`, (Q_N, E_N) at x_N and D_N."""
    Qc, Sc, Rc, Ec, Fc = _stage_terms(p, st, "stage_cost_hess", _HESSIAN)
    Hxx, Hxu, Huu, Hxd, Hud = _stage_terms(p, st, "dynamics_hess_vec", _HESSIAN, with_lam=True)
    QN, EN = _terminal_terms(p, x_N, D_N, hess=True)
    return _sym(Qc + Hxx), _sym(Rc + Huu), Sc + Hxu, Ec + Hxd, Fc + Hud, _sym(QN), EN


def linearize(p: DOProblem, traj, data, *, jacobians: list | None = None):
    """All per-stage derivative blocks at (traj, data).  The Q/S/R/E/F blocks
    differentiate the stage Lagrangians, so they include the
    multiplier-weighted dynamics curvature.  `jacobians`, when given, holds
    the stacked (A, B, G) that `kkt_residual` evaluated at this same
    (traj, data); they are used instead of evaluating the dynamics Jacobian
    again.  A batch of points (see `kkt_residual`) gives a list with one
    `StageBlocks` per point."""
    W, data, single = _points(p, traj, data)
    dims, N = p.dims, p.dims.N
    st = _stages(p, W, data)
    if jacobians is None:
        A, B, G = _stage_terms(p, st, "dynamics_jac", ("xx", "xu", "xd"))
    else:
        A, B, G = jacobians[0]
    Q, R, S, E, F, QN, EN = _block_terms(p, st, *_terminal(p, W, data))
    blocks = []
    for k in range(len(W)):
        s = slice(k * N, (k + 1) * N)
        Qk, Ek = np.concatenate([Q[s], QN[k][None]]), np.concatenate([E[s], EN[k][None]])
        blocks.append(StageBlocks(dims, p.T.copy(), Qk, R[s], S[s], Ek, F[s], A[s], B[s], G[s]))
    return blocks[0] if single else blocks


# ---------------------------------------------------------------------------
# assembly: dense H and J (for certificates), sparse mixed Hessian (for tests)


def assemble_jacobian(blocks: StageBlocks) -> Array:
    """Constraint Jacobian: leading T row block, then stage rows
    [-A_i, -B_i, I] on the columns of (x_i, u_i, x_{i+1}) in the stacked
    primal ordering."""
    dims = blocks.dims
    N, n_x, n_z, n_0 = dims.N, dims.n_x, dims.n_z, dims.n_0
    J = np.zeros((dims.n_dual, dims.n_primal))
    J[:n_0, :n_x] = blocks.T
    rows = np.concatenate([-blocks.A, -blocks.B, np.broadcast_to(np.eye(n_x), blocks.A.shape)], axis=2)
    for i in range(N):
        J[n_0 + i * n_x : n_0 + (i + 1) * n_x, i * n_z : (i + 1) * n_z + n_x] = rows[i]
    return J


def assemble_hessian(blocks: StageBlocks) -> Array:
    """Primal Hessian: block diagonal in the stage blocks [[Q_i, S_i],
    [S_i^T, R_i]], terminal Q_N last."""
    N, n_z = blocks.dims.N, blocks.dims.n_z
    H = np.zeros((blocks.dims.n_primal, blocks.dims.n_primal))
    stages = np.block([[blocks.Q[:N], blocks.S], [blocks.S.swapaxes(1, 2), blocks.R]])
    for i in range(N):
        H[i * n_z : (i + 1) * n_z, i * n_z : (i + 1) * n_z] = stages[i]
    H[N * n_z :, N * n_z :] = blocks.Q[N]
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
    import scipy.sparse  # a test reference: the run path loads no scipy.sparse

    dims = blocks.dims
    N, n_x, n_u, n_z, n_0, n_d = dims.N, dims.n_x, dims.n_u, dims.n_z, dims.n_0, dims.n_d
    # rows of x_i (i in [0, N]), u_i and lam_i in the stage-ordered vector
    rx = np.array(dims.w_offsets[1:-1])
    ru, rl = rx[:N] + n_x, rx[:N] + n_z
    # columns of x_i, u_i, lam_i and d_i in [lam_{-1}; d_{-1}; x_0; u_0;
    # lam_0; d_0; ...; x_N; d_N]
    cx = 2 * n_0 + np.arange(N + 1) * (2 * n_x + n_u + n_d)
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
        (rx, cd, n_x, n_d, blocks.E),
        (ru, cd[:N], n_u, n_d, blocks.F),
        (rl, cd[:N], n_x, n_d, blocks.G),
    )
    rows, cols = zip(*(_block_indices(*part[:4]) for part in parts))
    return scipy.sparse.coo_array(
        (np.concatenate([V.ravel() for *_, V in parts]), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dims.n_w, cd[N] + n_d),
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


def kkt_residual(p: DOProblem, traj, data, *, jacobians: list | None = None) -> Array:
    """Gradient of the Lagrangian in `traj.vector`, so in the same stage
    order; zero exactly at stationary points.  The multiplier entries are
    the negated constraint residuals.  The dynamics Jacobians (A, B, G),
    stacked over the stages, are appended to `jacobians` when it is given,
    for `linearize` at the same point.

    For a batch of P points, the rows of a (P, n_w) array `traj` with P
    data trajectories, all P N stages go through each batched oracle at
    once, the residuals are rows too, and (A, B, G) are stacked over the
    P N stage rows."""
    W, data, single = _points(p, traj, data)
    stages, (A, B, G) = _stage_residuals(p, W, _stages(p, W, data))
    (gN,) = _terminal_terms(p, *_terminal(p, W, data))
    if jacobians is not None:
        jacobians.append((A, B, G))
    dims, end = p.dims, p.dims.w_offsets[-2]
    init = [d.init - p.T @ x_0 for d, x_0 in zip(data, W[:, dims.n_0 : dims.n_0 + dims.n_x])]
    r = np.hstack([np.reshape(init, (len(W), dims.n_0)), stages.reshape(len(W), -1), gN - W[:, end - dims.n_x : end]])
    return r[0] if single else r


# ---------------------------------------------------------------------------
# the stage-structured KKT factor: a backward Riccati recursion


def _band_cholesky():
    """LAPACK's dpbtrf and dpbtrs from scipy's compiled `scipy.linalg._flapack`,
    loaded from its file without running `scipy/linalg/__init__.py` (most of
    a run's start-up time and memory) and registered under its own name, so
    a later `import scipy.linalg` shares the module; `get_lapack_funcs`,
    which returns the same routines, where the file does not load."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        linalg = os.path.join(os.path.dirname(scipy.__file__), "linalg")
        try:
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(linalg, "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            from scipy.linalg import get_lapack_funcs

            return get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)
        sys.modules[name] = module
    return module.dpbtrf, module.dpbtrs


_pbtrf, _pbtrs = _band_cholesky()


class _Chain(NamedTuple):
    """Stage blocks as the chain x_{k+1} = AB_k [x_k; u_k] of null(J), with
    H_k = [[Q_k, S_k], [S_k^T, R_k]], Q_N, a basis X0 of null(T), T^+."""

    AB: Array
    H: Array
    Q_N: Array
    X0: Array
    T_pinv: Array


def _chain(blocks: StageBlocks) -> _Chain:
    """The `_Chain` of `blocks`; RegularityError when T, so J, is rank
    deficient by the dense path's rank rule."""
    N, n_x, n_z, n_0 = blocks.dims.N, blocks.dims.n_x, blocks.dims.n_z, blocks.dims.n_0
    X0, T_pinv = np.eye(n_x), np.zeros((n_x, 0))
    if n_0:
        U, s, Vt = np.linalg.svd(blocks.T)
        rank = int(np.sum(s > max(blocks.T.shape) * np.finfo(float).eps * s[0]))
        if rank < n_0:
            raise RegularityError("initial-state map T is rank deficient, so J is too")
        X0, T_pinv = Vt[rank:].T, Vt[:rank].T @ (U.T / s[:, None])
    H = np.empty((N, n_z, n_z))
    H[:, :n_x, :n_x], H[:, :n_x, n_x:], H[:, n_x:, n_x:] = blocks.Q[:-1], blocks.S, blocks.R
    H[:, n_x:, :n_x] = blocks.S.swapaxes(1, 2)
    return _Chain(np.concatenate([blocks.A, blocks.B], axis=2), H, blocks.Q[-1], X0, T_pinv)


def _band(n: int, m: int) -> Array:
    """Flat indices that read the full lower band of the trailing n x n block
    of an m x m matrix into band storage."""
    d, j = np.ogrid[:n, :n]
    return (m - n + np.minimum(j + d, n - 1)) * m + m - n + j


class RiccatiFactor(NamedTuple):
    """A `_riccati` factor: K_k, Rhat_k^{-1}, C_k = A_k - B_k K_k, C_k^T
    P_{k+1}, P_0..P_N, and the ?pbtrf band factor L0 of X0^T P_0 X0."""

    chain: _Chain
    K: Array
    R_inv: Array
    closed: Array
    closed_P: Array
    P: Array
    L0: Array


def _riccati(chain: _Chain, sigma: float) -> RiccatiFactor | None:
    """Backward Riccati recursion of a `_Chain` shifted by -sigma I: P_N =
    Q_N - sigma I, M_k = AB_k^T P_{k+1} AB_k + H_k - sigma I, Rhat_k =
    M_k[u, u], K_k = Rhat_k^{-1} M_k[u, x], P_k = M_k[x, x] - M_k[x, u]
    K_k.  By Sylvester's law and Haynsworth additivity every Rhat_k and X0^T
    P_0 X0 is positive definite iff the reduced Hessian of H - sigma I is,
    iff the shifted KKT matrix has n_primal positive and n_dual negative
    eigenvalues: one ?pbtrf each, no tolerance.  None when a test fails;
    FloatingPointError when not finite (?pbtrf passes NaN)."""
    AB, H, Q_N, X0, _ = chain
    N, n_x, n_z = AB.shape
    n_u = n_z - n_x
    KR, band = np.zeros((N, n_u, n_z)), _band(n_u, n_z)  # KR_k = Rhat_k^{-1} [M_k[u, x] | I]
    P = np.empty((N + 1, n_x, n_x))
    H, P[N], G = H - sigma * np.eye(n_z), Q_N - sigma * np.eye(n_x), np.eye(n_u, n_z, n_x)
    for k in range(N - 1, -1, -1):
        M = AB[k].T @ (P[k + 1] @ AB[k]) + H[k]
        L, info = _pbtrf(M.take(band), lower=1) if n_u else (None, 0)
        if info:
            if np.isfinite(M).all():
                return None
            raise FloatingPointError
        G[:, :n_x] = M[n_x:, :n_x]
        KR[k] = _pbtrs(L, G, lower=1)[0] if n_u else G
        Pk = M[:n_x, :n_x] - M[:n_x, n_x:] @ KR[k, :, :n_x]
        P[k] = 0.5 * (Pk + Pk.T)  # A^T P A grows its asymmetry by |A|^2 a stage
    F0 = X0.T @ P[0] @ X0
    L0, info = _pbtrf(F0.take(_band(len(F0), len(F0))), lower=1) if len(F0) else (F0, 0)
    if not (np.isfinite(P).all() and np.isfinite(KR).all()):
        raise FloatingPointError
    if info:
        return None
    K, R_inv = KR[:, :, :n_x], KR[:, :, n_x:]
    closed = AB[:, :, :n_x] - AB[:, :, n_x:] @ K
    return RiccatiFactor(chain, K, R_inv, closed, closed.swapaxes(1, 2) @ P[1:], P, L0)


def factor_kkt(blocks: StageBlocks, reg: float = 0.0) -> RiccatiFactor | None:
    """`_riccati` at sigma = -reg: the factor of K + reg * I_primal for the
    KKT matrix K = [[H, -J^T], [-J, 0]] of `blocks`, in O(N (n_x + n_u)^3)
    time.  None when a pivot test fails (the shifted K has not n_primal
    positive and n_dual negative eigenvalues), a block entry is not finite
    or P overflows, as along an unstable mode that no input reaches
    (`ti_blocks(10 I, [1; 0], N=400)` of the certificate tests; no Newton
    solve of the tests or the benchmark); RegularityError when T is rank
    deficient, which no shift mends."""
    if not all(np.isfinite(getattr(blocks, f)).all() for f in "TQRSAB"):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _riccati(_chain(blocks), -reg)
        except FloatingPointError:
            return None


def solve_kkt(F: RiccatiFactor, rhs: Array) -> Array:
    """(K + reg * I_primal)^{-1} rhs from a `factor_kkt` factor, for a
    stage-ordered vector or each column of an (n_w, c) matrix, unchecked.
    For primal rhs g and dual rhs h, backward q_N = g_xN, q_k = g_x - K_k^T
    g_u + C_k^T (P_{k+1} h_k + q_{k+1}) with C_k = A_k - B_k K_k; forward
    x_0 = x_p + X0 xi with T x_p = -h_{-1} and X0^T P_0 X0 xi = X0^T (q_0 -
    P_0 x_p), u_k = Rhat_k^{-1} (g_u + B_k^T (q_{k+1} + P_{k+1} h_k)) - K_k
    x_k, x_{k+1} = A_k x_k + B_k u_k - h_k (so J x = -h to rounding), and
    lam_k = P_{k+1} x_{k+1} - q_{k+1}, T^T lam_{-1} = P_0 x_0 - q_0.  A lone
    column, for which BLAS takes another kernel, is solved beside a zero
    one: rounded as the first of a pair of points that share a factor."""
    (AB, _, _, X0, T_pinv), K, R_inv, closed, closed_P, P, L0 = F
    N, n_x, n_z = AB.shape
    Y = np.reshape(rhs, (len(rhs), -1))
    width = Y.shape[1]
    Y = np.ascontiguousarray(np.hstack([Y, np.zeros_like(Y)]) if width == 1 else Y, dtype=float)
    n_0, end, c = T_pinv.shape[1], len(Y) - n_x, Y.shape[1]
    rows = Y[n_0:end].reshape(N, -1, c)
    g_x, g_u, h = rows[:, :n_x], rows[:, n_x:n_z], rows[:, n_z:]
    B = AB[:, :, n_x:]
    # products with the stack y_k, [q_k; I] backward and [x_k; I; u_k] forward
    back = np.concatenate([closed.swapaxes(1, 2), g_x - K.swapaxes(1, 2) @ g_u + closed_P @ h], axis=2)
    y = np.zeros((N + 1, n_z + c, c))
    y[:, n_x : n_x + c], y[N, :n_x] = np.eye(c), Y[end:]
    for k in range(N - 1, -1, -1):
        np.matmul(back[k], y[k + 1, : n_x + c], out=y[k, :n_x])
    q = y[:, :n_x].copy()
    kappa = R_inv @ (g_u + B.swapaxes(1, 2) @ (q[1:] + P[1:] @ h))
    x_p = -T_pinv @ Y[:n_0]
    r0 = X0.T @ (q[0] - P[0] @ x_p)
    y[0, :n_x] = x_p + X0 @ (_pbtrs(L0, r0, lower=1)[0] if len(L0) else r0)
    gain, dyn = np.concatenate([-K, kappa], axis=2), np.concatenate([AB[:, :, :n_x], -h, B], axis=2)
    for k in range(N):
        np.matmul(gain[k], y[k, : n_x + c], out=y[k, n_x + c :])
        np.matmul(dyn[k], y[k], out=y[k + 1, :n_x])
    x, X = y[:, :n_x], np.empty_like(Y)
    out = X[n_0:end].reshape(N, -1, c)
    out[:, :n_x], out[:, n_x:n_z], out[:, n_z:] = x[:N], y[:N, n_x + c :], P[1:] @ x[1:] - q[1:]
    X[:n_0], X[end:] = T_pinv.T @ (P[0] @ x[0] - q[0]), x[N]
    return X[:, :width].reshape(np.shape(rhs))


def _jacobian_rows(jacs: list, N: int) -> tuple:
    """Stacked (A, B, G) of points given as (the (A, B, G) of a residual
    call, index in it): views when consecutive in one call, else copies."""
    src, start = jacs[0]
    if all(s is src and i == start + n for n, (s, i) in enumerate(jacs)):
        return tuple(t[start * N : (start + len(jacs)) * N] for t in src)
    return tuple(np.concatenate([s[t][i * N : (i + 1) * N] for s, i in jacs]) for t in range(3))


def _same_matrix(a: StageBlocks, b: StageBlocks) -> bool:
    """Whether T, Q, R, S, A and B, all that `factor_kkt` reads, are equal
    bit for bit in a and b."""
    return a is b or all(np.array_equal(getattr(a, f).view(np.int64), getattr(b, f).view(np.int64)) for f in "TQRSAB")


class _Start:
    """Iteration 0 of `solve_batch` for all its points, all at w0.  Point 0
    goes through `kkt_residual` and `linearize`; of the others, only the
    stages whose data differ from point 0's in their bits (-0.0 is not 0.0)
    go through the oracles, each distinct (stage, data) row once, row
    rows[k, i] of `table` holding point k's stage i.  Points whose rows
    leave Q, R, S, A and B bit-equal (`same`) take point 0's `StageBlocks`
    object `ref`."""

    def __init__(self, p: DOProblem, w0: PrimalDualTrajectory, data: list):
        dims, N, P, end = p.dims, p.dims.N, len(data), p.dims.w_offsets[-2]
        self.W0, jac = w0.vector[None], []
        stages = np.array([d.stages for d in data])
        bits = stages.view(np.int64)
        differs = (bits != bits[:1]).any(axis=2)  # stages 0..N whose data differ from point 0's
        self.rows, own = np.tile(np.arange(N), (P, 1)), {}
        for k, i in np.argwhere(differs[:, :N]).tolist():
            self.rows[k, i] = own.setdefault((i, stages[k, i].tobytes()), (N + len(own), i, stages[k, i]))[0]
        self.n_rows, I, D = N + len(own), [i for _, i, _ in own.values()], [d for *_, d in own.values()]
        I, D = (I * 2, D * 2) if len(I) == 1 else (I, D)  # a batched oracle rounds a lone row differently
        D = np.reshape(D, (len(I), dims.n_d))
        st = _Stages(*np.split(dims.w_rows(w0.vector)[I], [dims.n_x, dims.n_z], axis=1), D)
        last = np.flatnonzero(differs[:, N])  # the points with terminal data of their own
        terminal = _terminal(p, np.repeat(self.W0, len(last) + 1, axis=0), [data[0], *(data[k] for k in last)])
        r0 = kkt_residual(p, self.W0, data[:1], jacobians=jac)[0]
        own_rows, (A, B, _) = _stage_residuals(p, self.W0, st, I)
        self.table = np.concatenate([r0[dims.n_0 : end].reshape(N, -1), own_rows])
        self.init = np.reshape([d.init for d in data], (P, dims.n_0)) - p.T @ w0.vector[dims.n_0 : dims.n_0 + dims.n_x]
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


# Points per chunk of `solve_batch`: these bytes over 8 n_w (2 n_x + n_u)^2, the
# size of a dense per-point KKT factor, which Newton no longer forms; so 7
# points of the N = 60 lq_chain and 2 of the quadrotor.  The value stays: the
# chunk decides which points share a batched oracle call, and so the last bits
# of profiles.csv.
_CHUNK_BYTES = 12 * 2**20


def solve_equality_nlp(
    p: DOProblem,
    data: DataTrajectory,
    w0: PrimalDualTrajectory | None = None,
    opts: SolveOptions | None = None,
) -> SolveResult:
    """Newton on the first-order conditions with a backtracking line search
    on the squared residual norm: the one-point call of `solve_batch`.

    When `factor_kkt` rejects the KKT matrix (a Riccati pivot is not
    positive definite, so neither is the reduced Hessian) or the search
    direction fails to reduce the residual, eps * I is added to the primal
    Hessian block, starting at REG0 and escalating tenfold up to REG_MAX.
    Backtracking shrinks the step by LS_BETA until the Armijo test with
    LS_SIGMA passes.  Raises RegularityError when no usable direction
    exists at maximal regularization or T is rank deficient, and
    NonconvergenceError when max_iter is exhausted; all carry the last
    iterate.
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
    shifted KKT matrices are equal bit for bit share one `factor_kkt` and
    one `solve_kkt` of all their right-hand sides.  Step length,
    regularization, convergence and failure stay per point.  The points go
    in chunks, so memory does not grow with their number; the first
    iteration, all at w0, is taken once for all points (`_Start`), and its
    factors serve every chunk.  `stats` gets the counts `newton_rounds` (chunk iterations),
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
    with np.errstate(over="ignore", invalid="ignore"):  # as in `_lockstep`: a non-finite residual fails its point
        start = _Start(p, w0, data)
    stats.update({"chunk_points": size, "start_rows": start.n_rows, "residual_evals": stats["residual_evals"] + 1})
    for c in range(0, len(data), size):
        yield from _lockstep(p, data[c : c + size], start, slice(c, c + size), opts, first, stats)


def _steps(todo: list, R: Array, reg: dict, blocks: dict, pool: list, stats: dict) -> dict:
    """Newton steps for -R[k] of the points k in `todo` at regularization
    reg[k]: None where `factor_kkt` rejects the shifted K or the step is not
    finite, the RegularityError of a rank-deficient T.  `pool` holds [reg,
    blocks, factor] entries (a rejected factor as None or that error), each
    factored once; one solve takes the columns of all points that share it."""
    groups, out = {}, {}
    for k in todo:
        if not np.isfinite(R[k]).all():
            out[k] = None
            continue
        entry = next((e for e in pool if e[0] == reg[k] and _same_matrix(e[1], blocks[k])), None)
        if entry is None:
            try:
                factor = factor_kkt(blocks[k], reg[k])
            except RegularityError as exc:
                factor = exc
            entry = [reg[k], blocks[k], factor]
            pool.append(entry)
            stats["factorizations"] += 1
        groups.setdefault(id(entry), (entry[2], []))[1].append(k)
        blocks[k] = entry[1]  # equal bits: the copy is dropped
    for factor, ks in groups.values():
        if not isinstance(factor, RiccatiFactor):
            out.update(dict.fromkeys(ks, factor))
            continue
        Y = solve_kkt(factor, -R[ks].T)
        stats["solved_columns"] += len(ks)
        out.update((k, y if np.isfinite(y).all() else None) for k, y in zip(ks, Y.T))
    return out


def _lockstep(p: DOProblem, data: list, start: _Start, ks: slice, opts: SolveOptions, first: list, stats: dict) -> list:
    """The Newton loop of `solve_batch` on its points ks, whose data
    trajectories are `data`, from their `_Start`; `first` is the pool of
    the first iteration, shared across chunks."""
    dims, P, N = p.dims, len(data), p.dims.N
    W = np.repeat(start.W0, P, axis=0)
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
            blocks = dict(zip(live, linearize(p, W[live], [data[k] for k in live], jacobians=jac)))
        phi0 = {k: 0.5 * float(R[k] @ R[k]) for k in live}
        reg = dict.fromkeys(live, 0.0)
        need, alpha, step = list(live), {}, {}

        def escalate(k):
            reg[k] = REG0 if reg[k] == 0.0 else reg[k] * 10.0
            if reg[k] <= REG_MAX:
                need.append(k)
            else:
                msg = f"KKT system unusable at iteration {it} despite regularization up to {REG_MAX:g}"
                finish(k, it, RegularityError, msg)

        while need or alpha:
            todo, need[:] = list(need), []
            for k, y in _steps(todo, R, reg, blocks, first if it == 0 else [], stats).items():
                if isinstance(y, RegularityError):
                    finish(k, it, RegularityError, f"{y} (iteration {it})")
                elif y is None:
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
                if 0.5 * float(r @ r) <= (1.0 - 2.0 * LS_SIGMA * alpha[k]) * phi0[k]:
                    W[k], R[k] = W_try[i], r
                    jacs[k] = (jac[0], i)
                    rnorm[k], reg_seen[k] = np.abs(r).max(), max(reg_seen[k], reg[k])
                    del alpha[k]
                else:
                    alpha[k] *= LS_BETA
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
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual or step fails its point
            iterate(it, live)
