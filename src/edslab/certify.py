"""Regularity and system-theoretic certificates.

Every modulus is a measured eigenvalue or singular value at one point:

- the constraint-qualification modulus beta is the smallest eigenvalue of
  J J^T, and the coupling modulus L_observed is the spectral norm of the
  Lagrangian's full mixed second derivative M in (primal-dual, data)
  variables, i.e. the square root of the largest eigenvalue of M M^T.  Both
  Gram matrices are banded in the stage-interleaved ordering, so each
  eigenvalue is found by bisection on banded Cholesky factorizations, in
  O(N b^2) time and O(N b) memory for half-bandwidth b;
- the second-order modulus gamma is the smallest eigenvalue of the reduced
  Hessian Z^T H Z.  A basis of null(J) is condensed through the dynamics
  (the free x_0 directions and the controls, run forward through
  x_{k+1} = A_k x_k + B_k u_k under a stabilizing feedback so that the
  columns stay bounded when A is unstable), orthonormalized by one economic
  QR, checked against J one stage block at a time, and the smallest
  eigenvalue of Z^T H Z is taken by one symmetric eigensolve:
  O(N^3 n_u^2 (n_x + n_u)) time and O(N^2 n_u (n_x + n_u)) memory, with
  neither H nor J assembled.  The dense `sosc_modulus`, from an SVD of J,
  is the reference the tests compare against and the fallback when the
  check fails.

Windowed controllability/observability Gramians supply the
system-theoretic side; the point of the window scans is that their minima
stay bounded away from zero independently of the horizon length exactly
when the underlying property is uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigurationError, RegularityError
from .kkt import (
    StageBlocks,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,
    linearize,
    sparse_jacobian,
)
from .problem import Array, DataTrajectory, DOProblem, PrimalDualTrajectory

# Measured moduli at or below this are reported as certificate failures.
POSITIVITY_TOL = 1e-9
# Largest |S_i| entry and most negative Q_i eigenvalue that still pass the
# s_zero and q_psd flags.
S_ZERO_TOL = 1e-8
Q_PSD_TOL = 1e-8


def smallest_eigenvalue(M: Array) -> float:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return math.inf
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])


def state_transition(A_seq, a: int, b: int) -> Array:
    """Product A_b A_{b-1} ... A_a for a <= b; identity when a > b."""
    n = A_seq[0].shape[0] if len(A_seq) else 0
    P = np.eye(n)
    for k in range(a, b + 1):
        P = A_seq[k] @ P
    return P


# ---------------------------------------------------------------------------
# windowed Gramians on raw sequences


def controllability_matrix_seq(A_seq, B_seq, i: int, j: int) -> Array:
    """[A_{i+1:j} B_i, A_{i+2:j} B_{i+1}, ..., A_j B_{j-1}, B_j]."""
    if not 0 <= i <= j <= len(B_seq) - 1:
        raise ConfigurationError(f"window [{i}, {j}] out of range")
    cols = []
    for k in range(i, j + 1):
        cols.append(state_transition(A_seq, k + 1, j) @ B_seq[k])
    return np.hstack(cols)


def observability_matrix_seq(A_seq, Q_seq, i: int, j: int) -> Array:
    """Stack [Q_j A_{i:j-1}; ...; Q_{i+1} A_i; Q_i] top-down."""
    if not 0 <= i <= j <= len(Q_seq) - 1:
        raise ConfigurationError(f"window [{i}, {j}] out of range")
    rows = []
    for m in range(j, i - 1, -1):
        rows.append(Q_seq[m] @ state_transition(A_seq, i, m - 1))
    return np.vstack(rows)


@dataclass
class WindowScan:
    """Per-window moduli for one window length; windows start at
    i = 0, 1, ..., covering the stage range."""

    window_length: int
    values: list = field(default_factory=list)

    @property
    def minimum(self) -> float:
        return min(self.values) if self.values else math.inf


def scan_controllability_seq(A_seq, B_seq, window: int) -> WindowScan:
    M = len(B_seq)
    if not 0 <= window <= M - 1:
        raise ConfigurationError(f"window length {window} out of range [0, {M - 1}]")
    scan = WindowScan(window_length=window)
    for i in range(M - window):
        C = controllability_matrix_seq(A_seq, B_seq, i, i + window)
        scan.values.append(smallest_eigenvalue(C @ C.T))
    return scan


def scan_observability_seq(A_seq, Q_seq, window: int) -> WindowScan:
    M = len(Q_seq)
    if not 0 <= window <= M - 1:
        raise ConfigurationError(f"window length {window} out of range [0, {M - 1}]")
    scan = WindowScan(window_length=window)
    for i in range(M - window):
        O = observability_matrix_seq(A_seq, Q_seq, i, i + window)
        scan.values.append(smallest_eigenvalue(O.T @ O))
    return scan


# ---------------------------------------------------------------------------
# StageBlocks front ends


def controllability_matrix(blocks: StageBlocks, i: int, j: int) -> Array:
    return controllability_matrix_seq(blocks.A, blocks.B, i, j)


def observability_matrix(blocks: StageBlocks, i: int, j: int) -> Array:
    """Q indices may run to the terminal stage N; A is needed only to j-1."""
    if not 0 <= i <= j <= blocks.dims.N:
        raise ConfigurationError(f"window [{i}, {j}] out of range")
    return observability_matrix_seq(blocks.A, blocks.Q, i, j)


def scan_uniform_controllability(blocks: StageBlocks, window: int) -> WindowScan:
    """Minimum of the smallest Gramian eigenvalue over all forward windows
    of exactly the given length inside [0, N-1].  Checking only
    minimal-length windows suffices: enlarging a window adds columns, so the
    Gramian is monotone nondecreasing in the window length."""
    return scan_controllability_seq(blocks.A, blocks.B, window)


def scan_uniform_observability(blocks: StageBlocks, window: int) -> WindowScan:
    """Observability counterpart of `scan_uniform_controllability`; windows
    stay inside [0, N-1]."""
    return scan_observability_seq(blocks.A, blocks.Q[: blocks.dims.N], window)


def dual_sequences(A_seq, B_seq):
    """Reverse both sequences and transpose every matrix: controllability of
    (A, B) equals observability of the result."""
    return [a.T.copy() for a in reversed(A_seq)], [b.T.copy() for b in reversed(B_seq)]


def duality_check(blocks: StageBlocks, window: int, rel_tol: float = 1e-9):
    """Compare the controllability scan of (A, B) against the observability
    scan of the reversed, transposed sequences.  Returns (agree, max
    per-window discrepancy); agreement is judged on the window minima at
    relative tolerance."""
    ctrl = scan_controllability_seq(blocks.A, blocks.B, window)
    A_dual, Q_dual = dual_sequences(blocks.A, blocks.B)
    obs = scan_observability_seq(A_dual, Q_dual, window)
    M = len(blocks.B)
    disc = 0.0
    for i, v in enumerate(ctrl.values):
        # window [i, i+w] reflects onto the dual window starting at M-1-(i+w)
        v_dual = obs.values[M - 1 - (i + window)]
        disc = max(disc, abs(v - v_dual))
    agree = abs(ctrl.minimum - obs.minimum) <= rel_tol * max(1.0, abs(ctrl.minimum))
    return agree, disc


# ---------------------------------------------------------------------------
# NLP regularity moduli


_pbtrf = scipy.linalg.get_lapack_funcs("pbtrf", dtype=np.float64)

# Cap on bisection steps.  A bracket that starts at zero (a singular Gram
# matrix) never shrinks to one ulp; after 64 halvings it is far narrower
# than the eps * ||G|| to which a Cholesky test can resolve an eigenvalue.
_BISECTION_STEPS = 64


def _gram_eigenvalue(A, largest: bool) -> float:
    """Largest or smallest eigenvalue of the Gram matrix G = A A^T of a
    sparse A, by bisection on sigma.  G's lower band goes into LAPACK's
    band storage; sigma I - G (largest) or G - sigma I (smallest) is
    positive definite exactly when the banded Cholesky ?pbtrf succeeds.
    The brackets are [max diag G, ||A||_1 ||A||_inf] and [0, min diag G].
    Each step costs O(n b^2) for half-bandwidth b, and the result is
    deterministic."""
    G = (A @ A.T).tocoo()
    lower = G.row >= G.col
    r, c = G.row[lower], G.col[lower]
    band = np.zeros((int((r - c).max(initial=0)) + 1, G.shape[0]))
    band[r - c, c] = G.data[lower]
    if largest:
        absA = abs(A)
        lo, hi = float(band[0].max()), float(absA.sum(axis=0).max() * absA.sum(axis=1).max())
        band = -band
    else:
        lo, hi = 0.0, float(band[0].min())
    eps = np.finfo(float).eps
    for _ in range(_BISECTION_STEPS):
        if hi - lo <= eps * hi:
            break
        mid = 0.5 * (lo + hi)
        W = band.copy()
        W[0] += mid if largest else -mid
        _, info = _pbtrf(W, lower=1, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"?pbtrf: illegal value in argument {-info}")
        if (info == 0) == largest:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def licq_modulus(J) -> float:
    """Smallest eigenvalue of J J^T for a dense or sparse J; see
    `_gram_eigenvalue`."""
    J = scipy.sparse.csr_array(J if scipy.sparse.issparse(J) else np.atleast_2d(J), dtype=float)
    if J.shape[0] == 0:
        return math.inf
    if J.shape[0] > J.shape[1]:
        return 0.0
    return _gram_eigenvalue(J, largest=False)


def sosc_modulus(H: Array, J: Array) -> float:
    """Dense reference for `condensed_sosc_modulus`, and its fallback when
    the condensed basis fails its residual check: the smallest eigenvalue
    of Z^T H Z for an orthonormal null-space basis Z of J (basis-independent)
    from a full SVD of J, O(n^3) for n primal variables.  Returns +inf when
    the null space is trivial (second-order condition vacuous); raises
    RegularityError when J is rank deficient, in which case `licq_modulus`
    is the meaningful diagnostic."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    J = np.atleast_2d(np.asarray(J, dtype=float))
    if J.shape[0] == 0:
        Z = np.eye(J.shape[1] if J.shape[1] else H.shape[0])
    else:
        U, s, Vt = np.linalg.svd(J)
        tol = max(J.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int(np.sum(s > tol))
        if rank < J.shape[0]:
            raise RegularityError(
                "constraint Jacobian is rank deficient; check licq_modulus first"
            )
        Z = Vt[rank:].T
    if Z.shape[1] == 0:
        return math.inf
    return smallest_eigenvalue(Z.T @ H @ Z)


def _stabilizing_gains(blocks: StageBlocks) -> list:
    """Gains K_0, ..., K_{N-1} of the finite-horizon LQR with unit state and
    input weights: P_N = I, K_k = -(I + B_k^T P_{k+1} B_k)^{-1} B_k^T
    P_{k+1} A_k and P_k = I + K_k^T K_k + (A_k + B_k K_k)^T P_{k+1}
    (A_k + B_k K_k).  They depend on A and B only, and for a stabilizable
    pair the closed loop A_k + B_k K_k is exponentially stable over all but
    the last few stages.

    An unstable mode that no input reaches grows P without bound; once P is
    no longer finite, the earlier stages reuse the last finite gain."""
    dims = blocks.dims
    n_x, n_u = dims.n_x, dims.n_u
    K = np.zeros((n_u, n_x))
    gains = [K] * dims.N
    if n_u == 0:
        return gains
    P = np.eye(n_x)
    for k in range(dims.N - 1, -1, -1):
        if np.isfinite(P).all():
            A, B = blocks.A[k], blocks.B[k]
            BtP = B.T @ P
            K_k = -np.linalg.solve(np.eye(n_u) + BtP @ B, BtP @ A)
            closed = A + B @ K_k
            P = np.eye(n_x) + K_k.T @ K_k + closed.T @ P @ closed
            if np.isfinite(K_k).all():
                K = K_k
        gains[k] = K
    return gains


def condensed_null_basis(blocks: StageBlocks) -> Array:
    """Orthonormal basis Z of null(J), condensed through the dynamics.

    J w = 0 leaves free x_0 in null(T) and u_0, ..., u_{N-1}.  The controls
    are parametrized as u_k = K_k x_k + v_k with the stabilizing gains of
    `_stabilizing_gains`, and an orthonormal basis of null(T) together with
    unit v_k is run forward through x_{k+1} = A_k x_k + B_k u_k.  This gives
    a basis Y of null(J) with (n_x - n_0) + N n_u columns, from which x_0's
    free coordinates and v are read back with norm at most 1 + max_k
    ||K_k||, so sigma_min(Y) >= 1 / (1 + max_k ||K_k||).  Without the
    feedback, an unstable A makes the columns grow like ||A||^N and the
    QR below loses their O(1) entries to rounding.  One economic QR of Y
    gives Z.

    Raises RegularityError when J is rank deficient.  Every dynamics row
    block of J has an identity on x_{k+1}, so that happens exactly when T is
    rank deficient, judged by the dense path's max(shape) eps sigma_max rank
    rule on T's singular values."""
    dims = blocks.dims
    N, n_x, n_u, n_z = dims.N, dims.n_x, dims.n_u, dims.n_z
    if dims.n_0 > 0:
        _, s, Vt = np.linalg.svd(blocks.T)
        rank = int(np.sum(s > max(blocks.T.shape) * np.finfo(float).eps * s[0]))
        if rank < dims.n_0:
            raise RegularityError("initial-state map T is rank deficient, so J is too")
        Z0 = Vt[rank:].T
    else:
        Z0 = np.eye(n_x)
    cols = Z0.shape[1]
    # stacked primal rows [x_0; u_0; x_1; ...; x_N]; x_k and u_k depend only
    # on x_0's free directions and v_0, ..., v_k
    Y = np.zeros((dims.n_primal, cols + N * n_u), order="F")
    Y[:n_x, :cols] = Z0
    # an unstable mode that no input reaches can overflow the Riccati
    # recursion or the basis; Z is then non-finite and fails the residual
    # check of `condensed_sosc_modulus`
    with np.errstate(over="ignore", invalid="ignore"):
        gains = _stabilizing_gains(blocks)
        for k in range(N):
            x = slice(k * n_z, k * n_z + n_x)
            u = slice(k * n_z + n_x, (k + 1) * n_z)
            Y[u, :cols] = gains[k] @ Y[x, :cols]
            Y[u, cols : cols + n_u] = np.eye(n_u)
            cols += n_u
            Y[u.stop : u.stop + n_x, :cols] = blocks.A[k] @ Y[x, :cols] + blocks.B[k] @ Y[u, :cols]
    if cols == 0:
        return Y
    # Householder QR in Y's own storage; only the orthonormal factor is kept
    return scipy.linalg.qr(Y, mode="economic", overwrite_a=True, check_finite=False)[0]


def null_space_residual(blocks: StageBlocks, Z: Array) -> float:
    """Backward error of Z as a basis of null(J): ||J Z||_F over the
    largest Frobenius norm of a row block of J ([T] or [-A_k, -B_k, I]),
    computed one stage block at a time without forming J.  An orthonormal Z
    with J Z = E spans the null space of J - E Z^T exactly."""
    dims = blocks.dims
    n_x, n_z = dims.n_x, dims.n_z
    sq = float(np.sum((blocks.T @ Z[:n_x]) ** 2))
    scale = float(np.linalg.norm(blocks.T))
    for k in range(dims.N):
        r = k * n_z
        E = Z[r + n_z : r + n_z + n_x] - blocks.A[k] @ Z[r : r + n_x]
        E -= blocks.B[k] @ Z[r + n_x : r + n_z]
        sq += float(np.sum(E**2))
        block_sq = np.linalg.norm(blocks.A[k]) ** 2 + np.linalg.norm(blocks.B[k]) ** 2 + n_x
        scale = max(scale, math.sqrt(block_sq))
    return math.sqrt(sq) / scale if scale > 0 else 0.0


def condensed_sosc_modulus(blocks: StageBlocks) -> float:
    """Smallest eigenvalue of the reduced Hessian Z^T H Z for the condensed
    basis Z of `condensed_null_basis`, with H Z applied one stage block at a
    time and neither H nor J assembled.

    Same contract as the dense `sosc_modulus`: +inf when the null space is
    trivial; RegularityError when J is rank deficient.  Z is accepted when
    its `null_space_residual` is at most the dense path's max(shape) eps
    rank tolerance, i.e. when it is as backward stable as the SVD's basis.
    A sequence the feedback cannot stabilize can fail that test; gamma then
    comes from the dense `sosc_modulus`."""
    dims = blocks.dims
    N, n_x, n_z = dims.N, dims.n_x, dims.n_z
    Z = condensed_null_basis(blocks)
    if Z.shape[1] == 0:
        return math.inf
    if not null_space_residual(blocks, Z) <= dims.n_primal * np.finfo(float).eps:
        return sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
    HZ = np.empty_like(Z)
    for k in range(N):
        xs, us = slice(k * n_z, k * n_z + n_x), slice(k * n_z + n_x, (k + 1) * n_z)
        HZ[xs] = blocks.Q[k] @ Z[xs] + blocks.S[k] @ Z[us]
        HZ[us] = blocks.S[k].T @ Z[xs] + blocks.R[k] @ Z[us]
    HZ[N * n_z :] = blocks.Q[N] @ Z[N * n_z :]
    reduced = Z.T @ HZ
    del Z, HZ  # O(N^2); only the reduced Hessian is needed now
    return smallest_eigenvalue(reduced)


def mixed_hessian_norm(blocks: StageBlocks) -> float:
    """Spectral norm of the sparse mixed second derivative M of the
    Lagrangian in (primal-dual, data) variables: the square root of the
    largest eigenvalue of M M^T, see `_gram_eigenvalue`."""
    M = assemble_mixed_hessian(blocks)
    if min(M.shape) == 0:
        return 0.0
    return math.sqrt(_gram_eigenvalue(M, largest=True))


def blh_modulus(p: DOProblem, traj: PrimalDualTrajectory, data: DataTrajectory) -> float:
    """Observed bound on the Lagrangian's mixed second derivatives at one
    point: linearize, assemble, take the spectral norm."""
    return mixed_hessian_norm(linearize(p, traj, data))


def blh_bound_from_K(K: float) -> float:
    """Worst-case coupling norm implied by a uniform block-norm bound K:
    4 * max(4K, 1)."""
    if K < 0:
        raise ConfigurationError("block-norm bound K must be nonnegative")
    return 4.0 * max(4.0 * K, 1.0)


def max_block_norm(blocks: StageBlocks) -> float:
    """Largest spectral norm over every stage block and T."""
    out = 0.0
    groups = [blocks.Q, blocks.R, blocks.S, blocks.E, blocks.F, blocks.A, blocks.B, blocks.G]
    for group in groups:
        for M in group:
            if M.size:
                out = max(out, float(np.linalg.norm(M, 2)))
    if blocks.T.size:
        out = max(out, float(np.linalg.norm(blocks.T, 2)))
    return out


# ---------------------------------------------------------------------------
# full report


@dataclass
class CertificateReport:
    """Measured moduli plus pass/fail flags for the sufficient conditions of
    the system-theoretic route to exponential decay.

    `gamma` is +inf (with `sosc_vacuous`) when the constraint null space is
    trivial and None when the Jacobian is rank deficient; failures are
    report entries, never exceptions.  `failures` names, for each failed
    flag among ctrl_uniform, obs_uniform, r_positive, q_psd and s_zero, the
    window start or stage that set it; it is kept out of the text and CSV
    forms.
    """

    beta: float
    gamma: float | None
    sosc_vacuous: bool
    L_observed: float
    L_bound_from_K: float
    K: float
    r: float
    delta: float | None
    ctrl: WindowScan
    obs: WindowScan
    flags: dict
    failures: dict = field(default_factory=dict)

    @property
    def licq_ok(self) -> bool:
        return self.beta > POSITIVITY_TOL

    @property
    def sosc_ok(self) -> bool:
        return self.gamma is not None and (self.sosc_vacuous or self.gamma > POSITIVITY_TOL)

    @property
    def corollary_ok(self) -> bool:
        return all(self.flags.values())

    def _items(self):
        yield "beta", self.beta
        yield "gamma", self.gamma
        yield "sosc_vacuous", self.sosc_vacuous
        yield "licq_ok", self.licq_ok
        yield "sosc_ok", self.sosc_ok
        yield "L_observed", self.L_observed
        yield "L_bound_from_K", self.L_bound_from_K
        yield "K", self.K
        yield "r", self.r
        yield "delta", self.delta
        yield "ctrl_window", self.ctrl.window_length
        yield "ctrl_modulus", self.ctrl.minimum
        yield "obs_window", self.obs.window_length
        yield "obs_modulus", self.obs.minimum
        for name in sorted(self.flags):
            yield f"flag_{name}", self.flags[name]
        yield "corollary_ok", self.corollary_ok

    def to_text(self) -> str:
        lines = []
        for key, value in self._items():
            lines.append(f"{key} {_fmt_value(value)}")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self):
        return [(key, _fmt_value(value)) for key, value in self._items()]


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def build_report(
    p: DOProblem,
    traj: PrimalDualTrajectory,
    data: DataTrajectory,
    window_ctrl: int,
    window_obs: int,
) -> CertificateReport:
    """Populate every certificate at a converged primal-dual point."""
    blocks = linearize(p, traj, data)
    beta = licq_modulus(sparse_jacobian(blocks))
    try:
        gamma = condensed_sosc_modulus(blocks)
    except RegularityError:
        gamma = None
    vacuous = gamma is not None and math.isinf(gamma)
    L_observed = mixed_hessian_norm(blocks)
    K = max_block_norm(blocks)
    # per stage; an empty R (n_u = 0) has smallest eigenvalue +inf
    r_stages = [smallest_eigenvalue(R) for R in blocks.R]
    q_stages = [smallest_eigenvalue(Q) for Q in blocks.Q]
    s_stages = [float(np.abs(S).max()) if S.size else 0.0 for S in blocks.S]
    r = min(r_stages, default=math.inf)
    delta = None
    if p.dims.n_0 > 0:
        delta = smallest_eigenvalue(blocks.T @ blocks.T.T)
    ctrl = scan_uniform_controllability(blocks, window_ctrl)
    obs = scan_uniform_observability(blocks, window_obs)
    s_max = max(s_stages, default=0.0)
    q_min = min(q_stages)
    flags = {
        "k_bounded": bool(np.isfinite(K)),
        "delta_positive": True if delta is None else delta > POSITIVITY_TOL,
        "ctrl_uniform": ctrl.minimum > POSITIVITY_TOL,
        "q_psd": q_min >= -Q_PSD_TOL,
        "s_zero": s_max <= S_ZERO_TOL,
        "r_positive": (r > POSITIVITY_TOL) if math.isfinite(r) else True,
        "obs_uniform": obs.minimum > POSITIVITY_TOL,
    }
    # the window start or stage of each flag's worst value
    worst = {
        "ctrl_uniform": ("window_start", ctrl.values),
        "obs_uniform": ("window_start", obs.values),
        "r_positive": ("stage", r_stages),
        "q_psd": ("stage", q_stages),
        "s_zero": ("stage", [-s for s in s_stages]),
    }
    failures = {
        name: {key: int(np.argmin(values))}
        for name, (key, values) in worst.items()
        if not flags[name]
    }
    return CertificateReport(
        beta=beta,
        gamma=gamma,
        sosc_vacuous=vacuous,
        L_observed=L_observed,
        L_bound_from_K=blh_bound_from_K(K),
        K=K,
        r=r,
        delta=delta,
        ctrl=ctrl,
        obs=obs,
        flags=flags,
        failures=failures,
    )
