"""Regularity and system-theoretic certificates.

Every modulus is a measured eigenvalue or singular value at one point:

- the constraint-qualification modulus beta is the smallest eigenvalue of
  J J^T, and the coupling modulus L_observed is the spectral norm of the
  Lagrangian's full mixed second derivative M in (primal-dual, data)
  variables, i.e. the square root of the largest eigenvalue of M M^T.  Both
  Gram matrices are block tridiagonal in the stage-interleaved ordering,
  and both bands come from the stage blocks through one builder,
  `_gram_band`, with no sparse matrix.  Each eigenvalue is found by
  bisection on banded Cholesky factorizations, in O(N b^2) time and
  O(N b) memory for half-bandwidth b; inverse iteration finishes the
  bisection of M M^T;
- the second-order modulus gamma is the smallest eigenvalue of the reduced
  Hessian Z^T H Z.  The Newton step's backward Riccati factor (`kkt`) of
  the stage blocks shifted by -sigma I decides sigma < gamma exactly, with
  one Cholesky factorization per stage and no tolerance; block inverse
  iteration on its solves estimates gamma and two such tests prove it, in
  O(N n^3) time and O(N n^2) memory.  An unstable mode that T pins and no
  input reaches overflows the recursion, which then reruns on the states
  reachable from null(T).  The dense `sosc_modulus`, from an SVD of J, is the reference
  the tests compare against and the last fallback.

Windowed controllability/observability Gramians supply the
system-theoretic side; the point of the window scans is that their minima
stay bounded away from zero independently of the horizon length exactly
when the underlying property is uniform.  A scan of window length w builds
every window's matrix by 2w + 1 stacked products over the window starts and
takes their Gramians' smallest eigenvalues in one stacked eigensolve, in
O(N w n^3) time; the per-stage moduli of R, Q and S take one call each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, RegularityError
from .kkt import (
    RiccatiFactor,
    StageBlocks,
    _chain,
    _Chain,
    _pbtrf,
    _pbtrs,
    _riccati,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,  # unused here: perfbench/tracer.py wraps it at this lookup site
    linearize,
    solve_kkt,
)
from .problem import Array, DataTrajectory, DOProblem, PrimalDualTrajectory

# Measured moduli at or below this are reported as certificate failures.
POSITIVITY_TOL = 1e-9
# Largest |S_i| entry and most negative Q_i eigenvalue that still pass the
# s_zero and q_psd flags.
S_ZERO_TOL = 1e-8
Q_PSD_TOL = 1e-8


def smallest_eigenvalue(M: Array) -> float:
    return float(smallest_eigenvalues(np.atleast_2d(np.asarray(M, dtype=float))[None])[0])


def smallest_eigenvalues(M: Array) -> Array:
    """Smallest eigenvalue of the symmetric part of each matrix in a stack
    (k, n, n), from one stacked eigensolve; +inf for each when n = 0."""
    if M.shape[-1] == 0:
        return np.full(len(M), math.inf)
    return np.linalg.eigvalsh(0.5 * (M + M.swapaxes(1, 2)))[:, 0]


def state_transition(A_seq, a: int, b: int) -> Array:
    """Product A_b A_{b-1} ... A_a for a <= b; identity when a > b."""
    n = A_seq[0].shape[0] if len(A_seq) else 0
    P = np.eye(n)
    for k in range(a, b + 1):
        P = A_seq[k] @ P
    return P


def _transitions(A: Array, n: int, w: int):
    """For l = 0, ..., w, `state_transition(A, s, s + l - 1)` stacked over
    the starts s, by one stacked matmul per l in the same order."""
    P = np.broadcast_to(np.eye(n), (len(A) + 1, n, n))
    yield P
    for l in range(1, w + 1):
        P = A[l - 1 :] @ P[:-1]
        yield P


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
    A, B, starts = np.asarray(A_seq, dtype=float), np.asarray(B_seq, dtype=float), M - window
    # column block t of every window [i, i + window]: the (window - t)-step
    # transition from stage i + t + 1 times B_{i+t}, built from t = window down
    steps = zip(range(window, -1, -1), _transitions(A, B.shape[1], window))
    cols = [P[t + 1 :][:starts] @ B[t:][:starts] for t, P in steps]
    C = np.concatenate(cols[::-1], axis=2)
    return WindowScan(window, smallest_eigenvalues(C @ C.swapaxes(1, 2)).tolist())


def scan_observability_seq(A_seq, Q_seq, window: int) -> WindowScan:
    M = len(Q_seq)
    if not 0 <= window <= M - 1:
        raise ConfigurationError(f"window length {window} out of range [0, {M - 1}]")
    A, Q, starts = np.asarray(A_seq, dtype=float), np.asarray(Q_seq, dtype=float), M - window
    # row block t of every window [i, i + window]: Q_{i+t} times the t-step
    # transition from stage i; the blocks stack from t = window down to 0
    rows = [Q[t:][:starts] @ P[:starts] for t, P in enumerate(_transitions(A, Q.shape[2], window))]
    O = np.concatenate(rows[::-1], axis=1)
    return WindowScan(window, smallest_eigenvalues(O.swapaxes(1, 2) @ O).tolist())


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


def duality_check(blocks: StageBlocks, window: int):
    """Compare the controllability scan of (A, B) against the observability
    scan of the reversed, transposed sequences.  Returns (agree, max
    per-window discrepancy); agreement is judged on the window minima at
    relative tolerance 1e-9."""
    ctrl = scan_controllability_seq(blocks.A, blocks.B, window)
    A_dual, Q_dual = dual_sequences(blocks.A, blocks.B)
    obs = scan_observability_seq(A_dual, Q_dual, window)
    # window [i, i+w] reflects onto the dual window starting at M-1-(i+w)
    disc = max([0.0] + [abs(v - w) for v, w in zip(ctrl.values, reversed(obs.values))])
    agree = abs(ctrl.minimum - obs.minimum) <= 1e-9 * max(1.0, abs(ctrl.minimum))
    return agree, disc


# ---------------------------------------------------------------------------
# NLP regularity moduli


# Cap on bisection steps.  A bracket that starts at zero (a singular Gram
# matrix) never shrinks to one ulp; after 64 halvings it is far narrower
# than the eps * ||G|| to which a Cholesky test can resolve an eigenvalue.
_BISECTION_STEPS = 64
# Largest eigenvalues: the relative width that ends bisection, the inverse iteration's step cap, the proof's tests
_TAU, _SOLVES, _PROOF_TESTS = 1e-6, 8, 2


def _gram_eigenvalue(band: Array, largest: bool, stats: dict | None = None) -> float:
    """Largest or smallest eigenvalue of the symmetric G with lower band
    `band` (LAPACK's band storage), by bisection on sigma in [max diag G,
    largest absolute row sum] or [0, min diag G]: sigma I - G or G - sigma I
    is positive definite iff ?pbtrf succeeds, in O(n b^2) for half-bandwidth
    b.  The result is the midpoint of a bracket whose ends tests (or the
    first bracket) decided, with hi - lo <= eps hi or after 64 steps.  A
    largest eigenvalue is bisected only to _TAU hi; inverse iteration on the
    factor at hi then decides the remaining steps, and tests of the last
    bracket's ends, the one nearer its estimate first and two at most, prove
    them, or bisection goes on with every test kept.  `stats` gets the
    factorizations, the solves and whether that proof closed (or None)."""
    eps, stats = np.finfo(float).eps, {} if stats is None else stats
    stats.update(factorizations=0, solves=0, proved=None)
    S, tested, held = (-band if largest else band), {}, None
    if largest:
        rows = np.abs(band).sum(axis=0)
        for i in range(1, len(band)):
            rows[i:] += np.abs(band[i, :-i])
    lo, hi = (float(band[0].max()), float(rows.max())) if largest else (0.0, float(band[0].min()))

    def above(sigma):
        """Whether the eigenvalue lies below sigma, by one ?pbtrf per sigma."""
        nonlocal held
        if sigma not in tested:
            W = S.copy(order="F")  # Fortran order, as ?pbtrf takes it
            W[0] += sigma if largest else -sigma
            _, info = _pbtrf(W, lower=1, overwrite_ab=1)
            if info < 0:
                raise ValueError(f"?pbtrf: illegal value in argument {-info}")
            stats["factorizations"] += 1
            tested[sigma], held = (info == 0) == largest, W if info == 0 else held
        return tested[sigma]

    def bisect(rel, below):
        a, b = lo, hi
        for _ in range(_BISECTION_STEPS):
            if b - a <= rel * b:
                break
            mid = 0.5 * (a + b)
            a, b = (a, mid) if below(mid) else (mid, b)
        return a, b

    a, b = bisect(_TAU if largest else eps, above)
    if largest and held is not None and b - a > eps * b:
        v, theta = np.random.default_rng(0).standard_normal(band.shape[1]), math.inf
        for _ in range(_SOLVES):
            y = _pbtrs(held, v, lower=1)[0]
            stats["solves"] += 1
            last, theta, v = theta, b - float(v @ v) / float(v @ y), y / np.linalg.norm(y)
            if abs(theta - last) <= eps * theta:
                break
        for spent in range(_PROOF_TESTS + 1):
            a, b = bisect(eps, lambda mid: tested[mid] if mid in tested else mid > theta)
            ends = [e for e in (a, b) if e not in tested and e not in (lo, hi)]
            if not ends or spent == _PROOF_TESTS:
                break
            above(min(ends, key=lambda e: abs(e - theta)))
        stats["proved"] = not ends
        if ends:
            a, b = bisect(eps, above)
    return 0.5 * (a + b)


def licq_modulus(J: StageBlocks | Array, stats: dict | None = None) -> float:
    """Smallest eigenvalue of J J^T by `_gram_eigenvalue`, for the J of the
    stage blocks (its band from `_jacobian_gram_band`) or a dense J (from
    the dense product)."""
    if isinstance(J, StageBlocks):
        band = _jacobian_gram_band(J)
    else:
        J = np.atleast_2d(np.asarray(J, dtype=float))
        if J.shape[0] == 0:
            return math.inf
        if J.shape[0] > J.shape[1]:
            return 0.0
        band = _gram_band(J @ J.T, np.zeros((0, 0, 0)), len(J))
    return _gram_eigenvalue(band, False, stats)


def sosc_modulus(H: Array, J: Array) -> float:
    """Dense reference for `riccati_sosc_modulus`, and its last fallback:
    the smallest eigenvalue of Z^T H Z for an orthonormal null-space basis
    Z of J from a full SVD of J, O(n^3) for n primal variables.  +inf when
    the null space is trivial (second-order condition vacuous);
    RegularityError when J is rank deficient (see `licq_modulus`)."""
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


def _hessian_times(chain: _Chain, Z: Array) -> Array:
    """H Z as one stacked product of the chain's stage blocks with Z's
    stage rows, without forming H."""
    H, Q_N = chain.H, chain.Q_N
    N, n_z = H.shape[:2]
    HZ = np.empty_like(Z)  # in Z's memory order, so that its reshape is a view
    np.matmul(H, Z[: N * n_z].reshape(N, n_z, -1), out=HZ[: N * n_z].reshape(N, n_z, -1))
    HZ[N * n_z :] = Q_N @ Z[N * n_z :]
    return HZ


def null_space_residual(blocks: StageBlocks, Z: Array) -> float:
    """Backward error of Z as a basis of null(J): ||J Z||_F over the
    largest Frobenius norm of a row block of J ([T] or [-A_k, -B_k, I]),
    from stacked products over the stages without forming J.  An
    orthonormal Z with J Z = E spans the null space of J - E Z^T exactly."""
    N, n_x, n_z = blocks.dims.N, blocks.dims.n_x, blocks.dims.n_z
    Zs = Z[: N * n_z].reshape(N, n_z, Z.shape[1])
    E = np.concatenate([Zs[1:, :n_x], Z[None, N * n_z :]]) - blocks.A @ Zs[:, :n_x] - blocks.B @ Zs[:, n_x:]
    sq = float(np.sum((blocks.T @ Z[:n_x]) ** 2)) + float(np.sum(E**2))
    block_sq = np.sum(blocks.A**2, axis=(1, 2)) + np.sum(blocks.B**2, axis=(1, 2)) + n_x
    scale = max(float(np.linalg.norm(blocks.T)), math.sqrt(float(block_sq.max(initial=0.0))))
    return math.sqrt(sq) / scale if scale > 0 else 0.0


def _null_space_solve(F: RiccatiFactor, V: Array) -> Array:
    """Primal part W of the shifted KKT solve of [V; 0] by `solve_kkt`, for
    V's columns in the stacked primal order: W is in null(J) to the rounding
    of J's rows.  FloatingPointError when not finite."""
    (N, n_x, n_z), n_0, c = F.chain.AB.shape, F.chain.T_pinv.shape[1], V.shape[1]
    Y = np.zeros((n_0 + N * (n_z + n_x) + n_x, c))
    Y[n_0:-n_x].reshape(N, -1, c)[:, :n_z], Y[-n_x:] = V[:-n_x].reshape(N, n_z, c), V[-n_x:]
    X = solve_kkt(F, Y)
    W = np.concatenate([X[n_0:-n_x].reshape(N, -1, c)[:, :n_z].reshape(-1, c), X[-n_x:]])
    if not np.isfinite(W).all():
        raise FloatingPointError
    return W


def _restricted(chain: _Chain) -> _Chain:
    """The chain with A_k replaced by Phi_{k+1} Phi_{k+1}^T A_k Phi_k
    Phi_k^T, where Phi_0 = X0 and Phi_{k+1}, by SVD and the dense rank rule,
    spans [A_k Phi_k, B_k]: the states reachable from null(T).  x_k lies in
    range(Phi_k), so the Riccati tests are unchanged, but P no longer grows
    along an unstable mode that T pins and no input reaches."""
    AB, n_x, Phi = chain.AB.copy(), chain.AB.shape[1], chain.X0
    for k in range(len(AB)):
        C = np.hstack([AB[k, :, :n_x] @ Phi, AB[k, :, n_x:]])
        U, s, _ = np.linalg.svd(C, full_matrices=False)
        Next = U[:, : int(np.sum(s > max(C.shape) * np.finfo(float).eps * s[0])) if s.size else 0]
        AB[k, :, :n_x], Phi = Next @ (Next.T @ C[:, : Phi.shape[1]]) @ Phi.T, Next
    return chain._replace(AB=AB)


# block inverse iteration: columns (theta settles within as many eps, the rounding
# of their Rayleigh-Ritz step), step cap, re-shift period and tries, proof gap
_INVERSE_COLUMNS, _INVERSE_STEPS, _RESHIFT_EVERY, _RESHIFT_TRIES, _PROOF_GAP = 16, 30, 3, 4, 1e-10


def _inverse_iteration(blocks: StageBlocks, chain: _Chain, stats: dict) -> float | None:
    """gamma, or None when its proof fails; see `riccati_sosc_modulus`."""
    dims, eps = blocks.dims, np.finfo(float).eps

    def factor(sigma):
        stats["factorizations"] += 1
        return _riccati(chain, sigma)

    V = np.random.default_rng(0).standard_normal((dims.n_primal, min(_INVERSE_COLUMNS, dims.n_primal - dims.n_dual)))
    sigma, F = 0.0, factor(0.0)
    if F is None:  # start below every eigenvalue of H, by Gershgorin
        rows = np.abs(chain.H).sum(axis=2), np.abs(chain.Q_N).sum(axis=1)
        sigma = -max(float(r.max(initial=0.0)) for r in rows) - 1.0
        if (F := factor(sigma)) is None:
            return None
    theta = math.inf
    for step in range(1, _INVERSE_STEPS + 1):
        stats["steps"] = step
        W = np.linalg.qr(_null_space_solve(F, V))[0]
        ritz, U = np.linalg.eigh(W.T @ _hessian_times(chain, W))
        V = W @ U
        last, theta = theta, float(ritz[0])
        if abs(theta - last) <= _INVERSE_COLUMNS * eps * max(abs(theta), 1.0):
            break
        if step % _RESHIFT_EVERY == 0:  # a failed re-shift doubles its distance below theta
            for d in (1e-2 * abs(theta - sigma) * 2**j for j in range(_RESHIFT_TRIES)):
                if (shifted := factor(theta - d)) is not None:
                    sigma, F = theta - d, shifted
                    break
    else:  # theta has not settled, so the gap below it may not close
        return None
    below = theta - _PROOF_GAP * max(abs(theta), 1.0)
    return theta if null_space_residual(blocks, W) <= dims.n_primal * eps and factor(below) is not None else None


def riccati_sosc_modulus(blocks: StageBlocks, stats: dict | None = None) -> float:
    """gamma from backward Riccati factors in O(N n^3) time and O(N n^2)
    memory, with the contract of the dense `sosc_modulus`: block inverse
    iteration (16 columns; a solve for [V; 0], a QR, a Rayleigh-Ritz step)
    on the factor at sigma < gamma, from sigma = 0 or else below H's
    Gershgorin bound.  Every third step re-shifts to theta - d, d = 1e-2
    |theta - sigma|, doubled while the test fails (4 tries).  Once theta
    settles (30 steps at most) and passes `null_space_residual`, the test
    at theta - 1e-10 max(|theta|, 1) proves it.  A factor or solve that is
    not finite restarts on `_restricted`; if that overflows too, or a proof
    fails, the dense path gives gamma.  `stats` gets "source" ("riccati",
    "restricted" or "dense"), the factorizations and the block steps."""
    stats = {} if stats is None else stats
    stats.update(source="riccati", factorizations=0, steps=0)
    chain = _chain(blocks)
    if blocks.dims.n_primal == blocks.dims.n_dual:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            gamma = _inverse_iteration(blocks, chain, stats)
        except FloatingPointError:
            stats["source"], chain = "restricted", _restricted(chain)
            try:
                gamma = _inverse_iteration(blocks, chain, stats)
            except FloatingPointError:
                gamma = None
    if gamma is None:
        stats["source"] = "dense"
        return sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
    return gamma


def _gram(M: Array) -> Array:
    """M M^T summed term by term, exactly zero where rows of M are
    orthogonal by construction (a fused multiply-add leaves a residue)."""
    return (M[:, None] * M[None]).sum(axis=2)


def _gram_band(head: Array, V: Array, n: int) -> Array:
    """Lower band (LAPACK's band storage) of the symmetric G of order n:
    column c < h = head.shape[1] holds head[c:, c] from the diagonal down,
    and the rest fall into groups of s, group k coupled only to k + 1 by
    V[k], its diagonal block over its block with k + 1 (2 s x s).  Columns
    past n (a padded last group) and trailing zero diagonals are dropped."""
    h, (groups, _, s) = head.shape[1], V.shape
    band = np.zeros((max(len(head), 2 * s), h + groups * s), order="F")
    for i in range(2 * s):
        band[i, h:].reshape(groups, s)[:, : 2 * s - i] = np.diagonal(V, -i, 1, 2)
    for c in range(h):
        band[: len(head) - c, c] = head[c:, c]
    band = band[:, :n]
    return np.asfortranarray(band[: int(np.flatnonzero(band.any(axis=1)).max(initial=0)) + 1])


def _jacobian_gram_band(blocks: StageBlocks) -> Array:
    """Lower band of J J^T for the J of `assemble_jacobian`, from the stage
    blocks alone.  The rows of J fall into the groups [T] and, for each
    stage k, [-A_k, -B_k, I] on (x_k, u_k, x_{k+1}); consecutive groups
    share one state's columns.  So J J^T is block tridiagonal in them, with
    diagonal blocks A_k A_k^T + B_k B_k^T + I and -A_{k+1} below them."""
    A, B, n_x = blocks.A, blocks.B, blocks.dims.n_x
    V = np.zeros((len(A), 2 * n_x, n_x))
    V[:, :n_x] = A @ A.swapaxes(1, 2) + B @ B.swapaxes(1, 2) + np.eye(n_x)
    V[:-1, n_x:] = -A[1:]
    head = np.vstack([_gram(blocks.T), -A[0] @ blocks.T.T])
    return _gram_band(head, V, blocks.dims.n_dual)


def _mixed_gram_band(blocks: StageBlocks) -> Array:
    """Lower band of M M^T for the mixed Hessian M of
    `assemble_mixed_hessian`, from the stage blocks alone.  The rows of M
    fall into the groups lam_{-1}, [x_k; u_k; lam_k] and x_N; group k meets
    only the columns lam_{k-1} (-I on x_k, -T^T at k = 0), (x_k, u_k, lam_k)
    (Y_k = [[Q, S, A^T], [S^T, R, B^T], [A, B, 0]]), d_k ([E; F; G]) and
    x_{k+1} (-I on lam_k).  So M M^T is block tridiagonal in the groups."""
    dims = blocks.dims
    N, n_x, n_z, s = dims.N, dims.n_x, dims.n_z, dims.n_z + dims.n_x
    x, u, l = slice(0, n_x), slice(n_x, n_z), slice(n_z, s)
    Y, D = np.zeros((N + 1, s, s)), np.zeros((N + 1, s, dims.n_d))
    Y[:, x, x], Y[:N, u, u] = blocks.Q, blocks.R
    for r, c, M in ((x, u, blocks.S), (l, x, blocks.A), (l, u, blocks.B)):
        Y[:N, r, c], Y[:N, c, r] = M, np.swapaxes(M, 1, 2)
    D[:, x], D[:N, u], D[:N, l] = blocks.E, blocks.F, blocks.G
    V = np.zeros((N + 1, 2 * s, s))  # x_N padded to a full group
    V[:, :s] = Y @ Y.swapaxes(1, 2) + D @ D.swapaxes(1, 2)
    V[0, x, x] += _gram(blocks.T.T)
    V[1:, x, x] += np.eye(n_x)
    V[:N, l, l] += np.eye(n_x)
    V[:N, s : s + n_x] = -Y[:N, :, l].swapaxes(1, 2)
    V[:N, s:, l] -= Y[1:, :, x]
    head = np.vstack([_gram(blocks.T) + np.eye(dims.n_0), -Y[0, :, x] @ blocks.T.T])  # lam_{-1}'s column
    return _gram_band(head, V, dims.n_w)


def mixed_hessian_norm(blocks: StageBlocks, stats: dict | None = None) -> float:
    """Spectral norm of the mixed second derivative M of the Lagrangian in
    (primal-dual, data) variables: the square root of the largest
    eigenvalue of M M^T, from `_mixed_gram_band` by `_gram_eigenvalue`."""
    return math.sqrt(_gram_eigenvalue(_mixed_gram_band(blocks), True, stats))


def blh_bound_from_K(K: float) -> float:
    """Worst-case coupling norm implied by a uniform block-norm bound K:
    4 * max(4K, 1)."""
    if K < 0:
        raise ConfigurationError("block-norm bound K must be nonnegative")
    return 4.0 * max(4.0 * K, 1.0)


def max_block_norm(blocks: StageBlocks) -> float:
    """Largest spectral norm over every stage block and T, one batched norm
    per family."""
    stacks = [blocks.Q, blocks.R, blocks.S, blocks.A, blocks.B, blocks.T[None], blocks.E, blocks.F, blocks.G]
    return max((float(np.linalg.norm(s, 2, axis=(1, 2)).max()) for s in stacks if s.size), default=0.0)


def stage_moduli(blocks: StageBlocks) -> tuple[list, list, list]:
    """Per stage, one stacked call each: the smallest eigenvalues of R (+inf
    when n_u = 0) and of Q, and the largest |S| entries (0 when n_u = 0)."""
    S_max = np.abs(blocks.S).max(axis=(1, 2), initial=0.0)
    return smallest_eigenvalues(blocks.R).tolist(), smallest_eigenvalues(blocks.Q).tolist(), S_max.tolist()


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
    window start or stage that set it, `gamma_provenance` gamma's path
    ("riccati", "restricted" or "dense") and the Riccati counts, and
    `gram_provenance`, for each of beta and L_observed, the counts of
    `_gram_eigenvalue`; all three are kept out of the text and CSV forms.
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
    gamma_provenance: dict = field(default_factory=dict)
    gram_provenance: dict = field(default_factory=dict)

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
    gram = {"beta": {}, "L_observed": {}}
    beta = licq_modulus(blocks, gram["beta"])
    provenance = {}
    try:
        gamma = riccati_sosc_modulus(blocks, provenance)
    except RegularityError:
        gamma = None
    vacuous = gamma is not None and math.isinf(gamma)
    L_observed = mixed_hessian_norm(blocks, gram["L_observed"])
    K = max_block_norm(blocks)
    r_stages, q_stages, s_stages = stage_moduli(blocks)
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
        gamma_provenance=provenance,
        gram_provenance=gram,
    )
