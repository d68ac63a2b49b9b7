import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    RegularityError,
    StageBlocks,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,
    blh_bound_from_K,
    blh_modulus,
    build_model,
    build_report,
    controllability_matrix,
    duality_check,
    licq_modulus,
    linearize,
    max_block_norm,
    mixed_hessian_norm,
    observability_matrix,
    scan_uniform_controllability,
    scan_uniform_observability,
    solve_equality_nlp,
    sosc_modulus,
)
from edslab.certify import (
    dual_sequences,
    scan_controllability_seq,
    scan_observability_seq,
    smallest_eigenvalue,
)
from edslab.errors import ConfigurationError
from edslab.kkt import _w_offsets, _xi_offsets
from edslab.problem import Dimensions


def ti_blocks(A, B, Q=None, R=None, N=6, T=None):
    A = np.atleast_2d(np.asarray(A, float))
    B = np.asarray(B, float).reshape(A.shape[0], -1)
    Q = np.eye(A.shape[0]) if Q is None else Q
    R = np.eye(B.shape[1]) if R is None else R
    return StageBlocks.time_invariant(A, B, Q, R, N, T=T)


class TestGramianMatrices:
    def test_time_invariant_scalar(self):
        blocks = ti_blocks([[2.0]], [[1.0]])
        C = controllability_matrix(blocks, 0, 1)
        assert C == pytest.approx(np.array([[2.0, 1.0]]))
        assert (C @ C.T)[0, 0] == pytest.approx(5.0)

    def test_zero_inputs(self):
        blocks = ti_blocks(np.eye(2), np.zeros((2, 1)))
        assert np.all(controllability_matrix(blocks, 0, 3) == 0.0)

    def test_single_stage_window_is_B(self):
        blocks = ti_blocks([[3.0]], [[0.7]])
        assert controllability_matrix(blocks, 2, 2)[0, 0] == pytest.approx(0.7)

    def test_observability_stacked_identities(self):
        blocks = ti_blocks(np.eye(2), np.ones((2, 1)), Q=np.eye(2))
        m = 3
        O = observability_matrix(blocks, 0, m - 1)
        assert O.T @ O == pytest.approx(m * np.eye(2))

    def test_observability_zero_cost(self):
        blocks = ti_blocks(np.eye(2), np.ones((2, 1)), Q=np.zeros((2, 2)))
        assert np.all(observability_matrix(blocks, 0, 2) == 0.0)

    def test_observability_scalar_hand(self):
        blocks = ti_blocks([[2.0]], [[1.0]], Q=np.eye(1))
        O = observability_matrix(blocks, 0, 1)
        assert O == pytest.approx(np.array([[2.0], [1.0]]))
        assert (O.T @ O)[0, 0] == pytest.approx(5.0)

    def test_window_bounds_checked(self):
        blocks = ti_blocks([[1.0]], [[1.0]], N=4)
        with pytest.raises(ConfigurationError):
            controllability_matrix(blocks, 2, 5)


class TestWindowScans:
    def test_time_invariant_scalar_value(self):
        blocks = ti_blocks([[2.0]], [[1.0]], N=7)
        scan = scan_uniform_controllability(blocks, 1)
        assert scan.minimum == pytest.approx(5.0)
        assert len(scan.values) == 6

    def test_no_input_fails(self):
        blocks = ti_blocks(np.eye(2), np.zeros((2, 1)), N=5)
        assert scan_uniform_controllability(blocks, 2).minimum == pytest.approx(0.0)

    def test_window_zero_identity_input(self):
        blocks = ti_blocks(np.eye(2), np.eye(2), N=5)
        assert scan_uniform_controllability(blocks, 0).minimum == pytest.approx(1.0)

    def test_observability_identity_cost(self):
        blocks = ti_blocks(2 * np.eye(2), np.ones((2, 1)), Q=np.eye(2), N=6)
        for window in (0, 1, 3):
            assert scan_uniform_observability(blocks, window).minimum >= 1.0

    def test_observability_zero_cost_fails(self):
        blocks = ti_blocks(np.eye(2), np.ones((2, 1)), Q=np.zeros((2, 2)), N=5)
        assert scan_uniform_observability(blocks, 2).minimum == pytest.approx(0.0)

    def test_observability_scalar_window1(self):
        blocks = ti_blocks([[2.0]], [[1.0]], Q=np.eye(1), N=6)
        assert scan_uniform_observability(blocks, 1).minimum == pytest.approx(5.0)

    def test_gramian_monotone_in_window_start(self):
        rng = np.random.default_rng(3)
        A = [rng.standard_normal((2, 2)) for _ in range(8)]
        B = [rng.standard_normal((2, 1)) for _ in range(8)]
        j = 7
        prev = -np.inf
        for i in range(j, -1, -1):
            from edslab.certify import controllability_matrix_seq

            C = controllability_matrix_seq(A, B, i, j)
            val = smallest_eigenvalue(C @ C.T)
            assert val >= prev - 1e-12
            prev = val

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        c = 1.7
        base = scan_uniform_controllability(ti_blocks(A, B, N=6), 2).minimum
        scaled = scan_uniform_controllability(ti_blocks(A, c * B, N=6), 2).minimum
        assert scaled == pytest.approx(c**2 * base, rel=1e-10)
        Q = np.eye(2)
        base_o = scan_uniform_observability(ti_blocks(A, B, Q=Q, N=6), 2).minimum
        scaled_o = scan_uniform_observability(ti_blocks(A, B, Q=c * Q, N=6), 2).minimum
        assert scaled_o == pytest.approx(c**2 * base_o, rel=1e-10)


class TestDuality:
    def test_time_invariant_pair(self):
        blocks = ti_blocks([[0.5, 1.0], [0.0, 0.9]], [[0.0], [1.0]], N=6)
        agree, disc = duality_check(blocks, 2)
        assert agree
        assert disc <= 1e-12

    def test_zero_input_both_zero(self):
        blocks = ti_blocks(np.eye(2), np.zeros((2, 1)), N=5)
        ctrl = scan_controllability_seq(blocks.A, blocks.B, 2)
        Ad, Qd = dual_sequences(blocks.A, blocks.B)
        obs = scan_observability_seq(Ad, Qd, 2)
        assert ctrl.minimum == obs.minimum == 0.0

    def test_random_time_varying_sequences(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            M = int(rng.integers(4, 9))
            n_x = int(rng.integers(1, 3))
            n_u = int(rng.integers(1, 3))
            A = [rng.standard_normal((n_x, n_x)) for _ in range(M)]
            B = [rng.standard_normal((n_x, n_u)) for _ in range(M)]
            ctrl = scan_controllability_seq(A, B, 2)
            Ad, Qd = dual_sequences(A, B)
            obs = scan_observability_seq(Ad, Qd, 2)
            assert abs(ctrl.minimum - obs.minimum) <= 1e-9 * max(1.0, abs(ctrl.minimum))


class TestModuli:
    def test_licq_identity(self):
        assert licq_modulus(np.eye(2)) == pytest.approx(1.0)

    def test_licq_oracle_jacobian(self):
        J = np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, 1.0]])
        assert licq_modulus(J) == pytest.approx(2.0 - np.sqrt(2.0), rel=1e-12)

    def test_licq_zero_row(self):
        J = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert licq_modulus(J) == pytest.approx(0.0, abs=1e-14)

    def test_sosc_trivial_null_space(self):
        assert sosc_modulus(np.eye(2), np.eye(2)) == math.inf

    def test_sosc_hand_projection(self):
        assert sosc_modulus(np.diag([2.0, 3.0]), np.array([[1.0, 0.0]])) == pytest.approx(3.0)

    def test_sosc_oracle(self):
        J = np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, 1.0]])
        assert sosc_modulus(2 * np.eye(3), J) == pytest.approx(2.0)

    def test_sosc_rank_deficient_raises(self):
        J = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RegularityError):
            sosc_modulus(np.eye(2), J)

    def test_bound_from_K(self):
        assert blh_bound_from_K(1.0) == 16.0
        assert blh_bound_from_K(0.0) == 4.0
        assert blh_bound_from_K(0.25) == 4.0
        with pytest.raises(ConfigurationError):
            blh_bound_from_K(-0.1)


class TestMixedHessian:
    def test_identity_couplings_only(self):
        blocks = StageBlocks.time_invariant(
            np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), 2,
            T=np.eye(1), n_d=1,
        )
        blocks.Q[-1] = np.zeros((1, 1))
        value = mixed_hessian_norm(blocks)
        assert 1.0 <= value <= 4.0

    def test_cost_scaling_monotone(self):
        b = build_model("lq_chain", {"n_x": 2, "n_u": 1, "N": 4, "seed": 0})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        blocks = linearize(b.problem, res.trajectory, b.base_data)
        base = mixed_hessian_norm(blocks)
        for name in ("Q", "R", "S", "E", "F"):
            setattr(blocks, name, [2.0 * M for M in getattr(blocks, name)])
        assert mixed_hessian_norm(blocks) >= base

    def test_oracle_matches_fd_assembly(self):
        from edslab.problem import PrimalDualTrajectory

        b = build_model("scalar_oracle")
        p = b.problem
        res = solve_equality_nlp(p, b.base_data, w0=b.warm_start)
        w, d = res.trajectory, b.base_data
        dims = p.dims
        from edslab.problem import DataTrajectory as DT

        row, n_w = _w_offsets(dims)
        col, n_xi = _xi_offsets(dims)

        def traj_from(vec, off):
            xs = [vec[off[(i, "x")] : off[(i, "x")] + dims.n_x] for i in range(dims.N + 1)]
            us = [vec[off[(i, "u")] : off[(i, "u")] + dims.n_u] for i in range(dims.N)]
            lams = [vec[off[(-1, "lam")] : off[(-1, "lam")] + dims.n_0]] + [
                vec[off[(i, "lam")] : off[(i, "lam")] + dims.n_x] for i in range(dims.N)
            ]
            return xs, us, lams

        def lag_at(dw, a, dxi, bidx):
            wv = np.zeros(n_w)
            wv[a] = dw
            xv = np.zeros(n_xi)
            xv[bidx] = dxi
            xs_w, us_w, lams_w = traj_from(wv, row)
            xs_x, us_x, lams_x = traj_from(xv, col)
            ds = [
                xv[col[(i, "d")] : col[(i, "d")] + dims.nd(i)] + d[i]
                for i in range(-1, dims.N + 1)
            ]
            xs = [w.x(i) + xs_w[i] + xs_x[i] for i in range(dims.N + 1)]
            us = [w.u(i) + us_w[i] + us_x[i] for i in range(dims.N)]
            lams = [w.lam(i) + lams_w[i + 1] + lams_x[i + 1] for i in range(-1, dims.N)]
            from edslab import evaluate_lagrangian

            return evaluate_lagrangian(p, PrimalDualTrajectory(dims, xs, us, lams), DT(dims, ds))

        M_fd = np.zeros((n_w, n_xi))
        h = 1e-4
        for a in range(n_w):
            for bidx in range(n_xi):
                M_fd[a, bidx] = (
                    lag_at(h, a, h, bidx)
                    - lag_at(h, a, -h, bidx)
                    - lag_at(-h, a, h, bidx)
                    + lag_at(-h, a, -h, bidx)
                ) / (4 * h * h)
        M_an = assemble_mixed_hessian(linearize(p, w, d)).toarray()
        assert np.abs(M_an - M_fd).max() <= 1e-4
        assert blh_modulus(p, w, d) == pytest.approx(np.linalg.norm(M_fd, 2), abs=1e-4)


class TestNUniformitySignatures:
    def test_licq_controllable_vs_not(self):
        from edslab.models import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B

        def licq_at(A, B, T, N):
            blocks = StageBlocks.time_invariant(A, B, np.eye(A.shape[0]),
                                                np.eye(B.shape[1]), N, T=T)
            return licq_modulus(assemble_jacobian(blocks))

        good = {N: licq_at(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, np.eye(2), N) for N in (10, 40)}
        assert min(good.values()) >= 0.5 * good[10]
        bad = {N: licq_at(np.eye(1), np.zeros((1, 1)), np.eye(1), N) for N in (10, 40)}
        assert bad[40] < 0.5 * bad[10]

    def test_sosc_observable_vs_not(self):
        Q = np.diag([1.0, 0.0])

        def sosc_at(A, N):
            blocks = StageBlocks.time_invariant(A, np.eye(2), Q, np.eye(2), N, T=np.eye(2))
            return sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))

        coupled = {N: sosc_at(np.array([[1.3, 1.0], [0.0, 1.3]]), N) for N in (10, 40)}
        assert min(coupled.values()) >= 0.5 * coupled[10]
        decoupled = {N: sosc_at(np.diag([1.3, 1.3]), N) for N in (10, 40)}
        assert decoupled[40] < 0.2 * decoupled[10]

    def test_blh_within_bound_on_model(self):
        b = build_model("lq_chain", {"n_x": 2, "n_u": 2, "N": 5, "seed": 4})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        blocks = linearize(b.problem, res.trajectory, b.base_data)
        assert mixed_hessian_norm(blocks) <= blh_bound_from_K(max_block_norm(blocks))


class TestReport:
    def test_lq_all_flags_pass(self):
        b = build_model("double_integrator", {"N": 8})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        rep = build_report(b.problem, res.trajectory, b.base_data, window_ctrl=1, window_obs=1)
        assert rep.corollary_ok
        assert rep.licq_ok and rep.sosc_ok
        assert rep.beta > 0 and rep.gamma > 0
        assert rep.delta == pytest.approx(1.0)
        assert rep.r == pytest.approx(2.0)
        assert rep.L_observed <= rep.L_bound_from_K

    def test_full_rank_input_passes_at_window_zero(self):
        from edslab.models import make_lq_problem
        from edslab import DataTrajectory

        p = make_lq_problem(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                            np.eye(2), np.eye(2), 5)
        data = DataTrajectory(p.dims, [np.ones(2)] + [np.zeros(2)] * 6)
        res = solve_equality_nlp(p, data)
        rep = build_report(p, res.trajectory, data, window_ctrl=0, window_obs=0)
        assert rep.corollary_ok
        assert rep.ctrl.minimum == pytest.approx(1.0)

    def test_report_serialization_roundtrip(self):
        b = build_model("double_integrator", {"N": 6})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        rep = build_report(b.problem, res.trajectory, b.base_data, 1, 1)
        text = rep.to_text()
        assert "beta " in text and "corollary_ok true" in text
        rows = dict(rep.to_csv_rows())
        assert float(rows["beta"]) == pytest.approx(rep.beta)
        assert rows["flag_ctrl_uniform"] == "true"

    def test_failure_is_report_entry_not_exception(self):
        # no input at all: controllability fails, everything else still fills in
        b = build_model("lq_chain", {"n_x": 2, "n_u": 0, "N": 5, "seed": 0})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        rep = build_report(b.problem, res.trajectory, b.base_data, 2, 2)
        assert not rep.flags["ctrl_uniform"]
        assert rep.ctrl.minimum == pytest.approx(0.0)
        assert rep.r == math.inf
        assert not rep.corollary_ok


# ---------------------------------------------------------------------------
# banded moduli against the dense oracle


@st.composite
def stage_blocks(draw):
    """Random time-varying StageBlocks (N <= 10, n_x <= 4, n_u <= 3,
    n_0 <= n_x with a full-row-rank T, n_d <= 3); any block family may be
    all zero."""
    N = draw(st.integers(1, 10))
    n_x = draw(st.integers(1, 4))
    n_u = draw(st.integers(0, 3))
    n_0 = draw(st.integers(0, n_x))
    n_d = draw(st.integers(0, 3))
    zero = draw(st.sets(st.sampled_from("QRSEFABG")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def family(name, shape, count, sym=False):
        out = []
        for _ in range(count):
            M = np.zeros(shape) if name in zero else rng.standard_normal(shape)
            out.append(0.5 * (M + M.T) if sym else M)
        return out

    # orthonormal rows scaled by a random factor: full row rank
    T = rng.uniform(0.5, 2.0) * np.linalg.qr(rng.standard_normal((n_x, n_x)))[0][:n_0]
    return StageBlocks(
        dims=Dimensions.uniform(N, n_x, n_u, n_d, n_0),
        T=T,
        Q=family("Q", (n_x, n_x), N + 1, sym=True),
        R=family("R", (n_u, n_u), N, sym=True),
        S=family("S", (n_x, n_u), N),
        E=family("E", (n_x, n_d), N + 1),
        F=family("F", (n_u, n_d), N),
        A=family("A", (n_x, n_x), N),
        B=family("B", (n_x, n_u), N),
        G=family("G", (n_x, n_d), N),
    )


def assert_licq_matches_svd(J):
    """beta against the squared smallest singular value, dense and sparse."""
    s = np.linalg.svd(J, compute_uv=False)
    ref = s[-1] ** 2
    tol = 1e-10 * ref + 100 * max(J.shape) * np.finfo(float).eps * s[0] ** 2
    assert abs(licq_modulus(J) - ref) <= tol
    assert abs(licq_modulus(scipy.sparse.csr_array(J)) - ref) <= tol


def sparse_jacobian(blocks):
    """J as the negated (multiplier rows, primal columns) block of the
    sparse mixed Hessian, without a dense intermediate."""
    dims = blocks.dims
    row, _ = _w_offsets(dims)
    col, _ = _xi_offsets(dims)
    lam_rows = [np.arange(dims.n_0)] + [
        np.arange(row[(i, "lam")], row[(i, "lam")] + dims.n_x) for i in range(dims.N)
    ]
    primal_cols = [
        np.arange(col[(i, "x")], col[(i, "x")] + dims.n_z) for i in range(dims.N)
    ] + [np.arange(col[(dims.N, "x")], col[(dims.N, "x")] + dims.n_x)]
    M = assemble_mixed_hessian(blocks)
    return -(M[np.concatenate(lam_rows)][:, np.concatenate(primal_cols)])


class TestBandedModuli:
    @settings(max_examples=150, deadline=None)
    @given(stage_blocks())
    def test_mixed_norm_matches_dense_svd(self, blocks):
        M = assemble_mixed_hessian(blocks)
        assert scipy.sparse.issparse(M)
        ref = np.linalg.norm(M.toarray(), 2)
        assert mixed_hessian_norm(blocks) == pytest.approx(ref, rel=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(stage_blocks())
    def test_licq_matches_svd_on_banded_jacobian(self, blocks):
        J = assemble_jacobian(blocks)
        assert np.array_equal(sparse_jacobian(blocks).toarray(), J)
        assert_licq_matches_svd(J)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_licq_matches_svd_on_dense_jacobian(self, m, extra, seed):
        rng = np.random.default_rng(seed)
        J = rng.standard_normal((m, m + extra))
        assert_licq_matches_svd(J)
        if m >= 2:
            # rank deficient: a repeated row gives beta = 0
            J[-1] = J[0]
            assert_licq_matches_svd(J)

    def test_licq_edge_cases(self):
        assert licq_modulus(np.zeros((0, 3))) == math.inf
        assert licq_modulus(scipy.sparse.csr_array((0, 3))) == math.inf
        assert licq_modulus(np.ones((3, 2))) == 0.0
        assert licq_modulus(scipy.sparse.csr_array(np.ones((3, 2)))) == 0.0

    def test_no_dense_path_at_long_horizon(self):
        # lq_chain-sized blocks (n_x = 6, n_u = 3, n_d = 6) over N = 1000: a
        # dense mixed Hessian would take 18006 x 25012 doubles, about 3.6 GB
        rng = np.random.default_rng(0)
        blocks = StageBlocks.time_invariant(
            0.9 * np.linalg.qr(rng.standard_normal((6, 6)))[0],
            rng.standard_normal((6, 3)),
            2.0 * np.eye(6),
            2.0 * np.eye(3),
            1000,
            T=np.eye(6),
            E=-2.0 * np.eye(6),
        )
        J = sparse_jacobian(blocks)
        tracemalloc.start()
        try:
            L = mixed_hessian_norm(blocks)
            beta = licq_modulus(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # both moduli are uniform in the horizon here: the N = 1000 values
        # stay within 1e-3 of the dense ones at N = 40
        short = StageBlocks.time_invariant(
            blocks.A[0], blocks.B[0], blocks.Q[0], blocks.R[0], 40, T=blocks.T, E=blocks.E[0]
        )
        L_short = np.linalg.norm(assemble_mixed_hessian(short).toarray(), 2)
        beta_short = np.linalg.svd(assemble_jacobian(short), compute_uv=False)[-1] ** 2
        assert L == pytest.approx(L_short, rel=1e-3)
        assert beta == pytest.approx(beta_short, rel=1e-3)
