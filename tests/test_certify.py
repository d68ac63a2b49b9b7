import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    Dimensions,
    PrimalDualTrajectory,
    RegularityError,
    StageBlocks,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,
    blh_bound_from_K,
    blh_modulus,
    build_model,
    build_report,
    condensed_sosc_modulus,
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
from edslab import certify, kkt
from edslab.certify import (
    dual_sequences,
    scan_controllability_seq,
    scan_observability_seq,
    smallest_eigenvalue,
)
from edslab.errors import ConfigurationError
from edslab.kkt import factor_kkt
from conftest import (
    controllability_scan_by_windows,
    data_coupled_jac_problem,
    observability_scan_by_windows,
    random_point,
    stage_blocks,
    stage_moduli_by_stage,
    w_offsets,
    xi_offsets,
)


def lq_blocks(stability, N):
    """Stage blocks of `lq_chain` (n_x = 6, n_u = 3) with input weights
    spread over two decades, so that H is not a multiple of I."""
    R = np.diag([0.1, 1.0, 10.0]).tolist()
    bundle = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": N, "stability": stability, "R": R})
    p = bundle.problem
    return linearize(p, PrimalDualTrajectory.zeros(p.dims), bundle.base_data)


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


def windows(N):
    """Window lengths in [0, N - 1], the two ends drawn often."""
    return st.sampled_from([0, N - 1]) | st.integers(0, N - 1)


class TestStackedCertificates:
    """The window scans and per-stage moduli, computed for all windows and
    stages in stacked calls, equal the per-window and per-stage loops of
    conftest bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(stage_blocks(), st.data())
    def test_scans_match_window_loops(self, blocks, data):
        N = blocks.dims.N
        w_c, w_o = data.draw(windows(N)), data.draw(windows(N))
        ctrl = scan_uniform_controllability(blocks, w_c)
        obs = scan_uniform_observability(blocks, w_o)
        assert ctrl.window_length == w_c and obs.window_length == w_o
        assert ctrl.values == controllability_scan_by_windows(blocks.A, blocks.B, w_c)
        assert obs.values == observability_scan_by_windows(blocks.A, blocks.Q[:N], w_o)

    @settings(max_examples=200, deadline=None)
    @given(stage_blocks())
    def test_stage_moduli_match_stage_loop(self, blocks):
        assert certify.stage_moduli(blocks) == stage_moduli_by_stage(blocks)

    def test_no_inputs(self):
        blocks = ti_blocks(np.diag([0.5, 2.0]), np.zeros((2, 0)), N=5)
        r, q, s = certify.stage_moduli(blocks)
        assert r == [math.inf] * 5 and s == [0.0] * 5
        assert (r, q, s) == stage_moduli_by_stage(blocks)
        for w in range(5):
            values = scan_uniform_controllability(blocks, w).values
            assert values == [0.0] * (5 - w)
            assert values == controllability_scan_by_windows(blocks.A, blocks.B, w)

    @settings(max_examples=100, deadline=None)
    @given(stage_blocks(), st.data())
    def test_duality_check_matches_window_loops(self, blocks, data):
        N = blocks.dims.N
        window = data.draw(windows(N))
        ctrl = controllability_scan_by_windows(blocks.A, blocks.B, window)
        obs = observability_scan_by_windows(*dual_sequences(blocks.A, blocks.B), window)
        disc = 0.0
        for i, v in enumerate(ctrl):
            disc = max(disc, abs(v - obs[N - 1 - (i + window)]))
        agree = abs(min(ctrl) - min(obs)) <= 1e-9 * max(1.0, abs(min(ctrl)))
        assert duality_check(blocks, window) == (agree, disc)

    @settings(max_examples=60, deadline=None)
    @given(stage_blocks(), st.data())
    def test_report_failures_match_loops(self, blocks, data):
        # the report with the stacked scans and moduli against the report
        # with the per-window and per-stage loops patched in
        N = blocks.dims.N
        w_c, w_o = data.draw(windows(N)), data.draw(windows(N))
        p = types.SimpleNamespace(dims=blocks.dims)  # build_report reads only p.dims
        with pytest.MonkeyPatch.context() as m:
            m.setattr(certify, "linearize", lambda *args: blocks)
            rep = build_report(p, None, None, w_c, w_o)
            m.setattr(certify, "stage_moduli", stage_moduli_by_stage)
            m.setattr(
                certify,
                "scan_uniform_controllability",
                lambda b, w: certify.WindowScan(w, controllability_scan_by_windows(b.A, b.B, w)),
            )
            m.setattr(
                certify,
                "scan_uniform_observability",
                lambda b, w: certify.WindowScan(w, observability_scan_by_windows(b.A, b.Q[:N], w)),
            )
            ref = build_report(p, None, None, w_c, w_o)
        assert (rep.ctrl, rep.obs, rep.r) == (ref.ctrl, ref.obs, ref.r)
        assert rep.flags == ref.flags
        assert rep.failures == ref.failures

    def test_quadrotor_without_weights_fails_at_the_same_window(self):
        # the q = b = 0 case of the headline pair: controllability and
        # observability fail, at window start 0, with the loops' values
        bundle = build_model("quadrotor", {"dt": 0.5, "N": 60, "q": 0.0, "b": 0.0})
        p, data = bundle.problem, bundle.base_data
        base = solve_equality_nlp(p, data, w0=bundle.warm_start)
        blocks = linearize(p, base.trajectory, data)
        rep = build_report(p, base.trajectory, data, 3, 3)
        assert rep.ctrl.values == controllability_scan_by_windows(blocks.A, blocks.B, 3)
        assert rep.obs.values == observability_scan_by_windows(blocks.A, blocks.Q[:60], 3)
        assert rep.failures["ctrl_uniform"] == {"window_start": 0}
        assert rep.failures["obs_uniform"] == {"window_start": 0}


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
        b = build_model("scalar_oracle")
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        # G depends on x and u: E and F carry the differenced mixed (x, u)-d
        # curvature of the dynamics
        q = data_coupled_jac_problem()
        w_q, d_q = random_point(q, seed=4)
        for p, w, d in ((b.problem, res.trajectory, b.base_data), (q, w_q, d_q)):
            M_fd = mixed_hessian_by_fd(p, w, d)
            M_an = assemble_mixed_hessian(linearize(p, w, d)).toarray()
            assert np.abs(M_an - M_fd).max() <= 1e-4
            assert blh_modulus(p, w, d) == pytest.approx(np.linalg.norm(M_fd, 2), abs=1e-4)


def mixed_hessian_by_fd(p, w, d):
    """Second derivative of the Lagrangian at (w, d) in the stage-interleaved
    (primal-dual, data) layout, by central differences of
    `evaluate_lagrangian` alone."""
    from edslab import evaluate_lagrangian
    from edslab.problem import DataTrajectory as DT
    from edslab.problem import PrimalDualTrajectory

    dims = p.dims
    row, n_w = w_offsets(dims)
    col, n_xi = xi_offsets(dims)

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
    return M_fd


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

        def dense(blocks):
            return sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))

        for modulus, horizons in ((dense, (10, 40)), (condensed_sosc_modulus, (10, 40, 80))):

            def sosc_at(A, N):
                return modulus(StageBlocks.time_invariant(A, np.eye(2), Q, np.eye(2), N, T=np.eye(2)))

            coupled = {N: sosc_at(np.array([[1.3, 1.0], [0.0, 1.3]]), N) for N in horizons}
            assert min(coupled.values()) >= 0.5 * coupled[10]
            decoupled = {N: sosc_at(np.diag([1.3, 1.3]), N) for N in horizons}
            assert max(decoupled[N] for N in horizons[1:]) < 0.2 * decoupled[10]

    def test_blh_within_bound_on_model(self):
        b = build_model("lq_chain", {"n_x": 2, "n_u": 2, "N": 5, "seed": 4})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        blocks = linearize(b.problem, res.trajectory, b.base_data)
        assert mixed_hessian_norm(blocks) <= blh_bound_from_K(max_block_norm(blocks))

    @settings(max_examples=100, deadline=None)
    @given(stage_blocks(), st.integers(0, 2**32 - 1))
    def test_max_block_norm_matches_per_block_loop(self, blocks, seed):
        def per_block(blocks):
            every = [blocks.T, *(M for name in "QRSEFABG" for M in getattr(blocks, name))]
            return max((float(np.linalg.norm(M, 2)) for M in every if M.size), default=0.0)

        assert max_block_norm(blocks) == per_block(blocks)
        # data sizes that differ by stage: E, F and G mix block shapes
        dims, rng = blocks.dims, np.random.default_rng(seed)
        nd = [int(k) for k in rng.integers(0, 4, dims.N + 1)]
        mixed = dataclasses.replace(
            blocks,
            dims=Dimensions(dims.N, dims.n_x, dims.n_u, (dims.n_0, *nd), dims.n_0),
            E=[rng.standard_normal((dims.n_x, k)) for k in nd],
            F=[rng.standard_normal((dims.n_u, k)) for k in nd[:-1]],
            G=[rng.standard_normal((dims.n_x, k)) for k in nd[:-1]],
        )
        assert max_block_norm(mixed) == per_block(mixed)


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

    def test_failures_name_the_worst_stage(self, monkeypatch):
        # a controllable, observable double integrator whose blocks break
        # r_positive at stages 1 and 4, q_psd at 2 and 5, s_zero at 1 and 3;
        # each failure names the stage of the worst value
        from edslab.models import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B

        b = build_model("double_integrator", {"N": 6})
        blocks = StageBlocks.time_invariant(
            DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, np.eye(2), np.eye(1), 6, T=np.eye(2)
        )
        blocks.R[1], blocks.R[4] = np.array([[-0.1]]), np.array([[-0.3]])
        blocks.Q[2], blocks.Q[5] = np.diag([1.0, -0.5]), np.diag([-0.01, 1.0])
        blocks.S[1], blocks.S[3] = np.array([[0.01], [0.0]]), np.array([[0.0], [-0.2]])
        monkeypatch.setattr(certify, "linearize", lambda *args, **kwargs: blocks)
        traj = PrimalDualTrajectory.zeros(b.problem.dims)
        rep = build_report(b.problem, traj, b.base_data, window_ctrl=1, window_obs=1)
        assert rep.failures == {
            "r_positive": {"stage": 4},
            "q_psd": {"stage": 2},
            "s_zero": {"stage": 3},
        }

    def test_build_report_assembles_no_dense_jacobian(self, monkeypatch):
        # beta comes from the sparse J of the stage blocks, and matches the
        # dense J's beta (the benchmark's lq_chain sizes and a quadrotor case)
        def refuse(*args, **kwargs):
            raise AssertionError("build_report assembled the dense J")

        for name, params in (
            ("lq_chain", {"n_x": 6, "n_u": 3, "N": 30, "seed": 5}),
            ("quadrotor", {"dt": 0.5, "N": 8}),
        ):
            bundle = build_model(name, params)
            p, data = bundle.problem, bundle.base_data
            base = solve_equality_nlp(p, data, w0=bundle.warm_start)
            ref = licq_modulus(assemble_jacobian(linearize(p, base.trajectory, data)))
            with monkeypatch.context() as m:
                m.setattr(certify, "assemble_jacobian", refuse)
                rep = build_report(p, base.trajectory, data, 2, 2)
            assert abs(rep.beta - ref) <= 1e-12 * abs(ref) + 1e-14

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
    row, _ = w_offsets(dims)
    col, _ = xi_offsets(dims)
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
        stored = kkt.sparse_jacobian(blocks)
        assert np.array_equal(stored.toarray(), J)
        assert stored.nnz == np.count_nonzero(J)  # no explicit zeros
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


# ---------------------------------------------------------------------------
# condensed gamma against the dense reference


class TestCondensedSosc:
    @settings(max_examples=300, deadline=None)
    @given(stage_blocks())
    def test_matches_dense_reference(self, blocks):
        gamma = condensed_sosc_modulus(blocks)
        H, J = assemble_hessian(blocks), assemble_jacobian(blocks)
        n = H.shape[0]
        Z = certify.condensed_null_basis(blocks)
        # orthonormal, with one column per degree of freedom
        assert Z.shape == (n, n - J.shape[0])
        assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), rtol=0, atol=n * 1e-15)
        # the residual check reads the same as the dense product J W on an
        # orthonormal W that is not a null-space basis
        W = np.linalg.qr(np.random.default_rng(n).standard_normal((n, max(Z.shape[1], 1))))[0]
        I = np.eye(blocks.dims.n_x)
        scale = np.linalg.norm(blocks.T)
        for A, B in zip(blocks.A, blocks.B):
            scale = max(scale, np.linalg.norm(np.hstack([A, B, I])))
        residual = np.linalg.norm(J @ W) / scale
        assert certify.null_space_residual(blocks, W) == pytest.approx(residual, rel=1e-10)
        try:
            ref = sosc_modulus(H, J)
        except RegularityError:
            # T has full rank, so only state growth can make the dense SVD
            # call J rank deficient; then gamma must come from a condensed
            # basis as backward stable as the dense rank rule
            assert np.linalg.norm(J @ Z) <= n * np.finfo(float).eps * np.linalg.norm(J, 2)
            assert gamma == pytest.approx(smallest_eigenvalue(Z.T @ H @ Z), rel=1e-10)
            return
        if math.isinf(ref):
            assert gamma == math.inf
            return
        s = np.linalg.svd(J, compute_uv=False)
        # the dense SVD's null-space error grows with kappa_2(J)
        tol = 1e-10 * abs(ref) + n * np.finfo(float).eps * np.linalg.norm(H, 2) * s[0] / s[-1]
        assert abs(gamma - ref) <= tol

    def test_trivial_null_space_is_inf(self):
        # T pins x_0 and there are no inputs: J is square and invertible
        blocks = ti_blocks(0.5 * np.eye(2), np.zeros((2, 0)), N=5, T=np.eye(2))
        assert condensed_sosc_modulus(blocks) == math.inf
        assert sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks)) == math.inf

    def test_no_initial_constraint(self):
        blocks = ti_blocks([[1.1, 0.3], [0.0, 0.8]], [[0.0], [1.0]], Q=np.diag([1.0, -0.2]), N=7)
        assert blocks.dims.n_0 == 0
        ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
        assert condensed_sosc_modulus(blocks) == pytest.approx(ref, rel=1e-10)

    def test_rank_deficient_T(self):
        blocks = ti_blocks(0.5 * np.eye(2), [[1.0], [0.0]], N=4, T=[[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RegularityError):
            condensed_sosc_modulus(blocks)
        with pytest.raises(RegularityError):
            sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))

    def test_build_report_takes_no_dense_path(self, monkeypatch):
        # the quadrotor contrast pair: gamma matches the dense reference, but
        # build_report itself never calls it or assembles H
        def refuse(*args, **kwargs):
            raise AssertionError("build_report took the dense gamma path")

        for q in (1.0, 0.0):
            bundle = build_model("quadrotor", {"dt": 0.5, "N": 8, "q": q, "b": q})
            p, data = bundle.problem, bundle.base_data
            base = solve_equality_nlp(p, data, w0=bundle.warm_start)
            blocks = linearize(p, base.trajectory, data)
            ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
            with monkeypatch.context() as m:
                m.setattr(certify, "sosc_modulus", refuse)
                m.setattr(certify, "assemble_hessian", refuse)
                rep = build_report(p, base.trajectory, data, 3, 3)
            assert rep.gamma == pytest.approx(ref, rel=1e-10)

    def test_long_horizon_memory(self):
        # the dense path peaked at 354 MB here (dense H, J and the SVD of J)
        bundle = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": 400})
        p, data = bundle.problem, bundle.base_data
        base = solve_equality_nlp(p, data, w0=bundle.warm_start)
        tracemalloc.start()
        try:
            rep = build_report(p, base.trajectory, data, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 177 * 2**20
        # unit state and input costs: the reduced Hessian is 2 I
        assert rep.gamma == pytest.approx(2.0, rel=1e-12)

    def test_unstable_chain_matches_dense(self, monkeypatch):
        # spectral radius 1.3 and 2: without feedback the basis columns grow
        # like ||A||^N and the QR loses the controls' unit entries (gamma
        # came out 1.4433974 against 1.4433986 at N = 120, 0.886 against
        # 1.163 at radius 2 and N = 60)
        def refuse(*args, **kwargs):
            raise AssertionError("the condensed basis failed its residual check")

        for stability, N in ((1.3, 120), (2.0, 60)):
            blocks = lq_blocks(stability, N)
            ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
            with monkeypatch.context() as m:
                m.setattr(certify, "sosc_modulus", refuse)
                assert condensed_sosc_modulus(blocks) == pytest.approx(ref, rel=1e-10)

    def test_long_unstable_horizon_against_inertia(self):
        # too long for the dense reference: bracket gamma by the inertia of
        # the stage-block KKT factor of (H - sigma I, J), which has n_primal
        # positive and n_dual negative eigenvalues exactly when gamma > sigma
        blocks = lq_blocks(1.3, 400)
        gamma = condensed_sosc_modulus(blocks)
        dims = blocks.dims

        def inertia_ok(sigma):
            factor = factor_kkt(blocks, reg=-sigma)
            return factor is not None and factor.inertia == (dims.n_primal, dims.n_dual)

        assert inertia_ok(gamma * (1 - 1e-7))
        assert not inertia_ok(gamma * (1 + 1e-7))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_riccati_keeps_last_finite_gain(self, monkeypatch):
        # the unit-weight Riccati recursion overflows along the unreached
        # mode at 10 (100^k passes 1e308 near k = 155); the earlier stages
        # reuse the last finite gain, so the basis stays finite and passes
        # its residual check.  With T = I the reduced Hessian is exactly I.
        # With x_0 free (no T) the unreached column grows like 10^k but
        # stays finite at N = 160, and gamma matches the dense reference.
        def refuse(*args, **kwargs):
            raise AssertionError("the condensed basis failed its residual check")

        pinned = ti_blocks(np.diag([10.0, 10.0]), [[1.0], [0.0]], N=400, T=np.eye(2))
        free = ti_blocks(np.diag([10.0, 10.0]), [[1.0], [0.0]], N=160)
        ref = sosc_modulus(assemble_hessian(free), assemble_jacobian(free))
        with monkeypatch.context() as m:
            m.setattr(certify, "sosc_modulus", refuse)
            assert condensed_sosc_modulus(pinned) == pytest.approx(1.0, rel=1e-12, abs=0.0)
            assert condensed_sosc_modulus(free) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_fallback_to_dense_reference(self, monkeypatch):
        # unstable modes that no control reaches, so the feedback cannot
        # hold the x_0 columns.  In the first case the coupling turns both
        # towards the faster mode and the basis fails its residual check
        # (3.3 times the bound).  In the second the free x_0 column along
        # the unreached mode at 1000 overflows (1000^k passes 1e308 at
        # k = 103) and the basis is not finite.  gamma comes from the dense
        # reference both times, with no floating-point warning.
        cases = [
            ti_blocks([[3.0, 1.0], [0.0, 2.5]], [[0.0], [0.0]], Q=np.diag([1.0, 0.5]), N=30),
            ti_blocks(np.diag([1e3, 1e3]), [[1.0], [0.0]], N=110),
        ]
        for blocks in cases:
            Z = certify.condensed_null_basis(blocks)
            assert not certify.null_space_residual(blocks, Z) <= blocks.dims.n_primal * np.finfo(float).eps
            calls = []

            def dense(H, J):
                calls.append(H.shape)
                return sosc_modulus(H, J)

            with monkeypatch.context() as m:
                m.setattr(certify, "sosc_modulus", dense)
                gamma = condensed_sosc_modulus(blocks)
            assert calls == [(blocks.dims.n_primal,) * 2]
            assert gamma == sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
