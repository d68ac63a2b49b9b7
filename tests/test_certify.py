import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg
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
    build_model,
    build_report,
    controllability_matrix,
    duality_check,
    licq_modulus,
    linearize,
    max_block_norm,
    mixed_hessian_norm,
    observability_matrix,
    riccati_sosc_modulus,
    scan_uniform_controllability,
    scan_uniform_observability,
    solve_equality_nlp,
    sosc_modulus,
)
from edslab import certify
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
            assert mixed_hessian_norm(linearize(p, w, d)) == pytest.approx(np.linalg.norm(M_fd, 2), abs=1e-4)


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

        for modulus, horizons in ((dense, (10, 40)), (riccati_sosc_modulus, (10, 40, 80))):

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
        # E, F and G redrawn at another data size
        dims, rng = blocks.dims, np.random.default_rng(seed)
        n_d = int(rng.integers(0, 4))
        other = dataclasses.replace(
            blocks,
            dims=Dimensions(dims.N, dims.n_x, dims.n_u, n_d, dims.n_0),
            E=rng.standard_normal((dims.N + 1, dims.n_x, n_d)),
            F=rng.standard_normal((dims.N, dims.n_u, n_d)),
            G=rng.standard_normal((dims.N, dims.n_x, n_d)),
        )
        assert max_block_norm(other) == per_block(other)


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

    @pytest.mark.parametrize(
        "value, text",
        [(math.inf, "inf"), (-math.inf, "-inf"), (0.1, "0.10000000000000001"), (None, ""), (True, "true"), (3, "3")],
    )
    def test_report_value_format(self, value, text):
        # an infinite modulus (r without controls, a vacuous gamma) reads inf
        assert certify._fmt_value(value) == text

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
        # beta comes from the stage blocks' band of J J^T, and matches the
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


def assert_licq_matches_svd(J, blocks=None):
    """beta of the dense J, and of the stage blocks of J when given, against
    the squared smallest singular value and against each other."""
    s = np.linalg.svd(J, compute_uv=False)
    ref = s[-1] ** 2
    tol = 1e-10 * ref + 100 * max(J.shape) * np.finfo(float).eps * s[0] ** 2
    dense = licq_modulus(J)
    assert abs(dense - ref) <= tol
    if blocks is not None:
        beta = licq_modulus(blocks)
        assert abs(beta - ref) <= tol
        assert abs(beta - dense) <= tol


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

    @settings(max_examples=300, deadline=None)
    @given(stage_blocks())
    def test_block_band_matches_the_sparse_gram(self, blocks):
        assert_block_band_matches_sparse(blocks)

    @pytest.mark.parametrize(
        "N, n_x, n_u, n_0, nds",
        [
            (1, 2, 0, 1, (2, 2)),  # N = 1, no inputs, n_0 < n_x
            (1, 3, 2, 3, (0, 0)),  # no data at all
            (4, 3, 1, 0, (3,) * 5),  # no initial constraint, more data than inputs
            (3, 2, 2, 2, (1,) * 4),  # one datum per stage
            (5, 1, 0, 0, (2,) * 6),  # scalar state without inputs
        ],
    )
    def test_block_band_edge_shapes(self, N, n_x, n_u, n_0, nds):
        (n_d,) = set(nds)  # the data size of each stage 0..N: one size
        rng = np.random.default_rng(N * 100 + n_x * 10 + n_u)
        sym = lambda M: 0.5 * (M + M.swapaxes(-1, -2))
        blocks = StageBlocks(
            dims=Dimensions(N, n_x, n_u, n_d, n_0),
            T=np.linalg.qr(rng.standard_normal((n_x, n_x)))[0][:n_0],
            Q=sym(rng.standard_normal((N + 1, n_x, n_x))),
            R=sym(rng.standard_normal((N, n_u, n_u))),
            S=rng.standard_normal((N, n_x, n_u)),
            E=rng.standard_normal((N + 1, n_x, n_d)),
            F=rng.standard_normal((N, n_u, n_d)),
            A=rng.standard_normal((N, n_x, n_x)),
            B=rng.standard_normal((N, n_x, n_u)),
            G=rng.standard_normal((N, n_x, n_d)),
        )
        assert_block_band_matches_sparse(blocks)
        ref = np.linalg.norm(assemble_mixed_hessian(blocks).toarray(), 2)
        assert mixed_hessian_norm(blocks) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("n_0, N", [(2, 1), (2, 3), (1, 2)])
    def test_block_band_of_orthogonal_T_alone(self, n_0, N):
        # T's rows are orthogonal by construction (a 2 x 2 reflection) and
        # every other block is zero, so T T^T and T^T T alone decide the
        # half-bandwidth: the sparse product cancels their off-diagonal
        # entries exactly, and so must the block band
        T = 1.3 * np.linalg.qr(np.random.default_rng(n_0 + N).standard_normal((2, 2)))[0][:n_0]
        blocks = StageBlocks.time_invariant(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((2, 2)), np.zeros((1, 1)), N, T=T)
        assert_block_band_matches_sparse(blocks)

    @settings(max_examples=150, deadline=None)
    @given(stage_blocks())
    def test_licq_matches_svd_on_banded_jacobian(self, blocks):
        J = assemble_jacobian(blocks)
        assert np.array_equal(sparse_jacobian(blocks).toarray(), J)
        assert_licq_matches_svd(J, blocks)

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
        assert licq_modulus(np.ones((3, 2))) == 0.0
        assert licq_modulus(np.zeros((2, 3))) == 0.0

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
        tracemalloc.start()
        try:
            L = mixed_hessian_norm(blocks)
            beta = licq_modulus(blocks)
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


def sparse_gram_band(M):
    """Lower band of M M^T from the sparse product: the reference for the
    stage blocks' bands, its half-bandwidth set by the nonzero entries."""
    G = (M @ M.T).tocoo()
    lower = G.row >= G.col
    r, c = G.row[lower], G.col[lower]
    band = np.zeros((int((r - c).max(initial=0)) + 1, G.shape[0]), order="F")
    band[r - c, c] = G.data[lower]
    return band


def assert_block_band_matches_sparse(blocks):
    """Both Gram bands of the stage blocks, M M^T's and J J^T's, against
    the sparse products of the mixed Hessian and of J taken from it."""
    M = assemble_mixed_hessian(blocks)
    for band, ref in (
        (certify._mixed_gram_band(blocks), sparse_gram_band(M)),
        (certify._jacobian_gram_band(blocks), sparse_gram_band(sparse_jacobian(blocks))),
    ):
        assert band.shape == ref.shape  # the same half-bandwidth
        assert band.flags.f_contiguous
        assert np.abs(band - ref).max() <= 4 * np.finfo(float).eps * np.abs(ref).max()


def band_of(G):
    """Lower band of a dense symmetric G with its nonzero diagonals."""
    kd = max(i for i in range(len(G)) if np.diagonal(G, -i).any())
    band = np.zeros((kd + 1, len(G)), order="F")
    for i in range(kd + 1):
        band[i, : len(G) - i] = np.diagonal(G, -i)
    return band


def plain_bisection(band):
    """The search for the largest eigenvalue before inverse iteration: the
    same bracket, every step a ?pbtrf test.  Returns the value and the
    factorizations taken."""
    rows = np.abs(band).sum(axis=0)
    for i in range(1, len(band)):
        rows[i:] += np.abs(band[i, :-i])
    lo, hi, count = float(band[0].max()), float(rows.max()), 0
    for _ in range(64):
        if hi - lo <= np.finfo(float).eps * hi:
            break
        mid, W = 0.5 * (lo + hi), -band.copy(order="F")
        W[0] += mid
        count += 1
        if certify._pbtrf(W, lower=1, overwrite_ab=1)[1] == 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), count


def banded_gram(n, kd, rng):
    """A random positive semidefinite G = A A^T with A of lower bandwidth kd."""
    A = np.tril(np.triu(rng.standard_normal((n, n)), -kd))
    return A @ A.T


class TestGramSearch:
    """The largest-eigenvalue search: bisection to _TAU, then inverse
    iteration and a proof by two ?pbtrf tests, else bisection to the end."""

    @settings(max_examples=200, deadline=None)
    @given(stage_blocks())
    def test_at_most_two_factorizations_beyond_plain_bisection(self, blocks):
        band, stats = certify._mixed_gram_band(blocks), {}
        value = certify._gram_eigenvalue(band, True, stats)
        ref, count = plain_bisection(band)
        assert stats["factorizations"] <= count + 2
        assert value == pytest.approx(ref, rel=4 * np.finfo(float).eps)
        if stats["proved"] is False:  # then the bisection finished, every test kept
            assert value == ref

    def test_double_top_eigenvalue(self):
        # two copies of one banded Gram matrix: every eigenvalue is double
        G1 = banded_gram(60, 3, np.random.default_rng(1))
        G = scipy.linalg.block_diag(G1, G1)
        stats = {}
        value = certify._gram_eigenvalue(band_of(G), True, stats)
        top = np.linalg.eigvalsh(G)
        assert top[-1] - top[-2] <= 1e-13 * top[-1]
        assert value == pytest.approx(top[-1], rel=1e-14)
        assert stats["proved"] is True and stats["solves"] >= 1
        assert stats["factorizations"] <= plain_bisection(band_of(G))[1] + 2

    def test_cluster_tighter_than_tau_falls_back_to_bisection(self):
        # the second copy is scaled by 1 + 1e-9: the top two eigenvalues are
        # 1e-9 apart, inverse iteration cannot split them, the proof fails
        G1 = banded_gram(60, 3, np.random.default_rng(2))
        G = scipy.linalg.block_diag(G1, (1 + 1e-9) * G1)
        top = np.linalg.eigvalsh(G)
        assert 0 < top[-1] - top[-2] < certify._TAU * top[-1]
        band, stats = band_of(G), {}
        value = certify._gram_eigenvalue(band, True, stats)
        assert stats["proved"] is False
        ref, count = plain_bisection(band)
        assert value == ref and value == pytest.approx(top[-1], rel=1e-14)
        assert count < stats["factorizations"] <= count + 2

    def test_lq_horizon_takes_at_most_26_factorizations(self):
        # the benchmark's lq_horizon chain (N = 120) at seed 0
        b = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": 120, "stability": 0.9, "seed": 5})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        gram = build_report(b.problem, res.trajectory, b.base_data, 2, 2).gram_provenance
        assert gram["L_observed"]["proved"] is True
        assert gram["L_observed"]["factorizations"] <= 26
        # beta keeps plain bisection: no solves, no proof
        assert gram["beta"]["solves"] == 0 and gram["beta"]["proved"] is None


# ---------------------------------------------------------------------------
# gamma from the backward Riccati factor against the dense reference


def counted_factors(monkeypatch):
    """Monkeypatch `certify._riccati` to record each (sigma, factor)."""
    calls, riccati = [], certify._riccati

    def factor(chain, sigma):
        F = riccati(chain, sigma)
        calls.append((sigma, F))
        return F

    monkeypatch.setattr(certify, "_riccati", factor)
    return calls


def report_gamma(blocks, monkeypatch):
    """`build_report` on given stage blocks: its gamma and provenance."""
    monkeypatch.setattr(certify, "linearize", lambda *args, **kwargs: blocks)
    p = types.SimpleNamespace(dims=blocks.dims)
    rep = build_report(p, None, None, window_ctrl=1, window_obs=1)
    return rep.gamma, rep.gamma_provenance


def assert_matches_dense_reference(blocks):
    """gamma against the dense SVD of J, within the bound of the dense
    path's null-space error, which grows with kappa_2(J)."""
    stats = {}
    H, J = assemble_hessian(blocks), assemble_jacobian(blocks)
    n = H.shape[0]
    try:
        gamma = riccati_sosc_modulus(blocks, stats)
    except RegularityError:
        # T has full rank, so only the dense fallback can raise
        assert stats["source"] == "dense"
        with pytest.raises(RegularityError):
            sosc_modulus(H, J)
        return
    # per chain: two starting shifts, up to four tries every third step, the proof
    per_chain = 2 + certify._RESHIFT_TRIES * (certify._INVERSE_STEPS // certify._RESHIFT_EVERY) + 1
    assert stats["factorizations"] <= (1 if stats["source"] == "riccati" else 2) * per_chain
    # the residual check reads the same as the dense product J W on an
    # orthonormal W that is not a null-space basis
    W = np.linalg.qr(np.random.default_rng(n).standard_normal((n, max(n - J.shape[0], 1))))[0]
    I = np.eye(blocks.dims.n_x)
    scale = np.linalg.norm(blocks.T)
    for A, B in zip(blocks.A, blocks.B):
        scale = max(scale, np.linalg.norm(np.hstack([A, B, I])))
    residual = np.linalg.norm(J @ W) / scale
    assert certify.null_space_residual(blocks, W) == pytest.approx(residual, rel=1e-10)
    try:
        ref = sosc_modulus(H, J)
    except RegularityError:
        # T has full rank, so only state growth can make the dense rank rule
        # call J rank deficient; the Riccati test must then bracket gamma
        chain = certify._chain(blocks)
        chain = certify._restricted(chain) if stats["source"] == "restricted" else chain
        with np.errstate(over="ignore", invalid="ignore"):
            assert certify._riccati(chain, gamma - 1e-6 * max(abs(gamma), 1.0)) is not None
            assert certify._riccati(chain, gamma + 1e-6 * max(abs(gamma), 1.0)) is None
        return
    if math.isinf(ref):
        assert gamma == math.inf
        return
    s = np.linalg.svd(J, compute_uv=False)
    # the dense SVD's null-space error grows with kappa_2(J)
    tol = 1e-10 * abs(ref) + n * np.finfo(float).eps * np.linalg.norm(H, 2) * s[0] / s[-1]
    assert abs(gamma - ref) <= tol


# where forward block elimination grows along unstable modes or stalls on a
# clustered spectrum: two unstable lq_chain horizons, a coupled Jordan
# block, a stable horizon whose bottom eigenvalues cluster, and a pinned
# chain along an unreached mode at 10
HARD_CASES = {
    "lq_1.3_120": lambda: lq_blocks(1.3, 120),
    "lq_2.0_60": lambda: lq_blocks(2.0, 60),
    "jordan_80": lambda: ti_blocks([[1.3, 1.0], [0.0, 1.3]], [[0.0], [1.0]], Q=np.diag([1.0, 0.0]), N=80),
    "lq_0.9_120": lambda: lq_blocks(0.9, 120),
    "pinned_10I_400": lambda: ti_blocks(np.diag([10.0, 10.0]), [[1.0], [0.0]], N=400, T=np.eye(2)),
}


class TestCondensedSosc:
    """gamma against the dense reference, on the blocks that defeat a basis
    of null(J) condensed through the dynamics: unstable, unreached and
    pinned modes."""

    @settings(max_examples=300, deadline=None)
    @given(stage_blocks())
    def test_matches_dense_reference(self, blocks):
        assert_matches_dense_reference(blocks)

    def test_trivial_null_space_is_inf(self):
        # T pins x_0 and there are no inputs: J is square and invertible
        blocks = ti_blocks(0.5 * np.eye(2), np.zeros((2, 0)), N=5, T=np.eye(2))
        assert riccati_sosc_modulus(blocks) == math.inf
        assert sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks)) == math.inf

    def test_no_initial_constraint(self):
        blocks = ti_blocks([[1.1, 0.3], [0.0, 0.8]], [[0.0], [1.0]], Q=np.diag([1.0, -0.2]), N=7)
        assert blocks.dims.n_0 == 0
        ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
        assert riccati_sosc_modulus(blocks) == pytest.approx(ref, rel=1e-10)

    def test_rank_deficient_T(self):
        blocks = ti_blocks(0.5 * np.eye(2), [[1.0], [0.0]], N=4, T=[[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RegularityError):
            riccati_sosc_modulus(blocks)
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
            assert rep.gamma_provenance["source"] == "riccati"

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
        # spectral radius 1.3 and 2: an open-loop basis grows like ||A||^N
        # and loses the controls' unit entries (gamma came out 1.4433974
        # against 1.4433986 at N = 120, 0.886 against 1.163 at radius 2 and
        # N = 60); the Riccati factor needs no dense fallback
        def refuse(*args, **kwargs):
            raise AssertionError("gamma fell back to the dense path")

        for stability, N in ((1.3, 120), (2.0, 60)):
            blocks = lq_blocks(stability, N)
            ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
            with monkeypatch.context() as m:
                m.setattr(certify, "sosc_modulus", refuse)
                assert riccati_sosc_modulus(blocks) == pytest.approx(ref, rel=1e-10)

    def test_long_unstable_horizon_against_inertia(self):
        # too long for the dense reference: bracket gamma by Newton's gate,
        # the Riccati factor of the KKT matrix of (H - sigma I, J), which
        # accepts it exactly when it has n_primal positive and n_dual
        # negative eigenvalues, so when gamma > sigma
        blocks = lq_blocks(1.3, 400)
        gamma = riccati_sosc_modulus(blocks)
        assert factor_kkt(blocks, reg=-gamma * (1 - 1e-7)) is not None
        assert factor_kkt(blocks, reg=-gamma * (1 + 1e-7)) is None

    @pytest.mark.filterwarnings("error")
    def test_overflowing_riccati_restricts_to_reachable_states(self, monkeypatch):
        # P overflows along the unreached mode at 10 (100^k passes 1e308
        # near k = 155).  With T = I that mode is pinned, the chain
        # restricted to the reachable states stays finite, and the reduced
        # Hessian is exactly I.  With x_0 free the restricted chain keeps
        # that mode and overflows too, and gamma comes from the dense
        # reference.
        def refuse(*args, **kwargs):
            raise AssertionError("gamma fell back to the dense path")

        pinned = ti_blocks(np.diag([10.0, 10.0]), [[1.0], [0.0]], N=400, T=np.eye(2))
        free = ti_blocks(np.diag([10.0, 10.0]), [[1.0], [0.0]], N=160)
        ref = sosc_modulus(assemble_hessian(free), assemble_jacobian(free))
        stats = {}
        with monkeypatch.context() as m:
            m.setattr(certify, "sosc_modulus", refuse)
            assert riccati_sosc_modulus(pinned, stats) == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert stats["source"] == "restricted"
        assert riccati_sosc_modulus(free, stats) == ref
        assert stats["source"] == "dense"

    @pytest.mark.filterwarnings("error")
    def test_fallback_to_dense_reference(self, monkeypatch):
        # unstable modes that no control reaches, with x_0 free.  At 3 and
        # 2.5, P grows like 9^N but stays finite, and the Riccati factor
        # proves gamma.  At 1000, P overflows near k = 52, and so does the
        # restricted chain, which keeps every state a free x_0 reaches;
        # gamma then comes from one dense SVD.  No floating-point warning
        # either way.
        grown = ti_blocks([[3.0, 1.0], [0.0, 2.5]], [[0.0], [0.0]], Q=np.diag([1.0, 0.5]), N=30)
        overflowing = ti_blocks(np.diag([1e3, 1e3]), [[1.0], [0.0]], N=110)
        for blocks, source in ((grown, "riccati"), (overflowing, "dense")):
            calls = []

            def dense(H, J):
                calls.append(H.shape)
                return sosc_modulus(H, J)

            stats = {}
            with monkeypatch.context() as m:
                m.setattr(certify, "sosc_modulus", dense)
                gamma = riccati_sosc_modulus(blocks, stats)
            ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
            assert stats["source"] == source
            if source == "dense":
                assert calls == [(blocks.dims.n_primal,) * 2] and gamma == ref
            else:
                assert calls == [] and gamma == pytest.approx(ref, rel=1e-10)
                assert_matches_dense_reference(blocks)


class TestFactorSosc:
    """gamma from the backward Riccati factor: its proof, its counts, and
    the cases that forward block elimination could not certify."""

    @settings(max_examples=300, deadline=None)
    @given(stage_blocks(zero_families=""))
    def test_matches_dense_reference(self, blocks):
        assert_matches_dense_reference(blocks)

    def test_contract(self):
        trivial = ti_blocks(0.5 * np.eye(2), np.zeros((2, 0)), N=5, T=np.eye(2))
        assert riccati_sosc_modulus(trivial) == math.inf
        deficient = ti_blocks(0.5 * np.eye(2), [[1.0], [0.0]], N=4, T=[[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RegularityError):
            riccati_sosc_modulus(deficient)

    @pytest.mark.parametrize("name", sorted(HARD_CASES))
    def test_hard_cases_take_the_riccati_factor(self, name, monkeypatch):
        blocks = HARD_CASES[name]()
        gamma, provenance = report_gamma(blocks, monkeypatch)
        # the pinned chain overflows P and is certified on its reachable states
        assert provenance["source"] == ("restricted" if name == "pinned_10I_400" else "riccati")
        assert gamma == riccati_sosc_modulus(blocks)
        assert_matches_dense_reference(blocks)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_factor_falls_back_without_warning(self, monkeypatch):
        # P overflows on the pinned chain along the mode at 10; gamma still
        # comes out of the restricted chain as exactly I's
        gamma, provenance = report_gamma(HARD_CASES["pinned_10I_400"](), monkeypatch)
        assert provenance["source"] == "restricted"
        assert gamma == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_singular_stage_block_certifies_through_the_shifted_factor(self, monkeypatch):
        # a 3-stage double integrator with no control cost at stage 0
        # (R_0 = S_0 = 0): its stage block is singular, but K is regular.
        # The Riccati test passes at shift 0 (Rhat_0 = B^T P_1 B), for
        # Newton's gate as for gamma, and one more test proves gamma
        from edslab.models import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B

        blocks = ti_blocks(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, N=3, T=np.eye(2))
        blocks.R[0] = 0.0
        assert factor_kkt(blocks, 0.0) is not None
        calls = counted_factors(monkeypatch)
        stats = {}
        gamma = riccati_sosc_modulus(blocks, stats)
        assert calls[0][0] == 0.0 and calls[0][1] is not None
        ref = sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))
        assert gamma == pytest.approx(ref, rel=1e-10)
        assert stats["factorizations"] == len(calls) == 2

    def test_lq_chain_takes_at_most_three_factorizations(self, monkeypatch):
        bundle = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": 120})
        p = bundle.problem
        blocks = linearize(p, PrimalDualTrajectory.zeros(p.dims), bundle.base_data)
        calls = counted_factors(monkeypatch)
        gamma = riccati_sosc_modulus(blocks)
        assert len(calls) <= 3
        assert gamma == pytest.approx(2.0, rel=1e-12)

    def test_reruns_are_identical(self):
        blocks = lq_blocks(0.9, 30)
        first, second = {}, {}
        assert riccati_sosc_modulus(blocks, first) == riccati_sosc_modulus(blocks, second)
        assert first == second

    def test_build_report_memory_at_long_horizon(self):
        bundle = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": 1000})
        p, data = bundle.problem, bundle.base_data
        base = solve_equality_nlp(p, data, w0=bundle.warm_start)
        tracemalloc.start()
        try:
            rep = build_report(p, base.trajectory, data, 2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.gamma_provenance["source"] == "riccati"
        assert rep.gamma == pytest.approx(2.0, rel=1e-12)

    def test_clustered_long_horizon(self):
        # lq_chain with input weights over two decades at N = 1000: a bottom
        # spectrum clustered far from sigma = 0, too long for the dense
        # reference.  The Riccati test brackets gamma at gamma (1 -+ 1e-9)
        blocks = lq_blocks(0.9, 1000)
        stats = {}
        tracemalloc.start()
        try:
            gamma = riccati_sosc_modulus(blocks, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats["source"] == "riccati" and stats["factorizations"] <= 25
        assert peak < 64 * 2**20
        chain = certify._chain(blocks)
        assert certify._riccati(chain, gamma * (1 - 1e-9)) is not None
        assert certify._riccati(chain, gamma * (1 + 1e-9)) is None
