import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edslab import (
    DataTrajectory,
    EvaluationError,
    build_model,
    build_report,
    kkt_residual,
    list_models,
    solve_equality_nlp,
)
from edslab import diff, kkt
from edslab.certify import scan_uniform_controllability, smallest_eigenvalue
from edslab.eds import run_experiments
from edslab.kkt import linearize
from edslab.models import (
    DOUBLE_INTEGRATOR_A,
    DOUBLE_INTEGRATOR_B,
    QuadrotorParams,
    SteadyState,
    build_ti_costs,
    constant_trajectory,
    lq_chain,
    quadrotor_continuous_rhs,
    quadrotor_hover_state,
    quadrotor_rhs_hess_vec,
    quadrotor_rhs_jacobians,
    quadrotor_trim,
    rk4_step_hess_vec,
    rk4_step_jacobians,
    solve_steady_state,
    time_invariant_problem,
)


class TestQuadrotorRHS:
    def test_hover_equilibrium_exact(self):
        qp = QuadrotorParams()
        rhs = quadrotor_continuous_rhs(quadrotor_hover_state(qp), quadrotor_trim(qp), qp)
        assert np.abs(rhs).max() <= 1e-14

    def test_free_fall(self):
        qp = QuadrotorParams()
        rhs = quadrotor_continuous_rhs(np.zeros(9), np.zeros(4), qp)
        expected = np.zeros(9)
        expected[5] = -qp.g
        assert rhs == pytest.approx(expected)

    def test_roll_rate_decoupled_when_b_zero(self):
        qp = QuadrotorParams(b=0.0)
        base = quadrotor_continuous_rhs(np.zeros(9), quadrotor_trim(qp), qp)
        bumped = quadrotor_continuous_rhs(np.zeros(9), quadrotor_trim(qp) + np.array([0, 0.5, 0, 0]), qp)
        assert bumped == pytest.approx(base)

    def test_attitude_singularity_guarded(self):
        qp = QuadrotorParams()
        x = np.zeros(9)
        x[7] = np.pi / 2
        with pytest.raises(EvaluationError):
            quadrotor_continuous_rhs(x, quadrotor_trim(qp), qp)


def quad_point(b, beta, seed, rows=1):
    """Random quadrotor evaluation points, stacked as rows: params with roll
    authority b, states, raw controls (a, wX, wY, wZ) and multipliers.  The
    first state has pitch beta, the others a pitch drawn in [-1.2, 1.2]."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 9))
    x[:, 7] = beta
    u = np.column_stack([rng.uniform(0.0, 20.0, rows), 2.0 * rng.standard_normal((rows, 3))])
    mu = rng.standard_normal((rows, 9))
    x[1:, 7] = rng.uniform(-1.2, 1.2, rows - 1)
    return QuadrotorParams(b=b), x, u, mu


def central_jacobian(fun, z, h):
    """Central differences of `fun` in each entry of z's last axis; for
    row-stacked points, each row's Jacobian."""
    return np.stack([(fun(z + h * e) - fun(z - h * e)) / (2.0 * h) for e in np.eye(z.shape[-1])], axis=-1)


def relative_error(approx, exact):
    """Largest error relative to the largest exact entry, over each matrix
    of a stack."""
    axes = (-2, -1)
    return float((np.abs(approx - exact).max(axis=axes) / np.abs(exact).max(axis=axes)).max())


pitches, seeds = st.floats(-1.2, 1.2), st.integers(0, 2**32 - 1)
quad_draws = given(st.floats(0.0, 2.0), pitches, seeds)
quad_stack_draws = given(st.floats(0.0, 2.0), pitches, st.integers(1, 5), seeds)


class TestQuadrotorDerivatives:
    @settings(max_examples=100, deadline=None)
    @quad_stack_draws
    def test_rhs_jacobians_match_central_differences(self, b, beta, rows, seed):
        qp, x, u, _ = quad_point(b, beta, seed, rows)
        A, B = quadrotor_rhs_jacobians(x, u, qp)
        assert A.shape == (rows, 9, 9) and B.shape == (rows, 9, 4)
        fun = lambda z: quadrotor_continuous_rhs(z[:, :9], z[:, 9:], qp)
        J = central_jacobian(fun, np.hstack([x, u]), 1e-6)
        assert relative_error(J, np.concatenate([A, B], axis=-1)) <= 1e-7

    @settings(max_examples=100, deadline=None)
    @quad_stack_draws
    def test_rhs_hess_vec_matches_richardson_differences(self, b, beta, rows, seed):
        # Richardson extrapolation of central differences of the analytic
        # gradient map mu^T [A, B] cancels the O(h^2) term
        qp, x, u, mu = quad_point(b, beta, seed, rows)
        H = quadrotor_rhs_hess_vec(x, u, mu, qp)
        assert H.shape == (rows, 13, 13)
        assert np.array_equal(H, H.mT)
        outside = np.ones(13, dtype=bool)
        outside[6:12] = False
        assert not H[:, outside].any() and not H[:, :, outside].any()

        def grad(z):
            A, B = quadrotor_rhs_jacobians(z[:, :9], z[:, 9:], qp)
            return np.vecmat(mu, np.concatenate([A, B], axis=-1))

        z, h = np.hstack([x, u]), 1e-3
        R = (4.0 * central_jacobian(grad, z, h / 2) - central_jacobian(grad, z, h)) / 3.0
        assert relative_error(R, H) <= 1e-8

    def test_singular_row_guarded_in_every_batched_form(self):
        # one interior row of a 5-row stack at the pitch singularity
        qp, x, u, mu = quad_point(1.0, 0.3, 0, 5)
        orc = build_model("quadrotor", {"N": 5}).problem.oracles
        U, D = u - quadrotor_trim(qp), np.zeros((5, 9))
        calls = (
            lambda: quadrotor_continuous_rhs(x, u, qp),
            lambda: quadrotor_rhs_jacobians(x, u, qp),
            lambda: quadrotor_rhs_hess_vec(x, u, mu, qp),
            lambda: orc.dynamics_batch(x, U, D),
            lambda: orc.dynamics_jac_batch(x, U, D),
            lambda: orc.dynamics_hess_vec_batch(x, U, D, mu),
        )
        for call in calls:
            call()
        x[2, 7] = np.pi / 2
        for call in calls:
            with pytest.raises(EvaluationError, match="attitude singularity"):
                call()

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
    @example(dt=0.875, seed=8880885)
    def test_rk4_adjoint_matches_complex_step(self, dt, seed):
        # r(x, u) = A0 x + B0 u + C sin(V z), z = (x, u), evaluated row-wise
        # on stacked points, takes complex z, so the complex step
        # differentiates rk4_step_jacobians to round-off: one row per
        # direction of (x, u).  Both sides run in extended precision: in
        # float64 each carries its own round-off, about 1e-12 relative at
        # the example's draw (adjoint 1.1e-12, complex step 8.3e-13 off an
        # extended-precision reference)
        if not np.finfo(np.longdouble).eps < 1e-18:
            pytest.skip("np.longdouble is not an extended-precision type here")
        rng = np.random.default_rng(seed)
        n, m, k = 4, 2, 5
        draw = lambda *shape: rng.standard_normal(shape).astype(np.longdouble)
        dt = np.longdouble(dt)
        A0, B0 = draw(n, n), draw(n, m)
        C, V = draw(n, k), draw(k, n + m)
        angles = lambda x, u: np.concatenate([x, u], axis=-1) @ V.T
        rhs = lambda x, u: x @ A0.T + u @ B0.T + np.sin(angles(x, u)) @ C.T

        def rhs_jac(x, u):
            J = np.hstack([A0, B0]) + C @ (np.cos(angles(x, u))[..., :, None] * V)
            return J[..., :n], J[..., n:]

        def rhs_hess_vec(x, u, mu):
            return -V.T @ (((mu @ C) * np.sin(angles(x, u)))[..., :, None] * V)

        x, u, lam = draw(n), draw(m), draw(n)
        (H,) = rk4_step_hess_vec(rhs, rhs_jac, rhs_hess_vec, x[None], u[None], dt, lam[None])
        assert H.dtype == np.longdouble
        h = np.longdouble(1e-30)
        zc = np.concatenate([x, u]) + np.clongdouble(1j) * h * np.eye(n + m, dtype=np.longdouble)
        Ad, Bd = rk4_step_jacobians(rhs, rhs_jac, zc[:, :n], zc[:, n:], dt)
        rows = np.concatenate([lam @ Ad, lam @ Bd], axis=-1).imag / h
        assert relative_error(rows.T, H) <= 1e-15

    @settings(max_examples=30, deadline=None)
    @quad_draws
    def test_dynamics_hess_vec_matches_fd_path(self, b, beta, seed):
        # the finite-difference curvature that serves oracles without a
        # dynamics_hess_vec agrees to its own error; a short step keeps the
        # RK4 stage points of these rough draws off the pitch singularity,
        # near which the FD error grows without bound
        qp, (x,), (u,), (lam,) = quad_point(b, beta, seed)
        bundle = build_model("quadrotor", {"b": b, "N": 2, "dt": 0.05})
        p = bundle.problem
        p_fd = dataclasses.replace(p, oracles=dataclasses.replace(p.oracles, dynamics_hess_vec=None))
        u = u - quadrotor_trim(qp)
        d = np.zeros(9)
        exact = kkt._dynamics_curvature(p.oracles, 0, x, u, d, lam)
        approx = kkt._dynamics_curvature(p_fd.oracles, 0, x, u, d, lam)
        for blk in exact[3:]:
            assert blk.shape[1] == 9 and not blk.any()
        H = np.block([[exact[0], exact[1]], [exact[1].T, exact[2]]])
        H_fd = np.block([[approx[0], approx[1]], [approx[1].T, approx[2]]])
        assert relative_error(H_fd, H) <= 1e-5

    def test_hess_vec_singularity_guarded(self):
        qp = QuadrotorParams()
        x = np.zeros(9)
        x[7] = np.pi / 2
        with pytest.raises(EvaluationError):
            quadrotor_rhs_hess_vec(x, quadrotor_trim(qp), np.ones(9), qp)
        p = build_model("quadrotor", {"N": 2}).problem
        with pytest.raises(EvaluationError):
            p.oracles.dynamics_hess_vec(0, x, np.zeros(4), np.zeros(9), np.ones(9))

    def test_no_finite_differences_anywhere(self, monkeypatch):
        # every finite difference in the package goes through these two
        def refuse(*args, **kwargs):
            raise AssertionError("quadrotor derivative fell back to finite differences")

        monkeypatch.setattr(diff, "partial_jacobian", refuse)
        monkeypatch.setattr(diff, "hessian_block", refuse)
        with pytest.raises(AssertionError):
            diff.gradient(lambda t: float(t @ t), np.ones(2))
        bundle = build_model("quadrotor", {"N": 8, "dt": 0.5})
        p = bundle.problem
        # start away from hover, so Newton iterates with nonzero multipliers
        data = bundle.base_data.perturbed(-1, 0.1 * np.ones(9))
        base = solve_equality_nlp(p, data, w0=bundle.warm_start)
        assert base.converged and base.iterations > 0
        assert np.abs(base.trajectory.lam(0)).max() > 0.0
        profiles = run_experiments(p, data, base.trajectory, [4], 1, 0.1, seed=0)
        assert profiles[0].converged and profiles[0].iterations > 0
        report = build_report(p, base.trajectory, data, 3, 3)
        assert report.beta > 0.0


class TestQuadrotorProblem:
    def test_cost_diagonal_exact(self):
        from edslab.models import quadrotor_cost_weights

        Q, R, Qf = quadrotor_cost_weights(QuadrotorParams(q=0.3))
        assert np.diag(Q) == pytest.approx([1, 1, 1, 0.3, 0.3, 0.3, 1, 1, 1])
        assert Q == pytest.approx(np.diag(np.diag(Q)))
        assert R == pytest.approx(np.eye(4))
        assert Qf == pytest.approx(np.eye(9))

    def test_q_zero_zeroes_rows_4_to_6(self):
        from edslab.models import quadrotor_cost_weights

        Q, _, _ = quadrotor_cost_weights(QuadrotorParams(q=0.0))
        assert np.all(Q[3:6, :] == 0.0)
        assert np.all(Q[:, 3:6] == 0.0)

    def test_hover_start_yields_hover_solution(self):
        b = build_model("quadrotor", {"N": 6})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        hover = quadrotor_hover_state(QuadrotorParams(N=6))
        for i in range(7):
            assert res.trajectory.x(i) == pytest.approx(hover, abs=1e-9)
        for i in range(6):
            assert np.abs(res.trajectory.u(i)).max() <= 1e-9
            assert np.abs(res.trajectory.lam(i)).max() <= 1e-9

    def test_rk4_matches_exponential_at_hover(self):
        # the hover linearization is nilpotent (pure integrator chains), so
        # one RK4 step reproduces the exponential exactly, well inside the
        # O(dt^5) budget
        qp = QuadrotorParams()
        hover, trim = quadrotor_hover_state(qp), quadrotor_trim(qp)
        Ac, _ = quadrotor_rhs_jacobians(hover, trim, qp)
        assert np.linalg.norm(np.linalg.matrix_power(Ac, 3)) == 0.0
        rhs = lambda x, u: quadrotor_continuous_rhs(x, u, qp)
        jac = lambda x, u: quadrotor_rhs_jacobians(x, u, qp)
        for dt in (0.1, 0.05):
            Ad, _ = rk4_step_jacobians(rhs, jac, hover, trim, dt)
            assert np.linalg.norm(Ad - scipy.linalg.expm(dt * Ac)) <= 1e-12

    def test_rk4_step_error_ratio_on_generic_system(self):
        # fourth-order one-step error: halving dt divides the defect by ~2^5
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        rhs = lambda x, u: M @ x
        jac = lambda x, u: (M, np.zeros((4, 1)))
        errs = {}
        for dt in (0.1, 0.05):
            Ad, _ = rk4_step_jacobians(rhs, jac, np.zeros(4), np.zeros(1), dt)
            errs[dt] = np.linalg.norm(Ad - scipy.linalg.expm(dt * M))
        ratio = errs[0.1] / errs[0.05]
        assert 20.0 <= ratio <= 45.0

    def test_knob_monotonicity(self):
        gammas, betas = [], []
        for knob in (0.0, 0.5, 1.0):
            bq = build_model("quadrotor", {"q": knob, "b": 1.0, "N": 8, "dt": 0.2})
            res = solve_equality_nlp(bq.problem, bq.base_data, w0=bq.warm_start)
            rep = build_report(bq.problem, res.trajectory, bq.base_data, 3, 3)
            gammas.append(rep.obs.minimum)
            bb = build_model("quadrotor", {"q": 1.0, "b": knob, "N": 8, "dt": 0.2})
            res = solve_equality_nlp(bb.problem, bb.base_data, w0=bb.warm_start)
            blocks = linearize(bb.problem, res.trajectory, bb.base_data)
            betas.append(scan_uniform_controllability(blocks, 3).minimum)
        assert gammas[0] <= gammas[1] + 1e-12 <= gammas[2] + 2e-12
        assert betas[0] <= betas[1] + 1e-12 <= betas[2] + 2e-12


class TestLQFactories:
    def test_seed_determinism_byte_identical(self):
        a = lq_chain(3, 2, 5, seed=123)
        b = lq_chain(3, 2, 5, seed=123)
        Aa, Ba, _ = a.oracles.dynamics_jac(0, np.zeros(3), np.zeros(2), np.zeros(3))
        Ab, Bb, _ = b.oracles.dynamics_jac(0, np.zeros(3), np.zeros(2), np.zeros(3))
        assert Aa.tobytes() == Ab.tobytes()
        assert Ba.tobytes() == Bb.tobytes()

    def test_no_inputs_uncontrollable(self):
        p = lq_chain(2, 0, 5, seed=1)
        traj, data = __import__("conftest").random_point(p, seed=0)
        blocks = linearize(p, traj, data)
        assert scan_uniform_controllability(blocks, 2).minimum == pytest.approx(0.0)

    def test_double_integrator_gramian_hand_value(self):
        b = build_model("double_integrator", {"N": 6})
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        blocks = linearize(b.problem, res.trajectory, b.base_data)
        from edslab.certify import controllability_matrix

        C = controllability_matrix(blocks, 0, 1)
        assert C == pytest.approx(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert smallest_eigenvalue(C @ C.T) == pytest.approx((3 - np.sqrt(5)) / 2, rel=1e-12)


class TestSteadyState:
    def test_scalar_origin(self):
        ss = solve_steady_state(
            lambda x, u, d: float(x @ x + u @ u),
            lambda x, u, d: 0.5 * x + u,
            d_s=np.zeros(0),
            x0=np.array([0.3]),
            u0=np.array([-0.2]),
        )
        assert ss.x == pytest.approx([0.0], abs=1e-10)
        assert ss.u == pytest.approx([0.0], abs=1e-10)
        assert ss.lam == pytest.approx([0.0], abs=1e-10)

    def test_quadrotor_hover_steady_state(self):
        qp = QuadrotorParams(N=4)
        b = build_model("quadrotor", {"N": 4})
        p = b.problem
        hover = quadrotor_hover_state(qp)
        ss = solve_steady_state(
            lambda x, u, d: p.oracles.stage_cost(0, x, u, d),
            lambda x, u, d: p.oracles.dynamics(0, x, u, d),
            d_s=hover,
            x0=hover,
            u0=np.zeros(4),
            cost_grad=lambda x, u, d: p.oracles.stage_cost_grad(0, x, u, d),
            dyn_jac=lambda x, u, d: p.oracles.dynamics_jac(0, x, u, d),
        )
        # deviation controls: raw input is the gravity trim, multipliers vanish
        assert ss.x == pytest.approx(hover, abs=1e-9)
        assert ss.u + quadrotor_trim(qp) == pytest.approx([qp.g, 0, 0, 0], abs=1e-9)
        assert np.abs(ss.lam).max() <= 1e-9

    def test_linear_system_matches_dense_solve(self):
        A = np.array([[0.5, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        d = np.array([1.0, 1.0])
        ss = solve_steady_state(
            lambda x, u, dd: float((x - dd) @ (x - dd) + u @ u),
            lambda x, u, dd: A @ x + B @ u,
            d_s=d,
            x0=np.zeros(2),
            u0=np.zeros(1),
        )
        # stationarity of [2(x-d) - lam + A^T lam; 2u + B^T lam; -(x - Ax - Bu)]
        n = 2 + 1 + 2
        K = np.zeros((n, n))
        K[:2, :2] = 2 * np.eye(2)
        K[2, 2] = 2.0
        K[:2, 3:] = (A - np.eye(2)).T
        K[2, 3:] = B.T
        K[3:, :2] = A - np.eye(2)
        K[3:, 2] = B[:, 0]
        rhs = np.concatenate([2 * d, [0.0], np.zeros(2)])
        sol = np.linalg.solve(K, rhs)
        assert np.concatenate([ss.x, ss.u, ss.lam]) == pytest.approx(sol, abs=1e-9)


class TestTICosts:
    def _double_integrator_ss(self, d=np.array([1.0, 0.5])):
        return solve_steady_state(
            lambda x, u, dd: float((x - dd) @ (x - dd) + u @ u),
            lambda x, u, dd: DOUBLE_INTEGRATOR_A @ x + DOUBLE_INTEGRATOR_B @ u,
            d_s=d,
            x0=np.zeros(2),
            u0=np.zeros(1),
        ), d

    def test_identity_T_kills_initial_term(self):
        ss, _ = self._double_integrator_ss()
        ti = build_ti_costs(ss, np.eye(2), np.eye(2))
        assert np.abs(ti.lam_b).max() == 0.0
        assert ti.lam_init == pytest.approx(ss.lam)

    def test_zero_multiplier_degenerate_case(self):
        ss = SteadyState(x=np.array([1.0, 0.0]), u=np.zeros(1), lam=np.zeros(2), residual=0.0)
        ti = build_ti_costs(ss, np.eye(2), np.eye(2))
        assert np.abs(ti.lam_b).max() == 0.0
        assert np.abs(ti.lam_init).max() == 0.0
        assert ti.ell_b(np.array([2.0, 3.0]), None) == 0.0
        assert ti.ell_f(ss.x, None) == pytest.approx(0.0)

    def test_coordinate_projector_hand_values(self):
        ss = SteadyState(x=np.zeros(2), u=np.zeros(1), lam=np.array([0.7, -1.2]), residual=0.0)
        ti = build_ti_costs(ss, np.eye(2), np.array([[1.0, 0.0]]))
        assert ti.lam_b == pytest.approx([0.0, 1.2])
        assert ti.lam_init == pytest.approx([0.7])

    def test_range_condition_holds_by_construction(self):
        # the initial-cost slope is built so lam_b + lam always lands in the
        # row space of T; the solve must report a tiny residual for random T
        rng = np.random.default_rng(17)
        for _ in range(10):
            n_x = int(rng.integers(2, 5))
            n_0 = int(rng.integers(0, n_x + 1))
            ss = SteadyState(
                x=rng.standard_normal(n_x),
                u=rng.standard_normal(1),
                lam=rng.standard_normal(n_x),
                residual=0.0,
            )
            T = rng.standard_normal((n_0, n_x))
            ti = build_ti_costs(ss, np.eye(n_x), T)
            gap = np.abs(T.T @ ti.lam_init - (ti.lam_b + ss.lam)).max() if n_0 else 0.0
            assert gap <= 1e-9

    def test_steady_trajectory_stationary_all_horizons(self):
        ss, d = self._double_integrator_ss()
        ti = build_ti_costs(ss, np.eye(2), np.eye(2))
        ss.lam_init = ti.lam_init
        for N in (5, 20, 60):
            prob = time_invariant_problem(
                lambda x, u, dd: float((x - dd) @ (x - dd) + u @ u),
                lambda x, u, dd: DOUBLE_INTEGRATOR_A @ x + DOUBLE_INTEGRATOR_B @ u,
                ti, np.eye(2), N, n_u=1, n_d=2,
            )
            traj = constant_trajectory(prob.dims, ss)
            data = DataTrajectory(prob.dims, [np.eye(2) @ ss.x] + [d] * (N + 1))
            assert np.abs(kkt_residual(prob, traj, data)).max() <= 1e-8

    def test_partial_T_trajectory_stationary(self):
        A = np.array([[0.5, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        d = np.array([1.0, 1.0])
        ss = solve_steady_state(
            lambda x, u, dd: float((x - dd) @ (x - dd) + u @ u),
            lambda x, u, dd: A @ x + B @ u,
            d_s=d, x0=np.zeros(2), u0=np.zeros(1),
        )
        T = np.array([[1.0, 0.0]])
        ti = build_ti_costs(ss, np.eye(2), T)
        assert np.abs(ti.lam_b).max() > 0  # genuinely exercises the projector
        ss.lam_init = ti.lam_init
        for N in (5, 20):
            prob = time_invariant_problem(
                lambda x, u, dd: float((x - dd) @ (x - dd) + u @ u),
                lambda x, u, dd: A @ x + B @ u,
                ti, T, N, n_u=1, n_d=2,
            )
            traj = constant_trajectory(prob.dims, ss)
            data = DataTrajectory(prob.dims, [T @ ss.x] + [d] * (N + 1))
            assert np.abs(kkt_residual(prob, traj, data)).max() <= 1e-8


class TestRegistry:
    @pytest.mark.parametrize("name", ["quadrotor", "lq_chain", "double_integrator", "scalar_oracle"])
    def test_description_is_the_list_models_entry(self, name):
        assert build_model(name).description == dict(list_models())[name]

    @pytest.mark.parametrize(
        "name, params",
        [
            ("lq_chain", {"n_x": 3.0, "n_u": 2.0, "N": 8.0}),
            ("double_integrator", {"N": 8.0}),
            ("quadrotor", {"N": 8.0}),
        ],
    )
    def test_integral_float_sizes_build_as_ints(self, name, params):
        # 8.0 is the size 8, as an integral config value is everywhere else
        as_float = build_model(name, params).problem.dims
        as_int = build_model(name, {key: int(value) for key, value in params.items()}).problem.dims
        assert as_float == as_int and type(as_float.N) is int
