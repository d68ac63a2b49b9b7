import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edslab import (
    EvaluationError,
    build_model,
    build_report,
    kkt_residual,
    list_models,
    solve_equality_nlp,
)
import edslab
from edslab import diff
from edslab.certify import scan_uniform_controllability, smallest_eigenvalue
from edslab.kkt import linearize
from edslab.models import (
    DOUBLE_INTEGRATOR_A,
    DOUBLE_INTEGRATOR_B,
    QuadrotorParams,
    lq_chain,
    quadrotor_continuous_rhs,
    quadrotor_hover_state,
    quadrotor_rhs_hess_vec,
    quadrotor_rhs_jacobians,
    quadrotor_trim,
    rk4_step_hess_vec,
    rk4_step_jacobians,
)
from conftest import lq_matrices, steady_state_horizon


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
        # the analytic curvature agrees, to the differences' own error, with
        # central differences of lam @ [A, B] from the analytic Jacobians; a
        # short step keeps the RK4 stage points of these rough draws off the
        # pitch singularity, near which the FD error grows without bound
        qp, x, u, lam = quad_point(b, beta, seed)
        orc = build_model("quadrotor", {"b": b, "N": 2, "dt": 0.05}).problem.oracles
        u, d = u - quadrotor_trim(qp), np.zeros((1, 9))
        exact = orc.dynamics_hess_vec_batch(x, u, d, lam)
        for blk in exact[3:]:
            assert blk.shape[2] == 9 and not blk.any()
        H = np.block([[exact[0][0], exact[1][0]], [exact[1][0].T, exact[2][0]]])
        grad = lambda z: np.concatenate([lam[0] @ M[0] for M in orc.dynamics_jac_batch(z[None, :9], z[None, 9:], d)[:2]])
        H_fd = diff.hessian_via_gradient(grad, np.arange(13), np.concatenate([x[0], u[0]]))
        assert relative_error(0.5 * (H_fd + H_fd.T), H) <= 1e-5

    def test_hess_vec_singularity_guarded(self):
        qp = QuadrotorParams()
        x = np.zeros(9)
        x[7] = np.pi / 2
        with pytest.raises(EvaluationError):
            quadrotor_rhs_hess_vec(x, quadrotor_trim(qp), np.ones(9), qp)
        p = build_model("quadrotor", {"N": 2}).problem
        with pytest.raises(EvaluationError):
            p.oracles.dynamics_hess_vec_batch(x[None], np.zeros((1, 4)), np.zeros((1, 9)), np.ones((1, 9)))

    def test_no_finite_differences_anywhere(self):
        # no module of the package imports `diff`, and in a fresh process a
        # quadrotor solve, its experiments and its report run without it ever
        # being loaded: every derivative comes from an analytic oracle
        src = Path(edslab.__file__).parent
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom)) else []
                module = node.module or "" if isinstance(node, ast.ImportFrom) else ""
                assert "diff" not in module.split(".") and not any("diff" in n.split(".") for n in names), path.name
        script = """
import json, sys
import numpy as np
import edslab
loaded = ["edslab.diff" in sys.modules]
from edslab import build_model, build_report, run_experiments, solve_equality_nlp
bundle = build_model("quadrotor", {"N": 8, "dt": 0.5})
p = bundle.problem
# start away from hover, so Newton iterates with nonzero multipliers
data = bundle.base_data.perturbed(-1, 0.1 * np.ones(9))
base = solve_equality_nlp(p, data, w0=bundle.warm_start)
profiles = run_experiments(p, data, base.trajectory, [4], 1, 0.1, seed=0)
report = build_report(p, base.trajectory, data, 3, 3)
loaded.append("edslab.diff" in sys.modules)
print(json.dumps({"loaded": loaded, "iterations": [base.iterations, profiles[0].iterations],
                  "lam0": float(np.abs(base.trajectory.lam(0)).max()), "beta": report.beta}))
"""
        env = {**os.environ, "PYTHONPATH": str(src.parent)}
        out = json.loads(subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True).stdout)
        assert out["loaded"] == [False, False]
        assert min(out["iterations"]) > 0 and out["lam0"] > 0.0 and out["beta"] > 0.0


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
        (Aa, Ba), (Ab, Bb) = lq_matrices(a), lq_matrices(b)
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


class TestTICosts:
    """The time-invariant corollary's construction (`steady_state_horizon`):
    with the initial and terminal linear cost terms folded into the stage
    data, the constant steady-state trajectory is stationary at every
    horizon."""

    def test_steady_trajectory_stationary_all_horizons(self):
        for N in (5, 20, 60):
            p, data, traj, _ = steady_state_horizon(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, [1.0, 0.5], np.eye(2), N)
            assert np.abs(kkt_residual(p, traj, data)).max() <= 1e-8

    def test_partial_T_trajectory_stationary(self):
        A = np.array([[0.5, 0.1], [0.0, 0.8]])
        B = np.array([[0.0], [1.0]])
        for N in (5, 20):
            p, data, traj, lam_b = steady_state_horizon(A, B, [1.0, 1.0], np.array([[1.0, 0.0]]), N)
            assert np.abs(lam_b).max() > 0  # genuinely exercises the projector
            assert np.abs(kkt_residual(p, traj, data)).max() <= 1e-8


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
