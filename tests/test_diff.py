import numpy as np
import pytest

from edslab import EvaluationError, build_model
from edslab.diff import gradient, hessian_block, hessian_via_gradient, jacobian


class TestJacobian:
    def test_identity_map(self):
        J = jacobian(lambda x: x, np.array([0.3, -1.2, 4.0]))
        assert np.abs(J - np.eye(3)).max() <= 1e-10

    def test_hand_calculus(self):
        fun = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
        J = jacobian(fun, np.array([1.0, 2.0]))
        assert np.abs(J - np.array([[2.0, 0.0], [2.0, 1.0]])).max() <= 1e-6

    def test_constant_map(self):
        J = jacobian(lambda x: np.array([7.0, -3.0]), np.array([1.0, 2.0, 3.0]))
        assert np.abs(J).max() <= 1e-10

    def test_nonfinite_reported_with_index(self):
        def fun(x):
            return np.array([x[0], np.inf])

        with pytest.raises(EvaluationError, match="entry 1"):
            jacobian(fun, np.array([1.0]))


class TestHessianBlock:
    def test_diagonal_quadratic(self):
        fun = lambda t: t[0] ** 2 + t[1] ** 2
        H = hessian_block(fun, [0], [0], np.array([0.7, -0.2]))
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(2.0, abs=1e-5)

    def test_mixed_bilinear(self):
        fun = lambda t: t[0] * t[1]
        H = hessian_block(fun, [0], [1], np.array([0.5, 1.5]))
        assert H[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_linear_gives_zero(self):
        fun = lambda t: 3.0 * t[0] - 2.0 * t[1]
        H = hessian_block(fun, [0, 1], [0, 1], np.array([1.0, 1.0]))
        assert np.abs(H).max() <= 1e-6

    def test_symmetry_properties(self):
        rng = np.random.default_rng(0)
        Q = rng.standard_normal((3, 3))
        fun = lambda t: float(t @ Q @ t + np.sin(t[0]) * t[2])
        at = rng.standard_normal(3)
        Haa = hessian_block(fun, [0, 1, 2], [0, 1, 2], at)
        assert np.abs(Haa - Haa.T).max() == 0.0
        Hab = hessian_block(fun, [0, 1], [2], at)
        Hba = hessian_block(fun, [2], [0, 1], at)
        assert np.abs(Hab - Hba.T).max() <= 1e-6

    def test_gradient_differencing_matches_nested(self):
        fun = lambda t: float(np.sin(t[0]) * t[1] + t[1] ** 3)
        grad = lambda t: np.array([np.cos(t[0]) * t[1], np.sin(t[0]) + 3 * t[1] ** 2])
        at = np.array([0.4, -0.8])
        H_grad = hessian_via_gradient(grad, [0, 1], at)
        H_nested = hessian_block(fun, [0, 1], [0, 1], at)
        assert np.abs(H_grad - H_nested).max() <= 1e-4


class TestAnalyticAgreement:
    """FD vs registered analytic derivatives on the model zoo, the harness
    behind every analytic registration."""

    @pytest.mark.parametrize(
        "name,params",
        [
            ("scalar_oracle", {}),
            ("double_integrator", {"N": 4}),
            ("lq_chain", {"n_x": 3, "n_u": 2, "N": 4, "seed": 2}),
            ("quadrotor", {"N": 3, "dt": 0.2}),
        ],
    )
    def test_dynamics_jacobians(self, name, params):
        b = build_model(name, params)
        p = b.problem
        rng = np.random.default_rng(11)
        dims = p.dims
        x = 0.3 * rng.standard_normal(dims.n_x)
        u = 0.3 * rng.standard_normal(dims.n_u)
        d = 0.3 * rng.standard_normal(dims.nd(0))
        A, B, G = p.oracles.dynamics_jac(0, x, u, d)
        A_fd = jacobian(lambda t: p.oracles.dynamics(0, t, u, d), x)
        scale = max(1.0, np.abs(A).max())
        assert np.abs(A - A_fd).max() <= 1e-5 * scale
        if dims.n_u:
            B_fd = jacobian(lambda t: p.oracles.dynamics(0, x, t, d), u)
            assert np.abs(B - B_fd).max() <= 1e-5 * max(1.0, np.abs(B).max())
        if dims.nd(0):
            G_fd = jacobian(lambda t: p.oracles.dynamics(0, x, u, t), d)
            assert np.abs(G - G_fd).max() <= 1e-5 * max(1.0, np.abs(G).max())

    @pytest.mark.parametrize(
        "name,params",
        [
            ("double_integrator", {"N": 4}),
            ("quadrotor", {"N": 3, "dt": 0.2}),
        ],
    )
    def test_cost_gradients(self, name, params):
        b = build_model(name, params)
        p = b.problem
        rng = np.random.default_rng(13)
        dims = p.dims
        x = rng.standard_normal(dims.n_x)
        u = rng.standard_normal(dims.n_u)
        d = rng.standard_normal(dims.nd(0))
        gx, gu = p.oracles.stage_cost_grad(0, x, u, d)
        g_fd = gradient(lambda t: p.oracles.stage_cost(0, t[: dims.n_x], t[dims.n_x :], d),
                        np.concatenate([x, u]))
        scale = max(1.0, np.abs(g_fd).max())
        assert np.abs(np.concatenate([gx, gu]) - g_fd).max() <= 1e-5 * scale
        gN = p.oracles.terminal_cost_grad(x, d)
        gN_fd = gradient(lambda t: p.oracles.terminal_cost(t, d), x)
        assert np.abs(gN - gN_fd).max() <= 1e-5 * max(1.0, np.abs(gN_fd).max())
