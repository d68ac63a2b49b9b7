import numpy as np
import pytest

from edslab import Dimensions, EvaluationError, build_model
from edslab.diff import gradient, hessian_block, hessian_via_gradient, jacobian
from conftest import (
    data_coupled_jac_problem,
    data_in_B_problem,
    smooth_problem,
    strongly_indefinite_problem,
    time_varying_problem,
    toy_nonlinear_problem,
)


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


PRESETS = [
    ("scalar_oracle", {}),
    ("double_integrator", {"N": 4}),
    ("lq_chain", {"n_x": 3, "n_u": 2, "N": 4, "seed": 2}),
    ("quadrotor", {"N": 3, "dt": 0.2}),
]
HAND_WRITTEN = {
    "toy": toy_nonlinear_problem,
    "strongly_indefinite": strongly_indefinite_problem,
    "data_coupled": data_coupled_jac_problem,
    "time_varying": time_varying_problem,
    "data_in_B": data_in_B_problem,
    "smooth": lambda: smooth_problem(Dimensions(3, 3, 2, 2, 1)),
}
PROBLEMS = PRESETS + [(name, {}) for name in HAND_WRITTEN]


def make_problem(name, params):
    return HAND_WRITTEN[name](**params) if name in HAND_WRITTEN else build_model(name, params).problem


def random_rows(p, seed, m=3):
    """Random stacked X, U, D and Lam of m stage rows."""
    rng = np.random.default_rng(seed)
    dims = p.dims
    return tuple(0.3 * rng.standard_normal((m, n)) for n in (dims.n_x, dims.n_u, dims.n_d, dims.n_x))


def stack_jacobian(fun, X, U, D):
    """Central differences of the stacked map fun(X, U, D) in every entry
    of the rows [x, u, d]: an (m, k, m, n_x + n_u + n_d) array, entry (r,
    :, s, :) the derivative of row r's k outputs in row s's inputs."""
    m, n_x, n_z = len(X), X.shape[1], X.shape[1] + U.shape[1]
    rows = np.hstack([X, U, D])
    split = lambda t: np.split(t.reshape(m, -1), [n_x, n_z], axis=1)
    J = jacobian(lambda t: np.ravel(fun(*split(t))), rows.ravel())
    return J.reshape(m, -1, m, rows.shape[1])


def block_diagonal(rows):
    """The (m, k, m, n) array with rows[r] at (r, :, r, :) and zeros
    elsewhere: no row's outputs depend on another row's inputs."""
    m = len(rows)
    out = np.zeros((m, rows.shape[1], m, rows.shape[2]))
    out[np.arange(m), :, np.arange(m), :] = rows
    return out


def assert_close(analytic, fd):
    assert np.abs(analytic - fd).max() <= 1e-5 * max(1.0, np.abs(analytic).max())


class TestAnalyticAgreement:
    """The one derivative gate: every analytic derivative form of each
    preset and each hand-written test problem against central differences
    of the map it differentiates, on random stacks of 3 stage rows.  Each
    stacked Jacobian is block diagonal in the rows: no row's outputs depend
    on another row's inputs."""

    @pytest.mark.parametrize("name,params", PROBLEMS)
    def test_dynamics_jacobians(self, name, params):
        p = make_problem(name, params)
        X, U, D, _ = random_rows(p, 11)
        A, B, G = p.oracles.dynamics_jac_batch(X, U, D)
        J = stack_jacobian(p.oracles.dynamics_batch, X, U, D)
        assert_close(block_diagonal(np.concatenate([A, B, G], axis=2)), J)

    @pytest.mark.parametrize("name,params", [PRESETS[1], PRESETS[3], PRESETS[0], PRESETS[2], *PROBLEMS[4:]])
    def test_cost_gradients(self, name, params):
        p = make_problem(name, params)
        X, U, D, _ = random_rows(p, 13)
        n_z = p.dims.n_z
        g = np.hstack(p.oracles.stage_cost_grad_batch(X, U, D))[:, None]
        J = stack_jacobian(lambda *rows: p.oracles.stage_cost_batch(*rows), X, U, D)
        assert_close(block_diagonal(g), J[..., :n_z])
        for x, d in zip(X, D):
            gN = p.oracles.terminal_cost_grad(x, d)
            assert_close(gN, gradient(lambda t: p.oracles.terminal_cost(t, d), x))

    @pytest.mark.parametrize("name,params", PROBLEMS)
    def test_cost_hessians(self, name, params):
        p = make_problem(name, params)
        X, U, D, _ = random_rows(p, 17)
        Q, S, R, E, F = p.oracles.stage_cost_hess_batch(X, U, D)
        H = np.block([[Q, S, E], [S.swapaxes(1, 2), R, F]])
        J = stack_jacobian(lambda *rows: np.hstack(p.oracles.stage_cost_grad_batch(*rows)), X, U, D)
        assert_close(block_diagonal(H), J)
        n_x = p.dims.n_x
        for x, d in zip(X, D):
            QN, EN = p.oracles.terminal_cost_hess(x, d)
            JN = jacobian(lambda t: p.oracles.terminal_cost_grad(t[:n_x], t[n_x:]), np.concatenate([x, d]))
            assert_close(np.hstack([QN, EN]), JN)

    @pytest.mark.parametrize("name,params", PROBLEMS)
    def test_dynamics_hess_vec(self, name, params):
        # the Hessian of Lam @ f against the differences of its gradient in
        # (x, u), Lam contracted with the analytic dynamics Jacobians
        p = make_problem(name, params)
        X, U, D, Lam = random_rows(p, 19)
        H_xx, H_xu, H_uu, H_xd, H_ud = p.oracles.dynamics_hess_vec_batch(X, U, D, Lam)
        H = np.block([[H_xx, H_xu, H_xd], [H_xu.swapaxes(1, 2), H_uu, H_ud]])

        def lam_gradient(X, U, D):
            A, B, _ = p.oracles.dynamics_jac_batch(X, U, D)
            return np.hstack([np.matvec(A.swapaxes(1, 2), Lam), np.matvec(B.swapaxes(1, 2), Lam)])

        assert_close(block_diagonal(H), stack_jacobian(lam_gradient, X, U, D))

    @pytest.mark.parametrize("name,params", PROBLEMS)
    def test_permuted_rows_permute_the_outputs(self, name, params):
        # an oracle must not depend on a row's position in the stack
        p = make_problem(name, params)
        X, U, D, Lam = random_rows(p, 23, m=4)
        perm = np.array([2, 0, 3, 1])
        orc = p.oracles
        for oracle, args in (
            (orc.stage_cost_batch, (X, U, D)),
            (orc.dynamics_batch, (X, U, D)),
            (orc.dynamics_jac_batch, (X, U, D)),
            (orc.stage_cost_grad_batch, (X, U, D)),
            (orc.stage_cost_hess_batch, (X, U, D)),
            (orc.dynamics_hess_vec_batch, (X, U, D, Lam)),
        ):
            out, permuted = oracle(*args), oracle(*(a[perm] for a in args))
            for t, t_perm in zip(*(([o] if isinstance(o, np.ndarray) else o) for o in (out, permuted)), strict=True):
                assert np.array_equal(np.asarray(t)[perm], t_perm)
