import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    SolveOptions,
    StageBlocks,
    StageOracles,
    assemble_hessian,
    assemble_jacobian,
    assemble_mixed_hessian,
    build_model,
    evaluate_constraints,
    kkt_residual,
    linearize,
    solve_equality_nlp,
)
from edslab import kkt
from edslab.errors import NonconvergenceError, RegularityError
from edslab.models import lq_chain, make_lq_problem
from conftest import (
    data_coupled_jac_problem,
    dense_factor_and_solve,
    dense_kkt,
    mixed_hessian_by_blocks,
    newton_step,
    random_point,
    stage_blocks,
    strongly_indefinite_problem,
    to_stacked_order,
    to_stage_order,
    toy_nonlinear_problem,
)


def dense_lq_oracle(A, B, Q, R, Qf, T, N, x0, refs):
    """Independent dense saddle-point solve of a reference-tracking LQ
    problem, assembled directly from the model matrices."""
    n_x, n_u = B.shape
    n_z = n_x + n_u
    n_primal = (N + 1) * n_x + N * n_u
    n_dual = T.shape[0] + N * n_x
    H = np.zeros((n_primal, n_primal))
    g = np.zeros(n_primal)
    for i in range(N):
        H[i * n_z : i * n_z + n_x, i * n_z : i * n_z + n_x] = 2 * Q
        H[i * n_z + n_x : (i + 1) * n_z, i * n_z + n_x : (i + 1) * n_z] = 2 * R
        g[i * n_z : i * n_z + n_x] = -2 * Q @ refs[i]
    H[N * n_z :, N * n_z :] = 2 * Qf
    g[N * n_z :] = -2 * Qf @ refs[N]
    J = np.zeros((n_dual, n_primal))
    b = np.zeros(n_dual)
    J[: T.shape[0], :n_x] = T
    b[: T.shape[0]] = x0
    for i in range(N):
        r = T.shape[0] + i * n_x
        J[r : r + n_x, i * n_z : i * n_z + n_x] = -A
        J[r : r + n_x, i * n_z + n_x : (i + 1) * n_z] = -B
        J[r : r + n_x, (i + 1) * n_z : (i + 1) * n_z + n_x] = np.eye(n_x)
    K = np.block([[H, J.T], [J, np.zeros((n_dual, n_dual))]])
    sol = np.linalg.solve(K, np.concatenate([-g, b]))
    return sol[:n_primal], -sol[n_primal:]  # multipliers per the package's pairing


class TestLinearize:
    def test_lq_blocks_constant_and_exact(self):
        p = lq_chain(2, 1, 3, stability=0.8, seed=0)
        A_true, B_true, _ = p.oracles.dynamics_jac(0, np.zeros(2), np.zeros(1), np.zeros(2))
        for seed in (0, 1):
            traj, data = random_point(p, seed=seed)
            blocks = linearize(p, traj, data)
            for i in range(3):
                assert blocks.Q[i] == pytest.approx(2 * np.eye(2))
                assert blocks.R[i] == pytest.approx(2 * np.eye(1))
                assert blocks.S[i] == pytest.approx(np.zeros((2, 1)))
                assert blocks.A[i] == pytest.approx(A_true)
                assert blocks.B[i] == pytest.approx(B_true)
                assert blocks.E[i] == pytest.approx(-2 * np.eye(2))
            assert blocks.Q[3] == pytest.approx(2 * np.eye(2))
            assert blocks.E[3] == pytest.approx(-2 * np.eye(2))

    def test_bilinear_dynamics_curvature_lands_in_S(self):
        # f_0 = x * u with multiplier 2: cross block of lam @ f is the
        # multiplier itself
        dims = Dimensions.uniform(1, 1, 1, 0, 1)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: 0.0,
            dynamics=lambda i, x, u, d: np.atleast_1d(x[0] * u[0]),
            terminal_cost=lambda x, d: 0.0,
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.eye(1))
        traj = PrimalDualTrajectory(dims, [[0.3], [0.1]], [[0.2]], [[0.0], [2.0]])
        blocks = linearize(p, traj, DataTrajectory.zeros(dims))
        assert blocks.S[0][0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_reference_tracking_E_block(self):
        Q = np.diag([1.0, 3.0])
        p = make_lq_problem(np.eye(2), np.eye(2), Q, np.eye(2), Q, np.eye(2), 2)
        traj, data = random_point(p, seed=2)
        blocks = linearize(p, traj, data)
        assert blocks.E[0] == pytest.approx(-2 * Q)


class TestAssembly:
    def test_jacobian_hand_example(self):
        blocks = StageBlocks.time_invariant(
            np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1), 1, T=np.array([[1.0]])
        )
        J = assemble_jacobian(blocks)
        assert J == pytest.approx(np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, 1.0]]))

    def test_empty_initial_block(self):
        blocks = StageBlocks.time_invariant(np.eye(2), np.ones((2, 1)), np.eye(2), np.eye(1), 3)
        J = assemble_jacobian(blocks)
        assert J.shape == (3 * 2, 4 * 2 + 3 * 1)

    def test_zero_dynamics_rows(self):
        blocks = StageBlocks.time_invariant(
            np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2), np.eye(1), 2, T=np.eye(2)
        )
        J = assemble_jacobian(blocks)
        rows = J[2:, :]
        assert (rows @ rows.T) == pytest.approx(np.eye(4))

    def test_jacobian_sparsity_exact(self):
        rng = np.random.default_rng(8)
        n_x, n_u, N = 2, 2, 4
        blocks = StageBlocks.time_invariant(
            rng.standard_normal((n_x, n_x)),
            rng.standard_normal((n_x, n_u)),
            np.eye(n_x),
            np.eye(n_u),
            N,
            T=rng.standard_normal((1, n_x)),
        )
        J = assemble_jacobian(blocks)
        mask = np.zeros_like(J, dtype=bool)
        n_z = n_x + n_u
        mask[:1, :n_x] = True
        for i in range(N):
            r = 1 + i * n_x
            mask[r : r + n_x, i * n_z : i * n_z + n_z] = True
            mask[r : r + n_x, (i + 1) * n_z : (i + 1) * n_z + n_x] = True
        assert np.all(J[~mask] == 0.0)

    def test_hessian_block_diag_and_coupling(self):
        blocks = StageBlocks.time_invariant(
            np.eye(1), np.eye(1), 2 * np.eye(1), 2 * np.eye(1), 1, T=np.eye(1)
        )
        assert assemble_hessian(blocks) == pytest.approx(np.diag([2.0, 2.0, 2.0]))
        blocks.S[0] = np.array([[1.0]])
        H = assemble_hessian(blocks)
        expected = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        assert H == pytest.approx(expected)
        assert np.abs(H - H.T).max() == 0.0

    def test_hessian_pure_block_diagonal_when_S_zero(self):
        rng = np.random.default_rng(9)
        Q = rng.standard_normal((2, 2))
        Q = Q + Q.T
        R = np.eye(1)
        blocks = StageBlocks.time_invariant(np.eye(2), np.ones((2, 1)), Q, R, 2, T=np.eye(2))
        H = assemble_hessian(blocks)
        expected = scipy.linalg.block_diag(Q, R, Q, R, Q)
        assert H == pytest.approx(expected)


    @settings(max_examples=100, deadline=None)
    @given(st.booleans().flatmap(lambda varying: stage_blocks(varying_nd=varying)))
    def test_mixed_hessian_matches_block_by_block_assembly(self, blocks):
        # the COO indices come from array operations; the CSR arrays are
        # the same as from putting one stage block at a time
        M, ref = assemble_mixed_hessian(blocks), mixed_hessian_by_blocks(blocks)
        assert M.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(M, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestResidual:
    def test_zero_at_origin_for_lq(self):
        p = lq_chain(2, 1, 3, seed=1)
        traj = PrimalDualTrajectory.zeros(p.dims)
        data = DataTrajectory.zeros(p.dims)
        assert np.abs(kkt_residual(p, traj, data)).max() == 0.0

    def test_linear_response_in_quadratic_problem(self):
        p = lq_chain(2, 1, 3, seed=1)
        traj, data = random_point(p, seed=6)
        r0 = kkt_residual(p, traj, data)
        eps = 0.25
        shifted = traj.copy()
        shifted.x(1)[0] += eps
        r1 = kkt_residual(p, shifted, data)
        blocks = linearize(p, traj, data)
        H = assemble_hessian(blocks)
        J = assemble_jacobian(blocks)
        col = 1 * p.dims.n_z  # x_1 first coordinate in the stacked primal order
        predicted = to_stage_order(p.dims, np.concatenate([H[:, col], -J[:, col]])) * eps
        assert r1 - r0 == pytest.approx(predicted, abs=1e-10)

    def test_dual_block_is_negated_constraints(self, toy):
        traj, data = random_point(toy, seed=7)
        r = PrimalDualTrajectory.from_vector(toy.dims, kkt_residual(toy, traj, data))
        c = evaluate_constraints(toy, traj, data)
        assert r.stacked_dual() == pytest.approx(-c)


BATCHED_FIELDS = (
    "dynamics_batch",
    "dynamics_jac_batch",
    "stage_cost_grad_batch",
    "stage_cost_hess_batch",
    "dynamics_hess_vec_batch",
)


def per_stage_only(p):
    """The same problem with its stage-batched oracles removed, so the
    residual and the linearization loop over the stages."""
    return dataclasses.replace(p, oracles=dataclasses.replace(p.oracles, **dict.fromkeys(BATCHED_FIELDS)))


def refuse(*args, **kwargs):
    raise AssertionError("this oracle must not be called")


def relative_diff(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.abs(b).max(initial=0.0)
    return np.abs(a - b).max(initial=0.0) / scale if scale > 0 else np.abs(a).max(initial=0.0)


def blocks_relative_diff(a, b):
    """Largest relative difference over every block family of two
    StageBlocks, stage by stage."""
    out = relative_diff(a.T, b.T)
    for name in "QRSEFABG":
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            out = max(out, relative_diff(x, y))
    return out


def assert_batched_matches_loop(p, traj, data, solve_data, w0=None):
    """The residual and the fresh and reused linearizations at (traj, data),
    and a whole solve of `solve_data`, agree between `p` and its per-stage
    loop to 1e-13 relative, with the same Newton iterations."""
    loop = per_stage_only(p)
    assert relative_diff(kkt_residual(p, traj, data), kkt_residual(loop, traj, data)) <= 1e-13
    assert blocks_relative_diff(linearize(p, traj, data), linearize(loop, traj, data)) <= 1e-13
    jac = []
    kkt_residual(p, traj, data, jacobians=jac)
    assert len(jac) == p.dims.N
    assert blocks_relative_diff(linearize(p, traj, data, jacobians=jac), linearize(loop, traj, data)) <= 1e-13
    batched, looped = solve_equality_nlp(p, solve_data, w0=w0), solve_equality_nlp(loop, solve_data, w0=w0)
    assert batched.converged and looped.converged
    assert batched.iterations == looped.iterations
    assert relative_diff(batched.trajectory.vector, looped.trajectory.vector) <= 1e-13


class TestStageBatchedOracles:
    """Every preset registers stage-batched oracles; dropping them sends
    the residual, the linearization and a whole solve through the
    per-stage loop, which must agree."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(0, 3),
        st.integers(1, 12),
        st.sampled_from([0.5, 0.9, 1.3]),
        st.integers(0, 2**32 - 1),
    )
    def test_batched_path_matches_per_stage_loop(self, n_x, n_u, N, stability, seed):
        p = lq_chain(n_x, n_u, N, stability=stability, seed=seed % 1000)
        traj, data = random_point(p, seed=seed, scale=2.0)
        assert_batched_matches_loop(p, traj, data, data)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 1.0]),
        st.integers(2, 8),
        st.sampled_from([0.02, 0.05, 0.1]),
        st.integers(0, 2**32 - 1),
    )
    def test_quadrotor_batched_path_matches_per_stage_loop(self, b, q, N, dt, seed):
        # the batched RK4 chain runs every stage as one row of a stack; the
        # per-stage oracles are one-row calls of it
        bundle = build_model("quadrotor", {"b": b, "q": q, "N": N, "dt": dt})
        traj, data = random_point(bundle.problem, seed=seed)
        # the solve starts at hover after a kick of the initial state, as in
        # the perturbation experiments; random reference data may leave the
        # b = q = 0 case without a regular KKT system
        kick = 0.2 * np.random.default_rng(seed).standard_normal(9)
        assert_batched_matches_loop(bundle.problem, traj, data, bundle.base_data.perturbed(-1, kick), bundle.warm_start)

    @pytest.mark.parametrize("name", ["scalar_oracle", "double_integrator", "lq_chain", "quadrotor"])
    def test_presets_use_only_batched_oracles(self, name):
        bundle = build_model(name)
        p = bundle.problem
        batched_only = dataclasses.replace(
            p,
            oracles=dataclasses.replace(
                p.oracles,
                dynamics=refuse,
                dynamics_jac=refuse,
                stage_cost_grad=refuse,
                stage_cost_hess=refuse,
                dynamics_hess_vec=refuse,
            ),
        )
        traj, data = random_point(p, seed=1)
        assert np.array_equal(kkt_residual(batched_only, traj, data), kkt_residual(p, traj, data))
        res = solve_equality_nlp(batched_only, bundle.base_data, w0=bundle.warm_start)
        ref = solve_equality_nlp(per_stage_only(p), bundle.base_data, w0=bundle.warm_start)
        assert res.converged and res.iterations == ref.iterations
        assert relative_diff(res.trajectory.vector, ref.trajectory.vector) <= 1e-13

    def test_data_size_differing_by_stage_loops_over_stages(self):
        # stage data of sizes 1, 0, 2 at stages 0..2: the batched forms
        # cannot take stacked data, so they are never called
        dims = Dimensions(3, 2, 1, (2, 1, 0, 2, 1), 2)

        def stage_cost(i, x, u, d):
            return float(x @ x + 0.5 * u @ u + np.sin(x[0]) * d.sum() + 0.1 * x[1] * u[0])

        def dynamics(i, x, u, d):
            return 0.9 * x + 0.2 * np.sin(x[::-1]) + 0.3 * u[0] + 0.1 * x[0] * d.sum()

        p = DOProblem(
            dims=dims,
            oracles=StageOracles(
                stage_cost=stage_cost,
                dynamics=dynamics,
                terminal_cost=lambda x, d: float(x @ x + 0.3 * np.cos(x[0]) * d.sum()),
                **dict.fromkeys(BATCHED_FIELDS, refuse),
            ),
            T=np.eye(2),
        )
        loop = per_stage_only(p)
        traj, data = random_point(p, seed=3)
        assert np.array_equal(kkt_residual(p, traj, data), kkt_residual(loop, traj, data))
        blocks = linearize(p, traj, data)
        assert blocks_relative_diff(blocks, linearize(loop, traj, data)) == 0.0
        assert [G.shape for G in blocks.G] == [(2, dims.nd(i)) for i in range(3)]
        assert [F.shape for F in blocks.F] == [(1, dims.nd(i)) for i in range(3)]
        assert [E.shape for E in blocks.E] == [(2, dims.nd(i)) for i in range(4)]
        res = solve_equality_nlp(p, data)
        assert res.converged
        assert np.array_equal(res.trajectory.vector, solve_equality_nlp(loop, data).trajectory.vector)


class TestSolve:
    def test_oracle_hand_solution(self):
        b = build_model("scalar_oracle")
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        t = res.trajectory
        assert t.x(0) == pytest.approx([1.0], abs=1e-8)
        assert t.u(0) == pytest.approx([-0.5], abs=1e-8)
        assert t.x(1) == pytest.approx([0.5], abs=1e-8)
        assert t.lam(-1) == pytest.approx([3.0], abs=1e-8)
        assert t.lam(0) == pytest.approx([1.0], abs=1e-8)

    def test_oracle_zero_data_gives_zero_solution(self):
        b = build_model("scalar_oracle")
        data = DataTrajectory(b.problem.dims, [[0.0], [], []])
        res = solve_equality_nlp(b.problem, data)
        assert np.abs(res.trajectory.stacked_primal()).max() <= 1e-12
        assert np.abs(res.trajectory.stacked_dual()).max() <= 1e-12

    def test_linearize_reuses_residual_jacobians(self):
        p = data_coupled_jac_problem(N=3)
        traj, data = random_point(p, seed=4)
        jac = []
        kkt_residual(p, traj, data, jacobians=jac)
        assert len(jac) == p.dims.N
        fresh, reused = linearize(p, traj, data), linearize(p, traj, data, jacobians=jac)
        for name in "QRSEFABG":
            for a, b in zip(getattr(fresh, name), getattr(reused, name), strict=True):
                assert np.array_equal(a, b), name

    def test_one_dynamics_jacobian_per_point(self, monkeypatch):
        # Newton's linearize takes the Jacobians its residual evaluated at the
        # accepted point: every dynamics Jacobian evaluation belongs to a
        # residual, one stage-batched call for all stages of each
        bundle = build_model("quadrotor", {"N": 6, "dt": 0.5})
        orc = bundle.problem.oracles
        jac_calls, residual_calls = [0], [0]

        def counted_jac(*args):
            jac_calls[0] += 1
            return orc.dynamics_jac_batch(*args)

        def counted_residual(*args, **kwargs):
            residual_calls[0] += 1
            return kkt_residual(*args, **kwargs)

        oracles = dataclasses.replace(orc, dynamics_jac=refuse, dynamics_jac_batch=counted_jac)
        p = dataclasses.replace(bundle.problem, oracles=oracles)
        monkeypatch.setattr(kkt, "kkt_residual", counted_residual)
        data = bundle.base_data.perturbed(-1, 0.2 * np.ones(9))
        res = solve_equality_nlp(p, data, w0=bundle.warm_start)
        assert res.converged and res.iterations >= 2
        assert jac_calls[0] == residual_calls[0]

    def test_one_newton_step_on_lq(self):
        p = lq_chain(3, 2, 6, seed=3)
        traj, data = random_point(p, seed=10, scale=2.0)
        res = solve_equality_nlp(p, data, w0=traj)
        assert res.iterations == 1
        assert res.converged

    def test_feasibility_at_convergence(self):
        p = toy_nonlinear_problem(N=4)
        data = DataTrajectory(p.dims, [0.1 * np.ones(p.dims.nd(i)) for i in range(-1, 5)])
        opts = SolveOptions(tol_kkt=1e-11)
        res = solve_equality_nlp(p, data, opts=opts)
        assert res.converged
        c = evaluate_constraints(p, res.trajectory, data)
        assert np.abs(c).max() <= opts.tol_kkt

    def test_structured_matches_dense_saddle(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            n_x = int(rng.integers(1, 5))
            n_u = int(rng.integers(1, 3))
            N = int(rng.integers(2, 21))
            p = lq_chain(n_x, n_u, N, stability=0.9, seed=trial)
            A, B, _ = p.oracles.dynamics_jac(0, np.zeros(n_x), np.zeros(n_u), np.zeros(n_x))
            x0 = rng.standard_normal(n_x)
            refs = [rng.standard_normal(n_x) for _ in range(N + 1)]
            data = DataTrajectory(p.dims, [x0] + refs)
            res = solve_equality_nlp(p, data)
            z_dense, lam_dense = dense_lq_oracle(
                A, B, np.eye(n_x), np.eye(n_u), np.eye(n_x), np.eye(n_x), N, x0, refs
            )
            scale = max(1.0, np.abs(z_dense).max(), np.abs(lam_dense).max())
            assert np.abs(res.trajectory.stacked_primal() - z_dense).max() <= 1e-8 * scale
            assert np.abs(res.trajectory.stacked_dual() - lam_dense).max() <= 1e-8 * scale

    def test_nonconvergence_carries_last_iterate(self):
        p = toy_nonlinear_problem(N=3)
        data = DataTrajectory(p.dims, [0.1 * np.ones(p.dims.nd(i)) for i in range(-1, 4)])
        with pytest.raises(NonconvergenceError) as err:
            solve_equality_nlp(p, data, opts=SolveOptions(max_iter=1, tol_kkt=1e-14))
        assert err.value.result is not None
        assert err.value.result.trajectory is not None
        assert not err.value.result.converged

    def test_nonlinear_newton_converges(self):
        p = toy_nonlinear_problem(N=5)
        data = DataTrajectory(p.dims, [0.2 * np.ones(p.dims.nd(i)) for i in range(-1, 6)])
        res = solve_equality_nlp(p, data)
        assert res.converged
        assert res.residual_norm <= 1e-9

    def test_regularization_engages_on_singular_hessian(self):
        # zero cost: the KKT matrix is singular along the free direction and
        # the inertia gate must push the ladder off zero; any feasible point
        # is stationary and Newton still converges
        dims = Dimensions.uniform(1, 1, 1, 0, 1)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: 0.0,
            dynamics=lambda i, x, u, d: np.atleast_1d(x[0] + u[0]),
            terminal_cost=lambda x, d: 0.0,
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.eye(1))
        data = DataTrajectory(dims, [[0.3], [], []])
        res = solve_equality_nlp(p, data)
        assert res.converged
        assert res.regularization > 0.0
        c = evaluate_constraints(p, res.trajectory, data)
        assert np.abs(c).max() <= 1e-9

    def test_strong_indefiniteness_beyond_ladder_raises(self):
        # curvature deficits larger than the regularization cap are reported,
        # not silently mangled, with the last iterate attached
        p = strongly_indefinite_problem()
        data = DataTrajectory(p.dims, [[0.3], [], []])
        with pytest.raises(RegularityError) as err:
            solve_equality_nlp(p, data)
        assert not err.value.result.converged
        assert err.value.result.trajectory.dims == p.dims

    def test_no_control_problem_solvable(self):
        # n_u = 0: the trajectory is pinned by the constraints alone
        p = lq_chain(2, 0, 5, seed=2)
        A, _, _ = p.oracles.dynamics_jac(0, np.zeros(2), np.zeros(0), np.zeros(2))
        x0 = np.array([1.0, -0.5])
        data = DataTrajectory(p.dims, [x0] + [np.zeros(2)] * 6)
        res = solve_equality_nlp(p, data)
        assert res.converged
        expect = x0.copy()
        for i in range(6):
            assert res.trajectory.x(i) == pytest.approx(expect, abs=1e-9)
            expect = A @ expect


@st.composite
def kkt_matrices(draw):
    """(K, n_primal, n_dual): a random symmetric matrix (split at a random
    index), or a saddle-point matrix [[H, J^T], [J, 0]] with n_dual <=
    n_primal.  Diagonals are scaled down at random so Bunch-Kaufman takes
    2x2 pivots."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    diag_scale = draw(st.sampled_from([1.0, 1e-3, 0.0]))
    if draw(st.booleans()):
        A = rng.standard_normal((n, n))
        K = A + A.T
        K[np.diag_indices(n)] *= diag_scale
        return K, draw(st.integers(0, n)), None
    m = draw(st.integers(1, n))
    k = min(n - m, m)
    H = rng.standard_normal((m, m))
    H = H + H.T
    H[np.diag_indices(m)] *= diag_scale
    J = rng.standard_normal((k, m))
    K = np.block([[H, J.T], [J, np.zeros((k, k))]])
    return K, m, k


def inertia(K):
    ev = np.linalg.eigvalsh(K)
    return int(np.sum(ev > 0)), int(np.sum(ev < 0)), np.abs(ev).min(), np.abs(ev).max()


class TestPackedFactor:
    @settings(max_examples=150, deadline=None)
    @given(kkt_matrices())
    def test_packed_d_eigs_match_scipy_ldl(self, case):
        K = case[0]
        ldu, ipiv, info = kkt._bunch_kaufman(np.array(K, order="F"))
        eigs = np.sort(kkt._d_eigs(np.diagonal(ldu), np.diagonal(ldu, -1), ipiv))
        ref = np.linalg.eigvalsh(scipy.linalg.ldl(K, lower=True)[1])
        assert eigs.shape == ref.shape
        assert np.abs(eigs - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)

    @settings(max_examples=150, deadline=None)
    @given(kkt_matrices(), st.integers(0, 2**32 - 1))
    def test_inertia_gate_and_step(self, case, seed):
        K, n_primal, n_dual = case
        n = K.shape[0]
        b = np.random.default_rng(seed).standard_normal(n)
        pos, neg, ev_min, ev_max = inertia(K)
        if ev_min <= 1e-6 * max(ev_max, 1.0):
            return  # no spectral gap: the sign counts are not decidable
        x = dense_factor_and_solve(K, b, pos, neg)
        assert x is not None
        norm_K = np.linalg.norm(K, 2)
        assert np.linalg.norm(K @ x - b) <= 1e-10 * norm_K * np.linalg.norm(x)
        if neg > 0:
            assert dense_factor_and_solve(K, b, pos + 1, neg - 1) is None
        if pos > 0:
            assert dense_factor_and_solve(K, b, pos - 1, neg + 1) is None
        if n_dual is not None:
            # the shift lands on the primal diagonal only; the gate then
            # asks for the nominal saddle-point inertia (n_primal, n_dual)
            reg = 0.5
            shifted = K + np.diag(np.r_[np.full(n_primal, reg), np.zeros(n_dual)])
            xs = dense_factor_and_solve(K, b, n_primal, n_dual, reg=reg)
            pos_s, neg_s, ev_min_s, ev_max_s = inertia(shifted)
            if ev_min_s > 1e-6 * max(ev_max_s, 1.0):
                if (pos_s, neg_s) != (n_primal, n_dual):
                    assert xs is None
                else:
                    assert xs is not None
                    resid = np.linalg.norm(shifted @ xs - b)
                    assert resid <= 1e-10 * np.linalg.norm(shifted, 2) * np.linalg.norm(xs)

    @settings(max_examples=100, deadline=None)
    @given(kkt_matrices(), st.integers(0, 2**32 - 1))
    def test_singular_and_nonfinite_rejected(self, case, seed):
        K, n_primal, n_dual = case
        n = K.shape[0]
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n)
        # an exactly zero row and column: one zero eigenvalue whatever the rest
        i = int(rng.integers(n))
        Z = K.copy()
        Z[i, :] = Z[:, i] = 0.0
        for p in range(n + 1):
            assert dense_factor_and_solve(Z, b, p, n - p) is None
        pos, neg, _, _ = inertia(K)
        bad = K.copy()
        bad[i, i] = np.nan
        assert dense_factor_and_solve(bad, b, pos, neg) is None
        b_bad = b.copy()
        b_bad[i] = np.inf
        assert dense_factor_and_solve(K, b_bad, pos, neg) is None
        if n_dual is not None and n_dual >= 2:
            # rank-deficient J: a repeated constraint row
            J = K[n_primal:, :n_primal].copy()
            J[-1] = J[0]
            D = K.copy()
            D[n_primal:, :n_primal] = J
            D[:n_primal, n_primal:] = J.T
            assert dense_factor_and_solve(D, b, n_primal, n_dual) is None


def shifted_inertia(K, n_primal, reg):
    """(pos, neg) of K + reg * diag(1_{n_primal}, 0), or None when its
    smallest |eigenvalue| is below 1e-6 * max(|eigenvalue|, 1): no spectral
    gap, so the sign counts are not decidable."""
    shifted = K + np.diag(np.r_[np.full(n_primal, reg), np.zeros(K.shape[0] - n_primal)])
    pos, neg, ev_min, ev_max = inertia(shifted)
    return (pos, neg) if ev_min > 1e-6 * max(ev_max, 1.0) else None


class TestBlockFactor:
    """The stage-block LDL^T of the Newton step against one dense
    Bunch-Kaufman factorization of the assembled KKT matrix.  The random
    blocks keep R and S nonzero: with R_k = S_k = 0 a stage block is
    singular although K may be regular (see `kkt.factor_kkt`)."""

    @settings(max_examples=200, deadline=None)
    @given(
        stage_blocks(zero_families="ABEFG"),
        st.sampled_from([0.0, 1e-8, 1e-4]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, blocks, reg, seed):
        dims = blocks.dims
        n_p, n_d = dims.n_primal, dims.n_dual
        K = dense_kkt(blocks)
        rhs = np.random.default_rng(seed).standard_normal(K.shape[0])
        truth = shifted_inertia(K, n_p, reg)
        if truth is None:
            return
        x = newton_step(blocks, to_stage_order(dims, rhs), n_p, n_d, reg)
        ref = dense_factor_and_solve(K, rhs, n_p, n_d, reg)
        assert (x is not None) == (ref is not None) == (truth == (n_p, n_d))
        if x is not None:
            assert np.abs(x - to_stage_order(dims, ref)).max() <= 1e-8 * np.abs(ref).max()

    @settings(max_examples=100, deadline=None)
    @given(stage_blocks(zero_families="ABEFG"), st.integers(0, 2**32 - 1))
    def test_gate_takes_exact_inertia(self, blocks, seed):
        K = dense_kkt(blocks)
        rhs = np.random.default_rng(seed).standard_normal(K.shape[0])
        truth = shifted_inertia(K, blocks.dims.n_primal, 0.0)
        if truth is None:
            return
        pos, neg = truth
        x = newton_step(blocks, to_stage_order(blocks.dims, rhs), pos, neg)
        ref = dense_factor_and_solve(K, rhs, pos, neg)
        assert x is not None
        x = to_stacked_order(blocks.dims, x)
        assert np.abs(x - ref).max() <= 1e-8 * np.abs(ref).max()
        assert np.linalg.norm(K @ x - rhs) <= 1e-8 * np.linalg.norm(K, 2) * np.linalg.norm(x)
        if pos != neg:
            assert newton_step(blocks, rhs, neg, pos) is None
        if neg > 0:
            assert newton_step(blocks, rhs, pos + 1, neg - 1) is None
        if pos > 0:
            assert newton_step(blocks, rhs, pos - 1, neg + 1) is None

    @settings(max_examples=100, deadline=None)
    @given(stage_blocks(), st.sampled_from([0.0, 1e-4]), st.integers(0, 2**32 - 1))
    def test_nonfinite_and_singular_rejected(self, blocks, reg, seed):
        dims = blocks.dims
        n_p, n_d = dims.n_primal, dims.n_dual
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal(n_p + n_d)
        bad_rhs = rhs.copy()
        bad_rhs[rng.integers(rhs.size)] = np.inf
        assert newton_step(blocks, bad_rhs, n_p, n_d, reg) is None
        # NaN in one entry of one block of K
        families = [f for f in "QRSAB" if getattr(blocks, f)[0].size] + (["T"] if dims.n_0 else [])
        name = families[rng.integers(len(families))]
        bad = copy.deepcopy(blocks)
        if name == "T":
            M = bad.T
        else:
            M = getattr(bad, name)[rng.integers(len(getattr(bad, name)))]
        M[tuple(rng.integers(s) for s in M.shape)] = np.nan
        assert newton_step(bad, rhs, n_p, n_d, reg) is None
        if dims.n_u and reg == 0.0:
            # a control with no curvature and no dynamics coupling: a zero
            # row of its stage block and of K, so both are exactly singular
            k, j = rng.integers(dims.N), rng.integers(dims.n_u)
            sing = copy.deepcopy(blocks)
            sing.R[k][j, :] = sing.R[k][:, j] = 0.0
            sing.S[k][:, j] = 0.0
            sing.B[k][:, j] = 0.0
            for p in range(n_p + n_d + 1):
                assert newton_step(sing, rhs, p, n_p + n_d - p) is None
            assert dense_factor_and_solve(dense_kkt(sing), rhs, n_p, n_d) is None

    @pytest.mark.parametrize("reg", [0.0, 1e-4])
    def test_matches_dense_oracle_on_linearized_blocks(self, reg):
        # the blocks of a batched linearization and of time_invariant are
        # built from broadcast arrays
        p = lq_chain(4, 2, 9, stability=1.2, seed=3)
        traj, data = random_point(p, seed=2)
        ti = StageBlocks.time_invariant(
            np.diag([1.5, 0.5]), [[1.0], [0.3]], np.diag([1.0, 0.2]), 0.5 * np.eye(1), 7,
            S=[[0.1], [0.0]], T=np.eye(2)[:1],
        )
        for blocks in (linearize(p, traj, data), ti):
            assert all(isinstance(getattr(blocks, name), np.ndarray) for name in "QRSAB")
            dims = blocks.dims
            K = dense_kkt(blocks)
            rhs = np.random.default_rng(1).standard_normal(K.shape[0])
            x = newton_step(blocks, to_stage_order(dims, rhs), dims.n_primal, dims.n_dual, reg)
            ref = dense_factor_and_solve(K, rhs, dims.n_primal, dims.n_dual, reg)
            assert x is not None and ref is not None
            assert np.abs(x - to_stage_order(dims, ref)).max() <= 1e-8 * np.abs(ref).max()

    def test_no_dense_matrix_at_long_horizon(self):
        # lq_chain-sized stages (n_x = 6, n_u = 3) over N = 1000: a dense KKT
        # matrix of order 15006 would take about 1.8 GB
        p = lq_chain(6, 3, 1000, stability=0.9, seed=5)
        rng = np.random.default_rng(0)
        data = DataTrajectory(p.dims, [rng.standard_normal(p.dims.nd(i)) for i in range(-1, 1001)])
        tracemalloc.start()
        try:
            res = solve_equality_nlp(p, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations == 1
        assert peak < 64 * 2**20


    @settings(max_examples=100, deadline=None)
    @given(
        stage_blocks(zero_families="ABEFG"),
        st.sampled_from([0.0, 1e-4]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_solve_vector_and_columns(self, blocks, reg, n_cols, seed):
        dims = blocks.dims
        n_p = dims.n_primal
        K = dense_kkt(blocks) + np.diag(np.r_[np.full(n_p, reg), np.zeros(dims.n_dual)])
        truth = shifted_inertia(K, n_p, 0.0)
        if truth is None:
            return
        factor = kkt.factor_kkt(blocks, reg)
        assert factor is not None and factor.inertia == truth
        rhs = np.random.default_rng(seed).standard_normal((K.shape[0], n_cols))
        X = factor.solve(np.column_stack([to_stage_order(dims, b) for b in rhs.T]))
        assert X.shape == rhs.shape
        for j in range(n_cols):
            ref = to_stage_order(dims, dense_factor_and_solve(K, rhs[:, j], *truth))
            x = factor.solve(to_stage_order(dims, rhs[:, j]))
            assert np.abs(x - ref).max() <= 1e-8 * np.abs(ref).max()
            assert np.abs(X[:, j] - ref).max() <= 1e-8 * np.abs(ref).max()

    @settings(max_examples=50, deadline=None)
    @given(stage_blocks(zero_families="ABEFG"), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_carried_columns_match_a_later_solve(self, blocks, n_cols, seed):
        # right-hand sides carried through the factor pass, finished by
        # solve(), are the bits that solve(rhs) gives from the kept factor
        rhs = np.random.default_rng(seed).standard_normal((blocks.dims.n_w, n_cols))
        carried = kkt.factor_kkt(blocks, 1e-4, rhs)
        kept = kkt.factor_kkt(blocks, 1e-4)
        if carried is None:
            assert kept is None
            return
        later = kept.solve(rhs)
        done = carried.solve()
        assert (done is None) == (later is None)
        assert done is None or done.tobytes() == later.tobytes()
