import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    ConfigurationError,
    DataTrajectory,
    Dimensions,
    DOProblem,
    PrimalDualTrajectory,
    StageOracles,
    build_model,
    evaluate_constraints,
    evaluate_lagrangian,
    evaluate_objective,
    kkt_residual,
    solve_equality_nlp,
)
from conftest import random_point


def quadratic_problem(N=2, n_x=2, n_u=1):
    dims = Dimensions(N, n_x, n_u, 0, n_x)
    oracles = StageOracles(
        stage_cost=lambda i, x, u, d: float(x @ x + u @ u),
        dynamics=lambda i, x, u, d: np.zeros(n_x),
        terminal_cost=lambda x, d: float(x @ x),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(n_x))


def lagrangian_gradient_by_fd(p, traj, data, h=1e-6):
    """Central difference of the Lagrangian over the entries of traj.vector."""
    w0 = traj.vector
    fd = np.zeros_like(w0)
    for k in range(w0.size):
        e = np.zeros_like(w0)
        e[k] = h
        plus = evaluate_lagrangian(p, PrimalDualTrajectory.from_vector(p.dims, w0 + e), data)
        minus = evaluate_lagrangian(p, PrimalDualTrajectory.from_vector(p.dims, w0 - e), data)
        fd[k] = (plus - minus) / (2 * h)
    return fd


def scalar_n1(f0, l0, l1, n0_data=1):
    dims = Dimensions(1, 1, 1, 0, n0_data)
    oracles = StageOracles(
        stage_cost=lambda i, x, u, d: l0(x, u),
        dynamics=lambda i, x, u, d: np.atleast_1d(f0(x, u)),
        terminal_cost=lambda x, d: l1(x),
    )
    T = np.array([[1.0]]) if n0_data else np.zeros((0, 1))
    return DOProblem(dims=dims, oracles=oracles, T=T)


class TestObjective:
    def test_zero_trajectories_zero_cost(self):
        p = quadratic_problem()
        traj = PrimalDualTrajectory.zeros(p.dims)
        data = DataTrajectory.zeros(p.dims)
        assert evaluate_objective(p, traj, data) == 0.0

    def test_hand_evaluation_scalar_n1(self):
        p = scalar_n1(lambda x, u: x + u, lambda x, u: float(x @ x + u @ u), lambda x: float(x @ x))
        traj = PrimalDualTrajectory(p.dims, [[1.0], [0.5]], [[-0.5]], [[0.0], [0.0]])
        data = DataTrajectory(p.dims, [[1.0], [], []])
        assert evaluate_objective(p, traj, data) == pytest.approx(1.5, abs=1e-14)

    def test_linear_cost_in_data(self):
        N = 3
        dims = Dimensions(N, 1, 1, 1, 1)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: float(d[0]),
            dynamics=lambda i, x, u, d: np.zeros(1),
            terminal_cost=lambda x, d: float(d[0]),
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.eye(1))
        traj = PrimalDualTrajectory.zeros(dims)
        data = DataTrajectory(dims, [np.ones(1)] * (N + 2))
        assert evaluate_objective(p, traj, data) == pytest.approx(4.0)

    def test_dimension_mismatch_rejected(self):
        p = quadratic_problem(N=2)
        other = quadratic_problem(N=3)
        with pytest.raises(ConfigurationError):
            evaluate_objective(p, PrimalDualTrajectory.zeros(other.dims), DataTrajectory.zeros(p.dims))


class TestConstraints:
    def test_all_zero(self):
        dims = Dimensions(2, 2, 1, 0, 2)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: 0.0,
            dynamics=lambda i, x, u, d: np.zeros(2),
            terminal_cost=lambda x, d: 0.0,
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.eye(2))
        c = evaluate_constraints(p, PrimalDualTrajectory.zeros(dims), DataTrajectory.zeros(dims))
        assert c.shape == (dims.n_dual,)
        assert np.all(c == 0.0)

    def test_feasible_point(self):
        p = scalar_n1(lambda x, u: x + u, lambda x, u: 0.0, lambda x: 0.0)
        traj = PrimalDualTrajectory(p.dims, [[1.0], [0.5]], [[-0.5]], [[0.0], [0.0]])
        data = DataTrajectory(p.dims, [[1.0], [], []])
        assert evaluate_constraints(p, traj, data) == pytest.approx([0.0, 0.0])

    def test_dynamics_defect(self):
        p = scalar_n1(lambda x, u: x + u, lambda x, u: 0.0, lambda x: 0.0)
        traj = PrimalDualTrajectory(p.dims, [[1.0], [0.7]], [[-0.5]], [[0.0], [0.0]])
        data = DataTrajectory(p.dims, [[1.0], [], []])
        assert evaluate_constraints(p, traj, data) == pytest.approx([0.0, 0.2])


class TestLagrangian:
    def test_zero_multipliers_reduce_to_objective(self, toy):
        traj, data = random_point(toy, seed=1)
        for i in range(-1, toy.dims.N):
            traj.lam(i)[:] = 0.0
        assert evaluate_lagrangian(toy, traj, data) == pytest.approx(
            evaluate_objective(toy, traj, data), rel=1e-14
        )

    def test_gradient_vanishes_at_oracle_solution(self):
        b = build_model("scalar_oracle")
        res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        r = kkt_residual(b.problem, res.trajectory, b.base_data)
        assert np.abs(r).max() <= 1e-10

    def test_initial_constraint_pairing_sign(self):
        # f == 0, costs == 0, T = I: only the initial pairing remains and the
        # chosen convention makes it -lam @ (x0 - d)
        dims = Dimensions(1, 1, 0, 0, 1)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: 0.0,
            dynamics=lambda i, x, u, d: np.zeros(1),
            terminal_cost=lambda x, d: 0.0,
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.eye(1))
        traj = PrimalDualTrajectory(dims, [[2.0], [0.0]], [[]], [[1.0], [0.0]])
        data = DataTrajectory(dims, [[0.0], [], []])
        value = evaluate_lagrangian(p, traj, data)
        assert abs(value) == pytest.approx(2.0)
        assert value == pytest.approx(-2.0)


class TestInvariants:
    def test_fd_gradient_matches_kkt_residual(self, toy):
        traj, data = random_point(toy, seed=3)
        r = kkt_residual(toy, traj, data)
        fd = lagrangian_gradient_by_fd(toy, traj, data)
        scale = max(1.0, np.abs(r).max())
        assert np.abs(fd - r).max() <= 1e-6 * scale

    def test_lagrangian_linear_in_multipliers(self, toy):
        traj, data = random_point(toy, seed=4)
        obj = evaluate_objective(toy, traj, data)
        rng = np.random.default_rng(5)
        stages = range(-1, toy.dims.N)
        direction = [rng.standard_normal(traj.lam(i).shape) for i in stages]

        def value_at(t):
            shifted = traj.copy()
            for i, dv in zip(stages, direction):
                shifted.lam(i)[:] += t * dv
            return evaluate_lagrangian(toy, shifted, data) - obj

        v0, vh, v1 = value_at(0.0), value_at(0.5), value_at(1.0)
        assert vh == pytest.approx(0.5 * (v0 + v1), abs=1e-10 * max(1.0, abs(v0), abs(v1)))

    def test_empty_initial_map_conventions(self):
        # estimation-style problem: n_0 = 0, no initial constraint block
        dims = Dimensions(2, 2, 1, 1, 0)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: float(x @ x + u @ u),
            dynamics=lambda i, x, u, d: 0.5 * x,
            terminal_cost=lambda x, d: float(x @ x),
        )
        p = DOProblem(dims=dims, oracles=oracles, T=np.zeros((0, 2)))
        traj = PrimalDualTrajectory.zeros(dims)
        assert traj.lam(-1).shape == (0,)
        c = evaluate_constraints(p, traj, DataTrajectory.zeros(dims))
        assert c.shape == (2 * 2,)
        res = solve_equality_nlp(p, DataTrajectory.zeros(dims))
        assert res.converged


class TestDimensions:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigurationError):
            Dimensions(0, 1, 1, 0, 1)
        with pytest.raises(ConfigurationError):
            Dimensions(1, 0, 1, 0, 0)
        with pytest.raises(ConfigurationError):
            Dimensions(1, 1, 1, 0, 2)
        # one integer data size for stages 0..N: not negative, fractional,
        # a per-stage tuple, a string, a bool or inf
        for n_d in (-1, 2.5, (1, 2.5, 2.5), (1, 2, 2), "2", True, math.inf):
            with pytest.raises(ConfigurationError, match="n_d must"):
                Dimensions(1, 1, 1, n_d, 1)
        dims = Dimensions(3, 2, 1, 4.0, 1)
        assert type(dims.n_d) is int and [dims.nd(i) for i in range(-1, 4)] == [1, 4, 4, 4, 4]
        # every size is checked the same way: a fractional horizon, a bool
        # horizon and a string size are rejected, not coerced or compared
        for args, key in (
            ((2.5, 2, 1, 0, 2), "N"),
            ((True, 2, 1, 0, 2), "N"),
            ((3, 2.5, 1, 0, 2), "n_x"),
            ((3, 2, "1", 0, 2), "n_u"),
            ((3, 2, 1, 0, "2"), "n_0"),
        ):
            with pytest.raises(ConfigurationError, match=f"{key} must be an integer"):
                Dimensions(*args)
        dims = Dimensions(np.int64(3), 2.0, np.int32(1), 0, 2)
        assert all(type(getattr(dims, key)) is int for key in ("N", "n_x", "n_u", "n_d", "n_0"))

    def test_rank_deficient_T_rejected(self):
        dims = Dimensions(1, 2, 1, 0, 2)
        oracles = StageOracles(
            stage_cost=lambda i, x, u, d: 0.0,
            dynamics=lambda i, x, u, d: np.zeros(2),
            terminal_cost=lambda x, d: 0.0,
        )
        with pytest.raises(ConfigurationError):
            DOProblem(dims=dims, oracles=oracles, T=np.array([[1.0, 0.0], [2.0, 0.0]]))


@st.composite
def dimensions(draw):
    """Random sizes, n_0 = 0, n_u = 0 and empty stage data included."""
    N = draw(st.integers(1, 5))
    n_x = draw(st.integers(1, 3))
    n_0 = draw(st.integers(0, n_x))
    n_d = draw(st.integers(0, 2))
    return Dimensions(N, n_x, draw(st.integers(0, 2)), n_d, n_0)


def smooth_problem(dims):
    """Nonlinear problem of the given sizes with no analytic derivatives."""
    def stage_cost(i, x, u, d):
        return float(x @ x + 0.5 * u @ u + np.sin(x[0]) * d.sum() + 0.1 * (i + 1) * x.sum() * u.sum())

    def dynamics(i, x, u, d):
        return 0.9 * x + 0.2 * np.sin(x[::-1]) + 0.3 * u.sum() + 0.1 * x[0] * d.sum()

    oracles = StageOracles(
        stage_cost=stage_cost,
        dynamics=dynamics,
        terminal_cost=lambda x, d: float(x @ x + 0.3 * np.cos(x[0]) * d.sum()),
    )
    return DOProblem(dims=dims, oracles=oracles, T=np.eye(dims.n_x)[: dims.n_0])


class TestDataTrajectory:
    def test_perturbed_copies_both_arrays_and_changes_one_stage(self):
        dims = Dimensions(3, 2, 1, 2, 1)
        base = DataTrajectory(dims, [np.arange(dims.nd(i), dtype=float) + i for i in range(-1, 4)])
        assert base.init.shape == (1,) and base.stages.shape == (4, 2)
        bits = lambda v: np.asarray(v).view(np.int64)
        init, stages = base.init.copy(), base.stages.copy()
        deltas = {-1: [0.1], 1: [1.0, 2.0], 3: [-0.3, 1e-17]}
        for j, dj in deltas.items():
            d = base.perturbed(j, dj)
            # stage j is base + delta bit for bit, every other stage the base's bits
            for i in range(-1, 4):
                want = base[i] + dj if i == j else base[i]
                assert np.array_equal(bits(d[i]), bits(want)), (j, i)
            # neither aliases the other, whichever is written
            d.init[0], d.stages[0, 0] = 99.0, 99.0
            assert np.array_equal(base.init, init) and np.array_equal(base.stages, stages)
            base.stages[2, 1] = -5.0
            assert d[2][1] == stages[2, 1]
            base.stages[2, 1] = stages[2, 1]
        # the first N rows are a view of `stages`, as is each data[i]
        assert np.shares_memory(base.stages[: dims.N], base.stages) and base.stages[: dims.N].base is base.stages
        assert np.shares_memory(base[1], base.stages) and base[-1] is base.init
        copy = base.copy()
        assert not np.shares_memory(copy.stages, base.stages) and not np.shares_memory(copy.init, base.init)


class TestLayout:
    """One stage-ordered vector [w(-1); ...; w(N)] holds a primal-dual
    point; the accessors, the stacked conversions and the KKT residual all
    read it."""

    def test_accessors_reject_stages_outside_the_horizon(self):
        p = build_model("lq_chain", {"N": 3}).problem
        traj = PrimalDualTrajectory.zeros(p.dims)
        for accessor, bad in (
            (traj.x, (-1, 4)),
            (traj.u, (-1, 3)),
            (traj.lam, (-2, 3)),
            (traj.w, (-2, 4)),
        ):
            for i in bad:
                with pytest.raises(ConfigurationError):
                    accessor(i)

    @settings(max_examples=60, deadline=None)
    @given(dimensions(), st.integers(0, 2**32 - 1))
    def test_stacked_round_trip_and_stage_blocks(self, dims, seed):
        rng = np.random.default_rng(seed)
        z, lam = rng.standard_normal(dims.n_primal), rng.standard_normal(dims.n_dual)
        t = PrimalDualTrajectory.from_stacked(dims, z, lam)
        assert np.array_equal(t.stacked_primal(), z)
        assert np.array_equal(t.stacked_dual(), lam)
        N = dims.N
        # the stacked orderings, spelled out stage by stage
        primal = [v for i in range(N) for v in (t.x(i), t.u(i))] + [t.x(N)]
        assert np.array_equal(np.concatenate(primal), z)
        assert np.array_equal(np.concatenate([t.lam(i) for i in range(-1, N)]), lam)
        for i in range(-1, N + 1):
            parts = []
            if i >= 0:
                parts.append(t.x(i))
            if 0 <= i < N:
                parts.append(t.u(i))
            if i < N:
                parts.append(t.lam(i))
            assert np.array_equal(t.w(i), np.concatenate(parts))
        assert np.array_equal(np.concatenate([t.w(i) for i in range(-1, N + 1)]), t.vector)

    @settings(max_examples=60, deadline=None)
    @given(dimensions(), st.data())
    def test_writes_through_accessors_reach_the_vector(self, dims, data):
        N = dims.N
        choices = [("x", i) for i in range(N + 1)] + [("lam", i) for i in range(-1, N)]
        choices += [("u", i) for i in range(N)] if dims.n_u else []
        choices = [(name, i) for name, i in choices if name != "lam" or i >= 0 or dims.n_0]
        name, i = data.draw(st.sampled_from(choices))
        t = PrimalDualTrajectory.zeros(dims)
        view = getattr(t, name)(i)
        k = data.draw(st.integers(0, view.size - 1))
        view[k] = 7.0
        start = dims.w_offsets[i + 1] + {"x": 0, "u": dims.n_x, "lam": dims.n_z if i >= 0 else 0}[name]
        expect = np.zeros(dims.n_w)
        expect[start + k] = 7.0
        assert np.array_equal(t.vector, expect)
        assert getattr(t.copy(), name)(i)[k] == 7.0

    @settings(max_examples=40, deadline=None)
    @given(dimensions(), st.integers(0, 2**32 - 1))
    def test_kkt_residual_is_lagrangian_gradient_in_vector(self, dims, seed):
        p = smooth_problem(dims)
        traj, data = random_point(p, seed=seed)
        r = kkt_residual(p, traj, data)
        fd = lagrangian_gradient_by_fd(p, traj, data)
        scale = max(1.0, np.abs(r).max())
        assert np.abs(fd - r).max() <= 1e-6 * scale
