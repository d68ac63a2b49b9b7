import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    DataTrajectory,
    DecayFit,
    Dimensions,
    FitError,
    PerturbationSpec,
    PrimalDualTrajectory,
    SensitivityProfile,
    SolveOptions,
    build_model,
    decay_contrast,
    fit_decay,
    run_experiments,
    run_perturbation_experiment,
    solve_equality_nlp,
    stage_deviations,
    verify_eds_bound,
)
from conftest import strongly_indefinite_problem, toy_nonlinear_problem


def synthetic_profile(N, j, upsilon, rho, magnitude=1.0, replicate=0):
    s = np.array([magnitude * upsilon * rho ** abs(i - j) for i in range(-1, N + 1)])
    return SensitivityProfile(stage=j, s=s, magnitude=magnitude, converged=True, replicate=replicate)


@pytest.fixture(scope="module")
def oracle_solved():
    b = build_model("scalar_oracle")
    base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
    return b, base


class TestPerturbationExperiment:
    def test_zero_magnitude_yields_zero_profile(self, oracle_solved):
        b, base = oracle_solved
        prof = run_perturbation_experiment(
            b.problem, b.base_data, base.trajectory, PerturbationSpec(-1, [0.0])
        )
        assert prof.magnitude == 0.0
        assert np.all(prof.s == 0.0)

    def test_oracle_hand_deviations(self, oracle_solved):
        # d_{-1}: 1 -> 1.1 scales the affine solution map by 1.1; base
        # solution (1, -0.5, 0.5), duals (3, 1)
        b, base = oracle_solved
        prof = run_perturbation_experiment(
            b.problem, b.base_data, base.trajectory, PerturbationSpec(-1, [0.1])
        )
        assert prof.deviation(-1) == pytest.approx(0.3, abs=1e-8)
        assert prof.deviation(0) == pytest.approx(0.1 * np.linalg.norm([1.0, -0.5, 1.0]), abs=1e-8)
        assert prof.deviation(1) == pytest.approx(0.05, abs=1e-8)
        assert prof.converged and prof.error is None

    def test_lq_linearity_in_magnitude(self):
        b = build_model("lq_chain", {"n_x": 3, "n_u": 2, "N": 20, "stability": 0.7, "seed": 5})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        delta = np.array([0.1, -0.05, 0.02])
        p1 = run_perturbation_experiment(b.problem, b.base_data, base.trajectory,
                                         PerturbationSpec(10, delta))
        p2 = run_perturbation_experiment(b.problem, b.base_data, base.trajectory,
                                         PerturbationSpec(10, 2 * delta))
        assert np.abs(p2.s - 2 * p1.s).max() <= 1e-8

    def test_regularity_failure_marks_profile(self):
        # every solve of this problem exhausts the regularization ladder; the
        # experiment still returns a profile, flagged like a nonconverged one
        p = strongly_indefinite_problem()
        d_star = DataTrajectory(p.dims, [[0.3], [], []])
        w_star = PrimalDualTrajectory.zeros(p.dims)
        prof = run_perturbation_experiment(p, d_star, w_star, PerturbationSpec(-1, [0.1]))
        assert not prof.converged
        assert prof.error.startswith("RegularityError: KKT system unusable")
        assert prof.s.shape == (p.dims.N + 2,)
        assert np.all(np.isfinite(prof.s))

    def test_iterations_recorded_for_converged_and_failed_solves(self):
        p = toy_nonlinear_problem(N=3)
        d_star = DataTrajectory(p.dims, [0.1 * np.ones(p.dims.nd(i)) for i in range(-1, 4)])
        w_star = solve_equality_nlp(p, d_star).trajectory
        spec = PerturbationSpec(1, [0.2, -0.1])
        solved = solve_equality_nlp(p, d_star.perturbed(1, spec.delta), w0=w_star)
        prof = run_perturbation_experiment(p, d_star, w_star, spec)
        assert prof.converged and prof.iterations == solved.iterations >= 1
        # a failed solve reports the iterations its error carries
        opts = SolveOptions(max_iter=2, tol_kkt=1e-300)
        prof = run_perturbation_experiment(p, d_star, w_star, spec, opts=opts)
        assert not prof.converged and prof.iterations == 2

    def test_primal_only_norms_smaller(self, oracle_solved):
        b, base = oracle_solved
        full = run_perturbation_experiment(
            b.problem, b.base_data, base.trajectory, PerturbationSpec(-1, [0.1])
        )
        primal = run_perturbation_experiment(
            b.problem, b.base_data, base.trajectory, PerturbationSpec(-1, [0.1]), primal_only=True
        )
        assert np.all(primal.s <= full.s + 1e-15)
        assert primal.deviation(-1) == 0.0  # stage -1 block is all multiplier

    def test_batch_runner_deterministic_and_seeded(self):
        b = build_model("lq_chain", {"n_x": 2, "n_u": 1, "N": 12, "seed": 3})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        a = run_experiments(b.problem, b.base_data, base.trajectory, [4, 8], 2, 0.1, seed=11)
        c = run_experiments(b.problem, b.base_data, base.trajectory, [4, 8], 2, 0.1, seed=11)
        assert len(a) == 4
        for pa, pc in zip(a, c):
            assert pa.seed == pc.seed
            assert pa.s.tobytes() == pc.s.tobytes()


class TestFitDecay:
    def test_exact_log_linear_data(self):
        prof = synthetic_profile(20, 3, upsilon=0.5, rho=0.5)
        fit = fit_decay([prof])
        assert fit.upsilon == pytest.approx(0.5, rel=1e-10)
        assert fit.rho == pytest.approx(0.5, rel=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_flat_profile_clamps_to_no_decay(self):
        prof = SensitivityProfile(stage=5, s=np.full(22, 0.3), magnitude=1.0, converged=True)
        fit = fit_decay([prof])
        assert fit.rho == 1.0
        assert fit.no_decay

    def test_pooling_identical_profiles_matches_single(self):
        p1 = synthetic_profile(30, 8, 0.7, 0.6)
        p2 = synthetic_profile(30, 22, 0.7, 0.6)
        single = fit_decay([p1])
        pooled = fit_decay([p1, p2])
        assert pooled.upsilon == pytest.approx(single.upsilon, abs=1e-10)
        assert pooled.rho == pytest.approx(single.rho, abs=1e-10)

    def test_nonconverged_profiles_excluded(self):
        good = synthetic_profile(20, 5, 0.5, 0.5)
        bad = synthetic_profile(20, 5, 50.0, 0.99)
        bad.converged = False
        fit = fit_decay([good, bad])
        assert fit.rho == pytest.approx(0.5, rel=1e-10)

    def test_insufficient_data_raises(self):
        prof = SensitivityProfile(stage=0, s=np.zeros(5), magnitude=1.0, converged=True)
        with pytest.raises(FitError):
            fit_decay([prof])

    def test_envelope_mode_covers_every_point(self):
        rng = np.random.default_rng(2)
        s = np.array([0.5 * 0.6 ** abs(i - 7) * rng.uniform(0.5, 1.5) for i in range(-1, 25)])
        prof = SensitivityProfile(stage=7, s=s, magnitude=1.0, converged=True)
        fit = fit_decay([prof], mode="envelope")
        check = verify_eds_bound([prof], fit, slack=1.0)
        assert check.violations == 0
        assert check.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_noise_floor_excluded(self):
        # half the profile sits at solver-noise level; the fitted rate must
        # come from the clean half
        s = np.array([1.0 * 0.5 ** abs(i - 0) for i in range(-1, 41)])
        s[25:] = 1e-13
        prof = SensitivityProfile(stage=0, s=s, magnitude=1.0, converged=True)
        fit = fit_decay([prof])
        assert fit.rho == pytest.approx(0.5, rel=1e-6)


class TestVerifyBound:
    def test_exact_envelope_zero_violations(self):
        prof = synthetic_profile(20, 3, 0.5, 0.5)
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12, mode="envelope",
                       clamped=False, n_points=22)
        check = verify_eds_bound([prof], fit, slack=1.0)
        assert check.violations == 0
        assert check.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_single_violation_reported_with_ratio(self):
        prof = synthetic_profile(20, 3, 0.5, 0.5)
        prof.s[10] *= 2.0
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12, mode="envelope",
                       clamped=False, n_points=22)
        check = verify_eds_bound([prof], fit, slack=1.0)
        assert check.violations == 1
        assert check.worst_ratio == pytest.approx(2.0, rel=1e-12)

    def test_slack_scales_bound(self):
        prof = synthetic_profile(20, 3, 0.5, 0.5)
        prof.s[10] *= 2.0
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12, mode="envelope",
                       clamped=False, n_points=22)
        assert verify_eds_bound([prof], fit, slack=2.0).violations == 0


class TestContrast:
    def test_separated(self):
        fa = DecayFit(1.0, 0.6, 1.0, 1e-12, "ls", False, 10)
        fb = DecayFit(1.0, 0.99, 1.0, 1e-12, "ls", False, 10)
        assert decay_contrast(fa, fb, margin=0.05).separated

    def test_equal_not_separated(self):
        f = DecayFit(1.0, 0.8, 1.0, 1e-12, "ls", False, 10)
        assert not decay_contrast(f, f).separated


class TestTwoSidedDecay:
    def test_envelope_bounds_both_sides(self):
        b = build_model("lq_chain", {"n_x": 3, "n_u": 2, "N": 40, "stability": 0.7, "seed": 5})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        profs = run_experiments(b.problem, b.base_data, base.trajectory, [20], 3, 0.1, seed=1)
        fit = fit_decay(profs, mode="envelope")
        for prof in profs:
            floor = prof.floor()
            for i in prof.stage_range():
                si = prof.deviation(i)
                if si > floor:
                    bound = fit.upsilon * fit.rho ** abs(i - 20) * prof.magnitude
                    assert si <= bound * (1 + 1e-9)

    def test_lq_profile_monotone_outside_plateau(self):
        b = build_model("lq_chain", {"n_x": 3, "n_u": 2, "N": 40, "stability": 0.7, "seed": 5})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        profs = run_experiments(b.problem, b.base_data, base.trajectory, [20], 1, 0.1, seed=2)
        prof = profs[0]
        floor = prof.floor()
        left = [prof.deviation(i) for i in range(18, -2, -1)]
        right = [prof.deviation(i) for i in range(22, 41)]
        for seq in (left, right):
            for a, c in zip(seq, seq[1:]):
                if a > floor and c > floor:
                    assert c <= 1.05 * a + 1e-12


class TestStageDeviations:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 3), st.data(), st.booleans())
    def test_matches_per_stage_norms(self, N, n_x, n_u, draw, primal_only):
        dims = Dimensions.uniform(N, n_x, n_u, 0, draw.draw(st.integers(0, n_x)))
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        a = PrimalDualTrajectory.from_vector(dims, rng.standard_normal(dims.n_w))
        b = PrimalDualTrajectory.from_vector(dims, rng.standard_normal(dims.n_w))
        ref = np.zeros(N + 2)
        for i in range(-1, N + 1):
            w = a.w(i) - b.w(i)
            if primal_only:
                w = w[: dims.n_z] if i >= 0 else w[:0]
            ref[i + 1] = np.linalg.norm(w)
        s = stage_deviations(a, b, primal_only=primal_only)
        assert np.abs(s - ref).max() <= 1e-15 * ref.max()

