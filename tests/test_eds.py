import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edslab import (
    ConfigurationError,
    DataTrajectory,
    DecayFit,
    Dimensions,
    FitError,
    PrimalDualTrajectory,
    SensitivityProfile,
    SolveOptions,
    build_model,
    decay_contrast,
    fit_decay,
    random_perturbation,
    run_experiments,
    run_perturbation_experiment,
    solve_equality_nlp,
    stage_deviations,
    verify_eds_bound,
)
from edslab import kkt
from conftest import dense_newton_step, strongly_indefinite_problem, toy_nonlinear_problem


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
            b.problem, b.base_data, base.trajectory, -1, [0.0]
        )
        assert prof.magnitude == 0.0
        assert np.all(prof.s == 0.0)

    def test_oracle_hand_deviations(self, oracle_solved):
        # d_{-1}: 1 -> 1.1 scales the affine solution map by 1.1; base
        # solution (1, -0.5, 0.5), duals (3, 1)
        b, base = oracle_solved
        prof = run_perturbation_experiment(
            b.problem, b.base_data, base.trajectory, -1, [0.1]
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
                                         10, delta)
        p2 = run_perturbation_experiment(b.problem, b.base_data, base.trajectory,
                                         10, 2 * delta)
        assert np.abs(p2.s - 2 * p1.s).max() <= 1e-8

    def test_regularity_failure_marks_profile(self):
        # every solve of this problem exhausts the regularization ladder; the
        # experiment still returns a profile, flagged like a nonconverged one
        p = strongly_indefinite_problem()
        d_star = DataTrajectory(p.dims, [[0.3], [], []])
        w_star = PrimalDualTrajectory.zeros(p.dims)
        prof = run_perturbation_experiment(p, d_star, w_star, -1, [0.1])
        assert not prof.converged
        assert prof.error.startswith("RegularityError: KKT system unusable")
        assert prof.s.shape == (p.dims.N + 2,)
        assert np.all(np.isfinite(prof.s))

    def test_iterations_recorded_for_converged_and_failed_solves(self):
        p = toy_nonlinear_problem(N=3)
        d_star = DataTrajectory(p.dims, [0.1 * np.ones(p.dims.nd(i)) for i in range(-1, 4)])
        w_star = solve_equality_nlp(p, d_star).trajectory
        delta = np.array([0.2, -0.1])
        solved = solve_equality_nlp(p, d_star.perturbed(1, delta), w0=w_star)
        prof = run_perturbation_experiment(p, d_star, w_star, 1, delta)
        assert prof.converged and prof.iterations == solved.iterations >= 1
        # a failed solve reports the iterations its error carries
        opts = SolveOptions(max_iter=2, tol_kkt=1e-300)
        prof = run_perturbation_experiment(p, d_star, w_star, 1, delta, opts=opts)
        assert not prof.converged and prof.iterations == 2

    def test_batch_runner_rejects_repeated_stages(self):
        # a repeated stage would solve one (stage, replicate, seed) twice and
        # count its points twice in the fit
        b = build_model("lq_chain", {"n_x": 2, "n_u": 1, "N": 12, "seed": 3})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        with pytest.raises(ConfigurationError, match="stages must be distinct"):
            run_experiments(b.problem, b.base_data, base.trajectory, [4, 4, 8], 1, 0.1, seed=11)

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
        fit = fit_decay([prof])
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
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12,
                       clamped=False, n_points=22)
        check = verify_eds_bound([prof], fit, slack=1.0)
        assert check.violations == 0
        assert check.worst_ratio == pytest.approx(1.0, rel=1e-12)

    def test_single_violation_reported_with_ratio(self):
        prof = synthetic_profile(20, 3, 0.5, 0.5)
        prof.s[10] *= 2.0
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12,
                       clamped=False, n_points=22)
        check = verify_eds_bound([prof], fit, slack=1.0)
        assert check.violations == 1
        assert check.worst_ratio == pytest.approx(2.0, rel=1e-12)

    def test_slack_scales_bound(self):
        prof = synthetic_profile(20, 3, 0.5, 0.5)
        prof.s[10] *= 2.0
        fit = DecayFit(upsilon=0.5, rho=0.5, r2=1.0, floor=1e-12,
                       clamped=False, n_points=22)
        assert verify_eds_bound([prof], fit, slack=2.0).violations == 0


class TestContrast:
    def test_separated(self):
        fa = DecayFit(1.0, 0.6, 1.0, 1e-12, False, 10)
        fb = DecayFit(1.0, 0.99, 1.0, 1e-12, False, 10)
        assert decay_contrast(fa, fb).separated

    def test_equal_not_separated(self):
        f = DecayFit(1.0, 0.8, 1.0, 1e-12, False, 10)
        assert not decay_contrast(f, f).separated


class TestTwoSidedDecay:
    def test_envelope_bounds_both_sides(self):
        b = build_model("lq_chain", {"n_x": 3, "n_u": 2, "N": 40, "stability": 0.7, "seed": 5})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        profs = run_experiments(b.problem, b.base_data, base.trajectory, [20], 3, 0.1, seed=1)
        fit = fit_decay(profs)
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
    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 3), st.data())
    def test_matches_per_stage_norms(self, N, n_x, n_u, draw):
        dims = Dimensions(N, n_x, n_u, 0, draw.draw(st.integers(0, n_x)))
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        a = PrimalDualTrajectory.from_vector(dims, rng.standard_normal(dims.n_w))
        b = PrimalDualTrajectory.from_vector(dims, rng.standard_normal(dims.n_w))
        ref = np.zeros(N + 2)
        for i in range(-1, N + 1):
            ref[i + 1] = np.linalg.norm(a.w(i) - b.w(i))
        s = stage_deviations(a, b)
        assert np.abs(s - ref).max() <= 1e-15 * ref.max()



def experiment_deltas(p, stages, replicates, magnitude, seed):
    """The perturbations `run_experiments` draws, keyed by (stage, replicate)."""
    return {
        (j, rep): random_perturbation(p.dims.nd(j), magnitude, np.random.default_rng([seed, j + 1, rep]))
        for j in stages
        for rep in range(replicates)
    }


def assert_batch_matches_alone(p, d_star, w_star, stages, replicates, magnitude, seed, opts=None):
    """Every profile of one lock-step batch agrees with the same experiment
    solved alone through the one-point path: deviations within 1e-12 of the
    profile's peak, the same convergence, error and Newton iterations.
    Returns the batch's profiles and solver counts."""
    stats = {}
    batch = run_experiments(p, d_star, w_star, stages, replicates, magnitude, seed, opts=opts, stats=stats)
    deltas = experiment_deltas(p, stages, replicates, magnitude, seed)
    assert [(pr.stage, pr.replicate) for pr in batch] == sorted(deltas)
    for prof in batch:
        delta = deltas[prof.stage, prof.replicate]
        alone = run_perturbation_experiment(p, d_star, w_star, prof.stage, delta, opts=opts)
        assert (prof.converged, prof.error, prof.iterations) == (alone.converged, alone.error, alone.iterations)
        assert np.abs(prof.s - alone.s).max() <= 1e-12 * alone.s.max()
    return batch, stats


class TestLockstepExperiments:
    """`run_experiments` solves all its profiles in one lock-step Newton
    loop; each profile must come out as its one-point solve does."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(2, 20),
        st.sampled_from([0.5, 0.9, 1.3]),
        st.data(),
        st.sampled_from([1, kkt._CHUNK_BYTES]),
    )
    def test_lq_chain_batch_matches_alone_and_dense_step(self, n_x, n_u, N, stability, draw, chunk_bytes):
        seed = draw.draw(st.integers(0, 999))
        b = build_model("lq_chain", {"n_x": n_x, "n_u": n_u, "N": N, "stability": stability, "seed": seed})
        p = b.problem
        base = solve_equality_nlp(p, b.base_data, w0=b.warm_start)
        stages = sorted(draw.draw(st.sets(st.integers(-1, N), min_size=1, max_size=4)))
        replicates = draw.draw(st.integers(1, 3))
        # one point per chunk, or the default chunks: the results agree
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kkt, "_CHUNK_BYTES", chunk_bytes)
            batch, stats = assert_batch_matches_alone(
                p, b.base_data, base.trajectory, stages, replicates, 0.1, seed
            )
        # every LQ profile takes one Newton step, all from one factor
        n = len(batch)
        assert all(pr.converged and pr.iterations == 1 for pr in batch)
        assert stats["factorizations"] == 1 and stats["solved_columns"] == n
        deltas = experiment_deltas(p, stages, replicates, 0.1, seed)
        for prof in batch:
            data = b.base_data.perturbed(prof.stage, deltas[prof.stage, prof.replicate])
            step = dense_newton_step(p, base.trajectory, data)
            w = PrimalDualTrajectory.from_vector(p.dims, base.trajectory.vector + step)
            ref = stage_deviations(w, base.trajectory)
            assert np.abs(prof.s - ref).max() <= 1e-9 * ref.max()

    @settings(max_examples=8, deadline=None)
    @given(
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([0.1, 0.5]),
        st.sampled_from([0.1, 3.0]),
        st.data(),
    )
    def test_quadrotor_batch_matches_alone(self, b, q, dt, magnitude, draw):
        # the shared first factor's slab is wider than a one-point solve's,
        # so the batch may differ from it in the last bits; magnitudes that
        # make Newton fail chaotically (50 at dt = 0.5) would amplify them
        bundle = build_model("quadrotor", {"N": 8, "dt": dt, "b": b, "q": q})
        p = bundle.problem
        base = solve_equality_nlp(p, bundle.base_data, w0=bundle.warm_start)
        stages = sorted(draw.draw(st.sets(st.integers(-1, 8), min_size=1, max_size=3)))
        replicates = draw.draw(st.integers(1, 3))
        seed = draw.draw(st.integers(0, 999))
        assert_batch_matches_alone(p, bundle.base_data, base.trajectory, stages, replicates, magnitude, seed)

    def test_failures_and_nonconvergence_match_alone(self):
        p = toy_nonlinear_problem(N=3)
        d_star = DataTrajectory(p.dims, [0.1 * np.ones(p.dims.nd(i)) for i in range(-1, 4)])
        w_star = solve_equality_nlp(p, d_star).trajectory
        batch, _ = assert_batch_matches_alone(
            p, d_star, w_star, [-1, 1, 3], 2, 0.2, 5, opts=SolveOptions(max_iter=2, tol_kkt=1e-300)
        )
        assert all(pr.error.startswith("NonconvergenceError") and pr.iterations == 2 for pr in batch)
        p = strongly_indefinite_problem()
        d_star = DataTrajectory(p.dims, [[0.3], [], []])
        batch, _ = assert_batch_matches_alone(p, d_star, PrimalDualTrajectory.zeros(p.dims), [-1], 3, 0.1, 2)
        assert all(pr.error.startswith("RegularityError") for pr in batch)

    def test_many_perturbations_factor_once_in_bounded_memory(self):
        # the benchmark's lq_many_perturbations: 96 profiles of one N = 60
        # chain.  The profile axis goes in chunks, so the peak stays far
        # below the ~18 MiB of all 96 points' blocks at once, and the first
        # factor serves every chunk
        b = build_model("lq_chain", {"n_x": 6, "n_u": 3, "N": 60, "stability": 0.9, "seed": 5})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        args = (b.problem, b.base_data, base.trajectory, list(range(0, 60, 5)), 8, 0.1, 7)
        stats = {}
        tracemalloc.start()
        try:
            profiles = run_experiments(*args, stats=stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profiles) == 96 and all(pr.converged and pr.iterations == 1 for pr in profiles)
        assert peak < 3 * 2**20
        assert stats["factorizations"] == 1 and stats["solved_columns"] == 96
        # one shared start for all 96 points, then one trial step per chunk
        assert stats["residual_evals"] == stats["newton_rounds"] + 1
