"""Acceptance suite: one test per primary criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""
import json
import time

import numpy as np
import pytest

from edslab import (
    DataTrajectory,
    StageBlocks,
    assemble_hessian,
    assemble_jacobian,
    blh_bound_from_K,
    build_model,
    build_report,
    decay_contrast,
    fit_decay,
    licq_modulus,
    mixed_hessian_norm,
    run_experiments,
    solve_equality_nlp,
    sosc_modulus,
    verify_eds_bound,
)
from edslab.cli import run as cli_run
from edslab.models import DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, lq_chain
from conftest import lq_matrices, steady_state_horizon
from test_kkt import dense_lq_oracle


def _report(name, detail=""):
    print(f"[acceptance] {name}: PASS {detail}")


def test_oracle_correctness():
    t0 = time.monotonic()
    b = build_model("scalar_oracle")
    res = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
    t = res.trajectory
    assert t.x(0) == pytest.approx([1.0], abs=1e-8)
    assert t.u(0) == pytest.approx([-0.5], abs=1e-8)
    assert t.x(1) == pytest.approx([0.5], abs=1e-8)
    # multipliers are +(3, 1) under the package's objective - lam @ c pairing
    assert t.lam(-1) == pytest.approx([3.0], abs=1e-8)
    assert t.lam(0) == pytest.approx([1.0], abs=1e-8)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report("oracle correctness", f"({elapsed:.2f}s)")


def test_dense_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n_x = int(rng.integers(1, 5))
        n_u = int(rng.integers(1, 3))
        N = int(rng.integers(2, 21))
        p = lq_chain(n_x, n_u, N, stability=0.9, seed=trial)
        A, B = lq_matrices(p)
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
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report("dense equivalence (20 random LQ instances)", f"({elapsed:.2f}s)")


def test_ublh_bound():
    rng = np.random.default_rng(77)

    def scaled(shape, K):
        M = rng.standard_normal(shape)
        if min(shape) == 0:
            return M
        norm = np.linalg.norm(M, 2)
        return M * (K * rng.uniform(0.2, 1.0) / norm) if norm > 0 else M

    count = 0
    for K in (0.5, 1.0, 2.0):
        for _ in range(7):
            if count == 20:
                break
            n_x = int(rng.integers(1, 4))
            n_u = int(rng.integers(0, 3))
            n_d = int(rng.integers(0, 3))
            N = int(rng.integers(2, 7))
            n_0 = int(rng.integers(0, n_x + 1))
            T = scaled((n_0, n_x), K)
            from edslab import Dimensions

            fam = {name: [] for name in "QRSEFABG"}
            for _i in range(N):
                Q = scaled((n_x, n_x), K)
                fam["Q"].append(0.5 * (Q + Q.T))
                R = scaled((n_u, n_u), K)
                fam["R"].append(0.5 * (R + R.T))
                fam["S"].append(scaled((n_x, n_u), K))
                fam["E"].append(scaled((n_x, n_d), K))
                fam["F"].append(scaled((n_u, n_d), K))
                fam["A"].append(scaled((n_x, n_x), K))
                fam["B"].append(scaled((n_x, n_u), K))
                fam["G"].append(scaled((n_x, n_d), K))
            Q = scaled((n_x, n_x), K)
            fam["Q"].append(0.5 * (Q + Q.T))
            fam["E"].append(scaled((n_x, n_d), K))
            blocks = StageBlocks(
                dims=Dimensions(N, n_x, n_u, n_d, n_0), T=T, **fam
            )
            assert mixed_hessian_norm(blocks) <= blh_bound_from_K(K)
            count += 1
    assert count == 20
    _report("coupling-norm bound on 20 random bounded block sets")


def test_licq_n_uniformity():
    t0 = time.monotonic()

    def licq_at(A, B, T, N):
        n_u = B.shape[1]
        blocks = StageBlocks.time_invariant(
            A, B, np.eye(A.shape[0]), np.eye(n_u), N, T=T
        )
        return licq_modulus(assemble_jacobian(blocks))

    horizons = (10, 20, 40, 80)
    good = {N: licq_at(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, np.eye(2), N) for N in horizons}
    assert min(good.values()) >= 0.5 * good[10]
    bad = {N: licq_at(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]), N) for N in horizons}
    assert bad[80] < 0.2 * bad[10]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        "controllability => horizon-uniform constraint qualification",
        f"(flat {good[80]/good[10]:.3f} vs decaying {bad[80]/bad[10]:.3f}, {elapsed:.2f}s)",
    )


def test_sosc_n_uniformity():
    t0 = time.monotonic()

    def sosc_at(A, Q, N):
        blocks = StageBlocks.time_invariant(A, np.eye(2), Q, np.eye(2), N, T=np.eye(2))
        return sosc_modulus(assemble_hessian(blocks), assemble_jacobian(blocks))

    horizons = (10, 20, 40, 80)
    # literal contrast: full state weighting vs none on a decoupled state
    full = {N: sosc_at(np.diag([1.3, 1.3]), np.eye(2), N) for N in horizons}
    assert min(full.values()) >= 0.5 * full[10]
    blind = {N: sosc_at(np.diag([1.3, 1.3]), np.diag([1.0, 0.0]), N) for N in horizons}
    assert blind[80] < 0.2 * blind[10]
    # sharper pair: the same singular weight is fine when the unweighted state
    # leaks into the weighted one
    coupled = {N: sosc_at(np.array([[1.3, 1.0], [0.0, 1.3]]), np.diag([1.0, 0.0]), N) for N in horizons}
    assert min(coupled.values()) >= 0.5 * coupled[10]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        "observability => horizon-uniform second-order condition",
        f"(flat {min(coupled.values())/coupled[10]:.3f} vs decaying {blind[80]/blind[10]:.2e}, {elapsed:.2f}s)",
    )


def test_duality_proposition():
    from edslab.certify import dual_sequences, scan_controllability_seq, scan_observability_seq

    rng = np.random.default_rng(31)
    for trial in range(50):
        M = int(rng.integers(4, 10))
        n_x = int(rng.integers(1, 4))
        n_u = int(rng.integers(1, 3))
        window = int(rng.integers(1, min(M - 1, 3) + 1))
        A = [rng.standard_normal((n_x, n_x)) for _ in range(M)]
        B = [rng.standard_normal((n_x, n_u)) for _ in range(M)]
        ctrl = scan_controllability_seq(A, B, window)
        A_dual, Q_dual = dual_sequences(A, B)
        obs = scan_observability_seq(A_dual, Q_dual, window)
        assert abs(ctrl.minimum - obs.minimum) <= 1e-9 * max(1.0, abs(ctrl.minimum))
    _report("controllability/observability duality (50 random sequences)")


def test_eds_on_certified_lq():
    t0 = time.monotonic()
    b = build_model("lq_chain", {"n_x": 3, "n_u": 2, "N": 60, "stability": 0.7, "seed": 5})
    base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
    # the chain is certified: constraint qualification and reduced-Hessian
    # moduli positive, controllable and observable at short windows
    rep = build_report(b.problem, base.trajectory, b.base_data, window_ctrl=2, window_obs=2)
    assert rep.licq_ok and rep.sosc_ok
    assert rep.flags["ctrl_uniform"] and rep.flags["obs_uniform"]
    profiles = run_experiments(
        b.problem, b.base_data, base.trajectory, [10, 30, 50], 5, 0.1, seed=99
    )
    fit = fit_decay(profiles)
    assert fit.rho <= 0.95
    assert fit.r2 >= 0.8
    check = verify_eds_bound(profiles, fit, slack=1.0)
    assert check.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(
        "exponential decay on certified LQ chain",
        f"(rho={fit.rho:.3f}, r2={fit.r2:.3f}, {check.n_checked} bound checks, {elapsed:.1f}s)",
    )


def test_quadrotor_contrast():
    t0 = time.monotonic()
    N, dt, j = 60, 0.5, 30
    results = {}
    for label, q, knob_b in (("case1", 1.0, 1.0), ("case2", 0.0, 0.0)):
        b = build_model("quadrotor", {"q": q, "b": knob_b, "dt": dt, "N": N})
        base = solve_equality_nlp(b.problem, b.base_data, w0=b.warm_start)
        rep = build_report(b.problem, base.trajectory, b.base_data, window_ctrl=3, window_obs=3)
        profiles = run_experiments(b.problem, b.base_data, base.trajectory, [j], 3, 0.1, seed=42)
        results[label] = (rep, profiles, fit_decay(profiles))
    rep1, profs1, fit1 = results["case1"]
    rep2, profs2, fit2 = results["case2"]
    contrast = decay_contrast(fit1, fit2)
    assert contrast.separated, f"rho1={fit1.rho:.3f} rho2={fit2.rho:.3f}"
    # far-field tails: case 1 dies below 5% of its peak, case 2 does not
    for prof in profs1:
        far = max(prof.deviation(i) for i in prof.stage_range() if abs(i - j) >= 15)
        assert far < 0.05 * prof.s.max()
    case2_far_big = any(
        max(prof.deviation(i) for i in prof.stage_range() if abs(i - j) >= 15)
        >= 0.05 * prof.s.max()
        for prof in profs2
    )
    assert case2_far_big
    # certificates: observability Gramian positive for case 1, zero for case 2
    assert rep1.obs.minimum > 1e-6
    assert abs(rep2.obs.minimum) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(
        "quadrotor case contrast",
        f"(rho1={fit1.rho:.3f} < rho2={fit2.rho:.3f}, obs1={rep1.obs.minimum:.2e}, "
        f"obs2={rep2.obs.minimum:.2e}, {elapsed:.1f}s)",
    )


def test_time_invariant_corollary():
    # the constant steady-state trajectory of a time-invariant problem is
    # stationary at every horizon once the terminal cost carries lam_s @ x
    from edslab import kkt_residual

    residuals = {}
    for N in (5, 20, 60):
        p, data, traj, _ = steady_state_horizon(DOUBLE_INTEGRATOR_A, DOUBLE_INTEGRATOR_B, [1.0, 0.5], np.eye(2), N)
        residuals[N] = float(np.abs(kkt_residual(p, traj, data)).max())
        assert residuals[N] <= 1e-8
    _report(
        "time-invariant steady-state trajectory stationarity",
        "(" + ", ".join(f"N={n}: {r:.1e}" for n, r in residuals.items()) + ")",
    )


def test_cli_determinism(tmp_path):
    cfg = {
        "model": "lq_chain",
        "params": {"n_x": 3, "n_u": 2, "N": 24, "stability": 0.7, "seed": 5},
        "stages": [8, 16],
        "replicates": 2,
        "magnitude": 0.1,
        "seed": 7,
        "window_ctrl": 2,
        "window_obs": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_run(str(cfg_path), out_dir=str(out_a)) == 0
    assert cli_run(str(cfg_path), out_dir=str(out_b)) == 0
    for fname in ("base_solution.csv", "profiles.csv", "fit.csv", "certificates.csv"):
        with open(out_a / fname, "rb") as fa, open(out_b / fname, "rb") as fb:
            assert fa.read() == fb.read(), f"{fname} differs between runs"
    _report("batch-runner determinism (byte-identical CSVs)")
