import json
import re

import numpy as np
import pytest

from edslab import DecayFit, SensitivityProfile
from edslab.cli import main, run
from edslab.errors import ConfigurationError
from edslab.report import SCHEMAS, plot_decay


def write_config(path, **overrides):
    cfg = {
        "model": "lq_chain",
        "params": {"n_x": 3, "n_u": 2, "N": 24, "stability": 0.7, "seed": 5},
        "stages": [12],
        "replicates": 2,
        "magnitude": 0.1,
        "seed": 7,
        "window_ctrl": 2,
        "window_obs": 2,
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRun:
    def test_scalar_oracle_base_solution_values(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model="scalar_oracle",
            params={},
            stages=[-1],
            replicates=1,
            window_ctrl=0,
            window_obs=0,
            out_dir=str(tmp_path / "out"),
        )
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read(tmp_path / "out" / "base_solution.csv").decode().strip().splitlines()
        assert rows[0] == SCHEMAS["base_solution.csv"]
        values = {}
        for line in rows[1:]:
            case, stage, var, idx, val = line.split(",")
            values[(int(stage), var, int(idx))] = float(val)
        assert values[(0, "x", 0)] == pytest.approx(1.0, abs=1e-8)
        assert values[(0, "u", 0)] == pytest.approx(-0.5, abs=1e-8)
        assert values[(1, "x", 0)] == pytest.approx(0.5, abs=1e-8)
        assert values[(-1, "lam", 0)] == pytest.approx(3.0, abs=1e-8)
        assert values[(0, "lam", 0)] == pytest.approx(1.0, abs=1e-8)

    def test_missing_model_exits_3_no_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        with open(cfg, "w") as fh:
            json.dump({"out_dir": str(tmp_path / "out")}, fh)
        assert main(["run", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()

    def test_unknown_model_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", model="not_a_model", out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg)]) == 3
        assert not (tmp_path / "out").exists()

    def test_stage_out_of_range_exits_3(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", stages=[99], out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(cfg)]) == 3

    def test_outputs_and_schemas(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out))
        assert run(str(cfg)) == 0
        for fname in ("base_solution.csv", "profiles.csv", "fit.csv", "certificates.csv"):
            lines = read(out / fname).decode().splitlines()
            assert lines[0] == SCHEMAS[fname]
            assert len(lines) > 1
        assert (out / "certificate.txt").exists()
        assert (out / "decay.svg").exists()
        manifest = json.loads(read(out / "manifest.json"))
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 7
        assert manifest["cases"]["base"]["unconverged"] == []

    def test_failed_profiles_listed_in_manifest(self, tmp_path):
        # a large quadrotor perturbation: three of the four perturbed solves
        # exhaust the regularization ladder, the fourth converges
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="quadrotor",
            params={"dt": 0.5, "N": 20},
            stages=[10],
            replicates=4,
            magnitude=50.0,
            seed=1,
            window_ctrl=3,
            window_obs=3,
        )
        assert run(str(cfg), out_dir=str(out)) == 0
        failed = json.loads(read(out / "manifest.json"))["cases"]["base"]["unconverged"]
        assert [(f["stage"], f["replicate"]) for f in failed] == [(10, 0), (10, 1), (10, 2)]
        for f in failed:
            assert f["error"].startswith("RegularityError: KKT system unusable")
        assert read(out / "profiles.csv").decode().splitlines()[0] == SCHEMAS["profiles.csv"]

    def test_profile_iterations_in_manifest(self, tmp_path):
        # the benchmark's quadrotor contrast pair at a short horizon
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            model="quadrotor",
            params={"dt": 0.5, "N": 8},
            cases=[
                {"name": "case1", "params": {"q": 1.0, "b": 1.0}},
                {"name": "case2", "params": {"q": 0.0, "b": 0.0}},
            ],
            stages=[4],
            replicates=3,
            magnitude=0.1,
            seed=42,
            window_ctrl=3,
            window_obs=3,
        )
        assert run(str(cfg), out_dir=str(out)) == 0
        cases = json.loads(read(out / "manifest.json"))["cases"]
        for name in ("case1", "case2"):
            entries = cases[name]["profile_iterations"]
            assert [e[:2] for e in entries] == [[4, 0], [4, 1], [4, 2]]
            assert all(isinstance(e[2], int) and e[2] >= 1 for e in entries)
        lines = read(out / "profiles.csv").decode().splitlines()
        assert lines[0] == SCHEMAS["profiles.csv"] and len(lines) == 1 + 2 * 3 * 10

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(str(cfg), out_dir=str(out_a)) == 0
        assert run(str(cfg), out_dir=str(out_b)) == 0
        for fname in ("base_solution.csv", "profiles.csv", "fit.csv", "certificates.csv"):
            assert read(out_a / fname) == read(out_b / fname)
        assert read(out_a / "decay.svg") == read(out_b / "decay.svg")

    def test_seed_override_changes_profiles(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(str(cfg), out_dir=str(out_a)) == 0
        assert run(str(cfg), out_dir=str(out_b), seed=8) == 0
        assert read(out_a / "profiles.csv") != read(out_b / "profiles.csv")

    def test_case_pair_contrast_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            params={"n_x": 2, "n_u": 1, "N": 16, "seed": 3},
            stages=[8],
            replicates=1,
            cases=[
                {"name": "case1", "params": {"stability": 0.5}},
                {"name": "case2", "params": {"stability": 0.99}},
            ],
            out_dir=str(out),
        )
        assert run(str(cfg)) == 0
        printed = capsys.readouterr().out
        assert re.search(r"rho_case1 < rho_case2: (true|false)", printed)
        fit_lines = read(out / "fit.csv").decode().strip().splitlines()
        assert len(fit_lines) == 3  # header + one row per case
        assert (out / "certificate_case1.txt").exists()
        assert (out / "decay_case2.svg").exists()

    def test_certify_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out))
        assert main(["certify", "--config", str(cfg)]) == 0
        printed = capsys.readouterr().out
        assert "beta " in printed
        assert (out / "certificate.txt").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"stages": ["abc"]},
            {"stages": 5},
            {"stages": "12"},
            {"magnitude": float("nan")},
            {"magnitude": float("inf")},
            {"magnitude": "big"},
            {"replicates": "two"},
            {"seed": None},
            {"seed": float("inf")},
            {"window_ctrl": "x"},
            {"window_obs": [1]},
            {"solver": {"tol_kkt": float("nan")}},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_malformed_values_exit_3_no_outputs(self, tmp_path, capsys, command, overrides):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), **overrides)
        assert main([command, "--config", str(cfg)]) == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # experiments run serially; a worker-pool size is no longer a setting
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), threads=2)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "unknown config keys: ['threads']" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_3_no_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out))
        assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 3
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), seed=-1)
        assert main(["run", "--config", str(cfg)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["a/b", "a,b", "../x", "", "a b"])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_unsafe_case_name_exits_3_no_outputs(self, tmp_path, command, bad):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            cases=[{"name": "ok", "params": {}}, {"name": bad, "params": {}}],
            out_dir=str(out),
        )
        assert main([command, "--config", str(cfg)]) == 3
        assert not out.exists()

    def test_certify_matches_run_certificates(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            params={"n_x": 2, "n_u": 1, "N": 12, "seed": 3},
            stages=[6],
            replicates=1,
            cases=[{"name": "c-1", "params": {"stability": 0.5}}, {"name": "c.2", "params": {}}],
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 0
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        for name in ("certificate_c-1.txt", "certificate_c.2.txt"):
            assert read(tmp_path / "r" / name) == read(tmp_path / "c" / name)

    def test_models_subcommand(self, capsys):
        assert main(["models"]) == 0
        printed = capsys.readouterr().out
        for name in ("quadrotor", "lq_chain", "double_integrator", "scalar_oracle"):
            assert name in printed


class TestPlot:
    def synthetic(self, N=20, j=3, ups=0.5, rho=0.5):
        s = np.array([ups * rho ** abs(i - j) for i in range(-1, N + 1)])
        prof = SensitivityProfile(stage=j, s=s, magnitude=1.0, converged=True)
        fit = DecayFit(upsilon=ups, rho=rho, r2=1.0, floor=1e-12, mode="envelope",
                       clamped=False, n_points=N + 2)
        return prof, fit

    def test_empty_profiles_error(self):
        _, fit = self.synthetic()
        with pytest.raises(ConfigurationError):
            plot_decay([], fit)

    def test_points_lie_on_envelope_line(self):
        prof, fit = self.synthetic()
        svg = plot_decay([prof], fit)
        circles = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)
        polys = re.findall(r'<polyline points="([^"]+)"', svg)
        assert circles and polys
        envelope = {}
        for pair in polys[0].split(" "):
            x, y = pair.split(",")
            envelope[x] = y
        for cx, cy in circles:
            assert cx in envelope
            assert abs(float(envelope[cx]) - float(cy)) <= 1.5e-3

    def test_byte_identical_for_identical_inputs(self):
        prof, fit = self.synthetic()
        assert plot_decay([prof], fit) == plot_decay([prof], fit)

    def test_vertical_marker_at_perturbed_stage(self):
        prof, fit = self.synthetic(j=7)
        svg = plot_decay([prof], fit)
        assert 'stroke-dasharray="4 3"' in svg
