import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edslab
from edslab import DecayFit, Dimensions, PrimalDualTrajectory, SensitivityProfile, SolveOptions, report
from edslab.cli import main, run
from edslab.errors import ConfigurationError
from edslab.eds import pooled_points
from edslab.report import SCHEMAS, base_solution_rows, plot_decay, profile_rows


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


def write_quad_pair_config(path):
    """The benchmark's quadrotor contrast pair at a short horizon."""
    return write_config(
        path,
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the config keys' defaults: windows of 1 on a horizon of 1
            ({"model": "scalar_oracle", "params": {}, "stages": [-1], "window_ctrl": 1, "window_obs": 1},
             "window length 1 out of range [0, 0]"),
            ({"window_ctrl": 24}, "window length 24 out of range [0, 23]"),
            ({"window_obs": -1}, "window length -1 out of range [0, 23]"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_window_out_of_range_exits_3_before_solving(self, tmp_path, capsys, monkeypatch, command, overrides, message):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the windows were checked")

        monkeypatch.setattr("edslab.cli.solve_equality_nlp", solve)
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), **overrides)
        assert main([command, "--config", str(cfg)]) == 3
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", [0, 1])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_stage_without_data_exits_3_before_solving(self, tmp_path, capsys, monkeypatch, command, stage):
        # the scalar oracle's stages 0 and 1 carry no data: nothing to
        # perturb, so both commands stop before the base solve
        def solve(*args, **kwargs):
            raise AssertionError("solved before the perturbed stages were checked")

        monkeypatch.setattr("edslab.cli.solve_equality_nlp", solve)
        cfg = write_config(
            tmp_path / "cfg.json", model="scalar_oracle", params={}, stages=[stage], window_ctrl=0, window_obs=0,
            out_dir=str(tmp_path / "out"),
        )
        assert main([command, "--config", str(cfg)]) == 3
        assert f"config error: stage {stage} has empty data; nothing to perturb" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/x"])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_unwritable_out_exits_3(self, tmp_path, capsys, command, out):
        # an output directory that cannot be made ended in a traceback
        (tmp_path / "afile").write_text("kept")
        cfg = write_config(tmp_path / "cfg.json")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "kept"

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
        out = tmp_path / "out"
        cfg = write_quad_pair_config(tmp_path / "cfg.json")
        assert run(str(cfg), out_dir=str(out)) == 0
        cases = json.loads(read(out / "manifest.json"))["cases"]
        for name in ("case1", "case2"):
            entries = cases[name]["profile_iterations"]
            assert [e[:2] for e in entries] == [[4, 0], [4, 1], [4, 2]]
            assert all(isinstance(e[2], int) and e[2] >= 1 for e in entries)
        lines = read(out / "profiles.csv").decode().splitlines()
        assert lines[0] == SCHEMAS["profiles.csv"] and len(lines) == 1 + 2 * 3 * 10

    def test_manifest_timings_and_failed_flags(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_quad_pair_config(tmp_path / "cfg.json")
        assert run(str(cfg), out_dir=str(out)) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert set(manifest["timings"]) == {"write_s"} and manifest["timings"]["write_s"] > 0
        phases = {"build_s", "base_solve_s", "certify_s", "experiments_s", "fit_s"}
        for name in ("case1", "case2"):
            timings = manifest["cases"][name]["timings"]
            assert set(timings) == phases and all(t > 0 for t in timings.values())
        # q = b = 0 is neither controllable nor observable: each failed flag
        # names the start of its worst window (N = 8, window 3: starts 0..4)
        assert manifest["cases"]["case1"]["failed_flags"] == {}
        failed = manifest["cases"]["case2"]["failed_flags"]
        assert set(failed) == {"ctrl_uniform", "obs_uniform"}
        for where in failed.values():
            assert list(where) == ["window_start"] and where["window_start"] in range(5)
        certificates = read(out / "certificates.csv").decode()
        assert "window_start" not in certificates and "timings" not in certificates
        # both cases take gamma from the Riccati factor; the provenance stays
        # out of the CSV and the certificate text
        for name in ("case1", "case2"):
            gamma = manifest["cases"][name]["gamma"]
            assert gamma["source"] == "riccati" and gamma["factorizations"] >= 2 and gamma["steps"] >= 1
            assert "factorizations" not in read(out / f"certificate_{name}.txt").decode()
        assert "riccati" not in certificates

    def test_manifest_records_gram_provenance(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_quad_pair_config(tmp_path / "cfg.json")
        assert run(str(cfg), out_dir=str(out)) == 0
        cases = json.loads(read(out / "manifest.json"))["cases"]
        certificates = read(out / "certificates.csv").decode()
        for name in ("case1", "case2"):
            gram = cases[name]["gram"]
            assert set(gram) == {"beta", "L_observed"}
            for counts in gram.values():
                assert set(counts) == {"factorizations", "solves", "proved"}
                assert isinstance(counts["factorizations"], int) and counts["factorizations"] >= 1
            # beta bisects to the end; L_observed turns to inverse iteration
            assert gram["beta"]["solves"] == 0 and gram["beta"]["proved"] is None
            assert gram["L_observed"]["solves"] >= 1 and isinstance(gram["L_observed"]["proved"], bool)
            assert "proved" not in read(out / f"certificate_{name}.txt").decode()
        assert "proved" not in certificates and "solves" not in certificates

    def test_pipeline_fit_is_fit_decay(self, tmp_path):
        from edslab.cli import _case_pipeline, load_config
        from edslab.eds import fit_decay

        cfg = load_config(str(write_config(tmp_path / "cfg.json", stages=[4, 12], replicates=3)))
        res = _case_pipeline(cfg, "base", {})
        assert res["fit"] == fit_decay(res["profiles"])

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
            {"magnitude": "0.1"},
            {"magnitude": True},
            {"replicates": "two"},
            {"seed": None},
            {"seed": float("inf")},
            {"window_ctrl": "x"},
            {"window_obs": [1]},
            {"solver": {"tol_kkt": float("nan")}},
            {"magnitude": 0},
            {"magnitude": -0.1},
            # preset parameters: unknown keys, malformed and non-finite values
            {"model": "double_integrator", "params": {"N": 24, "n": 5}},
            {"model": "scalar_oracle", "params": {"n": 5}, "stages": [-1], "window_ctrl": 0, "window_obs": 0},
            {"params": {"N": 24, "x0_scale": "abc"}},
            {"params": {"N": 24, "seed": -1}},
            {"params": {"N": 24, "Q": "x"}},
            {"params": {"N": 24, "R": "x"}},
            {"params": {"N": 24, "Q": [[1, 2]]}},
            {"model": "double_integrator", "params": {"N": 24, "x0": "ab"}},
            {"model": "quadrotor", "params": {"N": 24, "altitude": "x"}},
            *({"model": "quadrotor", "params": {"N": 24, key: math.inf}} for key in ("q", "b", "g", "dt", "altitude")),
            {"params": {"N": 24, "stability": -math.inf}},
            {"params": {"N": 24, "x0_scale": math.inf}},
            # non-finite entries of array-valued preset parameters
            {"params": {"n_x": 2, "n_u": 1, "N": 24, "Q": [[math.nan, 0], [0, 1]]}},
            {"params": {"n_x": 2, "n_u": 1, "N": 24, "R": [[math.inf]]}},
            *({"model": "double_integrator", "params": {"N": 24, "x0": [v, 0]}} for v in (math.inf, math.nan)),
            # a repeated stage would solve one (stage, replicate, seed) twice
            {"stages": [4, 4, 16]},
            {"solver": {"max_iter": 2.5}},
            {"solver": {"max_iter": 1e300}},
            {"solver": {"ls_sigma": "x"}},
            # retired Newton options, now unknown solver keys
            *({"solver": opts} for opts in (
                {"ls_beta": 1.0}, {"ls_beta": 0}, {"ls_sigma": 0.5}, {"ls_sigma": -1e-4},
                {"reg0": 0}, {"reg0": -1e-8}, {"reg0": 0.1, "reg_max": 0.01},
            )),
            {"stages": []},
            {"out_dir": [1]},
            # params must be JSON objects, not arrays of pairs, and case
            # names strings
            {"params": [["n_x", 3], ["n_u", 2], ["N", 8]]},
            {"cases": [{"name": "a", "params": [["N", 8]]}]},
            {"cases": [{"name": 5}]},
            # a case name too long for a file name, and an empty out dir
            {"cases": [{"name": "x" * 300}, {"name": "b"}]},
            {"out_dir": ""},
        ],
    )
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_malformed_values_exit_3_no_outputs(self, tmp_path, capsys, monkeypatch, command, overrides):
        cfg = write_config(tmp_path / "cfg.json", **{"out_dir": str(tmp_path / "out"), **overrides})
        monkeypatch.chdir(tmp_path)  # where a relative out dir would go
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("key", ["ls_beta", "ls_sigma", "reg0", "reg_max"])
    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_retired_solver_options_are_unknown(self, tmp_path, capsys, command, key):
        # Newton's line search and regularization are constants of `kkt`;
        # tol_kkt and max_iter are the only solver options
        assert [f.name for f in dataclasses.fields(SolveOptions)] == ["tol_kkt", "max_iter"]
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), solver={key: 0.5})
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"bad solver options: SolveOptions.__init__() got an unexpected keyword argument '{key}'" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"params": {"n_x": -1, "N": 8}}, "n_x >= 1"),
            ({"params": {"n_u": -2, "N": 8}}, "n_u >= 0"),
            ({"stages": [1.5]}, "stage must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"model": "double_integrator", "params": {"N": 2.5}}, "N must be an integer, got 2.5"),
            ({"model": "double_integrator", "params": {"N": "8"}}, "N must be an integer, got '8'"),
            ({"model": "quadrotor", "params": {"N": 2.5}}, "N must be an integer, got 2.5"),
            ({"params": {"n_x": 2.5, "N": 8}}, "n_x must be an integer, got 2.5"),
            ({"params": {"n_u": 1.5, "N": 8}}, "n_u must be an integer, got 1.5"),
            ({"model": "double_integrator", "params": {"N": 8, "n": 5}}, "unexpected keyword argument 'n'"),
            ({"model": "scalar_oracle", "params": {"n": 5}}, "unexpected keyword argument 'n'"),
            ({"params": {"N": 8, "Q": [[1, 2]]}}, "bad parameters for model 'lq_chain': cannot reshape"),
            ({"model": "quadrotor", "params": {"N": 8, "g": math.inf}}, "g must be a finite number, got inf"),
            ({"solver": {"max_iter": 1e300}}, "max_iter must be an integer, got 1e+300"),
        ],
        ids=[
            "negative_n_x",
            "negative_n_u",
            "fractional_stage",
            "fractional_seed",
            "fractional_double_integrator_N",
            "string_double_integrator_N",
            "fractional_quadrotor_N",
            "fractional_n_x",
            "fractional_n_u",
            "unknown_double_integrator_key",
            "unknown_scalar_oracle_key",
            "short_lq_chain_Q",
            "infinite_quadrotor_g",
            "huge_max_iter",
        ],
    )
    def test_negative_sizes_and_fractional_indices_exit_3(self, tmp_path, capsys, overrides, message):
        # numpy's "negative dimensions" error ended the run with exit 1,
        # int() truncated a fractional stage, seed or preset N to a run with
        # exit 0, a fractional n_x failed in numpy with no key named, and
        # double_integrator and scalar_oracle ran with unknown keys ignored
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(out), **overrides)
        assert main(["run", "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_magnitude_exits_2_without_warnings(self, tmp_path, capsys):
        # every perturbed solve overflows and fails its profile; no numpy
        # RuntimeWarning is raised or printed on the way to exit 2
        cfg = write_config(tmp_path / "cfg.json", out_dir=str(tmp_path / "out"), magnitude=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(cfg)]) == 2
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "certify"])
    def test_overflowing_quadrotor_gravity_exits_2_without_warnings(self, tmp_path, capsys, command):
        # the trim thrust overflows the first linearization of the base solve
        cfg = write_config(
            tmp_path / "cfg.json",
            out_dir=str(tmp_path / "out"),
            model="quadrotor",
            params={"N": 8, "dt": 0.5, "g": -1e308},
            stages=[4],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "solver error" in err and "Warning" not in err

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
        fit = DecayFit(upsilon=ups, rho=rho, r2=1.0, floor=1e-12, clamped=False, n_points=N + 2)
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


# ---------------------------------------------------------------------------
# the per-point code that `base_solution_rows`, `profile_rows`, `plot_decay`
# and the fits' point pooling replaced, kept as oracles for their bytes


def legacy_fmt(x) -> str:
    value = float(x)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def legacy_base_solution_rows(case, traj):
    rows = []
    dims = traj.dims
    for i in range(-1, dims.N):
        for k, v in enumerate(traj.lam(i)):
            rows.append((case, str(i), "lam", str(k), legacy_fmt(v)))
    for i in range(dims.N + 1):
        for k, v in enumerate(traj.x(i)):
            rows.append((case, str(i), "x", str(k), legacy_fmt(v)))
    for i in range(dims.N):
        for k, v in enumerate(traj.u(i)):
            rows.append((case, str(i), "u", str(k), legacy_fmt(v)))
    return rows


def legacy_pooled_points(profiles):
    dists, logs = [], []
    for prof in profiles:
        for i, si in zip(*prof.above_floor()):
            dists.append(abs(i - prof.stage))
            logs.append(math.log(si / prof.magnitude))
    return np.asarray(dists, dtype=float), np.asarray(logs)


def legacy_profile_rows(case, profiles):
    rows = []
    for prof in profiles:
        for i in prof.stage_range():
            rows.append((case, str(i), str(prof.stage), str(prof.replicate), legacy_fmt(prof.deviation(i))))
    return rows


def legacy_plot_decay(profiles, fit):
    _W, _H, _xmap, _ymap, _f3 = report._W, report._H, report._xmap, report._ymap, report._f3
    profiles = [p for p in profiles if p.converged]
    if not profiles:
        raise ConfigurationError("no converged profiles to plot")
    N = profiles[0].n_stages - 2
    xs_lo, xs_hi = -1.0, float(N)
    pts = []
    for prof in profiles:
        for i, si in zip(*prof.above_floor()):
            pts.append((float(i), math.log10(si / prof.magnitude)))
    if not pts:
        raise ConfigurationError("profiles contain no entries above the noise floor")
    y_vals = [y for _, y in pts]
    y_lo = math.floor(min(y_vals) - 0.2)
    y_hi = math.ceil(max(max(y_vals), math.log10(fit.upsilon)) + 0.2)
    stages_marked = sorted({prof.stage for prof in profiles})
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
    ]
    x0, x1 = _xmap(xs_lo, xs_lo, xs_hi), _xmap(xs_hi, xs_lo, xs_hi)
    y0, y1 = _ymap(y_lo, y_lo, y_hi), _ymap(y_hi, y_lo, y_hi)
    out.append(f'<line x1="{_f3(x0)}" y1="{_f3(y0)}" x2="{_f3(x1)}" y2="{_f3(y0)}" stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_f3(x0)}" y1="{_f3(y0)}" x2="{_f3(x0)}" y2="{_f3(y1)}" stroke="black" stroke-width="1"/>')
    tick = 10 if N >= 20 else max(1, N // 4)
    i = 0
    while i <= N:
        px = _xmap(i, xs_lo, xs_hi)
        out.append(f'<line x1="{_f3(px)}" y1="{_f3(y0)}" x2="{_f3(px)}" y2="{_f3(y0 + 4)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_f3(px)}" y="{_f3(y0 + 18)}" font-size="11" text-anchor="middle">{i}</text>')
        i += tick
    out.append(f'<text x="{_f3((x0 + x1) / 2)}" y="{_f3(_H - 8)}" font-size="12" text-anchor="middle">stage</text>')
    for d in range(int(y_lo), int(y_hi) + 1):
        py = _ymap(d, y_lo, y_hi)
        out.append(f'<line x1="{_f3(x0 - 4)}" y1="{_f3(py)}" x2="{_f3(x0)}" y2="{_f3(py)}" stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_f3(x0 - 8)}" y="{_f3(py + 4)}" font-size="11" text-anchor="end">1e{d}</text>')
    out.append(
        f'<text x="14" y="{_f3((y0 + y1) / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_f3((y0 + y1) / 2)})">deviation / perturbation</text>'
    )
    for j in stages_marked:
        px = _xmap(j, xs_lo, xs_hi)
        out.append(
            f'<line x1="{_f3(px)}" y1="{_f3(y0)}" x2="{_f3(px)}" y2="{_f3(y1)}" '
            f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    for j in stages_marked:
        coords = []
        for i in range(-1, N + 1):
            ylog = math.log10(fit.upsilon) + abs(i - j) * math.log10(fit.rho) if fit.rho > 0 else y_lo
            ylog = max(ylog, y_lo)
            coords.append(f"{_f3(_xmap(i, xs_lo, xs_hi))},{_f3(_ymap(ylog, y_lo, y_hi))}")
        out.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    for prof in profiles:
        for i, si in zip(*prof.above_floor()):
            px = _xmap(i, xs_lo, xs_hi)
            py = _ymap(math.log10(si / prof.magnitude), y_lo, y_hi)
            out.append(f'<circle cx="{_f3(px)}" cy="{_f3(py)}" r="3" fill="#1f77b4"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


@st.composite
def profile_sets(draw, special=False):
    """1-5 profiles of one horizon N <= 30: deviations spread over many
    decades, some zero or under the noise floor, some profiles unconverged;
    with `special`, also infinite and NaN deviations."""
    N = draw(st.integers(1, 30))
    values = st.one_of(
        st.floats(1e-30, 1e3),
        st.just(0.0),
        st.sampled_from([float("inf"), float("-inf"), float("nan")] if special else [1e-13]),
    )
    profiles = []
    for k in range(draw(st.integers(1, 5))):
        s = np.array(draw(st.lists(values, min_size=N + 2, max_size=N + 2)))
        profiles.append(
            SensitivityProfile(
                stage=draw(st.integers(-1, N)),
                s=s,
                magnitude=draw(st.floats(1e-3, 10.0)),
                converged=draw(st.booleans()) or k == 0,
                replicate=k,
            )
        )
    return profiles


def outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ConfigurationError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@st.composite
def trajectories(draw):
    """A primal-dual trajectory of random sizes (n_u and n_0 may be 0) whose
    entries include zeros of both signs, infinities and NaN."""
    N, n_x, n_u = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    dims = Dimensions(N, n_x, n_u, 1, draw(st.integers(0, n_x)))
    values = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 0.1])
    v = draw(st.lists(values, min_size=dims.n_w, max_size=dims.n_w))
    return PrimalDualTrajectory.from_vector(dims, np.array(v, dtype=float))


class TestBulkFormatting:
    """`base_solution_rows`, `profile_rows`, `plot_decay` and the fits'
    point pooling work on whole arrays at once; their bytes must be those
    of the per-point code they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(trajectories())
    def test_base_solution_rows_same_bytes(self, traj):
        assert base_solution_rows("case", traj) == legacy_base_solution_rows("case", traj)

    @settings(max_examples=100, deadline=None)
    @given(profile_sets(special=True))
    def test_pooled_points_same_bits(self, profiles):
        dists, logs, _ = pooled_points(profiles)
        ref_dists, ref_logs = legacy_pooled_points(profiles)
        assert dists.dtype == logs.dtype == np.float64
        assert dists.tobytes() == ref_dists.tobytes() and logs.tobytes() == ref_logs.tobytes()

    def test_pooled_points_same_bits_on_many_points(self):
        # np.log differs from math.log in the last bit on about one input in
        # a thousand; 12,000 log-uniform points find such inputs
        rng = np.random.default_rng(3)
        profiles = [
            SensitivityProfile(stage=int(rng.integers(-1, 200)), s=10.0 ** rng.uniform(-6, 2, 202),
                               magnitude=float(rng.uniform(1e-3, 10.0)), converged=True, replicate=k)
            for k in range(60)
        ]
        dists, logs, _ = pooled_points(profiles)
        ref_dists, ref_logs = legacy_pooled_points(profiles)
        assert dists.size == 60 * 202
        assert dists.tobytes() == ref_dists.tobytes() and logs.tobytes() == ref_logs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(profile_sets(special=True))
    def test_profile_rows_same_bytes(self, profiles):
        assert profile_rows("case", profiles) == legacy_profile_rows("case", profiles)

    @settings(max_examples=60, deadline=None)
    @given(
        profile_sets(),
        st.floats(1e-6, 1e3),
        st.one_of(st.just(0.0), st.floats(1e-6, 1.5)),
    )
    def test_plot_decay_same_bytes(self, profiles, upsilon, rho):
        fit = DecayFit(upsilon=upsilon, rho=rho, r2=1.0, floor=1e-12, clamped=False, n_points=1)
        assert outcome(plot_decay, profiles, fit) == outcome(legacy_plot_decay, profiles, fit)


def test_manifest_reports_experiment_solver_counts(tmp_path):
    # the benchmark's lq_many_perturbations: 96 profiles of one N = 60 chain
    # re-solved from the base solution share one KKT factorization
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        params={"n_x": 6, "n_u": 3, "N": 60, "stability": 0.9, "seed": 5},
        stages=list(range(0, 60, 5)),
        replicates=8,
    )
    assert run(str(cfg), out_dir=str(out)) == 0
    counts = json.loads(read(out / "manifest.json"))["cases"]["base"]["experiments"]
    assert counts["factorizations"] == 1 and counts["solved_columns"] == 96
    assert counts["newton_rounds"] >= 1 and counts["residual_evals"] == counts["newton_rounds"] + 1
    # the counts stay out of the CSVs
    for name, header in SCHEMAS.items():
        assert read(out / name).decode().splitlines()[0] == header


def test_manifest_reports_chunk_size_and_start_rows(tmp_path):
    # two replicates at stages 0 and 5 of an N = 10 chain: point 0 is
    # (stage 0, replicate 0).  Its 10 rows are evaluated first, then the
    # rows where the others' data differ from it: replicate 1 at stage 0,
    # the base data at stage 0 (shared by both stage-5 points) and the two
    # stage-5 replicates
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json", params={"n_x": 6, "n_u": 3, "N": 10, "stability": 0.9, "seed": 5}, stages=[0, 5]
    )
    assert run(str(cfg), out_dir=str(out)) == 0
    counts = json.loads(read(out / "manifest.json"))["cases"]["base"]["experiments"]
    # a chunk holds as many points as 12 MiB of 8 n_w (2 n_x + n_u)^2 bytes
    assert counts["chunk_points"] == 12 * 2**20 // (8 * (6 + 10 * 15 + 6) * 15**2)
    assert counts["start_rows"] == 10 + 4
    assert counts["factorizations"] == 1 and counts["solved_columns"] == 4


# `edslab run` then `edslab certify` on each (config, out dir) pair in a
# fresh process, each into its own subdirectory; it prints their exit
# codes, the modules the commands imported and whether scipy.linalg is
# loaded; "fallback" makes the file load of scipy's compiled LAPACK module
# fail first
FRESH_RUN = """
import importlib.util, json, sys
if sys.argv[1] == "fallback":
    def refuse(*args, **kwargs):
        raise ImportError("refused")
    importlib.util.spec_from_file_location = refuse
import edslab
from edslab import cli
before, codes = set(sys.modules), []
for config, out in zip(sys.argv[2::2], sys.argv[3::2]):
    codes += [cli.main([command, "--config", config, "--out", f"{out}/{command}"]) for command in ("run", "certify")]
print(json.dumps({"codes": codes, "added": sorted(set(sys.modules) - before), "linalg": "scipy.linalg" in sys.modules}))
"""


def fresh_run(tmp_path, mode):
    """FRESH_RUN on a small lq_chain and the short quadrotor pair: its
    summary, the commands' stdout, and the bytes of every output file but
    the manifest, which holds timings."""
    configs = [write_config(tmp_path / "lq.json"), write_quad_pair_config(tmp_path / "quad.json")]
    out = tmp_path / mode
    args = [str(a) for c in configs for a in (c, out / c.stem)]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(edslab.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_RUN, mode, *args], capture_output=True, text=True, env=env, check=True
    )
    *stdout, summary = proc.stdout.splitlines()
    files = {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*.*")) if f.name != "manifest.json"}
    return json.loads(summary), stdout, files


def test_options_that_stalled_newton_exit_3_in_time(tmp_path):
    # these options once made `edslab run` hang on this quadrotor case:
    # ls_beta = 1 (the line search never ended) or reg0 <= 0 (regularization
    # never grew).  They are now fixed constants, so a config that names
    # them exits 3 as an unknown solver option; the timeout still turns a
    # hang into a failure.  With default options run exits 2 and certify 0.
    case = {"model": "quadrotor", "params": {"N": 20, "dt": 0.5, "q": 0, "b": 0}}
    case.update(stages=[10], replicates=3, magnitude=30, seed=0)
    configs = []
    for k, solver in enumerate(({}, {"ls_beta": 1.0}, {"reg0": 0}, {"reg0": -1e-8})):
        configs.append(tmp_path / f"cfg{k}.json")
        configs[-1].write_text(json.dumps({**case, "solver": solver, "out_dir": str(tmp_path / f"out{k}")}))
    script = "import sys; from edslab import cli; "
    script += "print([cli.main([c, '--config', f]) for f in sys.argv[1:] for c in ('run', 'certify')])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(edslab.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, configs)], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.splitlines()[-1] == "[2, 0, 3, 3, 3, 3, 3, 3]"
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


class TestFreshProcess:
    def test_nothing_is_imported_inside_a_run(self, tmp_path):
        # a module first imported inside a command is timed as its work
        # (numpy 2 loads numpy.random on the first default_rng), and edslab
        # loads scipy's LAPACK routines without the scipy.linalg package
        summary, _, _ = fresh_run(tmp_path, "direct")
        assert summary == {"codes": [0, 0, 0, 0], "added": [], "linalg": False}

    def test_lapack_fallback_is_bit_for_bit(self, tmp_path):
        # where the compiled module does not load from its file,
        # get_lapack_funcs hands over the same routines: every CSV, SVG and
        # certificate and all stdout are the same bytes
        direct, direct_stdout, direct_files = fresh_run(tmp_path, "direct")
        fallback, fallback_stdout, fallback_files = fresh_run(tmp_path, "fallback")
        assert fallback == {"codes": [0, 0, 0, 0], "added": [], "linalg": True} and not direct["linalg"]
        assert [sum(name.endswith(ext) for name in direct_files) for ext in (".csv", ".txt")] == [8, 6]
        assert fallback_files == direct_files
        assert fallback_stdout == direct_stdout and direct_stdout
