"""Fuzz gate of the command line: on generated configs, `edslab run` and
`edslab certify` end in time with exit 0, 2 or 3, print no traceback or
warning, and write nothing outside `--out`.

Each draw starts from a small config of one preset, valid or perturbing a
stage without data, and applies a few mutations: wrong types, NaN and inf (inside array-valued parameters too),
unknown keys, hostile case names, retired solver options, relocated
`out_dir`s, repeated stages, windows as long as the horizon or longer, and
deleted keys; `--out` may name an existing regular file.  It runs in a
fresh process under a wall-clock timeout, so a hang fails the test instead
of stalling the suite.
"""
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import edslab

BASES = (
    {"model": "lq_chain", "params": {"n_x": 2, "n_u": 1, "N": 6, "seed": 1}, "stages": [3]},
    {"model": "double_integrator", "params": {"N": 6}, "stages": [2, 4]},
    {"model": "scalar_oracle", "stages": [-1], "window_ctrl": 0, "window_obs": 0},
    # invalid: the scalar oracle's stage 0 carries no data to perturb
    {"model": "scalar_oracle", "stages": [0], "window_ctrl": 0, "window_obs": 0},
    {
        "model": "quadrotor",
        "params": {"N": 6, "dt": 0.5},
        "cases": [{"name": "a", "params": {"q": 1.0, "b": 1.0}}, {"name": "b", "params": {"q": 0.0, "b": 0.0}}],
        "stages": [3],
        "replicates": 2,
    },
)

TOP_KEYS = ("model", "params", "cases", "stages", "replicates", "magnitude", "seed", "solver",
            "window_ctrl", "window_obs", "out_dir", "threads", "Seed", "")
PARAM_KEYS = ("N", "n_x", "n_u", "seed", "stability", "dt", "q", "b", "g", "altitude", "Q", "R", "x0", "n")
SOLVER_KEYS = ("tol_kkt", "max_iter", "ls_beta", "ls_sigma", "reg0", "reg_max", "tol")
# case names become file names: odd but safe ones, and ones to reject, some
# of them too long for a file name
ODD_NAMES = ("a", "b", "..", ".", "-", "x" * 64)
HOSTILE_NAMES = ("../up", "/abs", "a/b", "", " ", "a b", "é", "a\nb", "a,b", 5, None)
LONG_NAMES = ("x" * 65, "x" * 300)
# "@ROOT@" stands for the draw's scratch directory, outside `--out`
OUT_DIRS = ("elsewhere", "../elsewhere", "@ROOT@/elsewhere", "", 7)

# sizes and counts stay small, so no draw builds a long horizon
NUMBERS = st.one_of(
    st.integers(-3, 8),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.5, 0.5, 2.5, 1e-300, 1e300, 2.0**60]),
)
# arrays with non-finite entries, for the presets' Q, R and x0
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0])
ARRAYS = st.one_of(
    st.lists(NONFINITE, min_size=1, max_size=3),
    st.lists(st.lists(NONFINITE, min_size=1, max_size=2), min_size=1, max_size=2),
)
VALUES = st.one_of(
    NUMBERS,
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 8), max_size=3),
    st.lists(st.lists(st.integers(-2, 8), min_size=2, max_size=2), max_size=2),
    st.just({"a": 1}),
)


@st.composite
def configs(draw):
    cfg = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["top", "number", "param", "param", "array", "solver", "case", "case",
                                     "out_dir", "stages", "window", "delete"]))
        if kind == "top":
            cfg[draw(st.sampled_from(TOP_KEYS))] = draw(VALUES)
        elif kind == "number":
            key = draw(st.sampled_from(["stages", "replicates", "magnitude", "seed", "window_ctrl", "window_obs"]))
            cfg[key] = [draw(NUMBERS)] if key == "stages" else draw(NUMBERS)
        elif kind == "param" and isinstance(cfg.get("params", {}), dict):
            cfg.setdefault("params", {})[draw(st.sampled_from(PARAM_KEYS))] = draw(NUMBERS | VALUES)
        elif kind == "array" and isinstance(cfg.get("params", {}), dict):
            cfg.setdefault("params", {})[draw(st.sampled_from(["Q", "R", "x0"]))] = draw(ARRAYS)
        elif kind == "stages" and isinstance(cfg.get("stages"), list) and cfg["stages"]:
            cfg["stages"] = cfg["stages"] + cfg["stages"][:1]
        elif kind == "window":
            # every base horizon is at most 6 stages long
            cfg[draw(st.sampled_from(["window_ctrl", "window_obs"]))] = draw(st.integers(6, 8))
        elif kind == "solver":
            cfg["solver"] = {draw(st.sampled_from(SOLVER_KEYS)): draw(VALUES | st.sampled_from([1e-12, 1, 3]))}
        elif kind == "case":
            name = st.sampled_from(ODD_NAMES) | st.sampled_from(HOSTILE_NAMES) | st.sampled_from(LONG_NAMES)
            names = draw(st.lists(name, min_size=1, max_size=3, unique_by=str))
            cfg["cases"] = [{"name": name, "params": cfg.get("params", {})} for name in names]
        elif kind == "out_dir":
            cfg["out_dir"] = draw(st.sampled_from(OUT_DIRS))
        elif len(cfg) > 1:  # the model stays
            del cfg[draw(st.sampled_from(sorted(set(cfg) - {"model"})))]
    return cfg


SCRIPT = """
import json, sys
from edslab import cli
config, out = sys.argv[1:]
print(json.dumps([cli.main([command, "--config", config, "--out", out]) for command in ("run", "certify")]))
"""


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs(), st.booleans())
def test_generated_configs_exit_cleanly_in_time(cfg, out_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "cwd").mkdir()
        if out_is_file:
            (root / "out").write_text("")
        text = json.dumps(cfg).replace("@ROOT@", str(root))
        (root / "cfg.json").write_text(text)
        env = {
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(edslab.__file__)),
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
        }
        proc = subprocess.run(
            [sys.executable, "-c", SCRIPT, str(root / "cfg.json"), str(root / "out")],
            capture_output=True, text=True, env=env, cwd=root / "cwd", timeout=60,
        )
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
        assert proc.returncode == 0, proc.stderr
        assert set(json.loads(proc.stdout.splitlines()[-1])) <= {0, 2, 3}
        written = {str(p.relative_to(root)) for p in root.rglob("*")}
        assert {p for p in written if p != "out" and not p.startswith("out/")} == {"cfg.json", "cwd"}
