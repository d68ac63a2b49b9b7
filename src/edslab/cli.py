"""Batch front end.

`edslab run --config cfg.json [--out DIR] [--seed S]` solves the base
problem for every configured case, runs the perturbation experiments, fits
decay envelopes, and writes base_solution.csv, profiles.csv, fit.csv,
certificate text/CSV, one decay SVG per case, and a run manifest.  With two
or more cases it also prints a decay-rate contrast line.  Exit codes:
0 success, 2 solver failure, 3 configuration error.

`edslab certify --config cfg.json` emits only the certificate report;
`edslab models` lists the available presets.  The perturbation experiments
of a case are solved together, in lock step (`kkt.solve_batch`), and
their solver counts go to the manifest.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import report
from .certify import build_report
from .eds import decay_contrast, fit_decay, run_experiments
from .errors import ConfigurationError, EdslabError
from .kkt import SolveOptions, solve_equality_nlp
from .models import build_model, list_models

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


@dataclass
class ExperimentConfig:
    model: str
    params: dict = field(default_factory=dict)
    cases: list = field(default_factory=list)  # (name, param overrides)
    stages: list = field(default_factory=lambda: [-1])
    replicates: int = 1
    magnitude: float = 0.1
    seed: int = 0
    solver: SolveOptions = field(default_factory=SolveOptions)
    window_ctrl: int = 1
    window_obs: int = 1
    out_dir: str = "out"


_KNOWN_KEYS = {
    "model",
    "params",
    "cases",
    "stages",
    "replicates",
    "magnitude",
    "seed",
    "solver",
    "window_ctrl",
    "window_obs",
    "out_dir",
}

_CASE_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config root must be an object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if "model" not in raw or not raw["model"]:
        raise ConfigurationError("config must name a model")
    solver_raw = raw.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ConfigurationError("solver options must be an object")
    try:
        solver = SolveOptions(**solver_raw)
    except TypeError as exc:
        raise ConfigurationError(f"bad solver options: {exc}") from exc
    if not isinstance(raw.get("stages", []), list):
        raise ConfigurationError("stages must be a list of stage indices")
    try:
        cases = []
        for entry in raw.get("cases") or [{"name": "base", "params": {}}]:
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigurationError("each case needs a name")
            cases.append((str(entry["name"]), dict(entry.get("params", {}))))
        cfg = ExperimentConfig(
            model=str(raw["model"]),
            params=dict(raw.get("params", {})),
            cases=cases,
            stages=[int(s) for s in raw.get("stages", [-1])],
            replicates=int(raw.get("replicates", 1)),
            magnitude=float(raw.get("magnitude", 0.1)),
            seed=int(raw.get("seed", 0)),
            solver=solver,
            window_ctrl=int(raw.get("window_ctrl", 1)),
            window_obs=int(raw.get("window_obs", 1)),
            out_dir=str(raw.get("out_dir", "out")),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed config value: {exc}") from exc
    names = [name for name, _ in cases]
    for name in names:
        # case names become file names and unquoted CSV fields
        if not _CASE_NAME.fullmatch(name):
            raise ConfigurationError(f"case name {name!r} must match {_CASE_NAME.pattern}")
    if len(set(names)) != len(names):
        raise ConfigurationError("case names must be unique")
    if cfg.replicates < 1:
        raise ConfigurationError("replicates must be >= 1")
    if not math.isfinite(cfg.magnitude) or cfg.magnitude <= 0:
        # a zero perturbation leaves every deviation at the noise floor
        raise ConfigurationError("magnitude must be finite and positive")
    return cfg


@contextmanager
def _timed(timings: dict, key: str):
    """Record the wall seconds of the block under `timings[key]`."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = time.perf_counter() - start


def _case_pipeline(cfg: ExperimentConfig, name: str, overrides: dict, experiments: bool = True):
    """Build, solve and certify one case; with `experiments` also run the
    perturbation experiments and fit their decay envelopes.  The wall
    seconds of each phase go to `result["timings"]`."""
    params = dict(cfg.params)
    params.update(overrides)
    timings = {}
    with _timed(timings, "build_s"):
        bundle = build_model(cfg.model, params)
    p = bundle.problem
    for j in cfg.stages:
        if not -1 <= j <= p.dims.N:
            raise ConfigurationError(f"perturbation stage {j} outside [-1, {p.dims.N}]")
    with _timed(timings, "base_solve_s"):
        base = solve_equality_nlp(p, bundle.base_data, w0=bundle.warm_start, opts=cfg.solver)
    with _timed(timings, "certify_s"):
        cert = build_report(
            p, base.trajectory, bundle.base_data, cfg.window_ctrl, cfg.window_obs
        )
    result = {"name": name, "base": base, "certificate": cert, "timings": timings, "experiments": {}}
    if experiments:
        with _timed(timings, "experiments_s"):
            profiles = run_experiments(
                p,
                bundle.base_data,
                base.trajectory,
                cfg.stages,
                cfg.replicates,
                cfg.magnitude,
                cfg.seed,
                opts=cfg.solver,
                stats=result["experiments"],
            )
        result["profiles"] = profiles
        with _timed(timings, "fit_s"):
            result["fit_ls"] = fit_decay(profiles, mode="ls")
            result["fit_env"] = fit_decay(profiles, mode="envelope")
    return result


def _artifact_name(stem: str, ext: str, case: str, n_cases: int) -> str:
    """`certificate.txt`, `decay.svg`, ... for one case; with several cases
    the case name is appended (`certificate_<case>.txt`)."""
    return f"{stem}_{case}.{ext}" if n_cases > 1 else f"{stem}.{ext}"


def run(config_path: str, out_dir: str | None = None, seed: int | None = None) -> int:
    """Full pipeline; returns a process exit code."""
    try:
        cfg = load_config(config_path)
        if out_dir is not None:
            cfg.out_dir = out_dir
        if seed is not None:
            cfg.seed = seed
        if cfg.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        # validate every case's model parameters before touching the out dir
        results = [_case_pipeline(cfg, name, overrides) for name, overrides in cfg.cases]
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EdslabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        # solves run before any artifact is written, so a failed run leaves
        # only a manifest recording that nothing was produced
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
            with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
                json.dump(
                    {"status": "failed", "error": str(exc), "files": []},
                    fh,
                    indent=2,
                    sort_keys=True,
                )
                fh.write("\n")
        except OSError:
            pass
        return EXIT_SOLVER

    os.makedirs(cfg.out_dir, exist_ok=True)
    base_rows, prof_rows, fit_rows_all, cert_rows = [], [], [], []
    manifest = {
        "config": os.path.abspath(config_path),
        "model": cfg.model,
        "seed": cfg.seed,
        "schema_version": report.SCHEMA_VERSION,
        "cases": {},
        "files": [],
        "status": "ok",
    }
    write_start = time.perf_counter()
    for res in results:
        name = res["name"]
        base_rows.extend(report.base_solution_rows(name, res["base"].trajectory))
        prof_rows.extend(report.profile_rows(name, res["profiles"]))
        fit_rows_all.extend(report.fit_rows(name, res["fit_env"], res["fit_ls"]))
        cert_rows.extend((name, key, value) for key, value in res["certificate"].to_csv_rows())
        cert_name = _artifact_name("certificate", "txt", name, len(results))
        with open(os.path.join(cfg.out_dir, cert_name), "w") as fh:
            fh.write(res["certificate"].to_text())
        manifest["files"].append(cert_name)
        svg_name = _artifact_name("decay", "svg", name, len(results))
        with open(os.path.join(cfg.out_dir, svg_name), "w") as fh:
            fh.write(report.plot_decay(res["profiles"], res["fit_env"]))
        manifest["files"].append(svg_name)
        manifest["cases"][name] = {
            "iterations": res["base"].iterations,
            "residual": res["base"].residual_norm,
            "rho_ls": res["fit_ls"].rho,
            "r2_ls": res["fit_ls"].r2,
            "upsilon_env": res["fit_env"].upsilon,
            "profile_seeds": [list(p.seed) for p in res["profiles"]],
            "profile_iterations": [[p.stage, p.replicate, p.iterations] for p in res["profiles"]],
            "unconverged": [
                {"stage": p.stage, "replicate": p.replicate, "error": p.error}
                for p in res["profiles"]
                if not p.converged
            ],
            "failed_flags": res["certificate"].failures,
            "experiments": res["experiments"],
            "timings": res["timings"],
        }
    for fname, rows in (
        ("base_solution.csv", base_rows),
        ("profiles.csv", prof_rows),
        ("fit.csv", fit_rows_all),
        ("certificates.csv", cert_rows),
    ):
        report.write_csv(os.path.join(cfg.out_dir, fname), fname, rows)
        manifest["files"].append(fname)
    manifest["timings"] = {"write_s": time.perf_counter() - write_start}
    if len(results) >= 2:
        a, b = results[0], results[1]
        contrast = decay_contrast(a["fit_ls"], b["fit_ls"])
        line = f"rho_{a['name']} < rho_{b['name']}: {str(contrast.separated).lower()}"
        print(line)
        manifest["contrast"] = {
            "rho_a": contrast.rho_a,
            "rho_b": contrast.rho_b,
            "margin": contrast.margin,
            "separated": contrast.separated,
            "line": line,
        }
    with open(os.path.join(cfg.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def certify(config_path: str, out_dir: str | None = None) -> int:
    """Solve the base problem per case and emit certificate reports only."""
    try:
        cfg = load_config(config_path)
        if out_dir is not None:
            cfg.out_dir = out_dir
        results = [
            _case_pipeline(cfg, name, overrides, experiments=False) for name, overrides in cfg.cases
        ]
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EdslabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    os.makedirs(cfg.out_dir, exist_ok=True)
    for res in results:
        text = res["certificate"].to_text()
        if len(results) > 1:
            print(f"[{res['name']}]")
        print(text, end="")
        fname = _artifact_name("certificate", "txt", res["name"], len(results))
        with open(os.path.join(cfg.out_dir, fname), "w") as fh:
            fh.write(text)
    return EXIT_OK


def models_cmd() -> int:
    for name, doc in list_models():
        print(f"{name:18s} {doc}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="edslab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="solve, perturb, fit, and emit artifacts")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_cert = sub.add_parser("certify", help="emit certificate reports only")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=None)
    sub.add_parser("models", help="list model presets")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, out_dir=args.out, seed=args.seed)
    if args.command == "certify":
        return certify(args.config, out_dir=args.out)
    return models_cmd()


if __name__ == "__main__":
    sys.exit(main())
