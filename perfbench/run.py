"""The edslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; edslab is imported from `src/`.
Each measurement runs in a fresh worker process (`worker.py`), one at a
time: a closed loop with one client, BLAS pinned to one thread.

--trace 0 prints the end-to-end metrics: `setup_s` (median of several fresh
set-ups), then `run_s`, `certify_s` and `peak_rss_mb` as medians over
alternating `edslab run` / `edslab certify` invocations, repeated while the
`--seconds` budget allows and at least twice.

--trace 1 prints the per-layer metrics of one traced `edslab run`, next to
one untraced run for the tracing overhead; its spans are written under
`.perfbench_out/`.

Every output is checked (see `check_run`); the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "EDSLAB_THREADS": "1",
}
SETUP_SAMPLES = 5
DEADLINE_S = 165.0  # the whole invocation must end within 180 s
CSV_FILES = ("base_solution.csv", "profiles.csv", "fit.csv", "certificates.csv")

# metric names and units, in the order they are printed
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Worker:
    """Starts `worker.py` processes one at a time under a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
        self.versions: dict = {}

    def __call__(self, mode: str, config_path: Path, out_dir: Path) -> dict:
        """The worker's JSON result, or `{"error": ...}` when it failed."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "deadline reached before start"}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), mode, str(config_path), str(out_dir)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} worker timed out"}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"{mode} worker exited {proc.returncode}: {tail[0]}"}
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = ROOT / "src" / "edslab"
        if Path(result["edslab_file"]).resolve().parent != expected:
            return {"error": f"imported edslab from {result['edslab_file']}, not {expected}"}
        self.versions = result["versions"]
        return result


# ---------------------------------------------------------------------------
# correctness


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, what: str, problems: list):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def _read_certificates(out_dir: Path) -> dict:
    cases: dict = {}
    with open(out_dir / "certificates.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            value = row["value"]
            if value in ("true", "false"):
                parsed = value == "true"
            elif value == "":
                parsed = None
            else:
                parsed = float(value)
            cases.setdefault(row["case"], {})[row["key"]] = parsed
    return cases


def _close(value, ref) -> bool:
    return value is not None and math.isclose(
        value, ref, rel_tol=workloads.REFERENCE_RTOL, abs_tol=workloads.REFERENCE_ATOL
    )


def _reference_problems(workload: str, out_dir: Path) -> list:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    certs = _read_certificates(out_dir)
    problems = []
    for case, ref in workloads.REFERENCE[workload].items():
        got = dict(certs.get(case, {}))
        got["rho_ls"] = manifest["cases"].get(case, {}).get("rho_ls")
        for key in ("rho_ls", "beta", "gamma", "L_observed"):
            if not _close(got.get(key), ref[key]):
                problems.append(f"{case} {key} {got.get(key)!r} != reference {ref[key]!r}")
        for key, flag in ref["flags"].items():
            if got.get(key) is not flag:
                problems.append(f"{case} {key} {got.get(key)!r} != reference {flag!r}")
    return problems


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in CSV_FILES:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def check_run(ledger: Ledger, res: dict, workload: str, cfg: dict, out_dir: Path, with_reference: bool):
    """Record one `edslab run` and each of its profiles as operations."""
    problems = []
    if "error" in res:
        problems.append(res["error"])
    elif res["rc"] != 0:
        problems.append(f"exit code {res['rc']}")
    else:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        if manifest.get("status") != "ok":
            problems.append(f"manifest status {manifest.get('status')!r}")
        if len(cfg.get("cases", [None])) >= 2:
            first, second = (case["name"] for case in cfg["cases"][:2])
            line = f"rho_{first} < rho_{second}: true"
            if line not in res["stdout"].splitlines():
                problems.append(f"missing contrast line {line!r}")
        if with_reference:
            problems.extend(_reference_problems(workload, out_dir))
        res["digest"] = output_digest(out_dir)
    ledger.record("run", problems)
    expected = len(cfg.get("cases", [None])) * len(cfg["stages"]) * cfg["replicates"]
    converged = res.get("converged", [])
    for k in range(expected):
        ledger.record(f"profile {k}", [] if k < len(converged) and converged[k] else ["not converged"])


def check_certify(ledger: Ledger, res: dict, run_out: Path, cert_out: Path):
    """`edslab certify` must exit 0 and repeat the certificates of `run`."""
    problems = []
    if "error" in res:
        problems.append(res["error"])
    elif res["rc"] != 0:
        problems.append(f"exit code {res['rc']}")
    else:
        for path in sorted(run_out.glob("certificate*.txt")):
            other = cert_out / path.name
            if not other.is_file() or other.read_bytes() != path.read_bytes():
                problems.append(f"{path.name} differs from the run's")
    ledger.record("certify", problems)


def check_determinism(ledger: Ledger, results: list):
    """Every later run must write the CSVs of the first, byte for byte."""
    digests = [res["digest"] for res in results if "digest" in res]
    for k, digest in enumerate(digests[1:], start=1):
        ledger.record(f"run {k} vs run 0 CSVs", [] if digest == digests[0] else ["CSV bytes differ"])


# ---------------------------------------------------------------------------
# environment


def environment(versions: dict) -> dict:
    info = {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "git_commit": None,
    }
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if proc.returncode == 0:
            info["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "edslab").glob("*.py"))


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, cfg, config_path, work, seconds, worker, ledger, with_reference) -> dict:
    setups = []
    for k in range(SETUP_SAMPLES):
        res = worker("setup", config_path, work / f"setup{k}")
        ledger.record("setup", [res["error"]] if "error" in res else [])
        if "setup_s" in res:
            setups.append(res["setup_s"])
    runs, certifies = [], []
    start = time.monotonic()
    while True:
        pair_start = time.monotonic()
        k = len(runs)
        run_out, cert_out = work / f"run{k}", work / f"certify{k}"
        runs.append(worker("run", config_path, run_out))
        check_run(ledger, runs[-1], workload, cfg, run_out, with_reference)
        certifies.append(worker("certify", config_path, cert_out))
        check_certify(ledger, certifies[-1], run_out, cert_out)
        now = time.monotonic()
        pair = now - pair_start
        if now + pair > worker.deadline or (len(runs) >= 2 and now - start + pair > seconds):
            break
    check_determinism(ledger, runs)
    samples = {
        "setup_s": setups,
        "run_s": [r["run_s"] for r in runs if "run_s" in r],
        "run_cpu_s": [r["run_cpu_s"] for r in runs if "run_cpu_s" in r],
        "certify_s": [r["certify_s"] for r in certifies if "certify_s" in r],
        "certify_cpu_s": [r["certify_cpu_s"] for r in certifies if "certify_cpu_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs if "peak_rss_mb" in r],
        "newton_iters": [r["newton_iters"] for r in runs if "newton_iters" in r],
    }
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END_UNITS if samples[name]}
    return metrics, samples


def _loglog_slope(ns, ts) -> float:
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(t, 1e-9)) for t in ts]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(workload, cfg, config_path, work, worker, ledger, with_reference, trace_file) -> tuple:
    plain_out, traced_out = work / "run_untraced", work / "run_traced"
    plain = worker("run", config_path, plain_out)
    check_run(ledger, plain, workload, cfg, plain_out, with_reference)
    traced = worker("traced", config_path, traced_out)
    check_run(ledger, traced, workload, cfg, traced_out, with_reference)
    check_determinism(ledger, [plain, traced])
    if any("error" in res or res["rc"] != 0 for res in (plain, traced)):
        return {}, {}
    spans = traced["spans"]
    trace_file.write_text(json.dumps({"fields": ["name", "site", "start", "end", "parent"], "spans": spans}))
    metrics = tracer.summarize(spans, traced["counts"], traced["newton_iters"], traced["converged"])
    metrics.update(traced["memory"])
    probe = traced["probe"]
    metrics["kkt.solve_exp"] = _loglog_slope(probe["N"], probe["solve"])
    for key in ("licq", "sosc", "mixed_norm"):
        metrics[f"certify.{key}_exp"] = _loglog_slope(probe["N"], probe[key])
    metrics["report.bytes"] = sum(p.stat().st_size for p in traced_out.iterdir() if p.is_file())
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    metrics["repo.src_lines"] = src_lines()
    extra = {
        "untraced_run_s": plain["run_s"],
        "self_s_sum": sum(tracer.self_times(spans)),
        "probe": probe,
        "counts": traced["counts"],
    }
    return metrics, extra


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark invocation; returns the full result record."""
    deadline = time.monotonic() + DEADLINE_S
    cfg = workloads.config(workload, seed, tiny=tiny)
    tag = f"{workload}{'-tiny' if tiny else ''}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    worker = Worker(deadline)
    ledger = Ledger()
    with_reference = seed == 0 and not tiny
    try:
        if trace:
            trace_file = OUT / f"spans-{tag}.json"
            metrics, extra = per_layer(workload, cfg, config_path, work, worker, ledger, with_reference, trace_file)
            units = PER_LAYER_UNITS
        else:
            metrics, extra = end_to_end(workload, cfg, config_path, work, seconds, worker, ledger, with_reference)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [name for name in units if name not in metrics]
    ledger.record("metrics", [f"not measured: {', '.join(missing)}"] if missing else [])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "environment": environment(worker.versions),
        "informational": {
            "repo.src_lines": src_lines(),
            "kkt.newton_iters": metrics.get("kkt.newton_iters", (extra.get("newton_iters") or [None])[0]),
        },
        "config": cfg,
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "failures": ledger.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
        "detail": extra,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "edslab" / "cli.py").is_file():
        print(f"error: no edslab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(env, sort_keys=True))
    print("# " + json.dumps(record["informational"], sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
