"""One measurement in a fresh process; the benchmark's parent starts it.

    python3 worker.py MODE CONFIG OUT_DIR

MODE is one of
  setup    time `import edslab`, loading the config and `build_model` for
           every case, counted from the start of this script;
  run      time `edslab run` after imports, and the process's peak RSS;
  certify  time `edslab certify` after imports;
  traced   `edslab run` with the tracer installed, then a tracemalloc pass
           over one base solve and one certificate report, then the
           horizon-scaling probe.
The last line of standard output is one JSON object with the measurements.
edslab's own standard output is captured into its `stdout` field.
"""
import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cases(cfg):
    for _, overrides in cfg.cases:
        params = dict(cfg.params)
        params.update(overrides)
        yield params


def setup(config_path, out_dir):
    import edslab  # noqa: F401
    from edslab.cli import load_config
    from edslab.models import build_model

    cfg = load_config(config_path)
    for params in _cases(cfg):
        build_model(cfg.model, params)
    return {"setup_s": time.perf_counter() - _T0}


def _timed_cli(command, config_path, out_dir):
    from edslab import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        start, cpu_start = time.perf_counter(), time.process_time()
        rc = cli.main([command, "--config", config_path, "--out", out_dir])
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return rc, elapsed, cpu, captured.getvalue()


def run(config_path, out_dir):
    from edslab import cli, eds

    # pass-through hooks for what no output file records: each profile's
    # convergence flag and the Newton iterations of every solve; they add a
    # few hundred plain calls to a run
    kept = {"converged": [], "newton_iters": 0}

    def keep_profiles(profiles):
        kept["converged"].extend(p.converged for p in profiles)

    def keep_iterations(result):
        kept["newton_iters"] += result.iterations

    for owner, attr, keep in (
        (cli, "run_experiments", keep_profiles),
        (cli, "solve_equality_nlp", keep_iterations),
        (eds, "solve_equality_nlp", keep_iterations),
    ):
        setattr(owner, attr, _passthrough(getattr(owner, attr), keep))
    rc, elapsed, cpu, stdout = _timed_cli("run", config_path, out_dir)
    return {
        "rc": rc,
        "run_s": elapsed,
        "run_cpu_s": cpu,
        "stdout": stdout,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **kept,
    }


def _passthrough(fn, keep):
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        keep(out)
        return out

    return call


def certify(config_path, out_dir):
    rc, elapsed, cpu, stdout = _timed_cli("certify", config_path, out_dir)
    return {"rc": rc, "certify_s": elapsed, "certify_cpu_s": cpu, "stdout": stdout}


def _memory_pass(cfg, params):
    """tracemalloc peaks, in MiB, of one base solve and of one certificate
    report on the given case; run untimed, after the traced run."""
    import tracemalloc

    from edslab.certify import build_report
    from edslab.kkt import solve_equality_nlp
    from edslab.models import build_model

    bundle = build_model(cfg.model, params)
    p, data = bundle.problem, bundle.base_data
    tracemalloc.start()
    try:
        base = solve_equality_nlp(p, data, w0=bundle.warm_start, opts=cfg.solver)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        build_report(p, base.trajectory, data, cfg.window_ctrl, cfg.window_obs)
        report_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    return {"kkt.solve_peak_mb": solve_peak / 2**20, "certify.peak_mb": report_peak / 2**20}


def _probe(cfg, params):
    """Seconds of the base solve and of each dense certificate at horizons
    N/4, N/2 and N of the given case."""
    from edslab.certify import licq_modulus, mixed_hessian_norm, sosc_modulus
    from edslab.kkt import assemble_hessian, assemble_jacobian, linearize, solve_equality_nlp
    from edslab.models import build_model

    N = int(params["N"])
    out = {"N": [], "solve": [], "licq": [], "sosc": [], "mixed_norm": []}
    for n in (N // 4, N // 2, N):
        bundle = build_model(cfg.model, {**params, "N": n})
        p, data = bundle.problem, bundle.base_data
        start = time.perf_counter()
        base = solve_equality_nlp(p, data, w0=bundle.warm_start, opts=cfg.solver)
        solve_s = time.perf_counter() - start
        blocks = linearize(p, base.trajectory, data)
        J, H = assemble_jacobian(blocks), assemble_hessian(blocks)
        timings = {}
        for key, fn, args in (
            ("licq", licq_modulus, (J,)),
            ("sosc", sosc_modulus, (H, J)),
            ("mixed_norm", mixed_hessian_norm, (blocks,)),
        ):
            start = time.perf_counter()
            fn(*args)
            timings[key] = time.perf_counter() - start
        out["N"].append(n)
        out["solve"].append(solve_s)
        for key, value in timings.items():
            out[key].append(value)
    return out


def traced(config_path, out_dir):
    from edslab.cli import load_config
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc, elapsed, _, stdout = _timed_cli("run", config_path, out_dir)
    finally:
        tracer.uninstall()
    cfg = load_config(config_path)
    params = next(_cases(cfg))
    return {
        "rc": rc,
        "run_s": elapsed,
        "stdout": stdout,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "newton_iters": tracer.newton_iters,
        "converged": [p.converged for p in tracer.profiles],
        "memory": _memory_pass(cfg, params),
        "probe": _probe(cfg, params),
    }


MODES = {"setup": setup, "run": run, "certify": certify, "traced": traced}


def main(argv):
    mode, config_path, out_dir = argv
    result = MODES[mode](config_path, out_dir)
    import edslab
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["edslab_file"] = edslab.__file__
    result["versions"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
